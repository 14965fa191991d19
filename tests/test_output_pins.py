"""Output-hash pins over a mixed grid of forecast specs.

Each case crosses a model preset, a multiplexing scheme, the raw or SAX
codec, a prompt strategy and one of the two lockstep executions
(``batched``/``continuous``).  The digests were recorded before the
per-draw execution paths were deleted; any change to the sampled bytes —
values, samples or token counts — fails here, so refactors of the decode
path must stay bit-identical under unchanged seeds.
"""

import hashlib

import numpy as np
import pytest

from repro.core import ForecastSpec, MultiCastForecaster, SaxConfig

_MODELS = (
    "llama2-7b-sim",
    "phi2-2.7b-sim",
    "ctw-sim",
    "ppm-recency-sim",
    "ngram-sim",
    "uniform-sim",
)
_SCHEMES = ("di", "vi", "vc", "bi")
_STRATEGIES = ("default", "digit", "sax", "patch", "decompose", "auto")
_EXECUTIONS = ("batched", "continuous")
_SAX = {"segment_length": 3, "alphabet_size": 5}


def _cases() -> list[tuple[str, str, bool, str, str, int]]:
    """48 deterministic (model, scheme, sax, strategy, execution, seed) cases."""
    cases = []
    for i in range(48):
        cases.append(
            (
                _MODELS[i % len(_MODELS)],
                _SCHEMES[(i // 2) % len(_SCHEMES)],
                i % 3 == 0,
                _STRATEGIES[(i // 3) % len(_STRATEGIES)],
                _EXECUTIONS[(i // 4) % len(_EXECUTIONS)],
                i,
            )
        )
    return cases


def _history(seed: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + seed)
    t = np.arange(60, dtype=float)
    season = np.sin(2 * np.pi * t / 12.0)[:, None]
    return season * [3.0, 1.5] + np.cumsum(rng.standard_normal((60, 2)), axis=0)


def _digest(case) -> str:
    model, scheme, sax, strategy, execution, seed = case
    spec = ForecastSpec(
        series=_history(seed),
        horizon=6,
        scheme=scheme,
        model=model,
        num_samples=3,
        sax=SaxConfig(**_SAX) if sax else None,
        strategy=strategy,
        seed=seed,
        execution=execution,
    )
    output = MultiCastForecaster().forecast(spec)
    payload = (
        output.values.tobytes()
        + output.samples.tobytes()
        + f"{output.prompt_tokens}:{output.generated_tokens}".encode()
    )
    return hashlib.sha256(payload).hexdigest()[:16]


_PINNED: dict[int, str] = {
    0: "b54753becc966bf2",
    1: "821e6b61849dc094",
    2: "ea98d0c539c023fa",
    3: "8096053b370b20ac",
    4: "9a570a75927e31de",
    5: "93b64ac21fed2bc6",
    6: "0b58a1a65032c332",
    7: "e3e845d242742d93",
    8: "c4e80741564c8d67",
    9: "0aac96b156f30b5d",
    10: "3b1466dd15f5ff53",
    11: "f6816026c66e5d9e",
    12: "1624e225215e8654",
    13: "c620073d7235c54e",
    14: "2e050d06bdb340c2",
    15: "c9c188e04bb46692",
    16: "c5001b9cebbb5962",
    17: "4d8ed2e47ff09907",
    18: "79cc9bf9a84165d8",
    19: "6b772a1caa975c32",
    20: "54b42c84ec11fc48",
    21: "e8d80121dc9a1090",
    22: "4469f26944393d06",
    23: "477916c8ccdca3dd",
    24: "815404d777f1bb1b",
    25: "e11058e62a294e7c",
    26: "0c01982c28a937bc",
    27: "e2c7130fb2ec7e5b",
    28: "49ce27dcf7e29396",
    29: "befed6403e54384b",
    30: "2fb8faa495234b6b",
    31: "a139e72467211aa8",
    32: "5160b5399d9756f5",
    33: "346d9e634f68ff59",
    34: "e0a396b828c78da5",
    35: "2bcf71b28d272406",
    36: "86668d9a11000309",
    37: "7f62388b1f1c6a90",
    38: "2ff65585de6b9b7f",
    39: "d284005529ff36d0",
    40: "e22b56210b2b5f96",
    41: "707d4b7061d6ffe9",
    42: "e0f45e2b0a88b0e5",
    43: "3c33b9746ec54fbd",
    44: "a5be519e03ca3b10",
    45: "2c2b61fa0e289df0",
    46: "f4f06129d1f3c888",
    47: "97e43f02f2271779",
}


@pytest.mark.parametrize("case", _cases(), ids=lambda c: "-".join(map(str, c)))
def test_output_bytes_are_pinned(case):
    assert _digest(case) == _PINNED[case[-1]]


def test_grid_covers_every_axis():
    cases = _cases()
    assert len(cases) >= 40
    for axis, values in enumerate(
        (_MODELS, _SCHEMES, (False, True), _STRATEGIES, _EXECUTIONS)
    ):
        assert {case[axis] for case in cases} == set(values)
