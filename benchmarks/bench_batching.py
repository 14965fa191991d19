"""Batched-decoding bench: lockstep ensembles against the per-stream reference.

A forecast draws S continuations of the same prompt.  ``execution="batched"``
drives all S streams through one :class:`~repro.llm.batch.BatchedDecoder` —
streams with equal generated prefixes share one model state, so each decode
step scores only the *distinct* states (one vectorised
``next_distribution_batch`` call) and forks a group only when sampled tokens
actually diverge.  The reference it must equal is the single-stream
:meth:`~repro.llm.simulated.SimulatedLLM.generate` call, run once per
stream with the same seed-derived generator; the bench times that reference
too, so ``speedup_vs_per_stream`` shows what lockstep decoding saves.

The workload is the regime batching targets: a strongly periodic series,
where the PPM substrate's longest-suffix predictions are peaked and the
batch stays collapsed into a handful of groups for the whole decode (the
``mean_groups`` column).  The step-occupancy and group-count curves in the
report show the schedule directly: occupancy stays at S until streams
retire, groups grow only as sampled tokens split the ensemble.

Run standalone to (re)generate ``BENCH_batching.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_batching.py

``--smoke`` runs the single acceptance case (S=20 on the PPM substrate),
asserts the batched tokens and log-probs equal the per-stream reference and
that the occupancy curve never increases, and skips the JSON write — the CI
entry point.  Through pytest (``pytest benchmarks/bench_batching.py``) the
same checks run over every ensemble size.
"""

from __future__ import annotations

import contextlib
import copy
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ForecastSpec, MultiCastForecaster
from repro.llm.simulated import SimulatedLLM

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_batching.json"

PRESET = "llama2-7b-sim"  # the PPM substrate
HISTORY_LENGTH = 120
HORIZON = 24  # decode-heavy: generated tokens outweigh the prompt ingest
TEMPERATURE = 0.3
ENSEMBLE_SIZES = (5, 10, 20)
REPEATS = 2  # best-of, to keep scheduler noise out of the ratios


def _history(n: int = HISTORY_LENGTH) -> np.ndarray:
    """A clean two-dimensional periodic series (period 12)."""
    t = np.arange(n)
    return np.column_stack(
        [np.sin(2 * np.pi * t / 12.0), np.cos(2 * np.pi * t / 12.0)]
    )


def _spec(num_samples: int) -> ForecastSpec:
    return ForecastSpec(
        series=_history(),
        horizon=HORIZON,
        scheme="di",
        num_samples=num_samples,
        model=PRESET,
        temperature=TEMPERATURE,
        seed=0,
    )


@contextlib.contextmanager
def _recorded_batch_call():
    """Record the arguments of the forecast's one ``generate_batch`` call.

    The generators are copied before decoding consumes them, so the
    per-stream reference can replay each stream from the same state.
    """
    calls = []
    original = SimulatedLLM.generate_batch

    def recording(llm, context, max_new_tokens, rngs, **kwargs):
        calls.append(
            {
                "llm": llm,
                "context": list(context),
                "max_new_tokens": max_new_tokens,
                "rngs": copy.deepcopy(list(rngs)),
                "constraint": kwargs.get("constraint"),
                "temperature": kwargs.get("temperature"),
                "session": kwargs.get("session"),
            }
        )
        decoder = original(llm, context, max_new_tokens, rngs, **kwargs)
        calls[-1]["results"] = decoder.results
        return decoder

    SimulatedLLM.generate_batch = recording
    try:
        yield calls
    finally:
        SimulatedLLM.generate_batch = original


def _per_stream_reference(call: dict) -> tuple[list, float]:
    """Decode every stream on its own through ``SimulatedLLM.generate``."""
    start = time.perf_counter()
    results = [
        call["llm"].generate(
            call["context"],
            call["max_new_tokens"],
            copy.deepcopy(rng),
            constraint=call["constraint"],
            temperature=call["temperature"],
            session=call["session"],
        )
        for rng in call["rngs"]
    ]
    return results, time.perf_counter() - start


def measure_executions(ensemble_sizes=ENSEMBLE_SIZES) -> dict:
    """Batched forecast wall time and its per-stream reference, per size."""
    report: dict = {}
    for num_samples in ensemble_sizes:
        spec = _spec(num_samples)
        best = float("inf")
        for _ in range(REPEATS):
            with _recorded_batch_call() as calls:
                start = time.perf_counter()
                output = MultiCastForecaster().forecast(spec)
                best = min(best, time.perf_counter() - start)
        (call,) = calls
        reference, per_stream = _per_stream_reference(call)
        occupancy = output.metadata["batch_occupancy"]
        groups = output.metadata["batch_groups"]
        report[str(num_samples)] = {
            "prompt_tokens": output.prompt_tokens,
            "generated_tokens": output.generated_tokens,
            "seconds": {"batched": best, "per_stream_decode": per_stream},
            "speedup_vs_per_stream": per_stream / best,
            "matches_per_stream_reference": all(
                got.tokens == want.tokens and got.log_probs == want.log_probs
                for got, want in zip(call["results"], reference)
            ),
            "steps": len(occupancy),
            "mean_occupancy": float(np.mean(occupancy)),
            "mean_groups": float(np.mean(groups)),
            "occupancy_curve": occupancy,
            "group_curve": groups,
        }
    return report


def _check(case: dict) -> None:
    assert case["matches_per_stream_reference"], (
        "batched decoding must equal the per-stream generate reference"
    )
    # The schedule is monotone: streams only retire, never rejoin …
    assert case["occupancy_curve"] == sorted(case["occupancy_curve"], reverse=True)
    # … and there are never more model states than live streams.
    assert all(
        g <= o for g, o in zip(case["group_curve"], case["occupancy_curve"])
    )


def run() -> dict:
    report = {
        "workload": {
            "preset": PRESET,
            "history_length": HISTORY_LENGTH,
            "horizon": HORIZON,
            "temperature": TEMPERATURE,
        },
        "executions": measure_executions(),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def smoke() -> None:
    """CI entry point: the one acceptance case, asserted, nothing written."""
    case = measure_executions(ensemble_sizes=(20,))["20"]
    print(
        f"{PRESET} @ S=20: batched forecast {case['seconds']['batched']:.3f}s, "
        f"per-stream decode {case['seconds']['per_stream_decode']:.3f}s, "
        f"mean groups {case['mean_groups']:.2f}, "
        f"matches reference {case['matches_per_stream_reference']}"
    )
    _check(case)


def test_batching_bench(emit):
    report = run()
    lines = [
        f"batched decoding on {PRESET} "
        f"(history {HISTORY_LENGTH}, horizon {HORIZON}):"
    ]
    for num_samples, case in report["executions"].items():
        seconds = case["seconds"]
        lines.append(
            f"  S={num_samples:>2}  batched {seconds['batched']:6.3f} s  "
            f"per-stream decode {seconds['per_stream_decode']:6.3f} s  "
            f"speedup {case['speedup_vs_per_stream']:5.2f}x  "
            f"groups {case['mean_groups']:5.2f}/{case['mean_occupancy']:5.2f}"
        )
    curve = report["executions"]["20"]["occupancy_curve"]
    lines.append(
        "  occupancy S=20: "
        + " ".join(str(curve[i]) for i in range(0, len(curve), len(curve) // 12))
    )
    emit("batching", "\n".join(lines))
    for case in report["executions"].values():
        _check(case)


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(run(), indent=2))
        print(f"wrote {BENCH_PATH}")
