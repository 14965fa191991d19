"""Seeded request inputs for the benchmark workloads.

Everything the program receives is a :class:`~repro.core.ForecastSpec`
built here from the workload seed alone: the same seed (and run length)
gives byte-identical histories, request order and tenants.  Each item
also carries the series' held-out continuation, which the program never
sees, so forecast error can be scored against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ForecastSpec

#: Tenants of the multi-tenant workload, assigned round robin.
TENANTS = ("alpha", "beta", "gamma")
#: Seasonal periods, cycled over the series of a workload.
PERIODS = tuple(range(8, 17))


@dataclass(frozen=True)
class Item:
    """One request of a workload: the spec sent and the truth it is scored on."""

    spec: ForecastSpec
    actual: np.ndarray
    tenant: str = "default"


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator ``stream`` of workload ``seed``."""
    return np.random.default_rng([int(seed), stream])


def _warmup_rng() -> np.random.Generator:
    """The warm-up specs' generator: a stream no workload draws from.

    It is the same for every seed, so ``setup_s`` does not vary with it.
    """
    return _rng(0, 1)


def _series(
    rng: np.random.Generator, length: int, index: int, slope: float = 0.0
) -> np.ndarray:
    """Series ``index`` of a workload: ``(length, 2)``, level + ``slope``
    trend + one seasonality per dimension + noise.

    Amplitude, noise level and the seasonal periods (cycled by ``index``)
    are fixed; the seed draws only phases and noise, so every seed poses
    problems of the same difficulty.
    """
    t = np.arange(length, dtype=float)
    columns = []
    for period in (PERIODS[index % len(PERIODS)], PERIODS[(index + 4) % len(PERIODS)]):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        columns.append(
            10.0
            + slope * t
            + np.sin(2.0 * np.pi * t / period + phase)
            + rng.normal(0.0, 0.1, size=length)
        )
    return np.column_stack(columns)


def _split(series: np.ndarray, horizon: int, **spec_fields) -> tuple:
    """The spec over all but the last ``horizon`` points, and those points."""
    history, actual = series[:-horizon], series[-horizon:]
    return ForecastSpec(series=history, horizon=horizon, **spec_fields), actual


def _item(rng, index, length_range, horizon, **spec_fields) -> Item:
    """Series ``index`` with a history length drawn from ``length_range``."""
    length = int(rng.integers(*length_range))
    spec, actual = _split(
        _series(rng, length + horizon, index),
        horizon,
        seed=int(rng.integers(0, 2**31 - 1)),
        **spec_fields,
    )
    return Item(spec, actual)


# -- serve_miss ---------------------------------------------------------------

MISS_FIELDS = dict(scheme="di", num_samples=5, model="llama2-7b-sim")
MISS_LENGTHS = (88, 105)  # history length drawn per request (~96)
MISS_HORIZON = 12


def miss_items(seed: int, count: int) -> list[Item]:
    """``count`` distinct 2-d histories on llama2-7b-sim: every request misses."""
    rng = _rng(seed, 0)
    return [
        _item(rng, index, MISS_LENGTHS, MISS_HORIZON, **MISS_FIELDS)
        for index in range(count)
    ]


def miss_warmup() -> Item:
    """A spec shaped like the workload's but outside it (set-up phase)."""
    return _item(_warmup_rng(), 0, MISS_LENGTHS, MISS_HORIZON, **MISS_FIELDS)


# -- serve_hot_sharded --------------------------------------------------------

HOT_FIELDS = dict(scheme="vi", num_samples=2, model="uniform-sim")
HOT_LENGTHS = (56, 73)  # ~64 points
HOT_HORIZON = 3
HOT_SHAPES = 50


def hot_items(seed: int, count: int) -> list[Item]:
    """``count`` arrivals drawn from 50 repeating shapes, 3 tenants round robin.

    Repeated shapes share one :class:`Item` (and so one spec object), which
    lets scoring count each distinct shape once.
    """
    rng = _rng(seed, 0)
    shapes = [
        _item(rng, index, HOT_LENGTHS, HOT_HORIZON, **HOT_FIELDS)
        for index in range(HOT_SHAPES)
    ]
    picks = rng.integers(0, HOT_SHAPES, size=count)
    return [
        Item(shapes[pick].spec, shapes[pick].actual, TENANTS[arrival % len(TENANTS)])
        for arrival, pick in enumerate(picks)
    ]


def hot_warmup() -> Item:
    """A spec shaped like the workload's but outside it (set-up phase)."""
    return _item(_warmup_rng(), 0, HOT_LENGTHS, HOT_HORIZON, **HOT_FIELDS)


# -- backtest_prefix ----------------------------------------------------------

BACKTEST_FIELDS = dict(
    scheme="di", num_samples=2, model="llama2-7b-sim", execution="continuous"
)
BACKTEST_SERIES = 16
BACKTEST_WINDOWS = 4
BACKTEST_LENGTHS = (360, 393)  # points before the first origin
BACKTEST_HORIZON = 4
BACKTEST_SLOPE = 0.02  # trend of every other series: it sets new extremes,
# which re-scale the prompt, so those windows miss the prefill cache


def backtest_items(seed: int) -> list[Item]:
    """Rolling-origin windows over a few long series, window-major order.

    Window ``k+1`` of a series is window ``k``'s history extended by one
    horizon, so its prompt extends the previous one's cached prefill state
    unless the new points set a new extreme and re-scale the prompt.  Half
    the series trend (and miss often), half do not (and mostly extend).
    Windows keep the backtest protocol's per-window seed.
    """
    rng = _rng(seed, 0)
    step = BACKTEST_HORIZON
    panel = []
    for index in range(BACKTEST_SERIES):
        first_origin = int(rng.integers(*BACKTEST_LENGTHS))
        slope = BACKTEST_SLOPE if index % 2 else 0.0
        series = _series(rng, first_origin + BACKTEST_WINDOWS * step, index, slope)
        base_seed = int(rng.integers(0, 2**31 - 1))
        panel.append((series, first_origin, base_seed))
    items = []
    for window in range(BACKTEST_WINDOWS):
        for series, first_origin, base_seed in panel:
            origin = first_origin + window * step
            spec, actual = _split(
                series[: origin + step],
                step,
                seed=base_seed + window,
                **BACKTEST_FIELDS,
            )
            items.append(Item(spec, actual))
    return items


def backtest_warmup() -> Item:
    """A spec shaped like the workload's but outside it (set-up phase)."""
    return _item(
        _warmup_rng(),
        0,
        BACKTEST_LENGTHS,
        BACKTEST_HORIZON,
        **BACKTEST_FIELDS,
    )
