"""Rolling-origin (backtesting) evaluation.

The paper scores one hold-out split; a production user wants error
estimates that don't hinge on a single test window.  Rolling-origin
evaluation re-forecasts from successively later origins and aggregates the
per-window errors — the standard backtest for small series.

Passing ``engine=`` routes MultiCast windows through the serving layer:
windows run concurrently on the engine's request pool, and re-running the
same backtest (e.g. while comparing aggregation settings elsewhere, or from
a dashboard refresh loop) answers repeated windows from the engine's
content-addressed cache instead of regenerating them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import ForecastSpec
from repro.data import Dataset
from repro.evaluation.protocol import run_method
from repro.exceptions import ConfigError, DataError
from repro.metrics import rmse

__all__ = ["BacktestResult", "rolling_origin_evaluation"]

#: Methods the serving engine can execute (it wraps MultiCastForecaster).
_ENGINE_METHODS = ("multicast-di", "multicast-vi", "multicast-vc", "multicast-bi")


@dataclass
class BacktestResult:
    """Aggregated rolling-origin errors for one method on one dataset."""

    method: str
    dataset: str
    dim_names: tuple[str, ...]
    origins: list[int]
    window_rmse: list[dict[str, float]] = field(default_factory=list)

    @property
    def num_windows(self) -> int:
        return len(self.origins)

    def mean_rmse(self) -> dict[str, float]:
        """Per-dimension RMSE averaged over windows."""
        if not self.window_rmse:
            raise DataError("backtest collected no windows")
        return {
            name: float(np.mean([w[name] for w in self.window_rmse]))
            for name in self.dim_names
        }

    def std_rmse(self) -> dict[str, float]:
        """Per-dimension RMSE standard deviation over windows."""
        if not self.window_rmse:
            raise DataError("backtest collected no windows")
        return {
            name: float(np.std([w[name] for w in self.window_rmse]))
            for name in self.dim_names
        }


def rolling_origin_evaluation(
    method: str,
    dataset: Dataset,
    horizon: int,
    num_windows: int = 3,
    stride: int | None = None,
    min_history: int | None = None,
    seed: int = 0,
    engine=None,
    state_cache=None,
    spec: ForecastSpec | None = None,
    **options,
) -> BacktestResult:
    """Evaluate ``method`` at ``num_windows`` successive forecast origins.

    The last window's origin is ``n - horizon``; earlier windows step back
    by ``stride`` (default: ``horizon``, non-overlapping test windows).
    Every window must leave at least ``min_history`` (default: half the
    series) points of history.

    ``spec`` is a template :class:`~repro.core.spec.ForecastSpec` carrying
    the pipeline settings for MultiCast methods (its ``series``, ``horizon``
    and ``seed`` are filled in per window; its ``scheme`` is taken from
    ``method``); it defaults to ``ForecastSpec()``.  Loose keyword
    ``options`` apply to the baseline methods only — passing them for a
    MultiCast method raises :class:`~repro.exceptions.ConfigError`.

    ``engine`` (a :class:`~repro.serving.ForecastEngine`) is honoured for
    MultiCast methods: all windows are submitted at once and served
    concurrently, with results memoized in the engine's cache.  Other
    methods ignore it and run sequentially as before.

    ``state_cache`` (an :class:`~repro.llm.state_cache.IngestStateCache`)
    is honoured for sequential MultiCast windows: because origins ascend
    and each window's prompt extends the previous one's, window ``k+1``
    forks window ``k``'s cached ingest state and advances only the new
    suffix — O(Δ) instead of O(n) prefill per window.  Engine-served
    backtests use the engine's own ingest cache instead.
    """
    is_multicast = method in _ENGINE_METHODS
    if spec is not None and not is_multicast:
        raise ConfigError(
            f"spec= applies only to MultiCast methods, not {method!r}"
        )
    if is_multicast:
        if options:
            raise ConfigError(
                f"loose pipeline options {sorted(options)} were removed in "
                f"2.0; pass them in a template spec=ForecastSpec(...)"
            )
        spec = ForecastSpec() if spec is None else spec
        bound = [
            name for name in ("series", "horizon")
            if getattr(spec, name) is not None
        ]
        if bound:
            raise ConfigError(
                f"spec= must be a template ForecastSpec — the backtest "
                f"fills in the per-window series, horizon and seed itself, "
                f"but this spec already binds {bound}; rebuild it without "
                f"those fields (or spec.replace("
                + ", ".join(f"{name}=None" for name in bound)
                + "))"
            )
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if num_windows < 1:
        raise ConfigError(f"num_windows must be >= 1, got {num_windows}")
    stride = horizon if stride is None else stride
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    n = dataset.num_timestamps
    min_history = n // 2 if min_history is None else min_history

    origins = [n - horizon - k * stride for k in range(num_windows)][::-1]
    if origins[0] < min_history:
        raise ConfigError(
            f"{num_windows} windows of horizon {horizon} (stride {stride}) "
            f"leave only {origins[0]} history points (< {min_history})"
        )

    result = BacktestResult(
        method=method,
        dataset=dataset.name,
        dim_names=dataset.dim_names,
        origins=origins,
    )
    if is_multicast:
        forecasts = _run_windows_from_spec(
            spec, method, dataset, origins, horizon, seed, engine, state_cache
        )
    else:
        forecasts = []
        for window_index, origin in enumerate(origins):
            history = np.asarray(dataset.values[:origin])
            output = run_method(
                method, history, horizon, seed=seed + window_index, **options
            )
            forecasts.append(
                output if isinstance(output, np.ndarray) else output.values
            )
    for origin, forecast in zip(origins, forecasts):
        actual = np.asarray(dataset.values[origin : origin + horizon])
        result.window_rmse.append(
            {
                name: rmse(actual[:, k], forecast[:, k])
                for k, name in enumerate(dataset.dim_names)
            }
        )
    return result


def _run_windows_from_spec(
    spec, method, dataset, origins, horizon, seed, engine, state_cache
):
    """Run every backtest window from one template spec.

    Windows keep the per-window seed protocol (``seed + window_index``)
    and take their scheme from ``method``.  With an ``engine`` all windows
    are submitted at once and served concurrently (and repeated runs hit
    its result cache); otherwise they run in order on one forecaster.
    """
    from repro.core import MultiCastForecaster
    from repro.serving import ForecastRequest

    scheme = method.split("-", 1)[1]
    window_specs = [
        spec.replace(
            series=np.asarray(dataset.values[:origin]),
            horizon=horizon,
            seed=seed + window_index,
            scheme=scheme,
        )
        for window_index, origin in enumerate(origins)
    ]
    if engine is not None:
        responses = engine.forecast_batch(
            ForecastRequest.from_spec(
                window_spec, name=f"{dataset.name}@{origin}"
            )
            for window_spec, origin in zip(window_specs, origins)
        )
        return [response.values for response in responses]
    forecaster = MultiCastForecaster(state_cache=state_cache)
    return [
        forecaster.forecast(window_spec).values for window_spec in window_specs
    ]
