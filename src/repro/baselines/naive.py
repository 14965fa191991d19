"""Reference forecasters: naive, seasonal naive, and drift.

These are not in the paper's competitor list but serve as sanity anchors for
the test-suite and the ablation benches — any method that loses to the naive
forecast on a strongly-patterned series has a bug.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import BaseEstimator
from repro.exceptions import DataError, FittingError

__all__ = [
    "naive_forecast",
    "seasonal_naive_forecast",
    "drift_forecast",
    "NaiveForecaster",
    "SeasonalNaiveForecaster",
    "DriftForecaster",
]


def _validated_history(history: np.ndarray) -> np.ndarray:
    arr = np.asarray(history, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise DataError(f"expected a non-empty (n, d) history, got {arr.shape}")
    return arr


def naive_forecast(history: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last observed value vector for ``horizon`` steps."""
    arr = _validated_history(history)
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    return np.tile(arr[-1], (horizon, 1))


def seasonal_naive_forecast(
    history: np.ndarray, horizon: int, period: int
) -> np.ndarray:
    """Repeat the last full season of each dimension."""
    arr = _validated_history(history)
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    if not 1 <= period <= arr.shape[0]:
        raise DataError(
            f"period must be in [1, {arr.shape[0]}], got {period}"
        )
    season = arr[-period:]
    repeats = -(-horizon // period)
    return np.tile(season, (repeats, 1))[:horizon]


def drift_forecast(history: np.ndarray, horizon: int) -> np.ndarray:
    """Extrapolate the straight line from the first to the last observation."""
    arr = _validated_history(history)
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    if arr.shape[0] < 2:
        raise DataError("drift needs at least two observations")
    slope = (arr[-1] - arr[0]) / (arr.shape[0] - 1)
    steps = np.arange(1, horizon + 1)[:, None]
    return arr[-1][None, :] + steps * slope[None, :]


class _StoredHistoryEstimator(BaseEstimator):
    """Shared fit/state plumbing for the stateless reference forecasters."""

    _history: np.ndarray | None = None

    def fit(self, history) -> "_StoredHistoryEstimator":
        """Validate and store the history; these models have no training."""
        self._history = _validated_history(history)
        return self

    def _require_fitted(self) -> np.ndarray:
        if self._history is None:
            raise FittingError(f"{type(self).__name__} used before fit()")
        return self._history


class NaiveForecaster(_StoredHistoryEstimator):
    """Estimator wrapper around :func:`naive_forecast`."""

    def predict(self, horizon: int) -> np.ndarray:
        """Repeat the last observed value vector for ``horizon`` steps."""
        return naive_forecast(self._require_fitted(), horizon)


class SeasonalNaiveForecaster(_StoredHistoryEstimator):
    """Estimator wrapper around :func:`seasonal_naive_forecast`."""

    _TEST_PARAMS = ({"period": 2},)

    def __init__(self, *, period: int) -> None:
        if period < 1:
            raise DataError(f"period must be >= 1, got {period}")
        self.period = int(period)

    def predict(self, horizon: int) -> np.ndarray:
        """Repeat the last full season of each dimension."""
        return seasonal_naive_forecast(
            self._require_fitted(), horizon, self.period
        )


class DriftForecaster(_StoredHistoryEstimator):
    """Estimator wrapper around :func:`drift_forecast`."""

    def predict(self, horizon: int) -> np.ndarray:
        """Extrapolate the first-to-last straight line per dimension."""
        return drift_forecast(self._require_fitted(), horizon)
