"""Vector autoregression (VAR) — the classical *multivariate* baseline.

The paper's case for multiplexing is that multivariate series carry
inter-dimensional correlations a per-dimension forecaster ignores.  VAR is
the classical model built exactly on that idea:

    Y_t = c + A_1 Y_{t-1} + ... + A_p Y_{t-p} + e_t

with ``Y_t`` the d-vector of all dimensions, so every dimension's forecast
draws on every other dimension's history.  Estimation is equation-by-
equation OLS (the maximum-likelihood estimator under Gaussian errors);
order selection minimises the multivariate AIC
``ln det(Sigma_e) + 2 p d^2 / n``.

Comparing ``var`` against ``arima`` (per-dimension) in the evaluation
harness quantifies how much the cross-dimensional signal is actually worth
on each dataset — the classical mirror of MultiCast-vs-LLMTime.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import BaseEstimator
from repro.exceptions import FittingError

__all__ = ["VAR", "auto_var"]


class VAR(BaseEstimator):
    """Vector autoregression of order ``p`` with an intercept.

    Call :meth:`fit` with a ``(n, d)`` history, then :meth:`forecast`.
    ``order`` is keyword-only under the Estimator API.
    """

    _TEST_PARAMS = ({"order": 1},)

    def __init__(self, *, order: int = 1) -> None:
        if order < 1:
            raise FittingError(f"order must be >= 1, got {order}")
        self.order = order
        self._intercept: np.ndarray | None = None
        self._coefficients: np.ndarray | None = None  # (p, d, d)
        self._sigma: np.ndarray | None = None
        self._history: np.ndarray | None = None
        self._nobs = 0

    @staticmethod
    def _validated(x: np.ndarray) -> np.ndarray:
        values = np.asarray(x, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise FittingError(f"expected (n, d) history, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise FittingError("training series contains NaN or inf")
        return values

    def fit(self, x: np.ndarray) -> "VAR":
        """Estimate the coefficient matrices by per-equation OLS."""
        values = self._validated(x)
        n, d = values.shape
        p = self.order
        effective = n - p
        if effective < p * d + d + 2:
            raise FittingError(
                f"history of {n} points too short for VAR({p}) in {d} dims"
            )
        # Design: [1, Y_{t-1}, ..., Y_{t-p}] rows for t = p..n-1.
        design = np.ones((effective, 1 + p * d))
        for lag in range(1, p + 1):
            design[:, 1 + (lag - 1) * d : 1 + lag * d] = values[p - lag : n - lag]
        target = values[p:]
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)

        self._intercept = solution[0]
        self._coefficients = np.stack(
            [
                solution[1 + (lag - 1) * d : 1 + lag * d].T
                for lag in range(1, p + 1)
            ]
        )
        residuals = target - design @ solution
        # MLE residual covariance (divide by the number of observations).
        self._sigma = residuals.T @ residuals / effective
        self._history = values
        self._nobs = effective
        return self

    def _require_fitted(self) -> None:
        if self._coefficients is None:
            raise FittingError("VAR used before fit()")

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Fitted intercept ``c (d,)``, lag matrices ``A (p, d, d)``, and
        residual covariance ``sigma (d, d)``."""
        self._require_fitted()
        return {
            "c": self._intercept.copy(),
            "A": self._coefficients.copy(),
            "sigma": self._sigma.copy(),
        }

    @property
    def aic(self) -> float:
        """Multivariate AIC: ``ln det(sigma) + 2 p d^2 / n``."""
        self._require_fitted()
        d = self._sigma.shape[0]
        sign, logdet = np.linalg.slogdet(
            self._sigma + 1e-12 * np.eye(d)
        )
        if sign <= 0:
            return np.inf
        k = self.order * d * d + d
        return float(logdet + 2.0 * k / self._nobs)

    def forecast(self, horizon: int) -> np.ndarray:
        """Iterated point forecast, shape ``(horizon, d)``."""
        self._require_fitted()
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        p = self.order
        window = [row.copy() for row in self._history[-p:]]
        outputs = []
        for _ in range(horizon):
            prediction = self._intercept.copy()
            for lag in range(1, p + 1):
                prediction += self._coefficients[lag - 1] @ window[-lag]
            outputs.append(prediction)
            window.append(prediction)
        return np.asarray(outputs)


def auto_var(x: np.ndarray, max_order: int = 5) -> VAR:
    """Order selection by multivariate AIC over ``1 .. max_order``."""
    values = VAR._validated(x)
    if max_order < 1:
        raise FittingError(f"max_order must be >= 1, got {max_order}")
    best: VAR | None = None
    best_aic = np.inf
    for p in range(1, max_order + 1):
        try:
            model = VAR(order=p).fit(values)
        except FittingError:
            break
        if model.aic < best_aic:
            best, best_aic = model, model.aic
    if best is None:
        raise FittingError("auto_var could not fit any candidate order")
    return best
