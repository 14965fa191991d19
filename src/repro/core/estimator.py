"""The common ``Estimator`` protocol every forecaster implements.

The sweep subsystem (:mod:`repro.sweeps`) and the ecosystem adapters
(:mod:`repro.adapters`) both need to treat MultiCast strategies and the
classical baselines uniformly: construct from a flat parameter dict, fit
on a history, predict a horizon, and introspect/replace parameters.  This
module defines that contract once:

* :class:`Estimator` — a runtime-checkable protocol
  (``fit``/``predict``/``get_params``/``set_params``);
* :class:`BaseEstimator` — a mixin that implements the parameter
  machinery (``get_params``/``set_params``/``clone``/``get_test_params``)
  by introspecting the constructor signature, sklearn/sktime style;
* :class:`PerDimension` — a meta-estimator that lifts a univariate
  estimator to ``(n, d)`` input by fitting one clone per dimension.

Every baseline constructor is keyword-only under this API; the canonical
parameter names are exactly the constructor keyword names, so
``type(est)(**est.get_params())`` always round-trips.
"""

from __future__ import annotations

import inspect
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ConfigError, FittingError

__all__ = [
    "Estimator",
    "BaseEstimator",
    "PerDimension",
]


@runtime_checkable
class Estimator(Protocol):
    """The uniform forecaster contract (structural — no inheritance needed).

    ``fit`` takes a history array (``(n, d)`` or 1-D, estimator-dependent)
    and returns ``self``; ``predict`` takes an integer horizon and returns
    the point forecast; ``get_params``/``set_params`` expose the
    constructor parameters as a flat dict so sweep runners and adapters
    can clone and re-parameterise any estimator without knowing its type.
    """

    def fit(self, history) -> "Estimator":
        """Train on a history array; return ``self``."""
        ...

    def predict(self, horizon: int) -> np.ndarray:
        """Point forecast for ``horizon`` steps past the fitted history."""
        ...

    def get_params(self) -> dict:
        """The constructor parameters as a flat dict."""
        ...

    def set_params(self, **params) -> "Estimator":
        """Re-parameterise in place (resets fitted state); return ``self``."""
        ...


class BaseEstimator:
    """Parameter machinery shared by every estimator.

    Subclasses get ``get_params``/``set_params``/``clone``/
    ``get_test_params`` for free.  The parameter names default to the
    constructor's keyword names; a subclass whose attributes diverge from
    its signature can override the :attr:`_PARAMS` tuple instead.  The default
    :meth:`predict` delegates to the subclass's classical ``forecast``
    method, so retrofit classes keep their historical surface.
    """

    #: Override to name parameters explicitly instead of introspecting.
    _PARAMS: tuple[str, ...] | None = None

    #: Cheap-but-valid parameter sets for contract tests, sktime style.
    _TEST_PARAMS: tuple[dict, ...] = ({},)

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        """Canonical parameter names, from ``_PARAMS`` or the signature."""
        if cls._PARAMS is not None:
            return tuple(cls._PARAMS)
        signature = inspect.signature(cls.__init__)
        names = []
        for name, parameter in signature.parameters.items():
            if name == "self":
                continue
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            names.append(name)
        return tuple(names)

    def get_params(self) -> dict:
        """Current constructor parameters as a flat dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Replace parameters in place; unknown names raise ``ConfigError``.

        The estimator is rebuilt through its own constructor so every
        parameter is re-validated; fitted state is reset (a re-fit is
        required after changing parameters).
        """
        known = self._param_names()
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ConfigError(
                f"{type(self).__name__}.set_params got unknown parameters "
                f"{unknown}; valid parameters are {sorted(known)}"
            )
        merged = {**self.get_params(), **params}
        fresh = type(self)(**merged)
        self.__dict__.clear()
        self.__dict__.update(fresh.__dict__)
        return self

    def clone(self) -> "BaseEstimator":
        """A new unfitted estimator with identical parameters."""
        return type(self)(**self.get_params())

    @classmethod
    def get_test_params(cls) -> list[dict]:
        """Cheap valid parameter sets for contract tests (sktime idiom)."""
        return [dict(params) for params in cls._TEST_PARAMS]

    def predict(self, horizon: int) -> np.ndarray:
        """Point forecast; default delegates to the classical ``forecast``."""
        forecast = getattr(self, "forecast", None)
        if forecast is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither predict() nor "
                f"forecast()"
            )
        return forecast(horizon)


class PerDimension(BaseEstimator):
    """Lift a univariate estimator to multivariate ``(n, d)`` input.

    Fits one :meth:`~BaseEstimator.clone` of the wrapped estimator per
    dimension and stacks the per-dimension predictions into a
    ``(horizon, d)`` array — the classical mirror of LLMTime's
    per-dimension loop.
    """

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        self._fitted: list | None = None

    def fit(self, history) -> "PerDimension":
        """Fit an independent clone of the wrapped estimator per column."""
        values = np.asarray(history, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise FittingError(
                f"expected (n, d) history, got shape {values.shape}"
            )
        fitted = []
        for column in range(values.shape[1]):
            estimator = self.estimator.clone()
            estimator.fit(values[:, column])
            fitted.append(estimator)
        self._fitted = fitted
        return self

    def predict(self, horizon: int) -> np.ndarray:
        """Stack per-dimension forecasts into ``(horizon, d)``."""
        if self._fitted is None:
            raise FittingError("PerDimension used before fit()")
        columns = []
        for estimator in self._fitted:
            values = np.asarray(estimator.predict(horizon), dtype=float)
            columns.append(values.reshape(values.shape[0], -1)[:, 0])
        return np.stack(columns, axis=1)

    def clone(self) -> "PerDimension":
        """A new unfitted wrapper around a clone of the inner estimator."""
        return type(self)(self.estimator.clone())

    def get_params(self) -> dict:
        """The wrapped estimator's parameters (the wrapper is transparent)."""
        return self.estimator.get_params()

    def set_params(self, **params) -> "PerDimension":
        """Forward parameter updates to the wrapped estimator."""
        self.estimator.set_params(**params)
        self._fitted = None
        return self
