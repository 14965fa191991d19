"""A from-scratch numpy LSTM for multivariate forecasting.

The paper's grid search settled on one hidden layer of 128 units, dropout
rate 0.2, 30 training epochs, the Adam optimiser, and MSE loss (Section
IV-A4); those are the defaults here.  The network maps a sliding window of
the multivariate history to the next timestamp's value vector and forecasts
recursively.

The implementation is complete: vectorised forward pass over a batch of
windows, full backpropagation through time, inverted dropout on the final
hidden state, Adam with bias correction, and gradient-norm clipping.  A
numerical gradient check in the test-suite pins the backward pass to the
forward pass to ~1e-6 relative error.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import BaseEstimator
from repro.exceptions import FittingError
from repro.scaling import MinMaxScaler, MultivariateScaler

__all__ = ["LSTMNetwork", "LSTMForecaster", "AdamOptimizer"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class AdamOptimizer:
    """Adam (Kingma & Ba, 2014) over a dict of named parameter arrays."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise FittingError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._step = 0

    def update(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> None:
        """Apply one Adam step in place."""
        self._step += 1
        t = self._step
        for name, grad in grads.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(grad)
                self._v[name] = np.zeros_like(grad)
            self._m[name] = self.beta1 * self._m[name] + (1 - self.beta1) * grad
            self._v[name] = self.beta2 * self._v[name] + (1 - self.beta2) * grad**2
            m_hat = self._m[name] / (1 - self.beta1**t)
            v_hat = self._v[name] / (1 - self.beta2**t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class LSTMNetwork:
    """Single-layer LSTM + dense head, with exact BPTT gradients.

    Gate pre-activations are computed jointly: ``W`` has shape
    ``(input + hidden, 4 * hidden)`` with gate order (input, forget, output,
    candidate), plus a bias ``b``.  The dense head maps the final hidden
    state to ``output_size`` values.  The forget-gate bias is initialised to
    1.0 — the standard trick that stabilises early training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int = 128,
        output_size: int = 1,
        seed: int = 0,
    ) -> None:
        if min(input_size, hidden_size, output_size) < 1:
            raise FittingError("all layer sizes must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        rng = np.random.default_rng(seed)
        fan_in = input_size + hidden_size
        scale = 1.0 / np.sqrt(fan_in)
        self.params: dict[str, np.ndarray] = {
            "W": rng.uniform(-scale, scale, size=(fan_in, 4 * hidden_size)),
            "b": np.zeros(4 * hidden_size),
            "W_out": rng.uniform(
                -scale, scale, size=(hidden_size, output_size)
            ),
            "b_out": np.zeros(output_size),
        }
        self.params["b"][hidden_size : 2 * hidden_size] = 1.0  # forget bias

    # -- forward --------------------------------------------------------------

    def forward(
        self,
        windows: np.ndarray,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run a batch of windows; returns (predictions, cache for backward).

        ``windows`` has shape ``(batch, time, input_size)``; predictions have
        shape ``(batch, output_size)``.  With ``dropout > 0`` (training mode)
        an inverted-dropout mask is applied to the final hidden state.
        """
        if windows.ndim != 3 or windows.shape[2] != self.input_size:
            raise FittingError(
                f"expected (batch, time, {self.input_size}) windows, "
                f"got {windows.shape}"
            )
        batch, time, _ = windows.shape
        hidden = self.hidden_size
        W, b = self.params["W"], self.params["b"]

        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        steps = []
        for t in range(time):
            x_t = windows[:, t, :]
            z = np.concatenate([h, x_t], axis=1)
            gates = z @ W + b
            i = _sigmoid(gates[:, :hidden])
            f = _sigmoid(gates[:, hidden : 2 * hidden])
            o = _sigmoid(gates[:, 2 * hidden : 3 * hidden])
            g = np.tanh(gates[:, 3 * hidden :])
            c_prev = c
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            steps.append((z, i, f, o, g, c_prev, tanh_c))

        if dropout > 0.0:
            if rng is None:
                raise FittingError("dropout requires an rng")
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        else:
            mask = np.ones_like(h)
        h_dropped = h * mask
        predictions = h_dropped @ self.params["W_out"] + self.params["b_out"]
        cache = {
            "steps": steps,
            "h_final": h,
            "mask": mask,
            "h_dropped": h_dropped,
            "time": time,
            "batch": batch,
        }
        return predictions, cache

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (no dropout)."""
        predictions, _ = self.forward(windows, dropout=0.0)
        return predictions

    # -- backward ---------------------------------------------------------------

    def backward(self, d_predictions: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Exact gradients of the loss w.r.t. all parameters.

        ``d_predictions`` is dLoss/dPredictions, shape (batch, output_size).
        """
        hidden = self.hidden_size
        W = self.params["W"]
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}

        grads["W_out"] = cache["h_dropped"].T @ d_predictions
        grads["b_out"] = d_predictions.sum(axis=0)
        dh = (d_predictions @ self.params["W_out"].T) * cache["mask"]
        dc = np.zeros_like(dh)

        for t in range(cache["time"] - 1, -1, -1):
            z, i, f, o, g, c_prev, tanh_c = cache["steps"][t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c**2)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_prev = dc * f

            di_pre = di * i * (1.0 - i)
            df_pre = df * f * (1.0 - f)
            do_pre = do * o * (1.0 - o)
            dg_pre = dg * (1.0 - g**2)
            d_gates = np.concatenate([di_pre, df_pre, do_pre, dg_pre], axis=1)

            grads["W"] += z.T @ d_gates
            grads["b"] += d_gates.sum(axis=0)
            dz = d_gates @ W.T
            dh = dz[:, :hidden]
            dc = dc_prev
        return grads


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    """Global-norm gradient clipping, in place."""
    total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale


class LSTMForecaster(BaseEstimator):
    """Windowed multivariate forecaster around :class:`LSTMNetwork`.

    Training pairs are sliding windows of ``window`` consecutive timestamps
    mapped to the following timestamp's value vector.  Inputs are min-max
    scaled per dimension; forecasting is recursive (each prediction is fed
    back as the newest window row).

    Defaults follow the paper's grid search: ``hidden_size=128``,
    ``dropout=0.2``, ``epochs=30``, Adam with MSE loss.  All parameters
    are keyword-only under the Estimator API.
    """

    _TEST_PARAMS = (
        {"window": 3, "hidden_size": 4, "epochs": 1, "batch_size": 8},
    )

    def __init__(
        self,
        *,
        window: int = 12,
        hidden_size: int = 128,
        dropout: float = 0.2,
        epochs: int = 30,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise FittingError(f"window must be >= 1, got {window}")
        if not 0.0 <= dropout < 1.0:
            raise FittingError(f"dropout must be in [0, 1), got {dropout}")
        if epochs < 1:
            raise FittingError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise FittingError(f"batch_size must be >= 1, got {batch_size}")
        self.window = window
        self.hidden_size = hidden_size
        self.dropout = dropout
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self._network: LSTMNetwork | None = None
        self._scaler: MultivariateScaler | None = None
        self._tail: np.ndarray | None = None
        self.loss_history: list[float] = []

    def fit(self, history: np.ndarray) -> "LSTMForecaster":
        """Train on a ``(n, d)`` history array."""
        values = np.asarray(history, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise FittingError(f"expected (n, d) history, got shape {values.shape}")
        n, d = values.shape
        if n < self.window + 2:
            raise FittingError(
                f"history of {n} points too short for window={self.window}"
            )

        self._scaler = MultivariateScaler(MinMaxScaler).fit(values)
        scaled = self._scaler.transform(values)

        windows = np.stack(
            [scaled[i : i + self.window] for i in range(n - self.window)]
        )
        targets = scaled[self.window :]

        rng = np.random.default_rng(self.seed)
        network = LSTMNetwork(
            input_size=d,
            hidden_size=self.hidden_size,
            output_size=d,
            seed=self.seed,
        )
        optimizer = AdamOptimizer(learning_rate=self.learning_rate)
        self.loss_history = []
        num_samples = windows.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(num_samples)
            epoch_loss = 0.0
            for start in range(0, num_samples, self.batch_size):
                idx = order[start : start + self.batch_size]
                batch_x, batch_y = windows[idx], targets[idx]
                predictions, cache = network.forward(
                    batch_x, dropout=self.dropout, rng=rng
                )
                error = predictions - batch_y
                epoch_loss += float((error**2).sum())
                d_predictions = 2.0 * error / error.size
                grads = network.backward(d_predictions, cache)
                _clip_gradients(grads, max_norm=5.0)
                optimizer.update(network.params, grads)
            self.loss_history.append(epoch_loss / (num_samples * d))

        self._network = network
        self._tail = scaled[-self.window :].copy()
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Recursive multi-step forecast, shape ``(horizon, d)``."""
        if self._network is None or self._scaler is None or self._tail is None:
            raise FittingError("LSTMForecaster used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        window = self._tail.copy()
        outputs = []
        for _ in range(horizon):
            prediction = self._network.predict(window[None, :, :])[0]
            outputs.append(prediction)
            window = np.vstack([window[1:], prediction])
        scaled = np.asarray(outputs)
        return self._scaler.inverse_transform(scaled)
