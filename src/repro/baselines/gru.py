"""A from-scratch numpy GRU — the LSTM's lighter sibling.

Same training protocol as :class:`~repro.baselines.lstm.LSTMForecaster`
(sliding windows → next-step vector, min-max scaling, Adam, MSE, recursive
multi-step forecasting) with a gated recurrent unit cell:

    z_t = sigmoid([h_{t-1}, x_t] W_z + b_z)        (update gate)
    r_t = sigmoid([h_{t-1}, x_t] W_r + b_r)        (reset gate)
    n_t = tanh([r_t * h_{t-1}, x_t] W_n + b_n)     (candidate)
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}

The backward pass is exact BPTT; the test-suite pins it against central
finite differences like the LSTM's.  Included as an extension baseline to
show the harness (and the gradient machinery) generalise beyond the
paper's single RNN architecture.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lstm import AdamOptimizer, _clip_gradients, _sigmoid
from repro.core.estimator import BaseEstimator
from repro.exceptions import FittingError
from repro.scaling import MinMaxScaler, MultivariateScaler

__all__ = ["GRUNetwork", "GRUForecaster"]


class GRUNetwork:
    """Single-layer GRU + dense head with exact BPTT gradients.

    Gate parameters are stored jointly: ``W`` shaped
    ``(hidden + input, 2 * hidden)`` covers the update and reset gates;
    the candidate path has its own ``W_n`` because it sees the *reset*
    hidden state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int = 64,
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
            "W": rng.uniform(-scale, scale, size=(fan_in, 2 * hidden_size)),
            "b": np.zeros(2 * hidden_size),
            "W_n": rng.uniform(-scale, scale, size=(fan_in, hidden_size)),
            "b_n": np.zeros(hidden_size),
            "W_out": rng.uniform(-scale, scale, size=(hidden_size, output_size)),
            "b_out": np.zeros(output_size),
        }

    def forward(self, windows: np.ndarray) -> tuple[np.ndarray, dict]:
        """Batch forward pass; returns (predictions, cache)."""
        if windows.ndim != 3 or windows.shape[2] != self.input_size:
            raise FittingError(
                f"expected (batch, time, {self.input_size}) windows, "
                f"got {windows.shape}"
            )
        batch, time, _ = windows.shape
        hidden = self.hidden_size
        W, b = self.params["W"], self.params["b"]
        W_n, b_n = self.params["W_n"], self.params["b_n"]

        h = np.zeros((batch, hidden))
        steps = []
        for t in range(time):
            x_t = windows[:, t, :]
            zr_input = np.concatenate([h, x_t], axis=1)
            gates = _sigmoid(zr_input @ W + b)
            z = gates[:, :hidden]
            r = gates[:, hidden:]
            n_input = np.concatenate([r * h, x_t], axis=1)
            n = np.tanh(n_input @ W_n + b_n)
            h_prev = h
            h = (1.0 - z) * n + z * h_prev
            steps.append((zr_input, z, r, n_input, n, h_prev))

        predictions = h @ self.params["W_out"] + self.params["b_out"]
        cache = {"steps": steps, "h_final": h, "time": time}
        return predictions, cache

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        predictions, _ = self.forward(windows)
        return predictions

    def backward(self, d_predictions: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Exact gradients of the loss w.r.t. all parameters."""
        hidden = self.hidden_size
        W, W_n = self.params["W"], self.params["W_n"]
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}

        grads["W_out"] = cache["h_final"].T @ d_predictions
        grads["b_out"] = d_predictions.sum(axis=0)
        dh = d_predictions @ self.params["W_out"].T

        for t in range(cache["time"] - 1, -1, -1):
            zr_input, z, r, n_input, n, h_prev = cache["steps"][t]
            dz = dh * (h_prev - n)
            dn = dh * (1.0 - z)
            dh_prev = dh * z

            dn_pre = dn * (1.0 - n**2)
            grads["W_n"] += n_input.T @ dn_pre
            grads["b_n"] += dn_pre.sum(axis=0)
            dn_input = dn_pre @ W_n.T
            dr_h = dn_input[:, :hidden]  # gradient w.r.t. (r * h_prev)
            dr = dr_h * h_prev
            dh_prev = dh_prev + dr_h * r

            dz_pre = dz * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)
            d_gates = np.concatenate([dz_pre, dr_pre], axis=1)
            grads["W"] += zr_input.T @ d_gates
            grads["b"] += d_gates.sum(axis=0)
            dzr_input = d_gates @ W.T
            dh = dh_prev + dzr_input[:, :hidden]
        return grads


class GRUForecaster(BaseEstimator):
    """Windowed multivariate forecaster around :class:`GRUNetwork`.

    Same protocol as :class:`~repro.baselines.lstm.LSTMForecaster`; see
    that class for parameter semantics.  All parameters are keyword-only
    under the Estimator API.
    """

    _TEST_PARAMS = (
        {"window": 3, "hidden_size": 4, "epochs": 1, "batch_size": 8},
    )

    def __init__(
        self,
        *,
        window: int = 12,
        hidden_size: int = 64,
        epochs: int = 30,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise FittingError(f"window must be >= 1, got {window}")
        if epochs < 1:
            raise FittingError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise FittingError(f"batch_size must be >= 1, got {batch_size}")
        self.window = window
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self._network: GRUNetwork | None = None
        self._scaler: MultivariateScaler | None = None
        self._tail: np.ndarray | None = None
        self.loss_history: list[float] = []

    def fit(self, history: np.ndarray) -> "GRUForecaster":
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
        network = GRUNetwork(
            input_size=d, hidden_size=self.hidden_size, output_size=d,
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
                predictions, cache = network.forward(windows[idx])
                error = predictions - targets[idx]
                epoch_loss += float((error**2).sum())
                grads = network.backward(2.0 * error / error.size, cache)
                _clip_gradients(grads, max_norm=5.0)
                optimizer.update(network.params, grads)
            self.loss_history.append(epoch_loss / (num_samples * d))
        self._network = network
        self._tail = scaled[-self.window :].copy()
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Recursive multi-step forecast, shape ``(horizon, d)``."""
        if self._network is None or self._scaler is None or self._tail is None:
            raise FittingError("GRUForecaster used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        window = self._tail.copy()
        outputs = []
        for _ in range(horizon):
            prediction = self._network.predict(window[None, :, :])[0]
            outputs.append(prediction)
            window = np.vstack([window[1:], prediction])
        return self._scaler.inverse_transform(np.asarray(outputs))
