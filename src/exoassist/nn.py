"""Minimal fully-connected network with manual backprop and Adam.

Kept deliberately small: tanh hidden layers, linear output, float64
throughout so finite-difference gradient checks hold tightly. ``W``/``b``
view one flat parameter buffer and ``dW``/``db`` one flat gradient buffer,
which ``backward`` fills and returns; Adam updates the parameters in place.
"""
from __future__ import annotations

import numpy as np

__all__ = ["MLP", "Adam"]


class MLP:
    """Tanh MLP; forward returns a cache that backward consumes."""

    def __init__(self, sizes: list[int], seed: int = 0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        shapes = list(zip(sizes[:-1], sizes[1:]))
        size = sum(i * o + o for i, o in shapes)
        self.params, self.grads = np.zeros(size), np.zeros(size)
        self.W, self.b = self._views(self.params, shapes)
        self.dW, self.db = self._views(self.grads, shapes)
        rng = np.random.default_rng(seed)
        for w, (fan_in, fan_out) in zip(self.W, shapes):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))

    @staticmethod
    def _views(flat: np.ndarray, shapes):
        """Weight and bias views into ``flat``: all weights first, then all biases."""
        sizes = [i * o for i, o in shapes] + [o for _, o in shapes]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return [p.reshape(s) for p, s in zip(parts, shapes)], parts[len(shapes):]

    @property
    def n_layers(self) -> int:
        return len(self.W)

    def forward(self, x: np.ndarray):
        """x: (B, d_in) -> (out (B, d_out), cache)."""
        acts = [x]
        h = x
        for i in range(self.n_layers):
            z = h @ self.W[i] + self.b[i]
            h = np.tanh(z) if i < self.n_layers - 1 else z
            acts.append(h)
        return h, acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Backprop a cotangent into the gradient buffer and return it, valid
        until the next call; the input cotangent is ``input_vjp``'s."""
        g = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                g = g * (1.0 - acts[i + 1] ** 2)  # tanh'
            np.matmul(acts[i].T, g, out=self.dW[i])
            np.sum(g, axis=0, out=self.db[i])
            if i:
                g = g @ self.W[i].T
        return self.grads

    def input_vjp(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Cotangent w.r.t. the input only (skips parameter grads)."""
        g = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                g = g * (1.0 - acts[i + 1] ** 2)
            g = g @ self.W[i].T
        return g


# parameters per pass of Adam's update: its scratch stays chunk-sized and in cache
ADAM_CHUNK = 16384


class Adam:
    """Adaptive moment estimation over a flat parameter vector."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        chunk = min(size, ADAM_CHUNK)
        self._tmp, self._update = np.zeros(chunk), np.zeros(chunk)

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """params -= lr m_hat / (sqrt(v_hat) + eps) after the moment updates
        m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2; returns params.

        Computed in place, ADAM_CHUNK entries at a time in two chunk-sized
        scratch buffers, each operation in the order of the formula, so the
        result is bit-identical to it.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for lo in range(0, params.size, ADAM_CHUNK):
            part = slice(lo, lo + ADAM_CHUNK)
            g, m, v, p = grads[part], self.m[part], self.v[part], params[part]
            tmp, update = self._tmp[:g.size], self._update[:g.size]
            np.multiply(g, 1.0 - b1, out=tmp)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            np.divide(v, bias2, out=tmp)  # v_hat
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, bias1, out=update)  # m_hat
            update *= self.lr
            update /= tmp
            p -= update
        return params
