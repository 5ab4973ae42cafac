"""Minimal fully-connected network with manual backprop and Adam.

Kept deliberately small: tanh hidden layers, linear output, float64
throughout so finite-difference gradient checks hold tightly.
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
        rng = np.random.default_rng(seed)
        self.W = []
        self.b = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.W.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.b.append(np.zeros(fan_out))

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

    def backward(self, acts, grad_out: np.ndarray):
        """Backprop a cotangent; returns (dW list, db list, dx)."""
        dW = [None] * self.n_layers
        db = [None] * self.n_layers
        g = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                g = g * (1.0 - acts[i + 1] ** 2)  # tanh'
            dW[i] = acts[i].T @ g
            db[i] = g.sum(axis=0)
            g = g @ self.W[i].T
        return dW, db, g

    def input_vjp(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Cotangent w.r.t. the input only (skips parameter grads)."""
        g = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                g = g * (1.0 - acts[i + 1] ** 2)
            g = g @ self.W[i].T
        return g

    # -- flat parameter views (checkpoints, gradient checks) ---------------

    def get_flat(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.W] + [b for b in self.b])

    def set_flat(self, flat: np.ndarray) -> None:
        idx = 0
        for i, w in enumerate(self.W):
            self.W[i] = flat[idx:idx + w.size].reshape(w.shape).copy()
            idx += w.size
        for i, b in enumerate(self.b):
            self.b[i] = flat[idx:idx + b.size].copy()
            idx += b.size
        if idx != flat.size:
            raise ValueError("flat parameter vector has wrong length")

    @staticmethod
    def flatten_grads(dW, db) -> np.ndarray:
        return np.concatenate([g.ravel() for g in dW] + [g for g in db])


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

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """params - lr m_hat / (sqrt(v_hat) + eps) after the moment updates
        m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2.

        Computed in place with two temporaries, each operation in the
        order of the formula, so the result is bit-identical to it.
        """
        self.t += 1
        tmp = grads * (1.0 - self.beta1)
        self.m *= self.beta1
        self.m += tmp
        np.multiply(grads, grads, out=tmp)
        tmp *= 1.0 - self.beta2
        self.v *= self.beta2
        self.v += tmp
        denom = np.divide(self.v, 1.0 - self.beta2**self.t, out=tmp)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = self.m / (1.0 - self.beta1**self.t)  # m_hat
        update *= self.lr
        update /= denom
        return np.subtract(params, update, out=update)
