"""Diffusion-based anomaly detection over sliding sensory windows.

A small denoiser network is trained to predict the noise injected by the
forward process on windows of normal interaction data. At run time a
window is partially noised to depth nu, denoised back, and scored by the
squared reconstruction error; the input gradient of that score feeds the
trajectory refinement.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import MLP, Adam

__all__ = [
    "AnomalyTrainingError",
    "DegenerateDataError",
    "NoiseSchedule",
    "ChannelLayout",
    "NormStats",
    "Denoiser",
    "AnomalyDetector",
    "TrainConfig",
    "train_denoiser",
    "denoiser_loss_and_grads",
    "forward_diffuse",
    "save_checkpoint",
    "load_checkpoint",
    "save_windows_csv",
    "load_windows_csv",
]

CHECKPOINT_VERSION = 1


class AnomalyTrainingError(RuntimeError):
    """Raised when training diverges (NaN loss)."""


class DegenerateDataError(ValueError):
    """Raised when a dataset has (near-)zero-variance channels."""


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process variance schedule and derived quantities.

    Index convention: arrays are 0-based with entry ``t-1`` for diffusion
    step ``t`` in 1..T. ``beta`` (copied), ``alpha`` = 1 - beta and
    ``alpha_bar`` (its cumulative product) are read-only arrays, the last
    two computed once here.
    """

    beta: np.ndarray
    nu: int

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)  # a copy: the schedule is read-only
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a 1-D array")
        if np.any(beta <= 0.0) or np.any(beta >= 1.0):
            raise ValueError("beta entries must lie in (0, 1)")
        if np.any(np.diff(beta) < 0.0):
            raise ValueError("beta must be non-decreasing")
        if not 1 <= self.nu <= beta.size:
            raise ValueError("nu must lie in [1, T]")
        alpha = 1.0 - beta
        for name, arr in (("beta", beta), ("alpha", alpha), ("alpha_bar", np.cumprod(alpha))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return self.beta.size

    @classmethod
    def linear(cls, T: int = 50, beta_start: float = 1e-4,
               beta_end: float = 0.05, nu: int = 10) -> "NoiseSchedule":
        return cls(beta=np.linspace(beta_start, beta_end, T), nu=nu)


def forward_diffuse(x0: np.ndarray, t, eps: np.ndarray,
                    schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward marginal: x_t = x0 sqrt(ab_t) + eps sqrt(1-ab_t),
    at one step ``t``, or at ``t[i]`` for row i when ``t`` has shape (B,)
    and ``x0`` and ``eps`` shape (B, D)."""
    t = np.asarray(t)
    if t.min() < 1 or t.max() > schedule.T:
        raise ValueError(f"t must lie in [1, {schedule.T}]")
    ab = schedule.alpha_bar[t - 1]
    if t.ndim:
        ab = ab[:, None]
    return np.sqrt(ab) * np.asarray(x0) + np.sqrt(1.0 - ab) * np.asarray(eps)


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class ChannelLayout:
    """Per-tick channel layout: (q, qdot, theta, thetadot, tau_e)."""

    n: int
    n_c: int

    @property
    def per_tick(self) -> int:
        return 3 * self.n + 2 * self.n_c

    @property
    def tau_e_slice(self) -> slice:
        start = 2 * self.n + 2 * self.n_c
        return slice(start, start + self.n)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (per_tick,)
    std: np.ndarray

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        """raw: (..., L_s, per_tick) -> same shape, channel-normalized."""
        return (raw - self.mean) / self.std


def compute_stats(raw_windows: np.ndarray) -> NormStats:
    """Per-channel statistics over (M, L_s, per_tick) raw windows."""
    flat = raw_windows.reshape(-1, raw_windows.shape[-1])
    if not flat.shape[0]:
        raise DegenerateDataError("no windows to take statistics over")
    std = flat.std(axis=0)
    bad = np.nonzero(std < 1e-8)[0].tolist()
    if bad:
        raise DegenerateDataError(f"zero-variance channels: {bad}")
    return NormStats(mean=flat.mean(axis=0), std=std)


# ---------------------------------------------------------------------------
# denoiser


def _sinusoidal_embedding(T: int, dim: int) -> np.ndarray:
    """Embedding table for t = 1..T, shape (T, dim)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.arange(1, T + 1)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


class Denoiser:
    """Noise-prediction network: window + timestep embedding -> noise."""

    def __init__(self, dim: int, T: int, hidden=(256, 256), embed_dim: int = 32,
                 seed: int = 0):
        self.dim = dim
        self.T = T
        self.embed_dim = embed_dim
        self.hidden = tuple(hidden)
        self.embed = _sinusoidal_embedding(T, embed_dim)
        self.mlp = MLP([dim + embed_dim, *hidden, dim], seed=seed)

    def eps(self, x_t: np.ndarray, t):
        """Predicted noise for (B, D) windows x_t at step(s) t, and the
        network's activations, which ``input_vjp`` and backward consume."""
        t_arr = np.broadcast_to(np.asarray(t, dtype=int), (x_t.shape[0],))
        return self.mlp.forward(np.concatenate([x_t, self.embed[t_arr - 1]], axis=1))

    def input_vjp(self, acts, cotangent: np.ndarray) -> np.ndarray:
        """Cotangent through the network w.r.t. the window part of the input."""
        g = self.mlp.input_vjp(acts, cotangent)
        return g[:, : self.dim]


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    hidden: tuple = (256, 256)
    embed_dim: int = 32


def denoiser_loss_and_grads(denoiser: Denoiser, x0: np.ndarray, t: np.ndarray,
                            eps: np.ndarray, schedule: NoiseSchedule,
                            with_grads: bool = True):
    """Noise-prediction loss sum_d ||eps - eps_hat||^2 averaged over the batch,
    and its flat parameter gradient: the network's gradient buffer, valid
    until the next backward. Deterministic given (x0, t, eps).
    """
    x_t = forward_diffuse(x0, t, eps, schedule)
    pred, acts = denoiser.eps(x_t, t)
    resid = pred - eps
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    if not with_grads:
        return loss, None
    return loss, denoiser.mlp.backward(acts, 2.0 * resid / x0.shape[0])


def train_denoiser(windows: np.ndarray, schedule: NoiseSchedule,
                   cfg: TrainConfig, val_windows: np.ndarray | None = None):
    """Train on normalized windows (M, D); returns (denoiser, history).

    History holds per-epoch train loss and, when a validation split is
    given, validation loss computed with a frozen noise draw.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise ValueError("windows must be a non-empty (M, D) array")
    M, D = windows.shape
    rng = np.random.default_rng(cfg.seed)
    denoiser = Denoiser(D, schedule.T, hidden=cfg.hidden,
                        embed_dim=cfg.embed_dim, seed=cfg.seed)
    params = denoiser.mlp.params  # optimised in place
    opt = Adam(params.size, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.adam_eps)

    val_fixed = None
    if val_windows is not None and len(val_windows):
        vrng = np.random.default_rng(cfg.seed + 1)
        v_t = vrng.integers(1, schedule.T + 1, size=val_windows.shape[0])
        v_eps = vrng.standard_normal(val_windows.shape)
        val_fixed = (np.asarray(val_windows, dtype=float), v_t, v_eps)

    history = {"train": [], "val": []}
    for epoch in range(cfg.epochs):
        order = rng.permutation(M)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, M, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x0 = windows[idx]
            t = rng.integers(1, schedule.T + 1, size=idx.size)
            eps = rng.standard_normal(x0.shape)
            loss, grads = denoiser_loss_and_grads(denoiser, x0, t, eps, schedule)
            if not np.isfinite(loss):
                raise AnomalyTrainingError(
                    f"NaN loss at epoch {epoch}, batch {batches} (lr={cfg.lr})")
            opt.step(params, grads)
            epoch_loss += loss
            batches += 1
        history["train"].append(epoch_loss / max(batches, 1))
        if val_fixed is not None:
            v_loss, _ = denoiser_loss_and_grads(denoiser, *val_fixed, schedule,
                                                with_grads=False)
            history["val"].append(v_loss)
    return denoiser, history


# ---------------------------------------------------------------------------
# detector


class AnomalyDetector:
    """Bundles schedule, denoiser, normalization and score calibration."""

    def __init__(self, denoiser: Denoiser, schedule: NoiseSchedule,
                 stats: NormStats, L_s: int, layout: ChannelLayout,
                 cal_scale: float = 1.0, seed: int = 0):
        self.denoiser = denoiser
        self.schedule = schedule
        self.stats = stats
        self.L_s = L_s
        self.layout = layout
        self.cal_scale = float(cal_scale)
        self.seed = int(seed)
        # frozen noise draw shared by every reconstruction (common random numbers)
        self._eps1_fixed = np.random.default_rng(seed).standard_normal(denoiser.dim)

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, x0: np.ndarray, with_cache: bool = False):
        """Noise to depth nu, then run the reverse chain down to x0-hat.

        ``x0`` is normalized, shape (D,) or (B, D). The chain is
        deterministic: the forward noise is the detector's seeded draw and
        the reverse steps add none.
        """
        x0 = np.asarray(x0, dtype=float)
        single = x0.ndim == 1
        x = np.atleast_2d(x0)
        B = x.shape[0]
        sch = self.schedule
        nu = sch.nu
        xt = forward_diffuse(x, nu, np.tile(self._eps1_fixed, (B, 1)), sch)
        caches = []
        for t in range(nu, 0, -1):
            a_t = sch.alpha[t - 1]
            c_t = (1.0 - a_t) / np.sqrt(1.0 - sch.alpha_bar[t - 1])
            pred, acts = self.denoiser.eps(xt, t)
            if with_cache:
                caches.append((t, acts, c_t))
            xt = (xt - c_t * pred) / np.sqrt(a_t)
        xhat = xt[0] if single else xt
        if with_cache:
            return xhat, caches
        return xhat

    # -- scoring -----------------------------------------------------------

    def score(self, window) -> float:
        """Calibrated squared reconstruction error of one raw (L_s, per_tick) window."""
        x0 = self._normalized(window)
        return float(self.score_batch(x0[None, :])[0])

    def score_batch(self, x0: np.ndarray) -> np.ndarray:
        """Scores for (B, D) normalized windows, as training and calibration hold them."""
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        xhat = self.reconstruct(x0)
        return self.cal_scale * np.sum((x0 - xhat) ** 2, axis=1)

    def score_gradient(self, window):
        """Score of one raw (L_s, per_tick) window plus its gradient w.r.t.
        the raw tau_e channels of the most recent window tick (length n),
        via backprop through the frozen reverse chain."""
        x0 = self._normalized(window)
        x = x0[None, :]
        xhat, caches = self.reconstruct(x, with_cache=True)
        diff = x - xhat
        s = float(self.cal_scale * np.sum(diff**2))
        # backprop: ds/dxhat, through the reverse chain, to ds/dx0
        v = -2.0 * self.cal_scale * diff
        for t, acts, c_t in reversed(caches):
            a_t = self.schedule.alpha[t - 1]
            v = v / np.sqrt(a_t)
            v = v - c_t * self.denoiser.input_vjp(acts, v)
        grad_norm = 2.0 * self.cal_scale * diff[0] \
            + np.sqrt(self.schedule.alpha_bar[self.schedule.nu - 1]) * v[0]
        grad_raw = (grad_norm.reshape(self.L_s, self.layout.per_tick)
                    / self.stats.std)
        dfdtau = grad_raw[-1, self.layout.tau_e_slice].copy()
        return s, grad_raw, dfdtau

    def calibrate(self, train_windows: np.ndarray, target: float = 0.35,
                  percentile: float = 99.0) -> float:
        """Rescale so the score percentile of the normalized training
        windows maps to ``target``; on failure the scale stays as it was."""
        previous, self.cal_scale = self.cal_scale, 1.0  # unscaled scores
        try:
            q = float(np.percentile(self.score_batch(train_windows), percentile))
        finally:
            self.cal_scale = previous
        if q <= 0.0:
            raise ValueError("cannot calibrate on identically-zero scores")
        self.cal_scale = target / q
        return self.cal_scale

    def _normalized(self, window) -> np.ndarray:
        """A raw (L_s, per_tick) window, normalized and flattened to (D,)."""
        raw = np.asarray(window, dtype=float)
        if raw.shape != (self.L_s, self.layout.per_tick):
            raise ValueError(f"a window is a raw ({self.L_s}, {self.layout.per_tick}) array; got {raw.shape}")
        return self.stats.normalize(raw).reshape(-1)


# ---------------------------------------------------------------------------
# checkpoint and dataset files


def save_checkpoint(path: str | Path, detector: AnomalyDetector) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "T": detector.schedule.T,
        "nu": detector.schedule.nu,
        "L_s": detector.L_s,
        "n": detector.layout.n,
        "n_c": detector.layout.n_c,
        "hidden": list(detector.denoiser.hidden),
        "embed_dim": detector.denoiser.embed_dim,
        "cal_scale": detector.cal_scale,
        "seed": detector.seed,
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "beta": detector.schedule.beta,
        "mean": detector.stats.mean,
        "std": detector.stats.std,
        "eps1": detector._eps1_fixed,
    }
    for i, (w, b) in enumerate(zip(detector.denoiser.mlp.W, detector.denoiser.mlp.b)):
        arrays[f"W{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_checkpoint(path: str | Path) -> AnomalyDetector:
    """The detector ``save_checkpoint`` wrote. A file that is not a zip
    archive, or lacks an array, raises ValueError naming it."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
            schedule = NoiseSchedule(beta=data["beta"], nu=int(meta["nu"]))
            layout = ChannelLayout(n=int(meta["n"]), n_c=int(meta["n_c"]))
            L_s = int(meta["L_s"])
            dim = L_s * layout.per_tick
            denoiser = Denoiser(dim, schedule.T, hidden=tuple(meta["hidden"]),
                                embed_dim=int(meta["embed_dim"]))
            for i, (w, b) in enumerate(zip(denoiser.mlp.W, denoiser.mlp.b)):
                for name, view in ((f"W{i}", w), (f"b{i}", b)):
                    arr = data[name]
                    if arr.shape != view.shape:
                        raise ValueError(f"checkpoint {name} has shape {arr.shape}, expected {view.shape}")
                    view[...] = arr
            stats = NormStats(mean=data["mean"].copy(), std=data["std"].copy())
            det = AnomalyDetector(denoiser, schedule, stats, L_s, layout,
                                  cal_scale=float(meta["cal_scale"]),
                                  seed=int(meta["seed"]))
            det._eps1_fixed = data["eps1"].copy()
            return det
    except zipfile.BadZipFile as exc:
        raise ValueError(f"checkpoint {path} is not a valid .npz archive: {exc}") from exc
    except KeyError as exc:  # an array the archive lacks, or a key its meta lacks
        raise ValueError(f"checkpoint {path} is incomplete: {exc.args[0]}") from exc


def save_windows_csv(path: str | Path, raw_windows: np.ndarray) -> None:
    """Raw windows (M, L_s, per_tick) as CSV, one flattened window per row."""
    M = raw_windows.shape[0]
    np.savetxt(path, raw_windows.reshape(M, -1), delimiter=",")


def load_windows_csv(path: str | Path, L_s: int, per_tick: int) -> np.ndarray:
    """Raw windows (M, L_s, per_tick) from the CSV ``save_windows_csv`` writes."""
    text = Path(path).read_text()
    if not text.strip():
        raise ValueError(f"{path} holds no windows")
    flat = np.loadtxt(text.splitlines(), delimiter=",", ndmin=2)
    if flat.shape[1] != L_s * per_tick:
        raise ValueError(
            f"CSV rows have {flat.shape[1]} values, expected {L_s * per_tick}")
    return flat.reshape(flat.shape[0], L_s, per_tick)
