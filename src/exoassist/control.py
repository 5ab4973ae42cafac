"""Transparent-mode and impedance-mode torque controllers.

Both controllers share the same structure: model-based compensation of
gravity, Coriolis and cable friction, the singular-perturbation damping
term on motor/joint velocity mismatch, and cancellation of the measured
interaction torque. They differ in the acceleration target.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import ConfigError, PlantModel, PlantState, _rigid_body_terms

__all__ = [
    "TransparentConfig",
    "ImpedanceConfig",
    "TaskConfig",
    "ControlConfig",
    "fast_term",
    "transparent_control",
    "impedance_control",
    "apply_task_config",
    "load_control_config",
]

# Table of semantic bits: Imp selects the impedance scale w, Spd selects
# motion duration and the per-joint speed limit.
W_BY_IMP_BIT = {0: 2.0, 1: 0.5}
SPEED_BY_SPD_BIT = {0: (5.0, 30.0), 1: (2.0, 70.0)}  # (t_f seconds, deg/s)


def _diag_array(values, size: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 1 and size > 1:
        arr = np.full(size, float(arr[0]))
    if arr.shape != (size,):
        raise ConfigError(f"{name} must have length {size}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ConfigError(f"{name} must be finite and strictly positive")
    return arr


@dataclass
class TransparentConfig:
    """Scale factor for effort amplification and fast-term gains.

    ``friction_comp_eps`` widens the Coulomb boundary layer used by the
    compensation term: the raw plant layer (0.01 rad/s) has a slope of
    c0/eps ~ 30 N m s/rad, which fed back through the motor side is
    destabilizing; the compensation deliberately under-estimates stiction
    near zero velocity instead.
    """

    gamma0: float = 0.5
    Kv: np.ndarray | float = 5.0
    friction_scale: float = 1.0  # 1.0 = perfect friction model
    friction_comp_eps: float = 0.2  # rad/s

    def validated(self, n_c: int) -> "TransparentConfig":
        if not math.isfinite(self.gamma0) or self.gamma0 <= 0:
            raise ConfigError("gamma0 must be positive")
        if not math.isfinite(self.friction_comp_eps) or self.friction_comp_eps <= 0:
            raise ConfigError("friction_comp_eps must be positive")
        return replace(self, Kv=_diag_array(self.Kv, n_c, "Kv"))


@dataclass
class ImpedanceConfig:
    """Target impedance model parameters.

    ``w`` scales the apparent impedance per the task semantics; Mv is the
    virtual inertia that turns the first-order target model into an
    acceleration command.
    """

    Cd: np.ndarray | float = 30.0
    Kd: np.ndarray | float = 50.0
    w: float = 1.0
    Mv: np.ndarray | float = 0.5
    Kv: np.ndarray | float = 5.0
    friction_scale: float = 1.0
    friction_comp_eps: float = 0.2

    def validated(self, n: int, n_c: int) -> "ImpedanceConfig":
        if not math.isfinite(self.w) or self.w <= 0:
            raise ConfigError("w must be positive")
        if not math.isfinite(self.friction_comp_eps) or self.friction_comp_eps <= 0:
            raise ConfigError("friction_comp_eps must be positive")
        return replace(
            self,
            Cd=_diag_array(self.Cd, n, "Cd"),
            Kd=_diag_array(self.Kd, n, "Kd"),
            Mv=_diag_array(self.Mv, n, "Mv"),
            Kv=_diag_array(self.Kv, n_c, "Kv"),
        )


@dataclass(frozen=True)
class TaskConfig:
    """Execution tuple derived from semantic bits: duration, speed limit, impedance scale."""

    mode: str  # "transparent" | "impedance"
    t_f: float
    speed_limit: float  # rad/s
    w: float
    spd_bit: int
    imp_bit: int


def _s2(n: int, n_c: int) -> np.ndarray:
    return np.hstack([np.zeros((n_c, n - n_c)), np.eye(n_c)])


def fast_term(state: PlantState, Kv) -> np.ndarray:
    """Singular-perturbation damping -S2' Kv (thetadot - S2 qdot)."""
    n = state.q.shape[0]
    n_c = state.theta.shape[0]
    S2 = _s2(n, n_c)
    kv = _diag_array(Kv, n_c, "Kv")
    mismatch = state.thetadot - S2 @ state.qdot
    return -S2.T @ (kv * mismatch)


def _friction_estimate(model: PlantModel, thetadot: np.ndarray,
                       scale: float, comp_eps: float) -> np.ndarray:
    """Friction model used for compensation: widened Coulomb boundary layer."""
    poly = model.friction_c1 * thetadot + model.friction_c3 * thetadot**3
    coulomb = model.friction_c0 * np.tanh(thetadot / comp_eps)
    return -scale * (poly + coulomb)


def transparent_control(
    model: PlantModel,
    state: PlantState,
    tau_e,
    cfg: TransparentConfig,
) -> np.ndarray:
    """Torque that lets the wearer backdrive the arm with amplified effort.

    Compensates gravity, Coriolis, cable friction and the measured
    interaction torque, then commands the amplified acceleration
    qdd0 = (1/gamma0) (M + B_bar)^-1 tau_e.
    """
    tau_e = np.asarray(tau_e, dtype=float)
    if tau_e.shape != (model.n,) or not np.all(np.isfinite(tau_e)):
        raise ValueError(f"tau_e must be finite with length {model.n}")
    cfg = cfg.validated(model.n_c)

    _, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass, with_mass=False)
    tau_f_hat = _friction_estimate(model, state.thetadot, cfg.friction_scale, cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    # (M + B_bar) qdd0 with qdd0 = (1/gamma0)(M + B_bar)^-1 tau_e
    amplified = tau_e / cfg.gamma0
    return amplified + h - model.S2.T @ tau_f_hat - tau_e + u_f


def impedance_control(
    model: PlantModel,
    state: PlantState,
    q_d,
    qdot_d,
    qddot_d,
    tau_e,
    cfg: ImpedanceConfig,
) -> np.ndarray:
    """Computed-torque realization of the target impedance model.

    The target acceleration embeds Cd (qdot_d - qdot) + Kd (q_d - q) +
    (1/w) tau_e through the virtual inertia Mv, so that quasi-statically
    the closed loop satisfies Cd (qdot - qdot_d) + Kd (q - q_d) = tau_e / w.
    """
    q_d = np.asarray(q_d, dtype=float)
    qdot_d = np.asarray(qdot_d, dtype=float)
    qddot_d = np.asarray(qddot_d, dtype=float)
    tau_e = np.asarray(tau_e, dtype=float)
    for name, arr in (("q_d", q_d), ("qdot_d", qdot_d), ("qddot_d", qddot_d), ("tau_e", tau_e)):
        if arr.shape != (model.n,) or not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite with length {model.n}")
    cfg = cfg.validated(model.n, model.n_c)

    M, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass)
    tau_f_hat = _friction_estimate(model, state.thetadot, cfg.friction_scale, cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    target = (
        cfg.Cd * (qdot_d - state.qdot)
        + cfg.Kd * (q_d - state.q)
        + tau_e / cfg.w
    )
    a = qddot_d + target / cfg.Mv
    nd = model.n - model.n_c
    M[nd:, nd:] += model.B  # M + B_bar with B_bar = S2' B S2
    return M @ a + h - model.S2.T @ tau_f_hat - tau_e + u_f


def apply_task_config(cfg_bits: tuple[int, int, int]) -> tuple[str, TaskConfig]:
    """Map the binary command bits (mode, Spd, Imp) onto an execution config."""
    try:
        mode_bit, spd_bit, imp_bit = (int(b) for b in cfg_bits)
    except (TypeError, ValueError) as exc:
        raise ValueError("cfg_bits must be a triple of integers") from exc
    for name, bit in (("mode", mode_bit), ("Spd", spd_bit), ("Imp", imp_bit)):
        if bit not in (0, 1):
            raise ValueError(f"{name} bit must be 0 or 1, got {bit}")
    mode = "impedance" if mode_bit else "transparent"
    t_f, speed_deg = SPEED_BY_SPD_BIT[spd_bit]
    cfg = TaskConfig(
        mode=mode,
        t_f=t_f,
        speed_limit=math.radians(speed_deg),
        w=W_BY_IMP_BIT[imp_bit],
        spd_bit=spd_bit,
        imp_bit=imp_bit,
    )
    return mode, cfg


# ---------------------------------------------------------------------------
# configuration file


@dataclass
class QPConfig:
    horizon: int = 20
    dt: float = 0.05
    Q: float = 1.0
    R: float = 0.01
    accel_limit: float = math.radians(300.0)  # rad/s^2
    position_min: np.ndarray | None = None  # rad
    position_max: np.ndarray | None = None


@dataclass
class ControlConfig:
    transparent: TransparentConfig
    impedance: ImpedanceConfig
    qp: QPConfig


_CONTROL_FIELDS = {"transparent", "impedance", "qp"}
_TRANSPARENT_FIELDS = {"gamma0", "Kv", "friction_scale", "friction_comp_eps"}
_IMPEDANCE_FIELDS = {"Cd", "Kd", "Mv", "Kv", "friction_scale", "friction_comp_eps"}
_QP_FIELDS = {"horizon", "dt", "Q", "R", "accel_limit_deg",
              "position_min_deg", "position_max_deg"}


def load_control_config(path: str | Path) -> ControlConfig:
    """Load controller and QP settings; angles are degrees in the file."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("control config must be a JSON object")
    unknown = set(raw) - _CONTROL_FIELDS
    if unknown:
        raise ConfigError(f"unknown control config sections: {sorted(unknown)}")

    def _section(name, allowed):
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} section must be an object")
        bad = set(section) - allowed
        if bad:
            raise ConfigError(f"unknown {name} fields: {sorted(bad)}")
        return section

    tr = _section("transparent", _TRANSPARENT_FIELDS)
    im = _section("impedance", _IMPEDANCE_FIELDS)
    qp = _section("qp", _QP_FIELDS)

    qp_kwargs: dict = {}
    for key in ("horizon", "dt", "Q", "R"):
        if key in qp:
            qp_kwargs[key] = qp[key]
    if "accel_limit_deg" in qp:
        qp_kwargs["accel_limit"] = math.radians(float(qp["accel_limit_deg"]))
    if "position_min_deg" in qp:
        qp_kwargs["position_min"] = np.radians(np.asarray(qp["position_min_deg"], dtype=float))
    if "position_max_deg" in qp:
        qp_kwargs["position_max"] = np.radians(np.asarray(qp["position_max_deg"], dtype=float))

    return ControlConfig(
        transparent=TransparentConfig(**tr),
        impedance=ImpedanceConfig(**im),
        qp=QPConfig(**qp_kwargs),
    )
