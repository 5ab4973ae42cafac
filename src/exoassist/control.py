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
    "QPConfig",
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


def _finite_values(value, name: str) -> np.ndarray:
    """A finite number or list of numbers as an array; ConfigError otherwise
    (strings and booleans are not numbers)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ConfigError(f"{name} must be numeric") from None
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be numeric")
    arr = arr.astype(float)
    if arr.ndim > 1 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a finite number or list of numbers")
    return arr


def _diag_array(values, size: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(_finite_values(values, name))
    if arr.size == 1 and size > 1:
        arr = np.full(size, float(arr[0]))
    if arr.shape != (size,):
        raise ConfigError(f"{name} must have length {size}")
    if np.any(arr <= 0):
        raise ConfigError(f"{name} must be strictly positive")
    return arr


def _number(value, name: str, positive: bool = True) -> float:
    """A finite number, positive unless ``positive`` is False; ConfigError otherwise."""
    arr = _finite_values(value, name)
    if arr.ndim or (positive and arr <= 0):
        raise ConfigError(f"{name} must be a {'positive ' if positive else ''}number")
    return float(arr)


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

    def __post_init__(self):
        _number(self.gamma0, "gamma0")
        _number(self.friction_scale, "friction_scale", positive=False)
        _number(self.friction_comp_eps, "friction_comp_eps")
        _diag_array(self.Kv, np.size(self.Kv), "Kv")

    def validated(self, n_c: int) -> "TransparentConfig":
        """Gains as per-joint arrays (a scalar repeated); raises ConfigError on a wrong
        length. Call once at loop entry: the controller does not check."""
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

    def __post_init__(self):
        _number(self.w, "w")
        _number(self.friction_scale, "friction_scale", positive=False)
        _number(self.friction_comp_eps, "friction_comp_eps")
        for name in ("Cd", "Kd", "Mv", "Kv"):
            value = getattr(self, name)
            _diag_array(value, np.size(value), name)

    def validated(self, n: int, n_c: int) -> "ImpedanceConfig":
        """Gains as per-joint arrays (a scalar repeated); raises ConfigError on a wrong
        length. Call once at loop entry: the controller does not check."""
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


def fast_term(state: PlantState, Kv) -> np.ndarray:
    """Singular-perturbation damping -S2' Kv (thetadot - S2 qdot).

    S2 selects the last n_c (cable-driven) joints, so both products are
    slices; ``Kv`` is a scalar or a length-n_c array."""
    n_c = state.theta.shape[0]
    out = np.zeros(state.q.shape[0])
    out[-n_c:] = -(Kv * (state.thetadot - state.qdot[-n_c:]))
    return out


def _friction_estimate(model: PlantModel, thetadot: np.ndarray,
                       scale: float, comp_eps: float) -> np.ndarray:
    """Friction model used for compensation: widened Coulomb boundary layer."""
    poly = model.friction_c1 * thetadot + model.friction_c3 * thetadot**3
    coulomb = model.friction_c0 * np.tanh(thetadot / comp_eps)
    return -scale * (poly + coulomb)


def _floats(value, size: int) -> list[float]:
    """A scalar or per-joint value as ``size`` Python floats (not checked)."""
    arr = np.asarray(value, dtype=float)
    return arr.tolist() if arr.ndim else [float(arr)] * size


def _compensate(model: PlantModel, state: PlantState, u: list, h: np.ndarray,
                tau_e: list, cfg) -> np.ndarray:
    """u + h - S2' tau_f_hat - tau_e + fast term on Python floats, in that
    order, as a fresh array; ``u`` and ``tau_e`` are lists of n floats."""
    nd = model.n - model.n_c
    pad = [0.0] * nd  # S2' leaves the direct joints' rows zero
    tau_f_hat = pad + _friction_estimate(
        model, state.thetadot, cfg.friction_scale, cfg.friction_comp_eps).tolist()
    fast = pad + [-(kv * (thd - qd)) for kv, thd, qd in zip(  # fast_term on floats
        _floats(cfg.Kv, model.n_c), state.thetadot.tolist(), state.qdot.tolist()[nd:])]
    return np.array([u_i + h_i - f_i - e_i + k_i for u_i, h_i, f_i, e_i, k_i in zip(
        u, h.tolist(), tau_f_hat, tau_e, fast)])


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
    tau = tau_e.tolist()
    if tau_e.shape != (model.n,) or not all(map(math.isfinite, tau)):
        raise ValueError(f"tau_e must be finite with length {model.n}")

    _, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass, with_mass=False)
    gamma0 = cfg.gamma0
    return _compensate(model, state, [x / gamma0 for x in tau], h, tau, cfg)  # (M + B_bar) qdd0


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
    q_d, qdot_d, qddot_d, tau_e = (np.asarray(v, dtype=float)
                                   for v in (q_d, qdot_d, qddot_d, tau_e))
    for name, arr in (("q_d", q_d), ("qdot_d", qdot_d), ("qddot_d", qddot_d), ("tau_e", tau_e)):
        if arr.shape != (model.n,) or not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite with length {model.n}")

    M, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass)
    a = cfg.Cd * (qdot_d - state.qdot)  # the target, then qddot_d + target / Mv
    a += cfg.Kd * (q_d - state.q)
    a += tau_e / cfg.w
    a /= cfg.Mv
    a += qddot_d
    # M + B_bar with B_bar = S2' B S2: the motor inertia on the cable-joint diagonal
    M[-model.n_c:, -model.n_c:][np.diag_indices(model.n_c)] += model.motor_inertia
    return _compensate(model, state, (M @ a).tolist(), h, tau_e.tolist(), cfg)


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
    """Refinement QP settings. Values are checked at construction (so at
    load), per-joint lengths by ``check_lengths`` once at loop entry."""

    horizon: int = 20
    dt: float = 0.05
    Q: np.ndarray | float = 1.0
    R: np.ndarray | float = 0.01
    accel_limit: float = math.radians(300.0)  # rad/s^2
    position_min: np.ndarray | float = -math.pi  # rad
    position_max: np.ndarray | float = math.pi

    def __post_init__(self):
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int) or self.horizon < 2:
            raise ConfigError("horizon must be an integer of at least 2")
        dt, Q, R, accel, lo, hi = (_finite_values(getattr(self, name), name) for name in (
            "dt", "Q", "R", "accel_limit", "position_min", "position_max"))
        if dt.ndim or dt <= 0:
            raise ConfigError("dt must be a positive number")
        if accel.ndim or accel <= 0:
            raise ConfigError("accel_limit must be a positive number")
        if np.any(Q <= 0):
            raise ConfigError("Q must be positive")
        if np.any(R < 0):
            raise ConfigError("R must be non-negative")
        if lo.size > 1 and hi.size > 1 and lo.shape != hi.shape:
            raise ConfigError("position_min and position_max differ in length")
        if np.any(lo >= hi):
            raise ConfigError("position_min must be below position_max")

    def check_lengths(self, n: int) -> None:
        """Raise ConfigError unless each per-joint value is a scalar or has length n."""
        for name in ("Q", "R", "position_min", "position_max"):
            if np.size(getattr(self, name)) not in (1, n):
                raise ConfigError(f"qp {name} must have length {n}")


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
        qp_kwargs["accel_limit"] = math.radians(_number(qp["accel_limit_deg"], "accel_limit_deg"))
    if "position_min_deg" in qp:
        qp_kwargs["position_min"] = np.radians(_finite_values(qp["position_min_deg"],
                                                              "position_min_deg"))
    if "position_max_deg" in qp:
        qp_kwargs["position_max"] = np.radians(_finite_values(qp["position_max_deg"],
                                                              "position_max_deg"))

    return ControlConfig(
        transparent=TransparentConfig(**tr),
        impedance=ImpedanceConfig(**im),
        qp=QPConfig(**qp_kwargs),
    )
