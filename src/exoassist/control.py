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

from .config import ConfigError, Field, check_fields
from .dynamics import PlantModel, PlantState, _friction, _rigid_body_terms

__all__ = [
    "TransparentConfig",
    "ImpedanceConfig",
    "TaskConfig",
    "ControlConfig",
    "QPConfig",
    "transparent_control",
    "impedance_control",
    "apply_task_config",
    "load_control_config",
]

# Table of semantic bits: Imp selects the impedance scale w, Spd selects
# motion duration and the per-joint speed limit.
W_BY_IMP_BIT = {0: 2.0, 1: 0.5}
SPEED_BY_SPD_BIT = {0: (5.0, 30.0), 1: (2.0, 70.0)}  # (t_f seconds, deg/s)


# control.json's sections: transparent, impedance and qp. Angles are degrees
# in the file (the _deg keys) and radians in QPConfig.
_FRICTION_COMP = {"friction_scale": Field(bound=">= 0"), "friction_comp_eps": Field(bound="> 0")}
TRANSPARENT_FIELDS = {"gamma0": Field(bound="> 0"), "Kv": Field("joints", "> 0", "n_c"),
                      **_FRICTION_COMP}
IMPEDANCE_FIELDS = {**dict.fromkeys(("Cd", "Kd", "Mv"), Field("joints", "> 0", "n")),
                    "Kv": Field("joints", "> 0", "n_c"), **_FRICTION_COMP}
QP_FIELDS = {
    "horizon": Field("integer", ">= 2"),
    "dt": Field(bound="> 0"),
    **dict.fromkeys(("Q", "R"), Field("joints", "> 0", "n")),
    "accel_limit_deg": Field(bound="> 0"),
    **dict.fromkeys(("position_min_deg", "position_max_deg"), Field("joints", size="n")),
}
CONTROL_FIELDS = {"transparent": Field("object", table=TRANSPARENT_FIELDS),
                  "impedance": Field("object", table=IMPEDANCE_FIELDS),
                  "qp": Field("object", table=QP_FIELDS)}
# the dataclasses' own fields: ImpedanceConfig also holds the task's w, and
# QPConfig the angles in radians under their names without _deg
_IMPEDANCE_CONFIG_FIELDS = {**IMPEDANCE_FIELDS, "w": Field(bound="> 0")}
_QP_CONFIG_FIELDS = {k.removesuffix("_deg"): spec for k, spec in QP_FIELDS.items()}


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
        check_fields(self, TRANSPARENT_FIELDS, "transparent")
        self._kv = np.asarray(self.Kv, dtype=float).ravel().tolist()  # what _compensate reads

    def validated(self, n_c: int) -> "TransparentConfig":
        """Gains as per-joint arrays (a scalar repeated); raises ConfigError on a wrong
        length. Call once at loop entry: the controller does not check."""
        return replace(self, **check_fields(self, TRANSPARENT_FIELDS, "transparent",
                                            {"n_c": n_c}))


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
        check_fields(self, _IMPEDANCE_CONFIG_FIELDS, "impedance")
        self._kv = np.asarray(self.Kv, dtype=float).ravel().tolist()  # what _compensate reads

    def validated(self, n: int, n_c: int) -> "ImpedanceConfig":
        """Gains as per-joint arrays (a scalar repeated); raises ConfigError on a wrong
        length. Call once at loop entry: the controller does not check."""
        return replace(self, **check_fields(self, _IMPEDANCE_CONFIG_FIELDS, "impedance",
                                            {"n": n, "n_c": n_c}))


@dataclass(frozen=True)
class TaskConfig:
    """Execution tuple derived from semantic bits: duration, speed limit, impedance scale."""

    mode: str  # "transparent" | "impedance"
    t_f: float
    speed_limit: float  # rad/s
    w: float
    spd_bit: int
    imp_bit: int


def _floats(value, size: int) -> list[float]:
    """A scalar or per-joint value as ``size`` Python floats (not checked)."""
    arr = np.asarray(value, dtype=float)
    return arr.tolist() if arr.ndim else [float(arr)] * size


def _compensate(model: PlantModel, state: PlantState, u: list, h: list,
                tau_e: list, cfg) -> np.ndarray:
    """u + h - S2' tau_f_hat - tau_e + fast term on Python floats, in that
    order, as a fresh array; ``u``, ``h`` and ``tau_e`` are lists of n
    floats, and ``cfg._kv`` holds Kv as floats. S2' zeroes the friction and
    fast terms on the direct joints' rows, which keep the zeros in the sum
    (+ 0.0 turns a -0.0 into 0.0). On the cable joints' rows, adding the
    fast term -Kv (thetadot - qdot) is subtracting Kv (thetadot - qdot), bit
    for bit."""
    nd = model.n - model.n_c
    scale, kv = cfg.friction_scale, cfg._kv
    cable = zip(u[nd:], h[nd:], _friction(model, state.thetadot, cfg.friction_comp_eps),
                tau_e[nd:], kv if len(kv) > 1 else kv * model.n_c,
                state.thetadot.tolist(), state.qdot.tolist()[nd:])
    return np.array([u_i + h_i - 0.0 - e_i + 0.0 for u_i, h_i, e_i in zip(u[:nd], h, tau_e)]
                    + [u_i + h_i - scale * f_i - e_i - k * (thd - qd)
                       for u_i, h_i, f_i, e_i, k, thd, qd in cable])


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
    """Refinement QP settings, checked against ``QP_FIELDS`` at construction
    (so at load), per-joint lengths by ``validated`` once at loop entry."""

    horizon: int = 20
    dt: float = 0.05
    Q: np.ndarray | float = 1.0
    R: np.ndarray | float = 0.01
    accel_limit: float = math.radians(300.0)  # rad/s^2
    position_min: np.ndarray | float = -math.pi  # rad
    position_max: np.ndarray | float = math.pi

    def __post_init__(self):
        check_fields(self, _QP_CONFIG_FIELDS, "qp")
        lo, hi = np.asarray(self.position_min), np.asarray(self.position_max)
        if lo.size > 1 and hi.size > 1 and lo.shape != hi.shape:
            raise ConfigError("qp position_min and qp position_max differ in length")
        if np.any(lo >= hi):
            raise ConfigError("qp position_min must be below position_max")

    def validated(self, n: int) -> "QPConfig":
        """Per-joint values as arrays of length n (a scalar repeated); raises
        ConfigError on a wrong length."""
        return replace(self, **check_fields(self, _QP_CONFIG_FIELDS, "qp", {"n": n}))


@dataclass
class ControlConfig:
    transparent: TransparentConfig
    impedance: ImpedanceConfig
    qp: QPConfig


def load_control_config(path: str | Path) -> ControlConfig:
    """Load controller and QP settings from ``control.json``, whose fields
    ``CONTROL_FIELDS`` lists; angles are degrees in the file."""
    raw = json.loads(Path(path).read_text())
    check_fields(raw, CONTROL_FIELDS, "control")
    qp = {k.removesuffix("_deg"): np.radians(np.asarray(v, dtype=float)) if k.endswith("_deg")
          else v for k, v in raw.get("qp", {}).items()}
    return ControlConfig(
        transparent=TransparentConfig(**raw.get("transparent", {})),
        impedance=ImpedanceConfig(**raw.get("impedance", {})),
        qp=QPConfig(**qp),
    )
