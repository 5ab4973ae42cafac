"""Serial-chain rigid-body dynamics with cable-driven series-elastic joints.

The plant is an n-joint revolute chain whose last n_c joints are driven
through torsional springs by motor-side inertias (already projected to the
joint side). Direct-driven and cable-driven joints are split by the
selection matrices S1 and S2. All public operations are pure functions of
(model, state); ``step`` returns a fresh state.

The rigid-body terms have one implementation, ``_rigid_body_terms``: a
single-state kernel on Python floats that returns M(q) and the bias torque
h = C(q, qdot) qdot + g(q) from one forward and one backward pass. ``step``,
both controllers, ``mass_matrix``, ``gravity_vector`` and
``coriolis_matrix`` all use it. The tests hold it to an independent
complex-step reference in ``tests/oracles.py``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "SimulationFault",
    "PlantModel",
    "PlantState",
    "mass_matrix",
    "coriolis_matrix",
    "gravity_vector",
    "friction_torque",
    "potential_energy",
    "total_energy",
    "end_effector_position",
    "link_com_positions",
    "settled_state",
    "step",
    "load_plant_config",
    "default_model",
]

# Default geometry: shoulder bracket, upper arm, elbow bracket, forearm.
DEFAULT_LINK_LENGTHS = (0.05, 0.28, 0.05, 0.25)
DEFAULT_LINK_MASSES = (1.5, 2.0, 0.5, 1.2)

# Joint axes in the local frame, chosen so the arm hangs along -z at q = 0:
# shoulder abduction (x), shoulder flexion (y), upper-arm internal
# rotation (z, along the link), elbow flexion (y). Chains longer than four
# joints cycle through x/y/z.
_DEFAULT_AXES = ("x", "y", "z", "y")
_AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

# Links are modelled as rods along their local -z axis plus cuff hardware;
# the axial (about-link) inertia must stay well away from zero or the
# internal-rotation joint becomes near-singular and the cable transmission
# mode around it cannot be stabilized at the 1 kHz physics rate.
AXIAL_INERTIA_RATIO = 0.3

_PLANT_CONFIG_FIELDS = {
    "n",
    "n_c",
    "link_lengths",
    "link_masses",
    "link_com",
    "link_inertias",
    "spring_stiffness",
    "motor_inertia",
    "friction_coeffs",
    "gravity",
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


class SimulationFault(RuntimeError):
    """Raised when integration produces a non-finite quantity."""


def _as_positive_array(values, size: int, name: str, strict: bool = True) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.size == 1 and size > 1:
        arr = np.full(size, float(arr[0]))
    if arr.shape != (size,):
        raise ConfigError(f"{name} must have length {size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} entries must be finite")
    if strict and np.any(arr <= 0.0):
        raise ConfigError(f"{name} entries must be strictly positive")
    if not strict and np.any(arr < 0.0):
        raise ConfigError(f"{name} entries must be non-negative")
    return arr


@dataclass
class PlantModel:
    """Geometric, inertial and elastic parameters of the exoskeleton arm."""

    n: int = 4
    n_c: int = 2
    link_lengths: Sequence[float] = DEFAULT_LINK_LENGTHS
    link_masses: Sequence[float] = DEFAULT_LINK_MASSES
    link_com: Sequence[float] | None = None
    link_inertias: Sequence[float] | None = None
    # Friction defaults are deliberately gentle: the Eq-style coupling puts
    # motor-velocity friction on the link side, which pumps the spring mode;
    # steeper Coulomb layers than ~0.1 rad/s destabilize the closed loop.
    spring_stiffness: Sequence[float] | float = 100.0
    motor_inertia: Sequence[float] | float = 0.05
    friction_c0: Sequence[float] | float = 0.05
    friction_c1: Sequence[float] | float = 0.1
    friction_c3: Sequence[float] | float = 0.05
    friction_eps_v: float = 0.1
    gravity: float = 9.81

    # derived, populated in __post_init__
    axes: np.ndarray = field(init=False, repr=False)
    joint_offsets: np.ndarray = field(init=False, repr=False)
    com_offsets: np.ndarray = field(init=False, repr=False)
    inertia_local: np.ndarray = field(init=False, repr=False)
    S1: np.ndarray = field(init=False, repr=False)
    S2: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError("n must be a positive integer")
        if not isinstance(self.n_c, int) or not 1 <= self.n_c <= self.n:
            raise ConfigError("n_c must satisfy 1 <= n_c <= n")

        n = self.n
        self.link_lengths = _as_positive_array(self.link_lengths, n, "link_lengths")
        self.link_masses = _as_positive_array(self.link_masses, n, "link_masses")
        if self.link_com is None:
            self.link_com = 0.5 * self.link_lengths
        self.link_com = _as_positive_array(self.link_com, n, "link_com")
        if np.any(self.link_com > self.link_lengths):
            raise ConfigError("link_com must not exceed link_lengths")
        if self.link_inertias is None:
            self.link_inertias = self.link_masses * self.link_lengths**2 / 12.0
        self.link_inertias = _as_positive_array(self.link_inertias, n, "link_inertias")

        k_diag = _as_positive_array(self.spring_stiffness, self.n_c, "spring_stiffness")
        b_diag = _as_positive_array(self.motor_inertia, self.n_c, "motor_inertia")
        self.spring_stiffness = k_diag
        self.motor_inertia = b_diag
        self.K = np.diag(k_diag)
        self.B = np.diag(b_diag)

        self.friction_c0 = _as_positive_array(self.friction_c0, self.n_c, "friction_c0", strict=False)
        self.friction_c1 = _as_positive_array(self.friction_c1, self.n_c, "friction_c1", strict=False)
        self.friction_c3 = _as_positive_array(self.friction_c3, self.n_c, "friction_c3", strict=False)
        if not np.isfinite(self.friction_eps_v) or self.friction_eps_v <= 0:
            raise ConfigError("friction_eps_v must be finite and positive")
        if not np.isfinite(self.gravity) or self.gravity < 0:
            raise ConfigError("gravity must be finite and non-negative")

        axes = [_DEFAULT_AXES[i] if i < len(_DEFAULT_AXES) else "xyz"[i % 3] for i in range(n)]
        self.axes = np.stack([_AXIS_VECTORS[a] for a in axes])
        # joint i sits at the tip of link i-1; every link extends along -z
        offsets = np.zeros((n, 3))
        for i in range(1, n):
            offsets[i] = (0.0, 0.0, -self.link_lengths[i - 1])
        self.joint_offsets = offsets
        self.com_offsets = np.column_stack(
            [np.zeros(n), np.zeros(n), -self.link_com]
        )
        skews = np.zeros((n, 3, 3))
        for i in range(n):
            ax, ay, az = self.axes[i]
            skews[i] = [[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]]
        self._axis_skew = skews
        self._axis_skew2 = skews @ skews
        # rod-like tensor in the link frame: transverse inertia from config,
        # reduced axial inertia about the link (-z) axis
        self.inertia_local = np.zeros((n, 3, 3))
        for i in range(n):
            it = self.link_inertias[i]
            self.inertia_local[i] = np.diag([it, it, AXIAL_INERTIA_RATIO * it])

        self.S1 = np.diag(
            np.concatenate([np.ones(n - self.n_c), np.zeros(self.n_c)])
        )
        self.S2 = np.hstack(
            [np.zeros((self.n_c, n - self.n_c)), np.eye(self.n_c)]
        )

        # scalar copies for the single-state kernel: per link the joint-axis
        # index and the two column indices its rotation mixes, link length,
        # COM distance, mass, transverse inertia and (axial - transverse)
        self._chain = tuple(
            (ax, (ax + 1) % 3, (ax + 2) % 3, float(self.link_lengths[i]),
             float(self.link_com[i]), float(self.link_masses[i]),
             float(self.inertia_local[i, 0, 0]),
             float(self.inertia_local[i, 2, 2] - self.inertia_local[i, 0, 0]))
            for i, ax in enumerate(int(np.argmax(a)) for a in self.axes)
        )

    @property
    def ee_offset(self) -> np.ndarray:
        return np.array([0.0, 0.0, -self.link_lengths[-1]])


@dataclass(frozen=True)
class PlantState:
    """Joint/motor kinematic state plus payload and last interaction torque."""

    q: np.ndarray
    qdot: np.ndarray
    theta: np.ndarray
    thetadot: np.ndarray
    payload_mass: float = 0.0
    tau_e: np.ndarray | None = None

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        qdot = np.array(self.qdot, dtype=float)
        theta = np.array(self.theta, dtype=float)
        thetadot = np.array(self.thetadot, dtype=float)
        tau_e = (
            np.zeros_like(q)
            if self.tau_e is None
            else np.array(self.tau_e, dtype=float)
        )
        for name, arr in (("q", q), ("qdot", qdot), ("theta", theta),
                          ("thetadot", thetadot), ("tau_e", tau_e)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"PlantState.{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.isfinite(self.payload_mass) or self.payload_mass < 0:
            raise ValueError("payload_mass must be finite and >= 0")
        object.__setattr__(self, "payload_mass", float(self.payload_mass))


    @classmethod
    def _unchecked(cls, q, qdot, theta, thetadot, payload_mass, tau_e) -> "PlantState":
        """Build a state from fresh float arrays that the caller has already
        checked and hands over; they are frozen in place, not copied."""
        state = object.__new__(cls)
        for name, arr in (("q", q), ("qdot", qdot), ("theta", theta),
                          ("thetadot", thetadot), ("tau_e", tau_e)):
            arr.flags.writeable = False
            object.__setattr__(state, name, arr)
        object.__setattr__(state, "payload_mass", payload_mass)
        return state


def default_model() -> PlantModel:
    return PlantModel()


# ---------------------------------------------------------------------------
# forward kinematics


def _check_q(model: PlantModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise ValueError(f"q must be one configuration of length {model.n}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("q must be finite")
    return q


def _fk(model: PlantModel, q: np.ndarray):
    """World positions of the link centres of mass (n, 3) and of the end
    effector (3,) for one checked configuration."""
    R, p = np.eye(3), np.zeros(3)
    c = np.empty((model.n, 3))
    s, co = np.sin(q), np.cos(q)
    for i in range(model.n):
        p = p + R @ model.joint_offsets[i]
        R = R @ (np.eye(3) + s[i] * model._axis_skew[i] + (1.0 - co[i]) * model._axis_skew2[i])
        c[i] = p + R @ model.com_offsets[i]
    return c, p + R @ model.ee_offset


# ---------------------------------------------------------------------------
# the rigid-body kernel
#
# M(q) and the bias torque h = C(q, qdot) qdot + g(q) for one state: the
# plant, both controllers and the public helpers below all take them from
# here. On 3-vectors numpy's per-call overhead costs more than the
# arithmetic, so the kernel works on Python floats (Featherstone, Rigid
# Body Dynamics Algorithms, 2008):
#
# - a forward pass for the link frames, velocities and accelerations;
# - a backward recursive Newton-Euler pass for h, with qddot = 0 and gravity
#   as an upward base acceleration;
# - in the same backward pass, the composite-rigid-body algorithm for M: the
#   links beyond joint j (and the payload) form one body whose momentum
#   under a unit rate of joint j, taken about the world origin, is column j.
#
# It relies on what PlantModel builds: every joint axis is a principal axis
# of the parent link's frame, and every link, COM offset and inertia tensor
# is symmetric about the link's local z axis. The tests hold it to an
# independent complex-step reference in ``tests/oracles.py``.


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _add_inertia(I, m, c, it=0.0, dit=0.0, z=(0.0, 0.0, 0.0)):
    """I (xx, yy, zz, xy, xz, yz) about the origin plus a body of mass m at
    c whose own inertia is it E + dit z z'."""
    cx, cy, cz = c
    iso = it + m * (cx * cx + cy * cy + cz * cz)
    zx, zy, zz = dit * z[0], dit * z[1], dit * z[2]
    return (I[0] + iso + zx * z[0] - m * cx * cx, I[1] + iso + zy * z[1] - m * cy * cy,
            I[2] + iso + zz * z[2] - m * cz * cz, I[3] + zx * z[1] - m * cx * cy,
            I[4] + zx * z[2] - m * cx * cz, I[5] + zy * z[2] - m * cy * cz)


def _rigid_body_terms(model: PlantModel, q: np.ndarray, qdot: np.ndarray,
                      payload_mass: float, with_mass: bool = True):
    """Mass matrix M(q) (None unless ``with_mass``) and bias h = C qdot + g
    for one state; the payload is an end-effector point mass."""
    n = model.n
    qs, qds = q.tolist(), qdot.tolist()
    R = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # link frame columns
    p = (0.0, 0.0, 0.0)  # joint origin
    w = wd = (0.0, 0.0, 0.0)  # angular velocity and acceleration
    acc = (0.0, 0.0, float(model.gravity))  # joint-origin acceleration
    links = []
    for i, (ax, b, d, length, lc, m, it, dit) in enumerate(model._chain):
        k = R[ax]  # world joint axis, fixed in the parent frame
        co, si = math.cos(qs[i]), math.sin(qs[i])
        rb, rd = R[b], R[d]
        R = R.copy()
        R[b] = (co * rb[0] + si * rd[0], co * rb[1] + si * rd[1], co * rb[2] + si * rd[2])
        R[d] = (co * rd[0] - si * rb[0], co * rd[1] - si * rb[1], co * rd[2] - si * rb[2])
        z = R[2]
        qd = qds[i]
        t = _cross(w, k)  # rate of turn of the joint axis
        wd = (wd[0] + qd * t[0], wd[1] + qd * t[1], wd[2] + qd * t[2])
        w = (w[0] + qd * k[0], w[1] + qd * k[1], w[2] + qd * k[2])

        # the point x down the link axis (at -x z) accelerates as acc - x e
        wz = _cross(w, z)
        t, v = _cross(wd, z), _cross(w, wz)
        e = (t[0] + v[0], t[1] + v[1], t[2] + v[2])
        F = (m * (acc[0] - lc * e[0]), m * (acc[1] - lc * e[1]), m * (acc[2] - lc * e[2]))
        # N = I wd + w x (I w) with I v = it v + dit (z . v) z
        zwd, zw = dit * _dot(z, wd), dit * _dot(z, w)
        N = (it * wd[0] + zwd * z[0] + zw * wz[0], it * wd[1] + zwd * z[1] + zw * wz[1],
             it * wd[2] + zwd * z[2] + zw * wz[2])
        links.append((k, _cross(k, p), (p[0] - lc * z[0], p[1] - lc * z[1], p[2] - lc * z[2]),
                      z, F, N, length, lc, m, it, dit))
        acc = (acc[0] - length * e[0], acc[1] - length * e[1], acc[2] - length * e[2])
        p = (p[0] - length * z[0], p[1] - length * z[1], p[2] - length * z[2])
    # p and acc are now the end effector's

    # f, nm: force of the links beyond the current joint on it, and moment
    # about its origin; mc, mu, I0: their composite mass, first moment and
    # rotational inertia about the world origin
    pm = payload_mass
    f = (pm * acc[0], pm * acc[1], pm * acc[2])
    nm = (0.0, 0.0, 0.0)
    mc, mu = pm, (pm * p[0], pm * p[1], pm * p[2])
    I0 = _add_inertia((0.0,) * 6, pm, p) if with_mass else None
    h = [0.0] * n
    M = [[0.0] * n for _ in range(n)] if with_mass else None
    axes = [link[:2] for link in links]
    for j in range(n - 1, -1, -1):
        k, u, c, z, F, N, length, lc, m, it, dit = links[j]
        # the link's own force acts at -lc z, the outer links' at -length z
        t = _cross(z, (lc * F[0] + length * f[0], lc * F[1] + length * f[1],
                       lc * F[2] + length * f[2]))
        nm = (N[0] + nm[0] - t[0], N[1] + nm[1] - t[1], N[2] + nm[2] - t[2])
        f = (F[0] + f[0], F[1] + f[1], F[2] + f[2])
        h[j] = _dot(k, nm)
        if M is None:
            continue
        mc += m
        mu = (mu[0] + m * c[0], mu[1] + m * c[1], mu[2] + m * c[2])
        I0 = _add_inertia(I0, m, c, it, dit, z)
        # momentum of the composite under a unit rate of joint j, whose
        # spatial axis is (k, p_j x k) = (k, -u); M[l][j] = k_l . n0 - u_l . f0
        xx, yy, zz, xy, xz, yz = I0
        t = _cross(u, mu)
        n0x = xx * k[0] + xy * k[1] + xz * k[2] + t[0]
        n0y = xy * k[0] + yy * k[1] + yz * k[2] + t[1]
        n0z = xz * k[0] + yz * k[1] + zz * k[2] + t[2]
        t = _cross(k, mu)
        f0x, f0y, f0z = t[0] - mc * u[0], t[1] - mc * u[1], t[2] - mc * u[2]
        row = M[j]
        for l, (kl, ul) in enumerate(axes[:j + 1]):
            row[l] = M[l][j] = (kl[0] * n0x + kl[1] * n0y + kl[2] * n0z
                                - ul[0] * f0x - ul[1] * f0y - ul[2] * f0z)
    return (None if M is None else np.array(M)), np.array(h)


def mass_matrix(model: PlantModel, q, payload_mass: float = 0.0) -> np.ndarray:
    """Joint-space inertia matrix; the payload enters as an end-effector point mass."""
    q = _check_q(model, q)
    return _rigid_body_terms(model, q, np.zeros(model.n), payload_mass)[0]


def gravity_vector(model: PlantModel, q, payload_mass: float = 0.0) -> np.ndarray:
    """Gradient of total gravitational potential with respect to q."""
    q = _check_q(model, q)
    return _rigid_body_terms(model, q, np.zeros(model.n), payload_mass, with_mass=False)[1]


def coriolis_matrix(model: PlantModel, q, qdot, payload_mass: float = 0.0) -> np.ndarray:
    """Coriolis matrix from Christoffel symbols, so Mdot - 2C is skew-symmetric.

    G(v) = h(q, v) - g(q) is the quadratic form of the symmetric bilinear
    map B with B(qdot, e_j) = C e_j, so by polarization column j of C is
    [G(qdot + e_j) - G(qdot) - G(e_j)] / 2.
    """
    q = _check_q(model, q)
    qdot = np.asarray(qdot, dtype=float)
    if qdot.shape != (model.n,) or not np.all(np.isfinite(qdot)):
        raise ValueError(f"qdot must be finite with length {model.n}")

    def bias(v):
        return _rigid_body_terms(model, q, v, payload_mass, with_mass=False)[1]

    # G(qdot + e_j) - G(e_j) = h(qdot + e_j) - h(e_j): their g's cancel
    G_qdot = bias(qdot) - bias(np.zeros(model.n))
    return 0.5 * np.column_stack([bias(qdot + e) - bias(e) - G_qdot for e in np.eye(model.n)])


# ---------------------------------------------------------------------------
# friction, energy and the integrator


def friction_torque(model: PlantModel, thetadot) -> np.ndarray:
    """Dissipative cable-joint friction: odd polynomial plus smoothed Coulomb term."""
    thetadot = np.asarray(thetadot, dtype=float)
    if thetadot.shape != (model.n_c,):
        raise ValueError(f"thetadot must have length {model.n_c}")
    if not np.all(np.isfinite(thetadot)):
        raise ValueError("thetadot must be finite")
    return _friction(model, thetadot)


def _friction(model: PlantModel, thetadot: np.ndarray) -> np.ndarray:
    poly = model.friction_c1 * thetadot + model.friction_c3 * thetadot**3
    coulomb = model.friction_c0 * np.tanh(thetadot / model.friction_eps_v)
    return -(poly + coulomb)


def link_com_positions(model: PlantModel, q) -> np.ndarray:
    """World positions of all link centres of mass, shape (n, 3)."""
    return _fk(model, _check_q(model, q))[0]


def end_effector_position(model: PlantModel, q) -> np.ndarray:
    return _fk(model, _check_q(model, q))[1]


def potential_energy(model: PlantModel, q, payload_mass: float = 0.0) -> float:
    """Total gravitational potential, zero datum at the shoulder."""
    c, ee = _fk(model, _check_q(model, q))
    u = float(np.sum(model.link_masses * c[:, 2]) * model.gravity)
    if payload_mass > 0.0:
        u += payload_mass * model.gravity * float(ee[2])
    return u


def total_energy(model: PlantModel, state: PlantState) -> float:
    """Link kinetic + motor kinetic + spring potential + gravitational potential."""
    M = mass_matrix(model, state.q, state.payload_mass)  # checks q
    defl = state.theta - model.S2 @ state.q
    e = 0.5 * state.qdot @ M @ state.qdot
    e += 0.5 * state.thetadot @ model.B @ state.thetadot
    e += 0.5 * defl @ model.K @ defl
    e += potential_energy(model, state.q, state.payload_mass)
    return float(e)


def settled_state(model: PlantModel, q, payload_mass: float = 0.0) -> PlantState:
    """Rest state with the spring preloaded to carry the cable-joint gravity share."""
    q = np.asarray(q, dtype=float)
    g = gravity_vector(model, q, payload_mass)
    k_diag = np.diag(model.K)
    theta = model.S2 @ q + (model.S2 @ g) / k_diag
    return PlantState(
        q=q,
        qdot=np.zeros(model.n),
        theta=theta,
        thetadot=np.zeros(model.n_c),
        payload_mass=payload_mass,
    )


def step(model: PlantModel, state: PlantState, u, tau_e, dt: float) -> PlantState:
    """Advance the plant one semi-implicit Euler step.

    The link side integrates the rigid-body equation with the spring coupling
    torque S2' K (theta - S2 q), the motor side integrates the reflected
    motor inertia. ``u`` is held constant over the step; ``tau_e`` is stored
    in the returned state.
    """
    if not 0.0 < dt <= 0.005:
        raise ValueError("dt must lie in (0, 5 ms]")
    u = np.asarray(u, dtype=float)
    tau_e = np.array(tau_e, dtype=float)  # stored in the returned state
    if u.shape != (model.n,) or tau_e.shape != (model.n,):
        raise ValueError(f"u and tau_e must have length {model.n}")
    if not np.isfinite(u).all():
        raise SimulationFault("control torque u is non-finite")
    if not np.isfinite(tau_e).all():
        raise SimulationFault("interaction torque tau_e is non-finite")

    q, qd = state.q, state.qdot
    th, thd = state.theta, state.thetadot
    nd = model.n - model.n_c  # direct-driven joints come first

    M, h = _rigid_body_terms(model, q, qd, state.payload_mass)
    spring = model.spring_stiffness * (th - q[nd:])  # K (theta - S2 q)

    # S1 u + S2' (spring + tau_f) stacks the direct-joint torques over the
    # cable-joint ones
    rhs_link = np.concatenate((u[:nd], spring + _friction(model, thd))) + tau_e - h
    qdd = np.linalg.solve(M, rhs_link)
    thdd = (u[nd:] - spring) / model.motor_inertia

    qd_new = qd + dt * qdd
    thd_new = thd + dt * thdd
    q_new = q + dt * qd_new
    th_new = th + dt * thd_new

    for name, arr in (("q", q_new), ("qdot", qd_new), ("theta", th_new),
                      ("thetadot", thd_new)):
        if not np.isfinite(arr).all():
            raise SimulationFault(f"integration produced non-finite {name}")

    return PlantState._unchecked(q_new, qd_new, th_new, thd_new, state.payload_mass, tau_e)


# ---------------------------------------------------------------------------
# configuration


def load_plant_config(path: str | Path) -> PlantModel:
    """Build a PlantModel from ``plant.json``; unknown fields are rejected."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("plant config must be a JSON object")
    unknown = set(raw) - _PLANT_CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown plant config fields: {sorted(unknown)}")

    kwargs: dict = {}
    for key in ("n", "n_c", "link_lengths", "link_masses", "link_com",
                "link_inertias", "spring_stiffness", "motor_inertia", "gravity"):
        if key in raw:
            kwargs[key] = raw[key]
    if "friction_coeffs" in raw:
        fc = raw["friction_coeffs"]
        if not isinstance(fc, dict) or set(fc) - {"c0", "c1", "c3", "eps_v"}:
            raise ConfigError("friction_coeffs must be an object with keys c0, c1, c3, eps_v")
        if "c0" in fc:
            kwargs["friction_c0"] = fc["c0"]
        if "c1" in fc:
            kwargs["friction_c1"] = fc["c1"]
        if "c3" in fc:
            kwargs["friction_c3"] = fc["c3"]
        if "eps_v" in fc:
            kwargs["friction_eps_v"] = fc["eps_v"]
    try:
        return PlantModel(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
