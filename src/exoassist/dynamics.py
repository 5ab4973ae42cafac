"""Serial-chain rigid-body dynamics with cable-driven series-elastic joints.

The plant is an n-joint revolute chain whose last n_c joints are driven
through torsional springs by motor-side inertias (already projected to the
joint side). The cable-driven joints are the last n_c, so the code picks
them by slicing (``q[n - n_c:]``) and keeps no selection matrices; S1 and
S2 appear only in the comments' equations. All public operations are pure
functions of (model, state); ``step`` returns a fresh state.

The rigid-body terms have one implementation, ``_rigid_body_terms``: a
single-state kernel on Python floats that returns M(q) and the bias torque
h = C(q, qdot) qdot + g(q) from one forward and one backward pass. ``step``,
both controllers, ``mass_matrix``, ``gravity_vector`` and
``coriolis_matrix`` all use it. It and the forward kinematics read one
description of the arm, ``PlantModel._chain``. The tests hold both to an
independent complex-step reference in ``tests/oracles.py``.

``PLANT_FIELDS`` is plant.json's table; ``config.check_fields`` checks it
when a ``PlantModel`` is built.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, Field, check_fields

__all__ = [
    "SimulationFault",
    "PLANT_FIELDS",
    "PlantModel",
    "PlantState",
    "mass_matrix",
    "coriolis_matrix",
    "gravity_vector",
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

# Links are modelled as rods along their local -z axis plus cuff hardware;
# the axial (about-link) inertia must stay well away from zero or the
# internal-rotation joint becomes near-singular and the cable transmission
# mode around it cannot be stabilized at the 1 kHz physics rate.
AXIAL_INERTIA_RATIO = 0.3


class SimulationFault(RuntimeError):
    """Raised when integration produces a non-finite quantity."""


FRICTION_FIELDS = {**dict.fromkeys(("c0", "c1", "c3"), Field("joints", ">= 0", "n_c")),
                   "eps_v": Field(bound="> 0")}
# plant.json; n and n_c come first, as the per-joint fields are sized by them
PLANT_FIELDS = {
    "n": Field("integer", "> 0"),
    "n_c": Field("integer", "> 0"),
    **dict.fromkeys(("link_lengths", "link_masses", "link_com", "link_inertias"),
                    Field("joints", "> 0", "n")),
    **dict.fromkeys(("spring_stiffness", "motor_inertia"), Field("joints", "> 0", "n_c")),
    "friction_coeffs": Field("object", table=FRICTION_FIELDS),
    "gravity": Field(bound=">= 0"),
}


@dataclass
class PlantModel:
    """Geometric, inertial and elastic parameters of the exoskeleton arm.

    ``__post_init__`` checks the fields and derives ``_chain``, the one
    geometry the model holds: one tuple of Python floats per link, which
    the rigid-body kernel and the forward-kinematics helpers
    (``link_com_positions``, ``end_effector_position``,
    ``potential_energy``) read; and ``_friction_coeffs``, the friction
    coefficients as floats."""

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

    def __post_init__(self) -> None:
        # the file's fields; an unset link_com or link_inertias is left out
        values = {k: v for k in PLANT_FIELDS if (v := getattr(self, k, None)) is not None}
        values["friction_coeffs"] = {k: getattr(self, f"friction_{k}") for k in FRICTION_FIELDS}
        arrays = check_fields(values, PLANT_FIELDS, "plant", {"n": self.n, "n_c": self.n_c})
        if self.n_c > self.n:
            raise ConfigError("plant n_c must not exceed n")
        friction = arrays.pop("friction_coeffs")
        vars(self).update(arrays, **{f"friction_{k}": arr for k, arr in friction.items()})
        if self.link_com is None:
            self.link_com = 0.5 * self.link_lengths
        if np.any(self.link_com > self.link_lengths):
            raise ConfigError("plant link_com must not exceed link_lengths")
        if self.link_inertias is None:
            self.link_inertias = self.link_masses * self.link_lengths**2 / 12.0
        # the one description of the chain, which the kernel and _fk read:
        # per link the joint-axis index and the two column indices its
        # rotation mixes, link length, COM distance, mass, transverse inertia
        # and (axial - transverse) inertia
        chain = []
        for i in range(self.n):
            ax = "xyz".index(_DEFAULT_AXES[i]) if i < len(_DEFAULT_AXES) else i % 3
            it = float(self.link_inertias[i])
            chain.append((ax, (ax + 1) % 3, (ax + 2) % 3, float(self.link_lengths[i]),
                          float(self.link_com[i]), float(self.link_masses[i]), it,
                          AXIAL_INERTIA_RATIO * it - it))
        self._chain = tuple(chain)
        # (c0, c1, c3) per cable joint, as _friction reads them
        self._friction_coeffs = tuple(zip(self.friction_c0.tolist(), self.friction_c1.tolist(),
                                          self.friction_c3.tolist()))


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
    effector (3,) for one checked configuration: the kernel's frame update."""
    R = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # link frame columns
    p = (0.0, 0.0, 0.0)  # joint origin
    coms = []
    for qi, (_, b, d, length, lc, *_) in zip(q.tolist(), model._chain):
        co, si = math.cos(qi), math.sin(qi)
        rb, rd = R[b], R[d]
        R[b] = (co * rb[0] + si * rd[0], co * rb[1] + si * rd[1], co * rb[2] + si * rd[2])
        R[d] = (co * rd[0] - si * rb[0], co * rd[1] - si * rb[1], co * rd[2] - si * rb[2])
        z = R[2]
        coms.append((p[0] - lc * z[0], p[1] - lc * z[1], p[2] - lc * z[2]))
        p = (p[0] - length * z[0], p[1] - length * z[1], p[2] - length * z[2])
    return np.array(coms), np.array(p)


# ---------------------------------------------------------------------------
# the rigid-body kernel
#
# M(q) and the bias torque h = C(q, qdot) qdot + g(q) for one state: the
# plant, both controllers and the public helpers below all take them from
# here. On 3-vectors numpy's per-call overhead costs more than the
# arithmetic, so the kernel works on Python floats (Featherstone, Rigid
# Body Dynamics Algorithms, 2008), written out on scalars where h needs them:
#
# - a forward pass for the link frames, velocities and accelerations;
# - a backward recursive Newton-Euler pass for h, with qddot = 0 and gravity
#   as an upward base acceleration;
# - with ``with_mass`` only (the transparent controller asks for h alone),
#   the composite-rigid-body algorithm for M in a second backward pass: the
#   links beyond joint j (and the payload) form one body whose momentum
#   under a unit rate of joint j, taken about the world origin, is column j.
#
# The order of the float operations fixes every output bit, and the tests
# pin the controllers and the step bitwise. The kernel reads the model's one
# geometry, ``PlantModel._chain``, and relies on what it describes: every
# joint axis is a principal axis of the parent link's frame, and every link,
# COM offset and inertia tensor is symmetric about the link's local z axis.
# ``_fk`` repeats the forward pass's frame update for positions only. The
# tests hold both to an independent complex-step reference in
# ``tests/oracles.py``, which builds its own rotation-matrix geometry from
# the model's public fields.


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


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
    for one state, h as a list of n floats; the payload is an end-effector
    point mass."""
    chain = model._chain
    R = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # link frame columns
    p0 = p1 = p2 = 0.0  # joint origin, tracked for M only
    w0 = w1 = w2 = wd0 = wd1 = wd2 = 0.0  # angular velocity and acceleration
    a0, a1, a2 = 0.0, 0.0, float(model.gravity)  # joint-origin acceleration
    links, frames = [], []
    for qi, qd, (ax, b, d, length, lc, m, it, dit) in zip(q.tolist(), qdot.tolist(), chain):
        k = k0, k1, k2 = R[ax]  # world joint axis, fixed in the parent frame
        co, si = math.cos(qi), math.sin(qi)
        (b0, b1, b2), (d0, d1, d2) = R[b], R[d]
        R[b] = (co * b0 + si * d0, co * b1 + si * d1, co * b2 + si * d2)
        R[d] = (co * d0 - si * b0, co * d1 - si * b1, co * d2 - si * b2)
        z = z0, z1, z2 = R[2]
        # w x k is the rate of turn of the joint axis
        wd0, wd1, wd2 = (wd0 + qd * (w1 * k2 - w2 * k1), wd1 + qd * (w2 * k0 - w0 * k2),
                         wd2 + qd * (w0 * k1 - w1 * k0))
        w0, w1, w2 = w0 + qd * k0, w1 + qd * k1, w2 + qd * k2

        # the point x down the link axis (at -x z) accelerates as a - x e,
        # e = wd x z + w x (w x z)
        c0, c1, c2 = w1 * z2 - w2 * z1, w2 * z0 - w0 * z2, w0 * z1 - w1 * z0  # w x z
        e0 = (wd1 * z2 - wd2 * z1) + (w1 * c2 - w2 * c1)
        e1 = (wd2 * z0 - wd0 * z2) + (w2 * c0 - w0 * c2)
        e2 = (wd0 * z1 - wd1 * z0) + (w0 * c1 - w1 * c0)
        # N = I wd + w x (I w) with I v = it v + dit (z . v) z
        zwd = dit * (z0 * wd0 + z1 * wd1 + z2 * wd2)
        zw = dit * (z0 * w0 + z1 * w1 + z2 * w2)
        links.append((k, z, m * (a0 - lc * e0), m * (a1 - lc * e1), m * (a2 - lc * e2),
                      it * wd0 + zwd * z0 + zw * c0, it * wd1 + zwd * z1 + zw * c1,
                      it * wd2 + zwd * z2 + zw * c2, length, lc))
        a0, a1, a2 = a0 - length * e0, a1 - length * e1, a2 - length * e2
        if with_mass:  # the joint's p x k and the link's COM
            frames.append(((k1 * p2 - k2 * p1, k2 * p0 - k0 * p2, k0 * p1 - k1 * p0),
                           (p0 - lc * z0, p1 - lc * z1, p2 - lc * z2)))
            p0, p1, p2 = p0 - length * z0, p1 - length * z1, p2 - length * z2
    # a and p are now the end effector's

    # f, n: force of the links beyond the current joint on it, and moment
    # about its origin
    pm = payload_mass
    f0, f1, f2 = pm * a0, pm * a1, pm * a2
    n0 = n1 = n2 = 0.0
    h = []
    for (k0, k1, k2), (z0, z1, z2), F0, F1, F2, N0, N1, N2, length, lc in reversed(links):
        # the link's own force acts at -lc z, the outer links' at -length z
        s0, s1, s2 = lc * F0 + length * f0, lc * F1 + length * f1, lc * F2 + length * f2
        n0 = N0 + n0 - (z1 * s2 - z2 * s1)
        n1 = N1 + n1 - (z2 * s0 - z0 * s2)
        n2 = N2 + n2 - (z0 * s1 - z1 * s0)
        f0, f1, f2 = F0 + f0, F1 + f1, F2 + f2
        h.append(k0 * n0 + k1 * n1 + k2 * n2)
    h.reverse()
    if not with_mass:
        return None, h

    # the composite-rigid-body pass: mc, mu, I0 are the composite mass,
    # first moment and rotational inertia about the world origin of the
    # links beyond the current joint
    n = len(chain)
    mc, mu = pm, (pm * p0, pm * p1, pm * p2)
    I0 = _add_inertia((0.0,) * 6, pm, (p0, p1, p2))
    M = [[0.0] * n for _ in range(n)]
    axes = [(link[0], frame[0]) for link, frame in zip(links, frames)]
    for j in range(n - 1, -1, -1):
        (k, z), (u, c), (*_, m, it, dit) = links[j][:2], frames[j], chain[j]
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
    return np.array(M), h


def mass_matrix(model: PlantModel, q, payload_mass: float = 0.0) -> np.ndarray:
    """Joint-space inertia matrix; the payload enters as an end-effector point mass."""
    q = _check_q(model, q)
    return _rigid_body_terms(model, q, np.zeros(model.n), payload_mass)[0]


def gravity_vector(model: PlantModel, q, payload_mass: float = 0.0) -> np.ndarray:
    """Gradient of total gravitational potential with respect to q."""
    q = _check_q(model, q)
    return np.array(_rigid_body_terms(model, q, np.zeros(model.n), payload_mass,
                                      with_mass=False)[1])


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
        return np.array(_rigid_body_terms(model, q, v, payload_mass, with_mass=False)[1])

    # G(qdot + e_j) - G(e_j) = h(qdot + e_j) - h(e_j): their g's cancel
    G_qdot = bias(qdot) - bias(np.zeros(model.n))
    return 0.5 * np.column_stack([bias(qdot + e) - bias(e) - G_qdot for e in np.eye(model.n)])


# ---------------------------------------------------------------------------
# friction, energy and the integrator


def _friction(model: PlantModel, thetadot: np.ndarray, eps_v: float) -> list[float]:
    """Dissipative cable-joint friction as n_c floats: odd polynomial plus a
    Coulomb term smoothed over a boundary layer of width ``eps_v`` (the
    plant's ``friction_eps_v``; the controllers' compensation uses a wider
    one). The cube and the tanh stay in numpy, whose ``**3`` and ``tanh``
    differ from ``v**3`` and ``math.tanh`` in the last bit on some inputs;
    the sum is the same on floats as on arrays."""
    cube, layer = (thetadot**3).tolist(), np.tanh(thetadot / eps_v).tolist()
    return [-(c1 * v + c3 * v3 + c0 * s) for (c0, c1, c3), v, v3, s in zip(
        model._friction_coeffs, thetadot.tolist(), cube, layer)]


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
    defl = state.theta - state.q[model.n - model.n_c:]
    e = 0.5 * state.qdot @ M @ state.qdot
    e += 0.5 * (state.thetadot * model.motor_inertia) @ state.thetadot
    e += 0.5 * (defl * model.spring_stiffness) @ defl
    e += potential_energy(model, state.q, state.payload_mass)
    return float(e)


def settled_state(model: PlantModel, q, payload_mass: float = 0.0) -> PlantState:
    """Rest state with the spring preloaded to carry the cable-joint gravity share."""
    q = np.asarray(q, dtype=float)
    g = gravity_vector(model, q, payload_mass)
    nd = model.n - model.n_c
    theta = q[nd:] + g[nd:] / model.spring_stiffness
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
    tau_f = _friction(model, thd, model.friction_eps_v)
    rhs_link = np.concatenate((u[:nd], spring + tau_f)) + tau_e - h
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
    """Build a PlantModel from ``plant.json``, whose fields ``PLANT_FIELDS``
    lists; the file's ``friction_coeffs`` become the model's ``friction_*``."""
    raw = json.loads(Path(path).read_text())
    check_fields(raw, PLANT_FIELDS, "plant")
    friction = raw.pop("friction_coeffs", {})
    return PlantModel(**raw, **{f"friction_{k}": v for k, v in friction.items()})
