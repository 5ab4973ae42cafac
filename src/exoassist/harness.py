"""Closed-loop scenario engine: plant, controllers, refinement, detector
and planner wired together with a scripted wearer model.

Rates are fixed at 1 kHz physics with a 100 Hz control/detector tick. A
tick of ``run_scenario`` runs: events (with a grasp's gradual payload
transfer) -> sense -> detect -> replan -> execute (``_PlanExecutor`` takes a
new plan and steps its state machine) -> control -> advance -> record.
``_advance`` owns the physics: it holds the control torque across the ten
substeps of a tick for ``run_scenario``, ``tracking_comparison`` and
``collect_training_data`` alike. All randomness flows through seeded
generators, so a (scenario, seed, checkpoint) triple reproduces its trace
bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import control as ctl
from . import dynamics as dyn
from . import trajectory as traj
from .anomaly import AnomalyDetector, ChannelLayout, compute_stats
from .planner import (
    DEFAULT_THRESHOLD,
    PlannerRuntime,
    load_targets,
    replan_check,
)

__all__ = [
    "WearerParams",
    "EventSpec",
    "Scenario",
    "SimStack",
    "TraceRecord",
    "run_scenario",
    "inject_event",
    "collect_training_data",
    "metrics",
    "load_scenario",
    "save_trace_csv",
    "TRACE_COLUMNS",
]

PHYSICS_DT = 1e-3
CONTROL_SUBSTEPS = 10
CONTROL_DT = PHYSICS_DT * CONTROL_SUBSTEPS

DEFAULT_SENSOR_NOISE = {
    "q": 1e-4, "qdot": 1e-3, "theta": 1e-4, "thetadot": 1e-3, "tau_e": 0.01,
}

# a go_target with no paramset before it moves at Spd = 0 (duration and speed limit)
DEFAULT_TASK = ctl.apply_task_config((1, 0, 0))[1]


@dataclass
class WearerParams:
    """Spring-damper arm model driving the interaction torque."""

    K_h: float | np.ndarray = 20.0
    C_h: float | np.ndarray = 5.0
    saturation: float = 15.0
    name: str = "subject-a"


@dataclass
class EventSpec:
    type: str  # drop | payload_step | torque_pulse | intent_conflict
    t: float
    params: dict = field(default_factory=dict)


# event type -> (required params, optional params)
EVENT_PARAMS = {
    "drop": ((), ("amplitude", "decay", "joints")),
    "payload_step": (("mass",), ()),
    "torque_pulse": (("amplitude",), ("decay",)),
    "intent_conflict": (("pose_deg",), ("duration",)),
}
# the one per-joint param of an event type; every other param is one number.
# Its length is checked against the plant before the first tick.
JOINT_PARAMS = {"drop": "joints", "torque_pulse": "amplitude", "intent_conflict": "pose_deg"}
DROP_JOINTS = (1, 3)  # the joints a drop's transient acts on unless given
# the scalar scenario fields checked at load, each with its bound, if any
SCENARIO_NUMBERS = {
    **dict.fromkeys(("duration", "reach_duration", "target_tolerance_deg",
                     "replan_refractory"), "> 0"),
    **dict.fromkeys(("item_mass", "grasp_confirm_delay", "settle_time",
                     "grasp_load_time"), ">= 0"),
    **dict.fromkeys(("s_bar", "score_coupling_floor"), ""),
}


@dataclass
class Scenario:
    name: str
    task: str
    item_mass: float = 0.0
    start_pose_deg: tuple = (0.0, 15.0, 0.0, 25.0)
    grasp_pose_deg: tuple = (5.0, 30.0, 0.0, 60.0)
    reach_duration: float = 1.5
    grasp_confirm_delay: float = 0.5
    duration: float = 12.0
    events: list[EventSpec] = field(default_factory=list)
    seed: int = 0
    wearer: WearerParams = field(default_factory=WearerParams)
    assist_joints: tuple = (0, 1, 2, 3)
    settle_time: float = 1.0
    grasp_load_time: float = 0.4  # payload transfers gradually during grasp
    target_tolerance_deg: float = 3.0
    replan_refractory: float = 0.5
    sensor_noise: dict = field(default_factory=lambda: dict(DEFAULT_SENSOR_NOISE))
    s_bar: float = DEFAULT_THRESHOLD
    # reconstruction scores have a nominal floor; only the excess above it
    # feeds the QP score chain, otherwise the coupling drags tracking even
    # in normal operation
    score_coupling_floor: float = 0.35


@dataclass
class SimStack:
    """Everything a scenario needs besides the scenario itself. The gains
    are checked against the plant here, once: the controllers do not."""

    model: dyn.PlantModel
    control: ctl.ControlConfig
    planner: PlannerRuntime
    detector: AnomalyDetector | None = None
    targets: dict | None = None

    def __post_init__(self):
        self.control.transparent.validated(self.model.n_c)
        self.control.impedance.validated(self.model.n, self.model.n_c)
        self.control.qp.check_lengths(self.model.n)
        if self.targets is None:
            self.targets = load_targets()


TRACE_COLUMNS = (
    ["t"]
    + [f"q{i}" for i in range(4)]
    + [f"qdot{i}" for i in range(4)]
    + [f"theta{i}" for i in range(2)]
    + [f"thetadot{i}" for i in range(2)]
    + [f"tau_e{i}" for i in range(4)]
    + [f"u{i}" for i in range(4)]
    + [f"q_d{i}" for i in range(4)]
    + [f"qdot_d{i}" for i in range(4)]
    + ["s", "mode", "subtask", "replan", "mode_cmd"]
)


# columns kept as lists: the mode label and the integer flags; the others
# are stored as packed float64, 8 bytes a value
_LIST_COLUMNS = ("mode", "subtask", "replan", "mode_cmd")


@dataclass
class TraceRecord:
    """Column-major per-tick trace; ``rows`` gives CSV-ready row lists."""

    fault: str | None = None
    columns: dict = field(default_factory=lambda: {
        c: [] if c in _LIST_COLUMNS else array("d") for c in TRACE_COLUMNS})

    def __len__(self) -> int:
        return len(self.columns["t"])

    @property
    def rows(self) -> list[list]:
        return [list(r) for r in zip(*self.columns.values())]

    def append(self, **kw):
        for name, col in self.columns.items():
            col.append(kw[name])

    def column(self, name: str) -> np.ndarray:
        vals = self.columns[name]
        if name in ("subtask", "mode"):
            return np.array(vals, dtype=object)
        return np.array(vals, dtype=float)

    def vector(self, prefix: str, size: int) -> np.ndarray:
        cols = [self.column(f"{prefix}{i}") for i in range(size)]
        return np.stack(cols, axis=1)


def save_trace_csv(path: str | Path, trace: TraceRecord) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*trace.columns.values()))


def _load_event(raw: dict, duration: float) -> EventSpec:
    """One scripted event; ConfigError unless it can fire as written."""
    kind, params = raw.get("type"), raw.get("params", {})
    if kind not in EVENT_PARAMS:
        raise dyn.ConfigError(f"unknown event type {kind!r}")
    required, optional = EVENT_PARAMS[kind]
    if not set(required) <= set(params) <= set(required + optional):
        raise dyn.ConfigError(f"{kind} event needs params {list(required)} and may have "
                              f"{list(optional)}, got {sorted(params)}")
    try:
        t = float(raw["t"])
        values = {k: np.asarray(v, dtype=float) for k, v in params.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise dyn.ConfigError(f"{kind} event needs a time and numeric params") from exc
    if not (math.isfinite(t) and all(np.all(np.isfinite(v)) for v in values.values())):
        raise dyn.ConfigError(f"{kind} event has a non-finite number")
    if not 0.0 <= t <= duration:
        raise dyn.ConfigError(f"{kind} event at t = {t} s is outside [0, {duration}] s")
    if np.any(values.get("mass", 0.0) < 0.0) or np.any(values.get("decay", 1.0) <= 0.0):
        raise dyn.ConfigError(f"{kind} event needs mass >= 0 and decay > 0")
    for k, v in values.items():
        if v.ndim and k != JOINT_PARAMS.get(kind):
            raise dyn.ConfigError(f"{kind} event: {k} must be a single number")
    return EventSpec(type=kind, t=t, params=params)


def _check_sensor_noise(noise) -> None:
    """ConfigError unless ``noise`` maps keys of DEFAULT_SENSOR_NOISE to
    standard deviations >= 0. It replaces DEFAULT_SENSOR_NOISE as a whole:
    a missing key is no noise."""
    if not isinstance(noise, dict) or not set(noise) <= set(DEFAULT_SENSOR_NOISE):
        raise dyn.ConfigError(f"sensor_noise must be an object with keys among "
                              f"{list(DEFAULT_SENSOR_NOISE)}")
    for key, sd in noise.items():
        if ctl._number(sd, f"sensor_noise {key}", positive=False) < 0:
            raise dyn.ConfigError(f"sensor_noise {key} must be a number >= 0")


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file; unknown or missing fields, a scalar field out
    of its ``SCENARIO_NUMBERS`` bound, a bad wearer value, seed or sensor
    noise level, and any event that could not fire as written (unknown
    type, missing or unknown params, a time outside [0, duration], a
    non-finite number) raise ConfigError. The per-joint values are checked
    against the plant by ``run_scenario``."""
    raw = json.loads(Path(path).read_text())
    raw_events = raw.pop("events", [])
    wearer = raw.pop("wearer", {})
    if not isinstance(wearer, dict):
        raise dyn.ConfigError("scenario wearer must be an object of wearer fields")
    unknown = sorted(set(raw) - set(Scenario.__dataclass_fields__)) \
        + [f"wearer.{k}" for k in sorted(set(wearer) - set(WearerParams.__dataclass_fields__))]
    if unknown:
        raise dyn.ConfigError(f"unknown scenario fields: {unknown}")
    missing = {"name", "task"} - set(raw)
    if missing:
        raise dyn.ConfigError(f"scenario needs fields {sorted(missing)}")
    scenario = Scenario(wearer=WearerParams(**wearer), **raw)
    for name, bound in SCENARIO_NUMBERS.items():
        value = ctl._number(getattr(scenario, name), f"scenario {name}", positive=bound == "> 0")
        if bound == ">= 0" and value < 0:
            raise dyn.ConfigError(f"scenario {name} must be a number >= 0")
    wearer = scenario.wearer
    for name in ("K_h", "C_h"):
        if np.any(ctl._finite_values(getattr(wearer, name), f"wearer {name}") < 0):
            raise dyn.ConfigError(f"wearer {name} must be >= 0")
    ctl._number(wearer.saturation, "wearer saturation")
    if not isinstance(wearer.name, str):
        raise dyn.ConfigError("wearer name must be a string")
    if isinstance(scenario.seed, bool) or not isinstance(scenario.seed, int) \
            or scenario.seed < 0:
        raise dyn.ConfigError("scenario seed must be a non-negative integer")
    _check_sensor_noise(scenario.sensor_noise)
    scenario.events = [_load_event(e, scenario.duration) for e in raw_events]
    return scenario


def _joint_indices(value, n: int) -> bool:
    """Whether ``value`` is a list of integer joint indices below n."""
    try:
        joints = np.asarray(value)
    except ValueError:  # ragged nesting
        return False
    return bool(joints.ndim == 1 and joints.dtype.kind in "iu"
                and np.all((joints >= 0) & (joints < n)))


def _check_joint_params(scenario: Scenario, n: int) -> None:
    """ConfigError unless the scenario's per-joint values fit an n-joint
    plant: both poses are n finite numbers, the wearer's K_h and C_h one
    number or n, assist_joints and drop joints indices below n, and every
    other per-joint event param has n values."""
    for name in ("start_pose_deg", "grasp_pose_deg"):
        if ctl._finite_values(getattr(scenario, name), f"scenario {name}").shape != (n,):
            raise dyn.ConfigError(f"scenario {name} must be a list of {n} numbers")
    for name in ("K_h", "C_h"):
        if ctl._finite_values(getattr(scenario.wearer, name),
                              f"wearer {name}").shape not in ((), (n,)):
            raise dyn.ConfigError(f"wearer {name} must be one number or a list of {n}")
    if not _joint_indices(scenario.assist_joints, n):
        raise dyn.ConfigError(f"scenario assist_joints must be a list of joint indices below {n}")
    for e in scenario.events:
        key = JOINT_PARAMS.get(e.type)
        if key is None:
            continue
        if key == "joints":
            ok = _joint_indices(e.params.get("joints", DROP_JOINTS), n)
            want = f"a list of joint indices below {n}"
        else:
            ok, want = np.shape(e.params[key]) == (n,), f"a list of {n} numbers"
        if not ok:
            raise dyn.ConfigError(f"{e.type} event at t = {e.t} s: {key} must be {want}")


# ---------------------------------------------------------------------------
# events


@dataclass
class EventOutcome:
    state: dyn.PlantState
    transient: dict | None = None       # {"amplitude": (n,), "decay": s, "t0": s}
    intent_override: dict | None = None  # {"pose": (n,), "until": s}


def inject_event(state: dyn.PlantState, event: EventSpec,
                 model: dyn.PlantModel) -> EventOutcome:
    """Apply one scripted event to the plant state of ``model``.

    ``drop`` zeroes the payload and returns a decaying torque transient
    whose signs follow the payload's former gravity load on the cable-side
    joints; other types adjust payload, inject a pulse, or switch the
    wearer's intent."""
    if event.type == "drop":
        transient = None
        if state.payload_mass > 0.0:
            amp = float(event.params.get("amplitude", 2.0))
            decay = float(event.params.get("decay", 0.1))
            g_load = dyn.gravity_vector(model, state.q, state.payload_mass) \
                - dyn.gravity_vector(model, state.q, 0.0)
            signs = np.sign(g_load)
            signs[signs == 0.0] = 1.0
            vec = np.zeros(model.n)
            joints = list(event.params.get("joints", DROP_JOINTS))
            vec[joints] = amp * signs[joints]
            transient = {"amplitude": vec, "decay": decay, "t0": event.t}
        return EventOutcome(state=replace(state, payload_mass=0.0), transient=transient)
    if event.type == "payload_step":
        return EventOutcome(state=replace(state, payload_mass=float(event.params["mass"])))
    if event.type == "torque_pulse":
        vec = np.asarray(event.params["amplitude"], dtype=float)
        return EventOutcome(state=state, transient={
            "amplitude": vec, "decay": float(event.params.get("decay", 0.1)),
            "t0": event.t})
    if event.type == "intent_conflict":
        pose = np.radians(np.asarray(event.params["pose_deg"], dtype=float))
        return EventOutcome(state=state, intent_override={
            "pose": pose, "until": event.t + float(event.params.get("duration", 1.0))})
    raise ValueError(f"unknown event type: {event.type!r}")


# ---------------------------------------------------------------------------
# the wearer


class _Wearer:
    """The scripted wearer: a saturated spring-damper pulling the arm toward
    its intent (or toward an intent-conflict pose while one is active), plus
    the decaying torque transients that events inject. ``intent`` maps t to
    the wearer's desired (q, qdot)."""

    def __init__(self, params: WearerParams, pose: np.ndarray):
        self.params = params
        self.override: dict | None = None  # {"pose": (n,), "until": s}
        self.transients: list[dict] = []   # [{"amplitude": (n,), "decay": s, "t0": s}]
        self.hold(pose)

    def hold(self, pose: np.ndarray):
        pose = pose.copy()
        self.intent = lambda t: (pose, np.zeros_like(pose))

    def reach(self, t0: float, start: np.ndarray, goal: np.ndarray, duration: float):
        spline = traj.quintic_reference(start, goal, duration)
        self.intent = lambda t: spline.sample(t - t0)[:2]

    def torque(self, t: float, state: dyn.PlantState) -> np.ndarray:
        """Interaction torque on the arm at time t."""
        q_h, qd_h = self.intent(t)
        if self.override is not None and t <= self.override["until"]:
            q_h, qd_h = self.override["pose"], np.zeros(state.q.size)
        tau = self.params.K_h * (q_h - state.q) + self.params.C_h * (qd_h - state.qdot)
        tau = np.clip(tau, -self.params.saturation, self.params.saturation)
        for tr in self.transients:
            tau = tau + tr["amplitude"] * math.exp(-(t - tr["t0"]) / tr["decay"])
        return tau

    def sense(self, t: float, state: dyn.PlantState) -> np.ndarray:
        """The torque at a control tick. An expired override is cleared
        first; spent transients are pruned after they are summed."""
        if self.override is not None and t > self.override["until"]:
            self.override = None
        tau = self.torque(t, state)
        self.transients = [tr for tr in self.transients if t - tr["t0"] < 6 * tr["decay"]]
        return tau


def _advance(model: dyn.PlantModel, state: dyn.PlantState, u: np.ndarray,
             wearer: _Wearer, t: float, tau: np.ndarray):
    """Hold ``u`` across one tick's physics substeps, the first under ``tau``;
    returns the new state, the time and the last substep's interaction torque."""
    for i in range(CONTROL_SUBSTEPS):
        tau = wearer.torque(t, state) if i else tau
        state = dyn.step(model, state, u, tau, PHYSICS_DT)
        t += PHYSICS_DT
    return state, t, tau


# ---------------------------------------------------------------------------
# plan executor


@dataclass
class _Move:
    """One go_target: its reference, its refinement setup and the desired state."""

    reference: traj.ReferenceSpline  # ends at the target pose
    t0: float
    setup: traj.QPSetup
    q_d: np.ndarray
    qd_d: np.ndarray
    qdd_d: np.ndarray


class _PlanExecutor:
    """Runs the active plan step by step. It owns the control mode, the step
    state (planning | grasp | move | done), the current move, the task config
    of the last paramset, the grasp-confirm time and whether the last
    go_target converged. ``mode_cmd`` marks a mode command within a tick.
    """

    def __init__(self, scenario: Scenario, stack: SimStack, wearer: _Wearer):
        self.scenario, self.stack, self.wearer = scenario, stack, wearer
        self.grasp_pose = np.radians(np.asarray(scenario.grasp_pose_deg, dtype=float))
        self.plan = None
        self.mode = "transparent"
        self.mode_cmd = False
        self.step = "planning"
        self.move: _Move | None = None
        self.task: ctl.TaskConfig | None = None
        self.icfg = stack.control.impedance  # with the task's w once a paramset ran
        self.grasp_confirm_at: float | None = None
        self.converged = True

    @property
    def label(self) -> str:
        step = self.plan.current() if self.plan is not None else None
        return step.label if step is not None else self.step

    def abort(self, t: float, state: dyn.PlantState) -> None:
        """Drop the plan on a replan trigger: back to transparent mode while
        the wearer reaches for the object again."""
        self.plan.clear()
        self.plan, self.move, self.mode, self.mode_cmd = None, None, "transparent", True
        self.wearer.reach(t, state.q.copy(), self.grasp_pose, self.scenario.reach_duration)
        self.step = "planning"

    def execute(self, t: float, state: dyn.PlantState, grad: np.ndarray,
                s_value: float) -> bool:
        """Take a finished plan from the planner, then step the state
        machine. Returns True on the tick the grasp is confirmed."""
        if self.plan is None:
            result = self.stack.planner.poll()
            if result is not None and result.plan is not None and result.plan.valid:
                self.plan = result.plan
                self._begin(t, state)
        if self.plan is None:
            return False
        if self.step == "grasp" and self.grasp_confirm_at is not None \
                and t >= self.grasp_confirm_at:
            self.grasp_confirm_at = None
            self.wearer.hold(state.q.copy())
            self.plan.advance()
            self._begin(t, state)
            return True
        if self.step == "move":
            self._track(t, state, grad, s_value)
        return False

    def _begin(self, t: float, state: dyn.PlantState) -> None:
        """Start the step at the plan cursor; instantaneous steps chain
        within the same tick."""
        plan, sc = self.plan, self.scenario
        while (step := plan.current()) is not None:
            if step.name == "set_mode":
                self.mode = "impedance" if step.args["mode"] == 1 else "transparent"
                self.mode_cmd = True
                if plan.cursor == 0 and self.mode == "transparent":
                    # grasp phase: the wearer reaches for the object
                    self.step = "grasp"
                    self.wearer.reach(t, state.q.copy(), self.grasp_pose, sc.reach_duration)
                    self.grasp_confirm_at = t + sc.reach_duration + sc.grasp_confirm_delay
                    return
            elif step.name == "paramset":
                self.task = ctl.apply_task_config((1, step.args["spd"], step.args["imp"]))[1]
                self.icfg = replace(self.stack.control.impedance, w=self.task.w)
            elif step.name == "go_target":
                target = np.radians(self.stack.targets[step.args["target"]])
                task = self.task or DEFAULT_TASK
                self.mode, self.mode_cmd = "impedance", True
                self.move = move = _Move(
                    reference=traj.quintic_reference(state.q.copy(), target, task.t_f),
                    t0=t,
                    setup=traj.QPSetup.from_config(self.stack.control.qp, self.stack.model.n,
                                                   task.speed_limit, self.icfg.Kd,
                                                   self.icfg.Cd, self.icfg.w),
                    q_d=state.q.copy(), qd_d=np.zeros_like(target), qdd_d=np.zeros_like(target),
                )
                self.wearer.intent = lambda _t: (move.q_d, move.qd_d)
                self.step, self.converged = "move", False
                return
            elif step.name == "done":
                # without a trailing set_mode(1) control goes back to the wearer
                prev = plan.steps[plan.cursor - 1] if plan.cursor >= 1 else None
                kept_impedance = (prev is not None and prev.name == "set_mode"
                                  and prev.args.get("mode") == 1)
                if self.mode == "impedance" and not kept_impedance:
                    self.mode, self.mode_cmd, self.move = "transparent", True, None
                if self.mode == "transparent":
                    self.wearer.hold(state.q.copy())
                self.step = "done"
                return
            elif not step.name.startswith("predefined:"):
                raise dyn.ConfigError(f"executor cannot run subtask {step.name!r}")
            plan.advance()
        self.step = "done"

    def _track(self, t: float, state: dyn.PlantState, grad: np.ndarray,
               s_value: float) -> None:
        """Refine the move's desired state; on convergence hold the target
        and start the next step."""
        move, sc = self.move, self.scenario
        elapsed = t - move.t0
        seg = traj.refine(move.reference, (move.q_d, move.qd_d), move.setup, elapsed,
                          grad, max(0.0, s_value - sc.score_coupling_floor))
        q_d, qd_d, _ = seg.sample(CONTROL_DT)
        move.qdd_d = seg.qddot_d[0]
        reference_done = elapsed >= move.reference.t_f + sc.settle_time
        target = move.reference.qf
        at_target = np.max(np.abs(state.q - target)) < math.radians(sc.target_tolerance_deg)
        if reference_done and at_target:
            self.converged = True
            move.q_d, move.qd_d = target.copy(), np.zeros_like(target)
            move.qdd_d = np.zeros_like(target)
            self.plan.advance()
            self._begin(t, state)
        else:
            move.q_d, move.qd_d = q_d, qd_d


# ---------------------------------------------------------------------------
# scenario engine


def run_scenario(scenario: Scenario, stack: SimStack, seed: int | None = None):
    """Execute the closed loop; returns (TraceRecord, metrics dict). The
    scenario's per-joint values are checked against the plant before the
    first tick."""
    model = stack.model
    _check_joint_params(scenario, model.n)
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    noise = scenario.sensor_noise

    q0 = np.radians(np.asarray(scenario.start_pose_deg, dtype=float))
    state = dyn.settled_state(model, q0)

    layout = ChannelLayout(n=model.n, n_c=model.n_c)
    detector = stack.detector
    window = deque(maxlen=detector.L_s if detector else 25)

    wearer = _Wearer(scenario.wearer, q0)
    executor = _PlanExecutor(scenario, stack, wearer)
    trace = TraceRecord()
    events = deque(sorted(scenario.events, key=lambda e: e.t))
    first_event_t = events[0].t if events else None
    belief_payload = 0.0
    loading_since = None  # grasp time while the item's mass transfers
    replan_count = 0
    last_trigger_t = -1e9
    detection_latency = None

    def sense(vec, key):
        sd = noise.get(key, 0.0)
        return vec + (rng.standard_normal(vec.shape) * sd if sd > 0 else 0.0)

    stack.planner.request_plan(scenario.task)
    try:
        for tick in range(int(round(scenario.duration / CONTROL_DT))):
            t = tick * CONTROL_DT
            replan_flag = False
            executor.mode_cmd = False

            # events, then the gradual load transfer while grasping
            while events and events[0].t <= t + 1e-12:
                event = events.popleft()
                outcome = inject_event(state, event, model)
                state = outcome.state
                if outcome.transient:
                    wearer.transients.append(outcome.transient)
                if outcome.intent_override:
                    wearer.override = outcome.intent_override
                if event.type == "drop":
                    loading_since = None  # belief unchanged: detection must find it
            if loading_since is not None:
                frac = min(1.0, (t - loading_since) / max(scenario.grasp_load_time, 1e-9))
                belief_payload = scenario.item_mass * frac
                state = replace(state, payload_mass=belief_payload)
                if frac >= 1.0:
                    loading_since = None

            # sense
            q_s = sense(state.q, "q")
            qd_s = sense(state.qdot, "qdot")
            th_s = sense(state.theta, "theta")
            thd_s = sense(state.thetadot, "thetadot")
            tau_true = wearer.sense(t, state)
            tau_s = sense(tau_true, "tau_e")

            # detect
            window.append(layout.pack(q_s, qd_s, th_s, thd_s, tau_s))
            s_value, grad = 0.0, np.zeros(model.n)
            if detector is not None and len(window) == window.maxlen:
                s_value, _, grad = detector.score_gradient(np.stack(window))
                if detection_latency is None and first_event_t is not None \
                        and t >= first_event_t and s_value >= scenario.s_bar:
                    detection_latency = (t - first_event_t) * 1000.0

            # replan (only while a plan is being executed)
            if (detector is not None and executor.step in ("grasp", "move")
                    and replan_check(s_value, scenario.s_bar)
                    and t - last_trigger_t > scenario.replan_refractory):
                replan_flag = True
                replan_count += 1
                last_trigger_t = t
                executor.abort(t, state)
                belief_payload = 0.0
                stack.planner.record({"type": "replan", "t": t, "score": s_value})
                stack.planner.request_plan(scenario.task)

            # execute
            if executor.execute(t, state, grad, s_value) and scenario.item_mass > 0.0:
                loading_since = t

            # control
            # fresh, finite arrays: step checks the state, load_scenario the noise
            belief = dyn.PlantState._unchecked(q_s, qd_s, th_s, thd_s, belief_payload, tau_s)
            move = executor.move
            if executor.mode == "impedance" and move is not None:
                u = ctl.impedance_control(model, belief, move.q_d, move.qd_d,
                                          move.qdd_d, tau_s, executor.icfg)
                q_d_row, qd_d_row = move.q_d, move.qd_d
            else:
                u = ctl.transparent_control(model, belief, tau_s, stack.control.transparent)
                q_d_row, qd_d_row = q_s, qd_s

            # advance; the plant sees the wearer after sense pruned its transients
            state, _, _ = _advance(model, state, u, wearer, t, wearer.torque(t, state))

            # record
            row = dict(t=t, s=s_value, mode=int(executor.mode == "impedance"),
                       subtask=executor.label, replan=int(replan_flag),
                       mode_cmd=int(executor.mode_cmd))
            for prefix, vec in (("q", state.q), ("qdot", state.qdot), ("theta", state.theta),
                                ("thetadot", state.thetadot), ("tau_e", tau_true), ("u", u),
                                ("q_d", q_d_row), ("qdot_d", qd_d_row)):
                row.update((f"{prefix}{i}", v) for i, v in enumerate(vec))
            trace.append(**row)
    except (dyn.SimulationFault, traj.RefinementError) as exc:
        trace.fault = f"{type(exc).__name__}: {exc}"
        report = metrics(trace, scenario)
        report["fault"] = trace.fault
        return trace, report

    completed = (
        executor.plan is not None
        and executor.step == "done"
        and executor.converged
        and (state.payload_mass > 0.0 if scenario.item_mass > 0.0 else True)
    )
    report = metrics(trace, scenario)
    report.update({
        "schema_version": 1,
        "task_completed": bool(completed),
        "replan_count": replan_count,
        "detection_latency_ms": detection_latency,
    })
    return trace, report


# ---------------------------------------------------------------------------
# metrics


def metrics(trace: TraceRecord, scenario: Scenario | None = None) -> dict:
    """Aggregate per-run quantities from a trace."""
    if not len(trace):
        return {"n_ticks": 0}
    n = 4
    q = trace.vector("q", n)
    q_d = trace.vector("q_d", n)
    qd_d = trace.vector("qdot_d", n)
    qd = trace.vector("qdot", n)
    u = trace.vector("u", n)
    s = trace.column("s")
    mode = trace.column("mode").astype(int)
    subtask = trace.column("subtask")

    mask = np.array([m == 1 and str(lbl).startswith("go_target")
                     for m, lbl in zip(mode, subtask)])
    joints = list(scenario.assist_joints) if scenario else list(range(n))

    out = {
        "n_ticks": len(trace),
        "rms_tracking_deg": float("nan"),
        "max_cmd_velocity_deg_s": float(np.degrees(np.max(np.abs(qd_d[mask])))) if mask.any() else 0.0,
        "max_velocity_deg_s": float(np.degrees(np.max(np.abs(qd)))),
        "mean_assist_torque": [float("nan")] * n,
        "mean_abs_assist_torque": [float("nan")] * n,
        "fraction_scores_below_threshold": float(np.mean(s < DEFAULT_THRESHOLD)),
        "max_score": float(np.max(s)),
        "mode_changes_flagged": _mode_changes_flagged(trace),
    }
    if mask.any():
        err = q[mask][:, joints] - q_d[mask][:, joints]
        out["rms_tracking_deg"] = float(np.degrees(np.sqrt(np.mean(err**2))))
        out["mean_assist_torque"] = [
            float(np.mean(u[mask][:, j])) if j in joints else float("nan")
            for j in range(n)
        ]
        out["mean_abs_assist_torque"] = [
            float(np.mean(np.abs(u[mask][:, j]))) if j in joints else float("nan")
            for j in range(n)
        ]
    return out


def _mode_changes_flagged(trace: TraceRecord) -> bool:
    """Safety interlock: every mode change coincides with a planner command
    or a replan trigger."""
    mode = trace.column("mode").astype(int)
    cmd = trace.column("mode_cmd").astype(int)
    rep = trace.column("replan").astype(int)
    changes = np.nonzero(np.diff(mode) != 0)[0] + 1
    return bool(np.all((cmd[changes] == 1) | (rep[changes] == 1))) if changes.size else True


# ---------------------------------------------------------------------------
# tracking comparison (refined vs rate-limited reference)


def tracking_comparison(model: dyn.PlantModel, control_cfg: ctl.ControlConfig,
                        q_start_deg, q_peak_deg, t_f: float,
                        speed_limit_deg: float = 30.0, wearer: WearerParams | None = None,
                        settle: float = 1.5):
    """Raise-then-lower motion tracked twice under the same speed limit:
    once with the reference merely rate-limited, once with QP refinement.

    Returns ``{"clamped": ..., "refined": ...}``; each variant has the RMS
    error of the measured joints against the reference (``rms_deg``) and
    the largest commanded joint velocity (``max_cmd_velocity_deg_s``).
    """
    q0 = np.radians(np.asarray(q_start_deg, dtype=float))
    q_peak = np.radians(np.asarray(q_peak_deg, dtype=float))
    n = q0.size
    limit = math.radians(speed_limit_deg)
    step_lim = limit * CONTROL_DT
    wearer = wearer or WearerParams()
    icfg = control_cfg.impedance.validated(model.n, model.n_c)
    control_cfg.qp.check_lengths(model.n)
    setup = traj.QPSetup.from_config(control_cfg.qp, n, limit, icfg.Kd, icfg.Cd, icfg.w)
    up = traj.quintic_reference(q0, q_peak, t_f)
    down = traj.quintic_reference(q_peak, q0, t_f)
    ticks = int(round((2 * t_f + settle) / CONTROL_DT))

    out = {}
    for variant in ("clamped", "refined"):
        state, arm, t = dyn.settled_state(model, q0), _Wearer(wearer, q0), 0.0
        q_d, qd_d = q0.copy(), np.zeros(n)  # the variant's desired state for this tick
        rows_q, rows_ref, rows_cmd_v = [], [], []
        for _ in range(ticks):
            ref, t_ref = (up, t) if t <= t_f else (down, t - t_f)
            q_r = ref.sample(t_ref)[0]
            if variant == "clamped":  # causal rate limiter on the reference
                delta = np.clip(q_r - q_d, -step_lim, step_lim)
                q_d = q_d + delta
                cmd = (q_d, delta / CONTROL_DT, np.zeros(n))
            else:  # receding-horizon refinement, stepped along its own solution
                seg = traj.refine(ref, (q_d, qd_d), setup, t_ref)
                cmd = (q_d, qd_d, seg.qddot_d[0])
                q_d, qd_d, _ = seg.sample(CONTROL_DT)
            arm.intent = lambda _t, cmd=cmd: cmd[:2]  # the wearer follows
            tau = arm.torque(t, state)
            u = ctl.impedance_control(model, state, *cmd, tau, icfg)
            state, t, _ = _advance(model, state, u, arm, t, tau)
            rows_q.append(state.q.copy())
            rows_ref.append(q_r)
            rows_cmd_v.append(cmd[1])
        err = np.degrees(np.array(rows_q) - np.array(rows_ref))
        out[variant] = {
            "rms_deg": float(np.sqrt(np.mean(err**2))),
            "max_cmd_velocity_deg_s": float(np.degrees(np.max(np.abs(rows_cmd_v)))),
        }
    return out


# ---------------------------------------------------------------------------
# training data collection


def collect_training_data(model: dyn.PlantModel, subjects: list[WearerParams],
                          duration: float, seed: int = 0, L_s: int = 25,
                          stride: int = 5,
                          cfg: ctl.TransparentConfig | None = None,
                          sensor_noise: dict | None = None,
                          motion_box_deg=((-20, 60), (5, 100), (-40, 40), (10, 110))):
    """Transparent-mode reach/transport motions sliced into sensory windows.

    Returns a dict with raw windows (M, L_s, per_tick), per-window subject
    tags, a contiguous 80/20 train/validation split, and the channel stats
    computed on the training part only. ``sensor_noise`` follows a
    scenario's rule (a missing key is no noise; a bad one raises
    ConfigError).
    """
    layout = ChannelLayout(n=model.n, n_c=model.n_c)
    ticks_per_subject = int(round(duration / CONTROL_DT))
    if ticks_per_subject < L_s:
        raise ValueError("duration too short for a single sensory window")
    cfg = (cfg or ctl.TransparentConfig()).validated(model.n_c)
    noise = DEFAULT_SENSOR_NOISE if sensor_noise is None else sensor_noise
    _check_sensor_noise(noise)
    box = [np.radians(np.array(b, dtype=float)) for b in motion_box_deg]

    all_windows = []
    tags = []
    for s_idx, subject in enumerate(subjects):
        rng = np.random.default_rng(seed + 1000 * s_idx)
        q0 = np.array([b.mean() for b in box])
        state = dyn.settled_state(model, q0)
        wearer = _Wearer(subject, q0)
        rows = []

        def noisy(vec, key):
            return vec + rng.standard_normal(vec.shape) * noise.get(key, 0.0)
        t = motion_ends = 0.0
        for tick in range(ticks_per_subject):
            if t >= motion_ends:
                target = np.array([rng.uniform(lo, hi) for lo, hi in box])
                move_t = rng.uniform(0.8, 2.2)
                wearer.reach(t, wearer.intent(t)[0].copy(), target, move_t)
                motion_ends = t + move_t + rng.uniform(0.1, 0.3)
            tau = wearer.torque(t, state)
            belief = dyn.PlantState._unchecked(noisy(state.q, "q"), noisy(state.qdot, "qdot"),
                                               state.theta, state.thetadot, 0.0, tau)
            u = ctl.transparent_control(model, belief, noisy(tau, "tau_e"), cfg)
            state, t, tau = _advance(model, state, u, wearer, t, tau)
            rows.append(layout.pack(noisy(state.q, "q"), noisy(state.qdot, "qdot"),
                                    noisy(state.theta, "theta"),
                                    noisy(state.thetadot, "thetadot"), noisy(tau, "tau_e")))
        rows = np.stack(rows)
        n_windows = (len(rows) - L_s) // stride + 1
        windows = np.stack([rows[i * stride:i * stride + L_s] for i in range(n_windows)])
        all_windows.append(windows)
        tags.extend([subject.name] * n_windows)

    raw = np.concatenate(all_windows)
    # contiguous split per subject to avoid window leakage
    train_idx, val_idx = [], []
    offset = 0
    for wins in all_windows:
        cut = int(0.8 * len(wins))
        train_idx.extend(range(offset, offset + cut))
        val_idx.extend(range(offset + cut, offset + len(wins)))
        offset += len(wins)
    stats = compute_stats(raw[train_idx])
    return {
        "raw": raw,
        "tags": np.array(tags, dtype=object),
        "train_idx": np.array(train_idx),
        "val_idx": np.array(val_idx),
        "stats": stats,
        "layout": layout,
        "L_s": L_s,
    }
