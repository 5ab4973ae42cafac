"""Closed-loop scenario engine: plant, controllers, refinement, detector
and planner wired together with a scripted wearer model.

Rates are fixed at 1 kHz physics with a 100 Hz control/detector tick.
``_ScenarioRun`` owns all of one run's state; its ``tick`` runs the stages
in order: events (with a grasp's gradual payload transfer) -> sense ->
detect -> replan -> execute (take a new plan and step it) -> control ->
advance -> record. ``_advance`` owns the physics: it holds the control
torque across the ten substeps of a tick for ``run_scenario``,
``tracking_comparison`` and ``collect_training_data`` alike. All
randomness flows through seeded generators, so a (scenario, seed,
checkpoint) triple reproduces its trace bit for bit. ``train_detector`` is
the one detector recipe, behind ``exoassist train-detector`` and the tests.

The executor's timings and gains are constants, the same for every
scenario: REACH_DURATION, GRASP_CONFIRM_DELAY, GRASP_LOAD_TIME,
SETTLE_TIME, TARGET_TOLERANCE_DEG, REPLAN_REFRACTORY, SCORE_COUPLING_FLOOR.
"""
from __future__ import annotations

import csv
import json
import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import anomaly as ano
from . import control as ctl
from . import dynamics as dyn
from . import trajectory as traj
from .anomaly import AnomalyDetector, ChannelLayout, compute_stats
from .config import ConfigError, Field, check_fields, config_section
from .planner import (
    DEFAULT_THRESHOLD,
    PlannerRuntime,
    data_path,
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
    "train_detector",
    "metrics",
    "load_scenario",
    "save_trace_csv",
    "TRACE_COLUMNS",
]

PHYSICS_DT = 1e-3
CONTROL_SUBSTEPS = 10
CONTROL_DT = PHYSICS_DT * CONTROL_SUBSTEPS

REACH_DURATION = 1.5  # s, the wearer's reach for the object
GRASP_CONFIRM_DELAY = 0.5  # s after the reach ends until the grasp is confirmed
GRASP_LOAD_TIME = 0.4  # s; the payload transfers gradually during grasp
SETTLE_TIME = 1.0  # s past a go_target's reference before it may converge
TARGET_TOLERANCE_DEG = 3.0  # a go_target converges this close to its target
REPLAN_REFRACTORY = 0.5  # s; a trigger closer than this to the last is ignored
# reconstruction scores have a nominal floor; only the excess above it feeds the
# QP score chain, otherwise the coupling drags tracking even in normal operation
SCORE_COUPLING_FLOOR = 0.35

# standard deviation per sensor channel, in ChannelLayout order
DEFAULT_SENSOR_NOISE = {
    "q": 1e-4, "qdot": 1e-3, "theta": 1e-4, "thetadot": 1e-3, "tau_e": 0.01,
}
# the box (deg per joint) training collection draws the wearer's reach targets from
MOTION_BOX_DEG = ((-20, 60), (5, 100), (-40, 40), (10, 110))

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


# a scenario file's fields; each event's params follow the table of its type
WEARER_FIELDS = {**dict.fromkeys(("K_h", "C_h"), Field("joints", ">= 0", "n")),
                 "saturation": Field(bound="> 0"), "name": Field("string")}
EVENT_FIELDS = {"type": Field("string", required=True),
                "t": Field(bound=">= 0", required=True), "params": Field("object")}
_POSE = Field("joints", size="n", scalar=False)
EVENT_PARAMS = {
    "drop": {"amplitude": Field(), "decay": Field(bound="> 0"),
             "joints": Field("indices", ">= 0", "n")},
    "payload_step": {"mass": Field(bound=">= 0", required=True)},
    "torque_pulse": {"amplitude": replace(_POSE, required=True), "decay": Field(bound="> 0")},
    "intent_conflict": {"pose_deg": replace(_POSE, required=True), "duration": Field()},
}
DROP_JOINTS = (1, 3)  # the joints a drop's transient acts on unless given
SCENARIO_FIELDS = {
    **dict.fromkeys(("name", "task"), Field("string", required=True)),
    "duration": Field(bound="> 0"),
    "item_mass": Field(bound=">= 0"),
    "s_bar": Field(),
    **dict.fromkeys(("start_pose_deg", "grasp_pose_deg"), _POSE),
    "assist_joints": Field("indices", ">= 0", "n"),
    "seed": Field("integer", ">= 0"),
    "wearer": Field("object", table=WEARER_FIELDS),
    # replaces DEFAULT_SENSOR_NOISE as a whole: a key it leaves out has no noise
    "sensor_noise": Field("object", table=dict.fromkeys(DEFAULT_SENSOR_NOISE,
                                                        Field(bound=">= 0"))),
    "events": Field("objects", table=EVENT_FIELDS),
}


@dataclass
class Scenario:
    name: str
    task: str
    item_mass: float = 0.0
    start_pose_deg: tuple = (0.0, 15.0, 0.0, 25.0)
    grasp_pose_deg: tuple = (5.0, 30.0, 0.0, 60.0)
    duration: float = 12.0
    events: list[EventSpec] = field(default_factory=list)
    seed: int = 0
    wearer: WearerParams = field(default_factory=WearerParams)
    assist_joints: tuple = (0, 1, 2, 3)
    sensor_noise: dict = field(default_factory=lambda: dict(DEFAULT_SENSOR_NOISE))
    s_bar: float = DEFAULT_THRESHOLD


# the plant layout TRACE_COLUMNS records: joints, of which cable-driven
TRACE_N, TRACE_N_C = 4, 2


@dataclass
class SimStack:
    """Everything a scenario needs besides the scenario itself, with the
    bundled target poses (``load_targets``). The plant must have the layout
    the trace records, and the detector, if any, must read that layout. The
    gains are checked against the plant here, once: the controllers do not."""

    model: dyn.PlantModel
    control: ctl.ControlConfig
    planner: PlannerRuntime
    detector: AnomalyDetector | None = None

    def __post_init__(self):
        if (self.model.n, self.model.n_c) != (TRACE_N, TRACE_N_C):
            raise ConfigError(
                f"a scenario runs a plant of {TRACE_N} joints, {TRACE_N_C} cable-driven "
                f"(the trace layout); got n = {self.model.n}, n_c = {self.model.n_c}")
        plant = ChannelLayout(n=self.model.n, n_c=self.model.n_c)
        if self.detector is not None and self.detector.layout != plant:
            raise ConfigError(f"the detector reads {self.detector.layout}; the plant is {plant}")
        self.control.transparent.validated(self.model.n_c)
        self.control.impedance.validated(self.model.n, self.model.n_c)
        self.control.qp.validated(self.model.n)
        self.targets = load_targets()


TRACE_COLUMNS = (
    ["t"]
    + [f"q{i}" for i in range(TRACE_N)]
    + [f"qdot{i}" for i in range(TRACE_N)]
    + [f"theta{i}" for i in range(TRACE_N_C)]
    + [f"thetadot{i}" for i in range(TRACE_N_C)]
    + [f"tau_e{i}" for i in range(TRACE_N)]
    + [f"u{i}" for i in range(TRACE_N)]
    + [f"q_d{i}" for i in range(TRACE_N)]
    + [f"qdot_d{i}" for i in range(TRACE_N)]
    + ["s", "mode", "subtask", "replan", "mode_cmd"]
)


# columns kept as lists: the mode label and the integer flags; the others
# are stored as packed float64, 8 bytes a value
_LIST_COLUMNS = ("mode", "subtask", "replan", "mode_cmd")


@dataclass
class TraceRecord:
    """Column-major per-tick trace; ``append`` takes one row in
    TRACE_COLUMNS order."""

    fault: str | None = None
    columns: dict = field(default_factory=lambda: {
        c: [] if c in _LIST_COLUMNS else array("d") for c in TRACE_COLUMNS})

    def __len__(self) -> int:
        return len(self.columns["t"])

    def append(self, row):
        for col, value in zip(self.columns.values(), row, strict=True):
            col.append(value)

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


def _check_scenario(values: dict, sizes: dict | None = None) -> None:
    """ConfigError unless a scenario (a file's object, or a Scenario's
    fields) matches SCENARIO_FIELDS, and each event's params the
    EVENT_PARAMS table of its type, with its time within the run."""
    check_fields(values, SCENARIO_FIELDS, "scenario", sizes)
    duration = values.get("duration", Scenario.duration)
    for i, event in enumerate(values.get("events", [])):
        event = vars(event) if isinstance(event, EventSpec) else event
        name, kind = f"scenario events[{i}]", event["type"]
        if kind not in EVENT_PARAMS:
            raise ConfigError(f"{name}: unknown event type {kind!r}")
        check_fields(event.get("params", {}), EVENT_PARAMS[kind], f"{name} params", sizes)
        if event["t"] > duration:
            raise ConfigError(f"{name} at t = {event['t']} s is outside [0, {duration}] s")


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file, checked against SCENARIO_FIELDS and
    EVENT_PARAMS; ``run_scenario`` checks it again against the plant."""
    raw = json.loads(Path(path).read_text())
    _check_scenario(raw)
    events = [EventSpec(**{**e, "t": float(e["t"])}) for e in raw.get("events", [])]
    return Scenario(**{**raw, "wearer": WearerParams(**raw.get("wearer", {})), "events": events})


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
    the wearer's desired (q, qdot). ``torque`` works on Python floats."""

    def __init__(self, params: WearerParams, pose: np.ndarray):
        self.params = params
        # K_h and C_h as n floats each
        self.gains = [ctl._floats(g, pose.size) for g in (params.K_h, params.C_h)]
        self.override: dict | None = None  # {"pose": (n,), "until": s}
        self.transients: list[dict] = []   # [{"amplitude": (n,), "decay": s, "t0": s}]
        self.hold(pose)

    def hold(self, pose: np.ndarray):
        pose, rest = pose.copy(), np.zeros(pose.size)
        self.intent = lambda t: (pose, rest)

    def reach(self, t0: float, start: np.ndarray, goal: np.ndarray, duration: float):
        """Follow a rest-to-rest quintic: ``ReferenceSpline.sample`` without
        the acceleration, which the wearer never reads."""
        spline = traj.quintic_reference(start, goal, duration)
        coeffs, rest = spline.coeffs, np.zeros(spline.q0.size)

        def intent(t):
            s = t - t0
            if s <= 0.0:
                return spline.q0, rest
            if s >= spline.t_f:
                return spline.qf, rest
            return (coeffs @ np.array([1.0, s, s**2, s**3, s**4, s**5]),
                    coeffs @ np.array([0.0, 1.0, 2 * s, 3 * s**2, 4 * s**3, 5 * s**4]))
        self.intent = intent

    def torque(self, t: float, state: dyn.PlantState) -> np.ndarray:
        """Interaction torque on the arm at time t: K_h (q_h - q) + C_h
        (qdot_h - qdot) clipped to the saturation, plus each transient."""
        if self.override is not None and t <= self.override["until"]:
            q_h, qd_h = self.override["pose"].tolist(), [0.0] * state.q.size
        else:
            q_h, qd_h = (v.tolist() for v in self.intent(t))
        sat = self.params.saturation
        tau = [min(max(k * (a - q) + c * (b - qd), -sat), sat) for k, c, a, q, b, qd in zip(
            *self.gains, q_h, state.q.tolist(), qd_h, state.qdot.tolist())]
        for tr in self.transients:
            decay = math.exp(-(t - tr["t0"]) / tr["decay"])
            tau = [x + a * decay for x, a in zip(tau, tr["amplitude"].tolist())]
        return np.array(tau)

    def sense(self, t: float, state: dyn.PlantState) -> np.ndarray:
        """The torque at a control tick. An expired override is cleared
        first; spent transients are pruned after they are summed."""
        if self.override is not None and t > self.override["until"]:
            self.override = None
        tau = self.torque(t, state)
        self.transients = [tr for tr in self.transients if t - tr["t0"] < 6 * tr["decay"]]
        return tau


class _ReadOut:
    """Noisy read-out of some of a plant's sensor channels (``keys`` of
    DEFAULT_SENSOR_NOISE, given in its order), packed into one vector. One
    standard-normal draw covers the entries whose noise level is nonzero, in
    channel order; a zero or missing level draws nothing. ``split`` gives
    the channels back as views."""

    def __init__(self, noise: dict, model: dyn.PlantModel,
                 keys: tuple[str, ...] = tuple(DEFAULT_SENSOR_NOISE)):
        sizes = [model.n_c if key.startswith("theta") else model.n for key in keys]
        sd = np.concatenate([np.full(size, float(noise.get(key, 0.0)))
                             for key, size in zip(keys, sizes)])
        noisy = np.flatnonzero(sd)
        self.at = slice(None) if noisy.size == sd.size else noisy
        self.sd = sd[noisy]
        ends = np.cumsum(sizes).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]

    def __call__(self, rng: np.random.Generator, *vecs: np.ndarray) -> np.ndarray:
        out = np.concatenate(vecs)
        if self.sd.size:
            out[self.at] += rng.standard_normal(self.sd.size) * self.sd
        return out

    def split(self, packed: np.ndarray) -> list[np.ndarray]:
        return [packed[s] for s in self.slices]


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
# scenario engine


@dataclass
class _Move:
    """One go_target: its reference, its refinement setup and the desired state."""

    reference: traj.ReferenceSpline  # ends at the target pose
    t0: float
    setup: traj.QPSetup
    q_d: np.ndarray
    qd_d: np.ndarray
    qdd_d: np.ndarray


class _ScenarioRun:
    """One closed-loop run of a scenario, owning all of its state: the plant
    state, the noise generator, the detector window, the wearer, the pending
    events, the payload belief, the replan bookkeeping and the trace, and the
    plan with its control mode, step (planning | grasp | move | done), move
    and task config. ``tick`` runs one control tick's stages in order."""

    def __init__(self, scenario: Scenario, stack: SimStack, seed: int | None):
        self.scenario, self.stack, self.model = scenario, stack, stack.model
        self.rng = np.random.default_rng(scenario.seed if seed is None else seed)
        q0 = np.radians(np.asarray(scenario.start_pose_deg, dtype=float))
        self.state = dyn.settled_state(self.model, q0)
        self.read_out = _ReadOut(scenario.sensor_noise, self.model)
        self.window = deque(maxlen=stack.detector.L_s if stack.detector else 25)
        self.wearer = _Wearer(scenario.wearer, q0)
        self.grasp_pose = np.radians(np.asarray(scenario.grasp_pose_deg, dtype=float))
        self.pending = deque(sorted(scenario.events, key=lambda e: e.t))
        self.last_event_t = None  # the time of the latest event injected
        self.belief_payload = 0.0
        self.loading_since = None  # grasp time while the item's mass transfers
        self.replan_count, self.last_trigger_t = 0, -1e9
        self.detection_latency = None
        self.trace = TraceRecord()
        self.plan = None
        self.mode, self.step = "transparent", "planning"
        self.move: _Move | None = None
        self.task: ctl.TaskConfig | None = None
        self.icfg = stack.control.impedance  # with the task's w once a paramset ran
        self.grasp_confirm_at: float | None = None
        self.converged = True  # whether the last go_target reached its target
        self.replanned = self.mode_cmd = False  # a replan trigger, a mode command this tick
        stack.planner.request_plan(scenario.task)

    def tick(self, t: float) -> None:
        self.replanned = self.mode_cmd = False
        self.events(t)
        tau, sensed = self.sense(t)
        s, grad = self.detect(t, sensed)
        self.replan(t, s)
        self.execute(t, s, grad)
        u, desired = self.control(sensed)
        self.advance(t, u)
        self.record(t, tau, u, desired, s)

    def events(self, t: float) -> None:
        """Inject the events due by t, then transfer a grasped item's load."""
        while self.pending and self.pending[0].t <= t + 1e-12:
            event = self.pending.popleft()
            self.last_event_t = event.t
            outcome = inject_event(self.state, event, self.model)
            self.state = outcome.state
            if outcome.transient:
                self.wearer.transients.append(outcome.transient)
            if outcome.intent_override:
                self.wearer.override = outcome.intent_override
            if event.type == "drop":
                self.loading_since = None  # belief unchanged: detection must find it
        if self.loading_since is not None:
            frac = min(1.0, (t - self.loading_since) / GRASP_LOAD_TIME)
            self.belief_payload = self.scenario.item_mass * frac
            self.state = replace(self.state, payload_mass=self.belief_payload)
            if frac >= 1.0:
                self.loading_since = None

    def sense(self, t: float):
        """The wearer's torque on the arm and the noisy read-out of every channel."""
        state = self.state
        tau = self.wearer.sense(t, state)
        return tau, self.read_out(self.rng, state.q, state.qdot, state.theta, state.thetadot, tau)

    def detect(self, t: float, sensed: np.ndarray):
        """The score and its gradient in tau_e once the window is full. The first
        score at or above s_bar after an event sets the latency from the latest event."""
        self.window.append(sensed)
        detector = self.stack.detector
        if detector is None or len(self.window) < self.window.maxlen:
            return 0.0, np.zeros(self.model.n)
        s, _, grad = detector.score_gradient(np.stack(self.window))
        if self.detection_latency is None and self.last_event_t is not None \
                and s >= self.scenario.s_bar:
            self.detection_latency = (t - self.last_event_t) * 1000.0
        return s, grad

    def replan(self, t: float, s: float) -> None:
        """While a plan runs, a trigger drops it and asks for a new one: back
        to transparent mode with no payload believed, while the wearer
        reaches for the object again."""
        sc = self.scenario
        if (self.stack.detector is not None and self.step in ("grasp", "move")
                and replan_check(s, sc.s_bar) and t - self.last_trigger_t > REPLAN_REFRACTORY):
            self.replanned = True
            self.replan_count += 1
            self.last_trigger_t = t
            self.plan, self.move, self.mode, self.mode_cmd = None, None, "transparent", True
            self.wearer.reach(t, self.state.q.copy(), self.grasp_pose, REACH_DURATION)
            self.step = "planning"
            self.belief_payload = 0.0
            self.stack.planner.request_plan(sc.task)

    def execute(self, t: float, s: float, grad: np.ndarray) -> None:
        """Take a ready plan from the planner, then step it. On the tick
        the grasp is confirmed the item's mass starts to load."""
        if self.plan is None:
            result = self.stack.planner.poll()
            if result is not None and result.status == "ready":
                self.plan = result
                self._begin(t)
        if self.plan is None:
            return
        if self.step == "grasp" and self.grasp_confirm_at is not None \
                and t >= self.grasp_confirm_at:
            self.grasp_confirm_at = None
            self.wearer.hold(self.state.q.copy())
            self.plan.advance()
            self._begin(t)
            if self.scenario.item_mass > 0.0:
                self.loading_since = t
        elif self.step == "move":
            self._track(t, s, grad)

    def _begin(self, t: float) -> None:
        """Start the step at the plan cursor; instantaneous steps chain
        within the same tick."""
        plan, state = self.plan, self.state
        while (step := plan.current()) is not None:
            if step.name == "set_mode":
                self.mode = "impedance" if step.args["mode"] == 1 else "transparent"
                self.mode_cmd = True
                if plan.cursor == 0 and self.mode == "transparent":
                    # grasp phase: the wearer reaches for the object
                    self.step = "grasp"
                    self.wearer.reach(t, state.q.copy(), self.grasp_pose, REACH_DURATION)
                    self.grasp_confirm_at = t + REACH_DURATION + GRASP_CONFIRM_DELAY
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
                    setup=traj.QPSetup.from_config(self.stack.control.qp, self.model.n,
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
                raise ConfigError(f"executor cannot run subtask {step.name!r}")
            plan.advance()
        self.step = "done"

    def _track(self, t: float, s: float, grad: np.ndarray) -> None:
        """Refine the move's desired state; on convergence hold the target
        and start the next step."""
        move = self.move
        elapsed = t - move.t0
        seg = traj.refine(move.reference, (move.q_d, move.qd_d), move.setup, elapsed,
                          grad, max(0.0, s - SCORE_COUPLING_FLOOR))
        q_d, qd_d, _ = seg.sample(CONTROL_DT)
        move.qdd_d = seg.qddot_d[0]
        reference_done = elapsed >= move.reference.t_f + SETTLE_TIME
        target = move.reference.qf
        at_target = np.max(np.abs(self.state.q - target)) < math.radians(TARGET_TOLERANCE_DEG)
        if reference_done and at_target:
            self.converged = True
            move.q_d, move.qd_d = target.copy(), np.zeros_like(target)
            move.qdd_d = np.zeros_like(target)
            self.plan.advance()
            self._begin(t)
        else:
            move.q_d, move.qd_d = q_d, qd_d

    def control(self, sensed: np.ndarray):
        """The control torque and the desired (q, qdot) the trace records:
        the move's in impedance mode, else the sensed one."""
        q_s, qd_s, th_s, thd_s, tau_s = self.read_out.split(sensed)
        # fresh, finite arrays: step checks the state, load_scenario the noise
        belief = dyn.PlantState._unchecked(q_s, qd_s, th_s, thd_s, self.belief_payload, tau_s)
        move = self.move
        if self.mode == "impedance" and move is not None:
            u = ctl.impedance_control(self.model, belief, move.q_d, move.qd_d, move.qdd_d,
                                      tau_s, self.icfg)
            return u, (move.q_d, move.qd_d)
        u = ctl.transparent_control(self.model, belief, tau_s, self.stack.control.transparent)
        return u, (q_s, qd_s)

    def advance(self, t: float, u: np.ndarray) -> None:
        """The tick's physics, under the wearer as sense left it."""
        self.state, _, _ = _advance(self.model, self.state, u, self.wearer, t,
                                    self.wearer.torque(t, self.state))

    def record(self, t: float, tau: np.ndarray, u: np.ndarray, desired, s: float) -> None:
        """One trace row; the subtask is the plan step's label, else the step state."""
        state, (q_d, qd_d) = self.state, desired
        step = self.plan.current() if self.plan is not None else None
        self.trace.append([
            t, *state.q.tolist(), *state.qdot.tolist(), *state.theta.tolist(),
            *state.thetadot.tolist(), *tau.tolist(), *u.tolist(), *q_d.tolist(),
            *qd_d.tolist(), s, int(self.mode == "impedance"),
            step.label if step is not None else self.step, int(self.replanned),
            int(self.mode_cmd)])

    def report(self) -> dict:
        """The trace's metrics and the run's outcome; a faulted run did not
        complete its task and names its fault."""
        sc, fault = self.scenario, self.trace.fault
        completed = (fault is None and self.plan is not None and self.step == "done"
                     and self.converged
                     and (self.state.payload_mass > 0.0 if sc.item_mass > 0.0 else True))
        report = {**metrics(self.trace, sc), "schema_version": 1,
                  "task_completed": bool(completed), "replan_count": self.replan_count,
                  "detection_latency_ms": self.detection_latency}
        if fault is not None:
            report["fault"] = fault
        return report


def run_scenario(scenario: Scenario, stack: SimStack, seed: int | None = None):
    """Execute the closed loop; returns (TraceRecord, metrics dict). The
    scenario's per-joint values are checked against the plant, and a
    ``seed`` override like the scenario's own seed, before the first tick.
    A SimulationFault or RefinementError ends the run: the trace keeps the
    ticks before it and the report names it."""
    _check_scenario(vars(scenario), {"n": stack.model.n})
    if seed is not None:
        check_fields({"seed": seed}, {"seed": SCENARIO_FIELDS["seed"]}, "run_scenario")
    run = _ScenarioRun(scenario, stack, seed)
    try:
        for tick in range(int(round(scenario.duration / CONTROL_DT))):
            run.tick(tick * CONTROL_DT)
    except (dyn.SimulationFault, traj.RefinementError) as exc:
        run.trace.fault = f"{type(exc).__name__}: {exc}"
    return run.trace, run.report()


# ---------------------------------------------------------------------------
# metrics


def metrics(trace: TraceRecord, scenario: Scenario) -> dict:
    """Aggregate per-run quantities from a trace; tracking and assist torque
    are taken over the scenario's assist joints."""
    if not len(trace):
        return {"n_ticks": 0}
    n = TRACE_N
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
    joints = list(scenario.assist_joints)

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
                        speed_limit_deg: float = 30.0, settle: float = 1.5):
    """Raise-then-lower motion tracked twice under the same speed limit:
    once with the reference merely rate-limited, once with QP refinement,
    with the default wearer following the commanded motion.

    Returns ``{"clamped": ..., "refined": ...}``; each variant has the RMS
    error of the measured joints against the reference (``rms_deg``) and
    the largest commanded joint velocity (``max_cmd_velocity_deg_s``).
    """
    q0 = np.radians(np.asarray(q_start_deg, dtype=float))
    q_peak = np.radians(np.asarray(q_peak_deg, dtype=float))
    n = q0.size
    limit = math.radians(speed_limit_deg)
    step_lim = limit * CONTROL_DT
    icfg = control_cfg.impedance.validated(model.n, model.n_c)
    control_cfg.qp.validated(model.n)
    setup = traj.QPSetup.from_config(control_cfg.qp, n, limit, icfg.Kd, icfg.Cd, icfg.w)
    up = traj.quintic_reference(q0, q_peak, t_f)
    down = traj.quintic_reference(q_peak, q0, t_f)
    ticks = int(round((2 * t_f + settle) / CONTROL_DT))

    out = {}
    for variant in ("clamped", "refined"):
        state, arm, t = dyn.settled_state(model, q0), _Wearer(WearerParams(), q0), 0.0
        q_d, qd_d = q0.copy(), np.zeros(n)  # the variant's desired state for this tick
        rows_q, rows_ref, rows_cmd_v = [], [], []
        for _ in range(ticks):
            ref, t_ref = (up, t) if t <= t_f else (down, t - t_f)
            q_r = ref.position(t_ref)
            if variant == "clamped":  # causal rate limiter on the reference
                delta = np.clip(q_r - q_d, -step_lim, step_lim)
                q_d = q_d + delta
                cmd = (q_d, delta / CONTROL_DT, np.zeros(n))
            else:  # receding-horizon refinement, stepped along its own solution as _track does
                seg = traj.refine(ref, (q_d, qd_d), setup, t_ref)
                q_d, qd_d, _ = seg.sample(CONTROL_DT)
                cmd = (q_d, qd_d, seg.qddot_d[0])
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
# training data collection and the detector recipe


def collect_training_data(model: dyn.PlantModel, subjects: list[WearerParams],
                          duration: float, seed: int = 0, L_s: int = 25,
                          stride: int = 5):
    """Transparent-mode reach/transport motions sliced into sensory windows.

    The wearer reaches for random targets in MOTION_BOX_DEG under the
    default ``TransparentConfig``, and every channel is read out with
    DEFAULT_SENSOR_NOISE, as ``run_scenario`` reads it: one draw per
    read-out. Returns a dict with raw windows (M, L_s, per_tick),
    per-window subject tags, a contiguous 80/20 train/validation split, and
    the channel stats computed on the training part only. A subject that
    breaks ``WEARER_FIELDS`` on this plant raises ConfigError before any
    motion.
    """
    ticks_per_subject = int(round(duration / CONTROL_DT))
    if ticks_per_subject < L_s:
        raise ValueError("duration too short for a single sensory window")
    cfg = ctl.TransparentConfig().validated(model.n_c)
    for s_idx, subject in enumerate(subjects):
        check_fields(subject, WEARER_FIELDS, f"subjects[{s_idx}]", {"n": model.n, "n_c": model.n_c})
    read_row = _ReadOut(DEFAULT_SENSOR_NOISE, model)  # the window's channels
    read_belief = _ReadOut(DEFAULT_SENSOR_NOISE, model, ("q", "qdot", "tau_e"))  # the controller's
    box = [np.radians(np.array(b, dtype=float)) for b in MOTION_BOX_DEG]

    all_windows = []
    tags = []
    for s_idx, subject in enumerate(subjects):
        rng = np.random.default_rng(seed + 1000 * s_idx)
        q0 = np.array([b.mean() for b in box])
        state = dyn.settled_state(model, q0)
        wearer = _Wearer(subject, q0)
        rows = []
        t = motion_ends = 0.0
        for tick in range(ticks_per_subject):
            if t >= motion_ends:
                target = np.array([rng.uniform(lo, hi) for lo, hi in box])
                move_t = rng.uniform(0.8, 2.2)
                wearer.reach(t, wearer.intent(t)[0].copy(), target, move_t)
                motion_ends = t + move_t + rng.uniform(0.1, 0.3)
            tau = wearer.torque(t, state)
            q_s, qd_s, tau_s = read_belief.split(read_belief(rng, state.q, state.qdot, tau))
            belief = dyn.PlantState._unchecked(q_s, qd_s, state.theta, state.thetadot, 0.0, tau)
            u = ctl.transparent_control(model, belief, tau_s, cfg)
            state, t, tau = _advance(model, state, u, wearer, t, tau)
            rows.append(read_row(rng, state.q, state.qdot, state.theta, state.thetadot, tau))
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
        "layout": ChannelLayout(n=model.n, n_c=model.n_c),
        "L_s": L_s,
    }


def train_detector(overrides: dict, data=None) -> dict:
    """Lay the top-level keys of ``overrides`` over the bundled
    train_config.json, collect (unless ``data(layout, L_s)`` returns a set in
    collect_training_data's form), normalize, train, build the detector at
    ``detector_seed`` and calibrate; a bad setting raises ConfigError naming
    its key before collection. Returns the ``model``, ``data``, ``normed``,
    ``train_config``, ``history``, ``detector`` and ``train_elapsed`` (s)."""
    cfg = {**json.loads(data_path("train_config.json").read_text()), **overrides}
    with config_section("plant"):
        model = dyn.load_plant_config(cfg.get("plant") or data_path("plant.json"))
    with config_section("schedule"):
        schedule = ano.NoiseSchedule.linear(**cfg["schedule"])
    train_cfg = ano.TrainConfig(**cfg["train"])
    L_s = cfg["L_s"]
    if data is not None:
        data = data(ChannelLayout(n=model.n, n_c=model.n_c), L_s)
    else:
        if not cfg["subjects"]:
            raise ConfigError("subjects: need at least one subject")
        if round(cfg["duration"] / CONTROL_DT) < L_s:
            raise ConfigError(f"duration: {cfg['duration']} s is under one window of {L_s} ticks")
        data = collect_training_data(model, [WearerParams(**s) for s in cfg["subjects"]],
                                     duration=cfg["duration"], seed=cfg["seed"], L_s=L_s,
                                     stride=cfg["stride"])
    normed = data["stats"].normalize(data["raw"]).reshape(data["raw"].shape[0], -1)
    t0 = time.perf_counter()
    denoiser, history = ano.train_denoiser(normed[data["train_idx"]], schedule, train_cfg,
                                           val_windows=normed[data["val_idx"]])
    train_elapsed = time.perf_counter() - t0
    detector = AnomalyDetector(denoiser, schedule, data["stats"], data["L_s"], data["layout"],
                               seed=cfg["detector_seed"])
    detector.calibrate(normed[data["train_idx"]], **cfg["calibrate"])
    return {"model": model, "data": data, "normed": normed, "train_config": train_cfg,
            "history": history, "detector": detector, "train_elapsed": train_elapsed}
