"""Closed-loop scenario engine: plant, controllers, refinement, detector
and planner wired together with a scripted wearer model.

Rates are fixed at 1 kHz physics with a 100 Hz control/detector tick; the
control torque is held across the ten physics substeps of each tick. All
randomness flows through seeded generators, so a (scenario, seed,
checkpoint) triple reproduces its trace bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
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
    """Everything a scenario needs besides the scenario itself."""

    model: dyn.PlantModel
    control: ctl.ControlConfig
    planner: PlannerRuntime
    detector: AnomalyDetector | None = None
    targets: dict | None = None

    def __post_init__(self):
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


def load_scenario(path: str | Path) -> Scenario:
    raw = json.loads(Path(path).read_text())
    events = [EventSpec(type=e["type"], t=float(e["t"]), params=e.get("params", {}))
              for e in raw.pop("events", [])]
    wearer = WearerParams(**raw.pop("wearer", {}))
    known = set(Scenario.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise dyn.ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    return Scenario(events=events, wearer=wearer, **raw)


# ---------------------------------------------------------------------------
# events


@dataclass
class EventOutcome:
    state: dyn.PlantState
    transient: dict | None = None       # {"amplitude": (n,), "decay": s, "t0": s}
    intent_override: dict | None = None  # {"pose": (n,), "until": s}


def inject_event(state: dyn.PlantState, event: EventSpec,
                 model: dyn.PlantModel | None = None) -> EventOutcome:
    """Apply one scripted event to the plant state.

    ``drop`` zeroes the payload and returns a decaying torque transient
    whose signs follow the payload's former gravity load on the cable-side
    joints; other types adjust payload, inject a pulse, or switch the
    wearer's intent."""
    if event.type == "drop":
        transient = None
        if state.payload_mass > 0.0:
            amp = float(event.params.get("amplitude", 2.0))
            decay = float(event.params.get("decay", 0.1))
            model = model or dyn.default_model()
            g_load = dyn.gravity_vector(model, state.q, state.payload_mass) \
                - dyn.gravity_vector(model, state.q, 0.0)
            signs = np.sign(g_load)
            signs[signs == 0.0] = 1.0
            vec = np.zeros(model.n)
            joints = event.params.get("joints", [1, 3])
            for j in joints:
                vec[j] = amp * signs[j]
            transient = {"amplitude": vec, "decay": decay, "t0": event.t}
        new_state = replace(state, payload_mass=0.0)
        return EventOutcome(state=new_state, transient=transient)
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
# wearer intent machinery


class _Intent:
    """Piecewise intent trajectory for the wearer model."""

    def __init__(self, pose: np.ndarray):
        self.kind = "hold"
        self.pose = pose.copy()
        self.spline: traj.ReferenceSpline | None = None
        self.t0 = 0.0
        self.follow = None  # callable t -> (q, qd) when cooperating

    def hold(self, pose: np.ndarray):
        self.kind = "hold"
        self.pose = pose.copy()

    def reach(self, t: float, start: np.ndarray, goal: np.ndarray, duration: float):
        self.kind = "reach"
        self.t0 = t
        self.spline = traj.quintic_reference(start, goal, duration)
        self.pose = goal.copy()

    def cooperate(self, follow):
        self.kind = "follow"
        self.follow = follow

    def sample(self, t: float):
        if self.kind == "hold":
            return self.pose, np.zeros_like(self.pose)
        if self.kind == "reach":
            q, qd, _ = self.spline.sample(t - self.t0)
            return q, qd
        return self.follow(t)


def _wearer_torque(params: WearerParams, q_h, qd_h, state: dyn.PlantState) -> np.ndarray:
    k = np.atleast_1d(np.asarray(params.K_h, dtype=float))
    c = np.atleast_1d(np.asarray(params.C_h, dtype=float))
    if k.size == 1:
        k = np.full(state.q.size, k[0])
    if c.size == 1:
        c = np.full(state.q.size, c[0])
    tau = k * (q_h - state.q) + c * (qd_h - state.qdot)
    return np.clip(tau, -params.saturation, params.saturation)


# ---------------------------------------------------------------------------
# scenario engine


class _WindowBuffer:
    def __init__(self, L_s: int, per_tick: int):
        self.L_s = L_s
        self.rows: list[np.ndarray] = []
        self.per_tick = per_tick

    def push(self, row: np.ndarray):
        self.rows.append(row)
        if len(self.rows) > self.L_s:
            self.rows.pop(0)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.L_s

    def window(self) -> np.ndarray:
        return np.stack(self.rows)


def run_scenario(scenario: Scenario, stack: SimStack, seed: int | None = None):
    """Execute the closed loop; returns (TraceRecord, metrics dict)."""
    model = stack.model
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    noise = scenario.sensor_noise

    q0 = np.radians(np.asarray(scenario.start_pose_deg, dtype=float))
    grasp_pose = np.radians(np.asarray(scenario.grasp_pose_deg, dtype=float))
    state = dyn.settled_state(model, q0)

    layout = ChannelLayout(n=model.n, n_c=model.n_c)
    detector = stack.detector
    buffer = _WindowBuffer(detector.L_s if detector else 25, layout.per_tick)

    intent = _Intent(q0)
    trace = TraceRecord()
    events = sorted(scenario.events, key=lambda e: e.t)
    next_event = 0
    transients: list[dict] = []
    intent_override = None

    mode = "transparent"
    task_cfg: ctl.TaskConfig | None = None
    active_plan = None
    step_state = "planning"  # planning | grasp | move | hold | done
    grasp_confirm_at = None
    move = None           # dict with reference, desired state, start time
    belief_payload = 0.0
    payload_ramp = None   # {"t0": s, "mass": kg} while the grasp loads up
    replan_count = 0
    last_trigger_t = -1e9
    detection_latency = None
    first_event_t = events[0].t if events else None
    go_target_converged = True
    s_value = 0.0

    stack.planner.request_plan(scenario.task)

    n_ticks = int(round(scenario.duration / CONTROL_DT))
    icfg_base = stack.control.impedance
    tcfg = stack.control.transparent
    qp_base = stack.control.qp

    def sense(vec, key):
        sd = noise.get(key, 0.0)
        return vec + (rng.standard_normal(vec.shape) * sd if sd > 0 else 0.0)

    def begin_step(t):
        """Start executing the plan step at the cursor; instantaneous steps
        chain within the same tick."""
        nonlocal step_state, mode, task_cfg, move, grasp_confirm_at, go_target_converged
        nonlocal mode_cmd
        while True:
            step = active_plan.current()
            if step is None:
                step_state = "done"
                if mode == "impedance" and move is not None:
                    pass  # hold last target
                return
            if step.name == "set_mode":
                mode_bit = step.args["mode"]
                new_mode = "impedance" if mode_bit == 1 else "transparent"
                if active_plan.cursor == 0 and new_mode == "transparent":
                    # grasp phase: wearer reaches for the object
                    mode = new_mode
                    mode_cmd = True
                    step_state = "grasp"
                    intent.reach(t, state.q.copy(), grasp_pose, scenario.reach_duration)
                    grasp_confirm_at = t + scenario.reach_duration + scenario.grasp_confirm_delay
                    return
                mode = new_mode
                mode_cmd = True
                active_plan.advance()
                continue
            if step.name == "paramset":
                _, cfg = ctl.apply_task_config((1, step.args["spd"], step.args["imp"]))
                task_cfg = cfg
                active_plan.advance()
                continue
            if step.name == "go_target":
                target = np.radians(np.asarray(stack.targets[step.args["target"]], dtype=float))
                cfg = task_cfg or ctl.apply_task_config((1, 0, 0))[1]
                mode = "impedance"
                mode_cmd = True
                reference = traj.quintic_reference(state.q.copy(), target, cfg.t_f)
                move = {
                    "reference": reference,
                    "target": target,
                    "t0": t,
                    "q_d": state.q.copy(),
                    "qd_d": np.zeros(model.n),
                    "qdd_d": np.zeros(model.n),
                }
                intent.cooperate(lambda tt: (move["q_d"], move["qd_d"]))
                step_state = "move"
                go_target_converged = False
                return
            if step.name.startswith("predefined:"):
                active_plan.advance()
                continue
            if step.name == "done":
                step_state = "done"
                # without an explicit trailing set_mode(1) the system hands
                # control back to the wearer once the task ends
                idx = active_plan.cursor
                kept_impedance = (idx >= 1
                                  and active_plan.steps[idx - 1].name == "set_mode"
                                  and active_plan.steps[idx - 1].args.get("mode") == 1)
                if mode == "impedance" and not kept_impedance:
                    mode = "transparent"
                    mode_cmd = True
                    move = None
                if mode == "transparent":
                    intent.hold(state.q.copy())
                return
            raise dyn.ConfigError(f"executor cannot run subtask {step.name!r}")

    try:
        for tick in range(n_ticks):
            t = tick * CONTROL_DT
            replan_flag = False
            mode_cmd = False

            # scheduled events
            while next_event < len(events) and events[next_event].t <= t + 1e-12:
                outcome = inject_event(state, events[next_event], model)
                state = outcome.state
                if outcome.transient:
                    transients.append(outcome.transient)
                if outcome.intent_override:
                    intent_override = outcome.intent_override
                if events[next_event].type == "drop":
                    payload_ramp = None  # belief unchanged: detection must find it
                next_event += 1

            # gradual load transfer while grasping (and regrasping)
            if payload_ramp is not None:
                frac = min(1.0, (t - payload_ramp["t0"]) / max(scenario.grasp_load_time, 1e-9))
                current_mass = payload_ramp["mass"] * frac
                state = replace(state, payload_mass=current_mass)
                belief_payload = current_mass
                if frac >= 1.0:
                    payload_ramp = None

            # sensing
            q_s = sense(state.q, "q")
            qd_s = sense(state.qdot, "qdot")
            th_s = sense(state.theta, "theta")
            thd_s = sense(state.thetadot, "thetadot")
            q_h, qd_h = intent.sample(t)
            if intent_override is not None:
                if t <= intent_override["until"]:
                    q_h, qd_h = intent_override["pose"], np.zeros(model.n)
                else:
                    intent_override = None
            tau_true = _wearer_torque(scenario.wearer, q_h, qd_h, state)
            for tr in transients:
                tau_true = tau_true + tr["amplitude"] * math.exp(-(t - tr["t0"]) / tr["decay"])
            transients = [tr for tr in transients if t - tr["t0"] < 6 * tr["decay"]]
            tau_s = sense(tau_true, "tau_e")

            # detector
            buffer.push(layout.pack(q_s, qd_s, th_s, thd_s, tau_s))
            grad = np.zeros(model.n)
            if detector is not None and buffer.full:
                s_value, _, grad = detector.score_gradient(buffer.window())
                if detection_latency is None and first_event_t is not None \
                        and t >= first_event_t and s_value >= scenario.s_bar:
                    detection_latency = (t - first_event_t) * 1000.0
            else:
                s_value = 0.0

            # replan trigger (only while executing a plan)
            if (detector is not None and active_plan is not None
                    and step_state in ("grasp", "move", "hold")
                    and replan_check(s_value, scenario.s_bar)
                    and t - last_trigger_t > scenario.replan_refractory):
                replan_flag = True
                replan_count += 1
                last_trigger_t = t
                active_plan.clear()
                active_plan = None
                move = None
                mode = "transparent"
                mode_cmd = True
                belief_payload = 0.0
                intent.reach(t, state.q.copy(), grasp_pose, scenario.reach_duration)
                step_state = "planning"
                stack.planner.record({"type": "replan", "t": t, "score": s_value})
                stack.planner.request_plan(scenario.task)

            # planner handoff
            if active_plan is None:
                result = stack.planner.poll()
                if result is not None and result.plan is not None and result.plan.valid:
                    active_plan = result.plan
                    begin_step(t)

            # step execution state machine
            if active_plan is not None:
                if step_state == "grasp" and grasp_confirm_at is not None \
                        and t >= grasp_confirm_at:
                    if scenario.item_mass > 0.0:
                        payload_ramp = {"t0": t, "mass": scenario.item_mass}
                    grasp_confirm_at = None
                    intent.hold(state.q.copy())
                    active_plan.advance()
                    begin_step(t)
                elif step_state == "move":
                    elapsed = t - move["t0"]
                    setup = traj.QPSetup(
                        N=qp_base.horizon, dt=qp_base.dt, Q=qp_base.Q, R=qp_base.R,
                        speed_limit=(task_cfg.speed_limit if task_cfg else qp_base.accel_limit),
                        accel_limit=qp_base.accel_limit,
                        q_min=(qp_base.position_min if qp_base.position_min is not None else -np.pi),
                        q_max=(qp_base.position_max if qp_base.position_max is not None else np.pi),
                        anomaly_gradient=grad,
                        Kd=icfg_base.Kd, Cd=icfg_base.Cd,
                        w=(task_cfg.w if task_cfg else icfg_base.w),
                        score_init=max(0.0, s_value - scenario.score_coupling_floor),
                        t_now=elapsed,
                    )
                    seg = traj.refine(move["reference"], (move["q_d"], move["qd_d"]), setup)
                    q_d, qd_d, qdd_d = seg.sample(CONTROL_DT)
                    move["qdd_d"] = seg.qddot_d[0]
                    reference_done = elapsed >= move["reference"].t_f + scenario.settle_time
                    at_target = np.max(np.abs(state.q - move["target"])) \
                        < math.radians(scenario.target_tolerance_deg)
                    if reference_done and at_target:
                        go_target_converged = True
                        active_plan.advance()
                        move_target = move["target"]
                        move = {**move, "q_d": move_target.copy(),
                                "qd_d": np.zeros(model.n), "qdd_d": np.zeros(model.n)}
                        begin_step(t)
                    else:
                        move["q_d"], move["qd_d"] = q_d, qd_d

            # controller
            belief = dyn.PlantState(q=q_s, qdot=qd_s, theta=th_s, thetadot=thd_s,
                                    payload_mass=belief_payload, tau_e=tau_s)
            if mode == "impedance" and move is not None:
                w = task_cfg.w if task_cfg else icfg_base.w
                icfg = replace(icfg_base, w=w)
                u = ctl.impedance_control(model, belief, move["q_d"], move["qd_d"],
                                          move["qdd_d"], tau_s, icfg)
                q_d_row, qd_d_row = move["q_d"], move["qd_d"]
            else:
                u = ctl.transparent_control(model, belief, tau_s, tcfg)
                q_d_row, qd_d_row = q_s, qd_s

            # physics substeps with the held command
            for _ in range(CONTROL_SUBSTEPS):
                q_h, qd_h = intent.sample(t)
                if intent_override is not None and t <= intent_override["until"]:
                    q_h, qd_h = intent_override["pose"], np.zeros(model.n)
                tau = _wearer_torque(scenario.wearer, q_h, qd_h, state)
                for tr in transients:
                    tau = tau + tr["amplitude"] * math.exp(-(t - tr["t0"]) / tr["decay"])
                state = dyn.step(model, state, u, tau, PHYSICS_DT)
                t += PHYSICS_DT

            row = dict(t=tick * CONTROL_DT, s=s_value,
                       mode=(1 if mode == "impedance" else 0),
                       subtask=(active_plan.current().label if active_plan is not None
                                and active_plan.current() else step_state),
                       replan=int(replan_flag), mode_cmd=int(mode_cmd))
            for i in range(model.n):
                row[f"q{i}"] = state.q[i]
                row[f"qdot{i}"] = state.qdot[i]
                row[f"tau_e{i}"] = tau_true[i]
                row[f"u{i}"] = u[i]
                row[f"q_d{i}"] = q_d_row[i]
                row[f"qdot_d{i}"] = qd_d_row[i]
            for i in range(model.n_c):
                row[f"theta{i}"] = state.theta[i]
                row[f"thetadot{i}"] = state.thetadot[i]
            trace.append(**row)
    except (dyn.SimulationFault, traj.RefinementError) as exc:
        trace.fault = f"{type(exc).__name__}: {exc}"
        report = metrics(trace, scenario)
        report["fault"] = trace.fault
        return trace, report

    completed = (
        active_plan is not None
        and step_state == "done"
        and go_target_converged
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

    Returns a dict with per-variant measured RMS error against the
    reference, max commanded velocity, and the dense desired trajectories.
    """
    q0 = np.radians(np.asarray(q_start_deg, dtype=float))
    qp = np.radians(np.asarray(q_peak_deg, dtype=float))
    n = q0.size
    limit = math.radians(speed_limit_deg)
    wearer = wearer or WearerParams()
    up = traj.quintic_reference(q0, qp, t_f)
    down = traj.quintic_reference(qp, q0, t_f)
    duration = 2 * t_f + settle

    def reference(t):
        if t <= t_f:
            return up.sample(t)
        if t <= 2 * t_f:
            return down.sample(t - t_f)
        return down.sample(t_f)

    def run(desired_fn):
        state = dyn.settled_state(model, q0)
        icfg = control_cfg.impedance
        rows_q, rows_qd, rows_ref, rows_cmd_v = [], [], [], []
        t = 0.0
        for _ in range(int(round(duration / CONTROL_DT))):
            q_d, qd_d, qdd_d = desired_fn(t, state)
            q_r = reference(t)[0]
            q_h, qd_h = q_d, qd_d  # cooperative wearer follows the command
            tau = _wearer_torque(wearer, q_h, qd_h, state)
            u = ctl.impedance_control(model, state, q_d, qd_d, qdd_d, tau, icfg)
            for _ in range(CONTROL_SUBSTEPS):
                tau = _wearer_torque(wearer, q_d, qd_d, state)
                state = dyn.step(model, state, u, tau, PHYSICS_DT)
                t += PHYSICS_DT
            rows_q.append(state.q.copy())
            rows_ref.append(q_r)
            rows_cmd_v.append(qd_d.copy())
        err = np.degrees(np.array(rows_q) - np.array(rows_ref))
        return {
            "rms_deg": float(np.sqrt(np.mean(err**2))),
            "max_cmd_velocity_deg_s": float(np.degrees(np.max(np.abs(rows_cmd_v)))),
        }

    # variant A: causal rate limiter on the reference
    clamp_state = {"q": q0.copy()}

    def clamped(t, state):
        q_r, qd_r, _ = reference(t)
        step_lim = limit * CONTROL_DT
        delta = np.clip(q_r - clamp_state["q"], -step_lim, step_lim)
        clamp_state["q"] = clamp_state["q"] + delta
        return clamp_state["q"].copy(), delta / CONTROL_DT, np.zeros(n)

    # variant B: receding-horizon refinement
    qp_cfg = control_cfg.qp
    refine_state = {"q": q0.copy(), "qd": np.zeros(n), "phase": "up"}

    def refined(t, state):
        ref = up if t <= t_f else down
        t_local = t if t <= t_f else t - t_f
        setup = traj.QPSetup(
            N=qp_cfg.horizon, dt=qp_cfg.dt, Q=qp_cfg.Q, R=qp_cfg.R,
            speed_limit=limit, accel_limit=qp_cfg.accel_limit,
            q_min=(qp_cfg.position_min if qp_cfg.position_min is not None else -np.pi),
            q_max=(qp_cfg.position_max if qp_cfg.position_max is not None else np.pi),
            t_now=min(t_local, 2 * t_f),
        )
        seg = traj.refine(ref, (refine_state["q"], refine_state["qd"]), setup)
        q_d, qd_d, qdd_d = seg.sample(CONTROL_DT)
        out = (refine_state["q"].copy(), refine_state["qd"].copy(), seg.qddot_d[0])
        refine_state["q"], refine_state["qd"] = q_d, qd_d
        return out

    return {"clamped": run(clamped), "refined": run(refined)}


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
    computed on the training part only.
    """
    layout = ChannelLayout(n=model.n, n_c=model.n_c)
    ticks_per_subject = int(round(duration / CONTROL_DT))
    if ticks_per_subject < L_s:
        raise ValueError("duration too short for a single sensory window")
    cfg = cfg or ctl.TransparentConfig()
    noise = DEFAULT_SENSOR_NOISE if sensor_noise is None else sensor_noise
    box = [np.radians(np.array(b, dtype=float)) for b in motion_box_deg]

    all_windows = []
    tags = []
    for s_idx, subject in enumerate(subjects):
        rng = np.random.default_rng(seed + 1000 * s_idx)
        q0 = np.array([b.mean() for b in box])
        state = dyn.settled_state(model, q0)
        intent = _Intent(q0)
        rows = []
        t = 0.0
        motion_ends = 0.0
        for tick in range(ticks_per_subject):
            if t >= motion_ends:
                target = np.array([rng.uniform(lo, hi) for lo, hi in box])
                move_t = rng.uniform(0.8, 2.2)
                intent.reach(t, intent.sample(t)[0].copy(), target, move_t)
                motion_ends = t + move_t + rng.uniform(0.1, 0.3)
            q_h, qd_h = intent.sample(t)
            tau = _wearer_torque(subject, q_h, qd_h, state)
            u = ctl.transparent_control(
                model,
                dyn.PlantState(q=state.q + rng.standard_normal(model.n) * noise["q"],
                               qdot=state.qdot + rng.standard_normal(model.n) * noise["qdot"],
                               theta=state.theta, thetadot=state.thetadot,
                               payload_mass=0.0, tau_e=tau),
                tau + rng.standard_normal(model.n) * noise["tau_e"], cfg)
            for _ in range(CONTROL_SUBSTEPS):
                q_h, qd_h = intent.sample(t)
                tau = _wearer_torque(subject, q_h, qd_h, state)
                state = dyn.step(model, state, u, tau, PHYSICS_DT)
                t += PHYSICS_DT
            rows.append(layout.pack(
                state.q + rng.standard_normal(model.n) * noise["q"],
                state.qdot + rng.standard_normal(model.n) * noise["qdot"],
                state.theta + rng.standard_normal(model.n_c) * noise["theta"],
                state.thetadot + rng.standard_normal(model.n_c) * noise["thetadot"],
                tau + rng.standard_normal(model.n) * noise["tau_e"]))
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
