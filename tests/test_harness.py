"""Harness tests: event injection, data collection, metrics bookkeeping,
trace format, determinism, and the scenario engine's interlocks."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import scenario_path
from hypothesis import given, settings, strategies as st
from oracles import reference_wearer_torque

from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl
from exoassist import trajectory as traj
from exoassist.config import ConfigError


# ---------------------------------------------------------------------------
# events


def test_drop_with_zero_payload_is_noop(trained):
    state = dyn.settled_state(trained["model"], np.zeros(4))
    out = hz.inject_event(state, hz.EventSpec(type="drop", t=1.0), trained["model"])
    assert out.state.payload_mass == 0.0
    assert out.transient is None
    assert np.array_equal(out.state.q, state.q)


def test_drop_gravity_step_matches_moment_arm(trained):
    """Dropping 0.5 kg at horizontal reach removes g*m*reach from the
    flexion-joint gravity load."""
    model = trained["model"]
    q = np.array([0.0, np.pi / 2, 0.0, 0.0])
    state = dyn.settled_state(model, q, payload_mass=0.5)
    g_before = dyn.gravity_vector(model, q, 0.5)
    out = hz.inject_event(state, hz.EventSpec(type="drop", t=0.0), model)
    g_after = dyn.gravity_vector(model, out.state.q, out.state.payload_mass)
    reach = dyn.end_effector_position(model, q)
    arm = np.hypot(reach[0], reach[1])
    assert g_before[1] - g_after[1] == pytest.approx(9.81 * 0.5 * arm, rel=1e-9)
    # transient opposes with the sign of the former payload load
    assert out.transient is not None
    assert np.sign(out.transient["amplitude"][1]) == np.sign(g_before[1] - g_after[1])


def test_payload_step_and_torque_pulse(trained):
    model = trained["model"]
    state = dyn.settled_state(model, np.zeros(4))
    out = hz.inject_event(state, hz.EventSpec(type="payload_step", t=0.0,
                                              params={"mass": 1.2}), model)
    assert out.state.payload_mass == 1.2
    out = hz.inject_event(state, hz.EventSpec(type="torque_pulse", t=0.0,
                                              params={"amplitude": [0, 1, 0, 0]}), model)
    assert out.transient["amplitude"][1] == 1.0


def test_unknown_event_rejected(trained):
    model = trained["model"]
    state = dyn.settled_state(model, np.zeros(4))
    with pytest.raises(ValueError, match="unknown event"):
        hz.inject_event(state, hz.EventSpec(type="teleport", t=0.0), model)


def test_intent_conflict_raises_score(trained, stack):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.events = [hz.EventSpec(type="intent_conflict", t=4.0,
                                params={"pose_deg": [0, 10, 0, 20], "duration": 1.0})]
    scen.s_bar = 10.0  # observe the score without triggering replanning
    scen.duration = 6.0
    trace, _ = hz.run_scenario(scen, stack)
    s = trace.column("s")
    t = trace.column("t")
    nominal_p99 = np.percentile(
        trained["detector"].score_batch(trained["normed"][trained["data"]["train_idx"]]), 99)
    assert np.max(s[(t >= 4.0) & (t <= 4.5)]) > nominal_p99


# ---------------------------------------------------------------------------
# training data collection


def test_window_count_formula(trained):
    data = hz.collect_training_data(trained["model"], [hz.WearerParams()],
                                    duration=8.0, seed=2)
    ticks = int(8.0 / hz.CONTROL_DT)
    expected = (ticks - 25) // 5 + 1
    assert data["raw"].shape[0] == expected
    # the documented 10-minute arithmetic
    assert (60_000 - 25) // 5 + 1 == 11_996


def test_two_subjects_are_tagged(trained):
    tags = trained["data"]["tags"]
    assert set(tags) == {"subject-a", "subject-b"}
    assert (tags == "subject-a").sum() == (tags == "subject-b").sum()


def test_degenerate_motion_rejected(trained, monkeypatch):
    """A motion box of single poses read without noise leaves channels constant."""
    monkeypatch.setattr(hz, "MOTION_BOX_DEG", ((10, 10), (30, 30), (0, 0), (40, 40)))
    monkeypatch.setattr(hz, "DEFAULT_SENSOR_NOISE", {})
    with pytest.raises(ano.DegenerateDataError):
        hz.collect_training_data(trained["model"], [hz.WearerParams()], duration=4.0, seed=0)


class RecordingRng:
    """A generator that logs every standard-normal draw it hands out."""

    def __init__(self, seed, draws):
        self.rng, self.draws = np.random.Generator(np.random.PCG64(seed)), draws

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        self.draws.append(z)
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_scenario_and_collection_read_out_by_one_rule(monkeypatch):
    """Both loops read a noise dict the same way: one draw per read-out over
    the entries with a nonzero level, in channel order, none for a zero or
    missing level, each draw added to the channel it belongs to. Collection
    reads DEFAULT_SENSOR_NOISE, where every level is nonzero."""
    model = dyn.default_model()
    noise = {"q": 0.0, "qdot": 1e-3, "thetadot": 0.0, "tau_e": 0.02}  # theta missing
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordingRng(seed, draws))

    stack = hz.SimStack(model=model, control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=pl.PlannerRuntime(pl.RuleScorer(pl.load_corpus(
                            pl.data_path("corpus.jsonl"))), pl.default_library()))
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration, scen.sensor_noise = 0.3, noise
    trace, _ = hz.run_scenario(scen, stack)
    assert [z.size for z in draws] == [2 * model.n] * len(trace)  # qdot, tau_e
    q, qd = trace.vector("q", model.n), trace.vector("qdot", model.n)
    q_s, qd_s = trace.vector("q_d", model.n), trace.vector("qdot_d", model.n)
    assert not trace.column("mode").any()  # transparent: the desired row is the sensed one
    for k in range(1, len(trace)):  # tick k senses the state that row k - 1 recorded
        assert np.array_equal(q_s[k], q[k - 1])
        assert np.array_equal(qd_s[k], qd[k - 1] + draws[k][:model.n] * 1e-3)

    draws.clear()
    hz.collect_training_data(model, [hz.WearerParams()], duration=0.3, seed=3)
    per_tick = ano.ChannelLayout(n=model.n, n_c=model.n_c).per_tick
    assert [z.size for z in draws] == [3 * model.n, per_tick] * 30  # controller, then window


def test_too_short_duration_rejected(trained):
    with pytest.raises(ValueError, match="too short"):
        hz.collect_training_data(trained["model"], [hz.WearerParams()], duration=0.1)


# ---------------------------------------------------------------------------
# metrics


def synthetic_trace(q_fn, q_d_fn, ticks=200):
    trace = hz.TraceRecord()
    for k in range(ticks):
        t = k * hz.CONTROL_DT
        # in TRACE_COLUMNS order: t, q, qdot, theta, thetadot, tau_e, u, q_d,
        # qdot_d, then s, mode, subtask, replan, mode_cmd
        trace.append([t, *q_fn(t), *[0.0] * 4, *[0.0] * 2, *[0.0] * 2, *[0.0] * 4,
                      *[1.0] * 4, *q_d_fn(t), *[0.0] * 4, 0.0, 1, "go_target(chest)", 0, 0])
    return trace


def test_trace_record_rows_and_csv(tmp_path):
    trace = synthetic_trace(lambda t: np.array([0.1, 0.2, 0.3, 0.4]) + t,
                            lambda t: np.zeros(4), ticks=5)
    assert len(trace) == 5
    row = [trace.columns[c][2] for c in hz.TRACE_COLUMNS]
    assert row[hz.TRACE_COLUMNS.index("q1")] == 0.2 + 2 * hz.CONTROL_DT
    assert row[hz.TRACE_COLUMNS.index("replan")] == 0  # flags stay integers
    path = tmp_path / "trace.csv"
    hz.save_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(hz.TRACE_COLUMNS)
    assert lines[3].split(",") == [str(v) for v in row]


ALL_JOINTS = hz.Scenario(name="synthetic", task="t", assist_joints=(0, 1, 2, 3))


def test_metrics_perfect_tracking_zero_rms():
    q = lambda t: np.array([0.1, 0.2, 0.3, 0.4])
    trace = synthetic_trace(q, q)
    out = hz.metrics(trace, ALL_JOINTS)
    assert out["rms_tracking_deg"] == 0.0


def test_metrics_sinusoid_rms_closed_form():
    amp = np.radians(2.0)
    omega = 2 * np.pi * 1.0
    base = lambda t: np.zeros(4)
    off = lambda t: np.array([amp * np.sin(omega * t), 0, 0, 0])
    trace = synthetic_trace(off, base, ticks=400)  # integer periods
    out = hz.metrics(trace, ALL_JOINTS)
    # RMS over one joint = amp/sqrt(2); over 4 joints divide by sqrt(4)
    expected = np.degrees(amp / np.sqrt(2.0)) / 2.0
    assert out["rms_tracking_deg"] == pytest.approx(expected, rel=1e-3)


# ---------------------------------------------------------------------------
# engine behavior


def test_trace_uniform_tick_spacing(stack_no_detector):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 1.0
    trace, _ = hz.run_scenario(scen, stack_no_detector)
    t = trace.column("t")
    assert len(t) == 100
    assert np.allclose(np.diff(t), hz.CONTROL_DT)


def test_scenario_deterministic_traces(stack_no_detector):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 4.0
    t1, _ = hz.run_scenario(scen, stack_no_detector, seed=42)
    t2, _ = hz.run_scenario(scen, stack_no_detector, seed=42)
    assert t1.columns == t2.columns


def test_scenario_completes_and_interlock_holds(stack_no_detector):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    trace, report = hz.run_scenario(scen, stack_no_detector)
    assert report["task_completed"] is True
    assert report["mode_changes_flagged"] is True


def test_end_mode_follows_plan_semantics(stack_no_detector):
    """Benign items release to transparent at done; heavy items keep
    impedance on through the trailing set_mode(1)."""
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    trace, report = hz.run_scenario(scen, stack_no_detector)
    assert report["task_completed"] and int(trace.column("mode")[-1]) == 0

    scen = hz.load_scenario(scenario_path("dumbbell_shelf.json"))
    trace, report = hz.run_scenario(scen, stack_no_detector)
    assert report["task_completed"] and int(trace.column("mode")[-1]) == 1


def test_backdrivability_proxy_during_grasp(stack_no_detector):
    """Transparent grasp phase keeps |tau_e| below the wearer saturation."""
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 2.0  # grasp phase only
    trace, _ = hz.run_scenario(scen, stack_no_detector)
    tau = trace.vector("tau_e", 4)
    assert np.max(np.abs(tau)) < scen.wearer.saturation


def test_engine_fault_flushes_partial_trace(trained, stack_no_detector):
    import dataclasses
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    bad_imp = dataclasses.replace(trained["control"].impedance, Kd=1e7, Cd=1e-6)
    stack_no_detector.control = dataclasses.replace(trained["control"], impedance=bad_imp)
    trace, report = hz.run_scenario(scen, stack_no_detector)
    assert report.get("fault")
    assert len(trace) > 0
    # the report of a completed run, plus the fault
    assert set(report) == set(hz.metrics(trace, scen)) | {
        "schema_version", "task_completed", "replan_count", "detection_latency_ms", "fault"}
    assert report["task_completed"] is False and report["schema_version"] == 1


def test_trace_csv_roundtrip(tmp_path, stack_no_detector):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 0.5
    trace, _ = hz.run_scenario(scen, stack_no_detector)
    path = tmp_path / "trace.csv"
    hz.save_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(hz.TRACE_COLUMNS)
    assert len(lines) == len(trace) + 1


def test_scenario_loader_rejects_unknown_fields(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"name": "x", "task": "y", "warp_speed": 9}')
    with pytest.raises(ConfigError, match="warp_speed"):
        hz.load_scenario(path)


def test_scenario_loader_needs_name_and_task(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(ConfigError, match="task"):
        hz.load_scenario(path)


# ---------------------------------------------------------------------------
# scenario validation at load time


def _scenario_file(tmp_path, event, duration=1.0):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"name": "x", "task": "help me drink water",
                                "duration": duration, "events": [event]}))
    return path


@pytest.mark.parametrize("event, match", [
    ({"type": "dorp", "t": 0.5}, "unknown event type"),
    ({"type": "payload_step", "t": 0.5}, "mass"),
    ({"type": "payload_step", "t": 0.5, "params": {"mass": float("nan")}}, "non-finite"),
    ({"type": "drop", "t": 99.0}, "outside"),
    ({"type": "payload_step", "t": 0.5, "params": {"mass": [1.0, 2.0]}}, "single number"),
], ids=["unknown-type", "missing-param", "non-finite", "time-outside-run", "list-mass"])
def test_scenario_loader_rejects_bad_events(tmp_path, event, match):
    with pytest.raises(ConfigError, match=match):
        hz.load_scenario(_scenario_file(tmp_path, event))


# ---------------------------------------------------------------------------
# controller gains are checked once, before the first tick


@pytest.fixture()
def no_physics(monkeypatch):
    def step(*args, **kwargs):
        raise AssertionError("the plant was stepped with a bad gain")
    monkeypatch.setattr(dyn, "step", step)


@pytest.mark.parametrize("make", [
    lambda: ctl.TransparentConfig(gamma0=0.0),
    lambda: ctl.TransparentConfig(Kv=[5.0, -1.0]),
    lambda: ctl.ImpedanceConfig(w=float("nan")),
    lambda: ctl.ImpedanceConfig(Kd=-50.0),
    lambda: ctl.ImpedanceConfig(Mv=[0.5, 0.5, 0.0, 0.5]),
], ids=["gamma0", "Kv", "w", "Kd", "Mv"])
def test_bad_gain_rejected_at_construction(make):
    with pytest.raises(ConfigError):
        make()


def test_bad_gain_rejected_at_load(tmp_path):
    path = tmp_path / "control.json"
    path.write_text(json.dumps({"impedance": {"Cd": 0.0}}))
    with pytest.raises(ConfigError, match="Cd"):
        ctl.load_control_config(path)


def test_wrong_gain_length_fails_before_the_first_tick(no_physics):
    model = dyn.default_model()
    control = ctl.load_control_config(pl.data_path("control.json"))
    short_kd = replace(control, impedance=replace(control.impedance, Kd=[50.0, 50.0]))
    with pytest.raises(ConfigError, match="Kd"):
        hz.SimStack(model=model, control=short_kd, planner=None)
    with pytest.raises(ConfigError, match="Kd"):
        hz.tracking_comparison(model, short_kd, [0, 5, 0, 20], [0, 95, 0, 20], t_f=3.0)


def test_wrong_qp_bound_length_fails_before_the_first_tick(no_physics):
    model = dyn.default_model()
    control = ctl.load_control_config(pl.data_path("control.json"))
    short_bound = replace(control, qp=replace(control.qp, position_min=[-1.0, -1.0],
                                              position_max=[1.0, 1.0]))
    with pytest.raises(ConfigError, match="position_min must have length 4"):
        hz.SimStack(model=model, control=short_bound, planner=None)
    with pytest.raises(ConfigError, match="position_min must have length 4"):
        hz.tracking_comparison(model, short_bound, [0, 5, 0, 20], [0, 95, 0, 20], t_f=3.0)


@pytest.mark.parametrize("events, match", [
    ([hz.EventSpec("torque_pulse", 0.5, {"amplitude": [0.0, 1.0, 0.0]})], "amplitude"),
    ([hz.EventSpec("payload_step", 0.2, {"mass": 1.0}),
      hz.EventSpec("drop", 0.5, {"joints": [7]})], "joints"),
    ([hz.EventSpec("drop", 0.5, {"joints": [1.0]})], "joints"),
    ([hz.EventSpec("intent_conflict", 0.5, {"pose_deg": [0.0, 10.0]})], "pose_deg"),
], ids=["pulse-length", "drop-joint-range", "drop-joint-type", "pose-length"])
def test_wrong_event_vector_fails_before_the_first_tick(no_physics, events, match):
    stack = hz.SimStack(model=dyn.default_model(),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=None)
    scen = hz.Scenario(name="x", task="help me drink water", duration=1.0, events=events)
    with pytest.raises(ConfigError, match=match):
        hz.run_scenario(scen, stack)


@pytest.mark.parametrize("fields, match", [
    ({"assist_joints": (0, 4)}, "assist_joints"),
    ({"assist_joints": (0.0, 1.0)}, "assist_joints"),
    ({"start_pose_deg": (0.0, 15.0, 0.0)}, "start_pose_deg"),
    ({"grasp_pose_deg": (5.0, 30.0, float("inf"), 60.0)}, "grasp_pose_deg"),
    ({"wearer": hz.WearerParams(C_h=[5.0, 5.0, 5.0])}, "C_h"),
], ids=["joint-range", "joint-type", "pose-length", "pose-inf", "damping-length"])
def test_wrong_scenario_vector_fails_before_the_first_tick(no_physics, fields, match):
    stack = hz.SimStack(model=dyn.default_model(),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=None)
    scen = hz.Scenario(name="x", task="help me drink water", duration=1.0, **fields)
    with pytest.raises(ConfigError, match=match):
        hz.run_scenario(scen, stack)


def test_per_joint_wearer_gains_load_and_run(tmp_path):
    path = tmp_path / "scen.json"
    base = json.loads(scenario_path("raise_lower.json").read_text())
    path.write_text(json.dumps({**base, "duration": 0.5,
                                "wearer": {"K_h": [20, 20, 20, 25], "C_h": 5}}))
    scen = hz.load_scenario(path)
    stack = hz.SimStack(model=dyn.load_plant_config(pl.data_path("plant.json")),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=pl.PlannerRuntime(pl.RuleScorer(pl.load_corpus(
                            pl.data_path("corpus.jsonl"))), pl.default_library()))
    trace, report = hz.run_scenario(scen, stack)
    assert report.get("fault") is None and len(trace) == 50


# ---------------------------------------------------------------------------
# a go_target without a paramset before it


class NoParamsetScorer(pl.RuleScorer):
    """Rule scorer whose plans skip paramset, as a language model's may."""

    def canonical_plan(self, task):
        steps = super().canonical_plan(task)
        return [s for s in steps if s[0] != "paramset"] if steps else steps


def test_default_speed_limit_binds_without_paramset():
    # 90 deg on the shoulder from the grasp pose: the 5 s quintic peaks at
    # 33.75 deg/s, above the Spd = 0 limit of 30 deg/s
    targets = dict(pl.load_targets(), mouth=[5.0, 120.0, 0.0, 60.0])
    scorer = NoParamsetScorer(pl.load_corpus(pl.data_path("corpus.jsonl")))
    stack = hz.SimStack(model=dyn.load_plant_config(pl.data_path("plant.json")),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=pl.PlannerRuntime(scorer, pl.default_library()))
    stack.targets = targets
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 8.0
    trace, report = hz.run_scenario(scen, stack)
    assert "paramset" not in " ".join(map(str, trace.column("subtask")))
    assert 29.0 < report["max_cmd_velocity_deg_s"] <= 30.0 + 1e-6


# ---------------------------------------------------------------------------
# the plant layout the trace records


@pytest.mark.parametrize("n", [3, 6])
def test_scenario_stack_rejects_a_plant_the_trace_cannot_record(n):
    model = dyn.PlantModel(n=n, n_c=2, link_lengths=[0.2] * n, link_masses=[1.0] * n)
    control = ctl.ControlConfig(ctl.TransparentConfig(), ctl.ImpedanceConfig(), ctl.QPConfig())
    with pytest.raises(ConfigError, match=f"4 joints, 2 cable-driven.*n = {n}, n_c = 2"):
        hz.SimStack(model=model, control=control, planner=None)


# ---------------------------------------------------------------------------
# the wearer and the sensor read-out against their per-call numpy forms

_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def wearer_cases(draw):
    """A wearer with scalar or per-joint gains following one intent (hold,
    reach, or a move's desired state), maybe under an override (active or
    expired) and with live transients, at time t; returns the wearer, the
    numpy form's inputs and the state."""
    n = draw(st.sampled_from([1, 2, 4, 6]))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi, **_FINITE), min_size=n, max_size=n)))

    def gain(lo, hi):
        return draw(st.one_of(st.floats(lo, hi), st.lists(st.floats(lo, hi), min_size=n,
                                                          max_size=n)))

    params = hz.WearerParams(K_h=gain(0.0, 60.0), C_h=gain(0.0, 15.0),
                             saturation=draw(st.floats(0.5, 30.0)))
    t = draw(st.floats(0.0, 12.0))
    wearer = hz._Wearer(params, vec(-np.pi, np.pi))
    kind = draw(st.sampled_from(["hold", "reach", "move"]))
    if kind == "hold":
        pose = vec(-np.pi, np.pi)
        wearer.hold(pose)
        intent = lambda _t: (pose, np.zeros(n))
    elif kind == "reach":  # t before, during or after the reach
        t0, start, goal = draw(st.floats(0.0, 12.0)), vec(-np.pi, np.pi), vec(-np.pi, np.pi)
        spline = traj.quintic_reference(start, goal, draw(st.floats(0.3, 3.0)))
        wearer.reach(t0, start, goal, spline.t_f)
        intent = lambda _t: spline.sample(_t - t0)[:2]
    else:  # a go_target sets the intent to the move's desired state
        desired = (vec(-np.pi, np.pi), vec(-2.0, 2.0))
        wearer.intent = intent = lambda _t: desired
    if draw(st.booleans()):  # active or expired
        wearer.override = {"pose": vec(-np.pi, np.pi), "until": t + draw(st.floats(-1.0, 1.0))}
    wearer.transients = [{"amplitude": vec(-5.0, 5.0), "decay": draw(st.floats(0.01, 0.5)),
                          "t0": t - draw(st.floats(0.0, 3.0))}
                         for _ in range(draw(st.integers(0, 2)))]
    state = dyn.PlantState(q=vec(-np.pi, np.pi), qdot=vec(-3.0, 3.0),
                           theta=np.zeros(1), thetadot=np.zeros(1))
    return wearer, (params, intent, wearer.override, wearer.transients, t, state)


@settings(max_examples=200, deadline=None)
@given(wearer_cases())
def test_wearer_torque_matches_numpy_form_bitwise(case):
    wearer, args = case
    tau = wearer.torque(*args[-2:])
    assert tau.dtype == np.float64
    assert tau.tobytes() == reference_wearer_torque(*args).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), n_c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       noise=st.dictionaries(st.sampled_from(sorted(hz.DEFAULT_SENSOR_NOISE)),
                             st.one_of(st.just(0.0), st.floats(1e-4, 1.0))),
       keys=st.sampled_from([tuple(hz.DEFAULT_SENSOR_NOISE), ("q", "qdot", "tau_e")]))
def test_batched_read_out_matches_per_channel_draws(n, n_c, seed, noise, keys):
    """One draw over the noisy entries is the per-channel draws of the same
    generator, skipping the channels whose level is zero or missing."""
    model = dyn.PlantModel(n=max(n, n_c), n_c=n_c, link_lengths=[0.2] * max(n, n_c),
                           link_masses=[1.0] * max(n, n_c))
    read_out = hz._ReadOut(noise, model, keys)
    vecs = [np.linspace(-1.0, 1.0, model.n_c if k.startswith("theta") else model.n)
            for k in keys]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the stream continues across read-outs
        packed = read_out(rng, *vecs)
        want = [v + ref_rng.standard_normal(v.size) * noise[k] if noise.get(k, 0.0) > 0 else v
                for k, v in zip(keys, vecs)]
        assert packed.tobytes() == np.concatenate(want).tobytes()
        assert [p.tobytes() for p in read_out.split(packed)] == [w.tobytes() for w in want]


@pytest.mark.parametrize("event, name", [
    ({"type": "drop", "t": True}, "scenario events[0] t"),
    ({"type": "drop", "t": 0.5, "params": {"decay": True}}, "scenario events[0] params decay"),
    ({"type": "payload_step", "t": 0.5, "params": {"mass": "2"}},
     "scenario events[0] params mass"),
], ids=["boolean-time", "boolean-decay", "string-mass"])
def test_scenario_event_takes_only_numbers_as_numbers(tmp_path, event, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        hz.load_scenario(_scenario_file(tmp_path, event))
