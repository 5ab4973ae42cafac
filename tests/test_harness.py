"""Harness tests: event injection, data collection, metrics bookkeeping,
trace format, determinism, and the scenario engine's interlocks."""
import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import scenario_path

from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl


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


def test_degenerate_motion_rejected(trained):
    with pytest.raises(ano.DegenerateDataError):
        hz.collect_training_data(
            trained["model"], [hz.WearerParams()], duration=4.0, seed=0,
            sensor_noise={k: 0.0 for k in hz.DEFAULT_SENSOR_NOISE},
            motion_box_deg=((10, 10), (30, 30), (0, 0), (40, 40)))


def test_collection_noise_missing_key_is_no_noise(trained):
    """A sensor_noise dict replaces the default as a whole, as in a
    scenario file: the missing channels are read without noise."""
    quiet = {k: 0.0 for k in hz.DEFAULT_SENSOR_NOISE}
    runs = [hz.collect_training_data(trained["model"], [hz.WearerParams()], duration=1.0,
                                     seed=3, sensor_noise=noise)["raw"]
            for noise in ({"q": 0.1}, {**quiet, "q": 0.1})]
    assert np.array_equal(runs[0], runs[1])


def test_collection_rejects_negative_noise(no_physics):
    with pytest.raises(dyn.ConfigError, match="sensor_noise q"):
        hz.collect_training_data(dyn.default_model(), [hz.WearerParams()], duration=1.0,
                                 sensor_noise={**hz.DEFAULT_SENSOR_NOISE, "q": -1.0})


def test_too_short_duration_rejected(trained):
    with pytest.raises(ValueError, match="too short"):
        hz.collect_training_data(trained["model"], [hz.WearerParams()], duration=0.1)


# ---------------------------------------------------------------------------
# metrics


def synthetic_trace(q_fn, q_d_fn, ticks=200):
    trace = hz.TraceRecord()
    for k in range(ticks):
        t = k * hz.CONTROL_DT
        row = dict(t=t, s=0.0, mode=1, subtask="go_target(chest)", replan=0, mode_cmd=0)
        q = q_fn(t)
        q_d = q_d_fn(t)
        for i in range(4):
            row[f"q{i}"] = q[i]
            row[f"qdot{i}"] = 0.0
            row[f"tau_e{i}"] = 0.0
            row[f"u{i}"] = 1.0
            row[f"q_d{i}"] = q_d[i]
            row[f"qdot_d{i}"] = 0.0
        for i in range(2):
            row[f"theta{i}"] = 0.0
            row[f"thetadot{i}"] = 0.0
        trace.append(**row)
    return trace


def test_trace_record_rows_and_csv(tmp_path):
    trace = synthetic_trace(lambda t: np.array([0.1, 0.2, 0.3, 0.4]) + t,
                            lambda t: np.zeros(4), ticks=5)
    assert len(trace) == len(trace.rows) == 5
    row = trace.rows[2]
    assert row[hz.TRACE_COLUMNS.index("q1")] == 0.2 + 2 * hz.CONTROL_DT
    assert row[hz.TRACE_COLUMNS.index("replan")] == 0  # flags stay integers
    path = tmp_path / "trace.csv"
    hz.save_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(hz.TRACE_COLUMNS)
    assert lines[3].split(",") == [str(v) for v in row]


def test_metrics_perfect_tracking_zero_rms():
    q = lambda t: np.array([0.1, 0.2, 0.3, 0.4])
    trace = synthetic_trace(q, q)
    out = hz.metrics(trace)
    assert out["rms_tracking_deg"] == 0.0


def test_metrics_sinusoid_rms_closed_form():
    amp = np.radians(2.0)
    omega = 2 * np.pi * 1.0
    base = lambda t: np.zeros(4)
    off = lambda t: np.array([amp * np.sin(omega * t), 0, 0, 0])
    trace = synthetic_trace(off, base, ticks=400)  # integer periods
    out = hz.metrics(trace)
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
    assert len(t1.rows) == len(t2.rows)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1 == r2


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
    assert len(trace.rows) > 0


def test_trace_csv_roundtrip(tmp_path, stack_no_detector):
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 0.5
    trace, _ = hz.run_scenario(scen, stack_no_detector)
    path = tmp_path / "trace.csv"
    hz.save_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(hz.TRACE_COLUMNS)
    assert len(lines) == len(trace.rows) + 1


def test_scenario_loader_rejects_unknown_fields(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"name": "x", "task": "y", "warp_speed": 9}')
    with pytest.raises(dyn.ConfigError, match="warp_speed"):
        hz.load_scenario(path)


def test_scenario_loader_needs_name_and_task(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(dyn.ConfigError, match="task"):
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
    with pytest.raises(dyn.ConfigError, match=match):
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
    with pytest.raises(dyn.ConfigError):
        make()


def test_bad_gain_rejected_at_load(tmp_path):
    path = tmp_path / "control.json"
    path.write_text(json.dumps({"impedance": {"Cd": 0.0}}))
    with pytest.raises(dyn.ConfigError, match="Cd"):
        ctl.load_control_config(path)


def test_wrong_gain_length_fails_before_the_first_tick(no_physics):
    model = dyn.default_model()
    control = ctl.load_control_config(pl.data_path("control.json"))
    short_kd = replace(control, impedance=replace(control.impedance, Kd=[50.0, 50.0]))
    with pytest.raises(dyn.ConfigError, match="Kd"):
        hz.SimStack(model=model, control=short_kd, planner=None)
    with pytest.raises(dyn.ConfigError, match="Kd"):
        hz.tracking_comparison(model, short_kd, [0, 5, 0, 20], [0, 95, 0, 20], t_f=3.0)
    with pytest.raises(dyn.ConfigError, match="Kv"):
        hz.collect_training_data(model, [hz.WearerParams()], duration=1.0,
                                 cfg=ctl.TransparentConfig(Kv=[5.0, 5.0, 5.0]))


def test_wrong_qp_bound_length_fails_before_the_first_tick(no_physics):
    model = dyn.default_model()
    control = ctl.load_control_config(pl.data_path("control.json"))
    short_bound = replace(control, qp=replace(control.qp, position_min=[-1.0, -1.0],
                                              position_max=[1.0, 1.0]))
    with pytest.raises(dyn.ConfigError, match="position_min must have length 4"):
        hz.SimStack(model=model, control=short_bound, planner=None)
    with pytest.raises(dyn.ConfigError, match="position_min must have length 4"):
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
    with pytest.raises(dyn.ConfigError, match=match):
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
    with pytest.raises(dyn.ConfigError, match=match):
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
                        planner=pl.PlannerRuntime(scorer, pl.default_library()),
                        targets=targets)
    scen = hz.load_scenario(scenario_path("water_mouth.json"))
    scen.duration = 8.0
    trace, report = hz.run_scenario(scen, stack)
    assert "paramset" not in " ".join(map(str, trace.column("subtask")))
    assert 29.0 < report["max_cmd_velocity_deg_s"] <= 30.0 + 1e-6
