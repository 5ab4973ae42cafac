"""Harness tests: event injection, data collection, metrics bookkeeping,
trace format, determinism, and the scenario engine's interlocks."""
import numpy as np
import pytest
from conftest import scenario_path

from exoassist import anomaly as ano
from exoassist import dynamics as dyn
from exoassist import harness as hz


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
    state = dyn.settled_state(trained["model"], np.zeros(4))
    out = hz.inject_event(state, hz.EventSpec(type="payload_step", t=0.0,
                                              params={"mass": 1.2}))
    assert out.state.payload_mass == 1.2
    out = hz.inject_event(state, hz.EventSpec(type="torque_pulse", t=0.0,
                                              params={"amplitude": [0, 1, 0, 0]}))
    assert out.transient["amplitude"][1] == 1.0


def test_unknown_event_rejected(trained):
    state = dyn.settled_state(trained["model"], np.zeros(4))
    with pytest.raises(ValueError, match="unknown event"):
        hz.inject_event(state, hz.EventSpec(type="teleport", t=0.0))


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
