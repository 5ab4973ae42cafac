"""CLI tests: all four subcommands exercised in-process with small configs."""
import json

import numpy as np
import pytest
from conftest import scenario_path

from exoassist import anomaly as ano
from exoassist.cli import main


@pytest.fixture(scope="module")
def small_train_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.json"
    path.write_text(json.dumps({
        "duration": 6.0,
        "seed": 3,
        "subjects": [{"name": "subject-a"}],
        "schedule": {"T": 12, "nu": 4},
        "train": {"epochs": 8, "batch_size": 32, "hidden": [48, 48],
                  "embed_dim": 16, "seed": 2},
    }))
    return path


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory, small_train_config):
    out = tmp_path_factory.mktemp("ckpt") / "det.npz"
    assert main(["train-detector", "--config", str(small_train_config),
                 "--out", str(out)]) == 0
    return out


def test_train_detector_writes_checkpoint(small_checkpoint):
    det = ano.load_checkpoint(small_checkpoint)
    assert det.schedule.T == 12
    assert det.cal_scale > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_train_detector_nonzero_exit_on_divergence(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "duration": 4.0,
        "subjects": [{"name": "subject-a"}],
        "schedule": {"T": 8, "nu": 2},
        "train": {"epochs": 40, "batch_size": 16, "hidden": [16],
                  "embed_dim": 8, "lr": 1e160},
    }))
    assert main(["train-detector", "--config", str(cfg),
                 "--out", str(tmp_path / "x.npz")]) == 2


def test_train_detector_from_csv(tmp_path, trained):
    data = trained["data"]
    csv_path = tmp_path / "win.csv"
    ano.save_windows_csv(csv_path, data["raw"][:200])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": {"T": 10, "nu": 3},
        "train": {"epochs": 3, "batch_size": 32, "hidden": [32], "embed_dim": 8},
    }))
    out = tmp_path / "det.npz"
    assert main(["train-detector", "--config", str(cfg), "--data", str(csv_path),
                 "--out", str(out)]) == 0
    assert out.exists()


def test_run_scenario_writes_trace_and_report(tmp_path, small_checkpoint):
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    scen = tmp_path / "scen.json"
    base = json.loads(scenario_path("water_mouth.json").read_text())
    base["duration"] = 3.0
    scen.write_text(json.dumps(base))
    code = main(["run-scenario", "--scenario", str(scen),
                 "--checkpoint", str(small_checkpoint),
                 "--seed", "4", "--trace", str(trace), "--report", str(report)])
    assert code == 0
    header = trace.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and "s" in header and "subtask" in header
    rep = json.loads(report.read_text())
    assert "replan_count" in rep and "rms_tracking_deg" in rep


def test_run_scenario_rejects_bad_scenario_file(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    base = json.loads(scenario_path("drop_replan.json").read_text())
    base["events"] = [{"type": "dorp", "t": 1.0}]
    scen.write_text(json.dumps(base))
    assert main(["run-scenario", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert "dorp" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, value, name", [
    ("wearer", {"K_x": 1.0}, "K_x"),
    ("wearer", [20.0, 5.0], "wearer"),
    ("duration", "long", "duration"),
    ("item_mass", -0.5, "item_mass"),
    ("grasp_confirm_delay", float("inf"), "grasp_confirm_delay"),
    ("settle_time", -1.0, "settle_time"),
    ("grasp_load_time", True, "grasp_load_time"),
    ("reach_duration", 0.0, "reach_duration"),
    ("target_tolerance_deg", "3", "target_tolerance_deg"),
    ("replan_refractory", -0.5, "replan_refractory"),
    ("s_bar", float("nan"), "s_bar"),
    ("score_coupling_floor", None, "score_coupling_floor"),
    ("seed", "x", "seed"),
    ("seed", -1, "seed"),
    ("seed", True, "seed"),
    ("wearer", {"K_h": "x"}, "K_h"),
    ("wearer", {"C_h": -1.0}, "C_h"),
    ("wearer", {"saturation": -1}, "saturation"),
    ("wearer", {"name": 7}, "name"),
    ("wearer", {"K_h": [20.0, 20.0]}, "K_h"),
    ("assist_joints", [0, 9], "assist_joints"),
    ("start_pose_deg", [0, 15], "start_pose_deg"),
    ("grasp_pose_deg", [0, 10, "x", 30], "grasp_pose_deg"),
    ("sensor_noise", {"q": -1}, "sensor_noise q"),
    ("sensor_noise", {"q": float("nan")}, "sensor_noise q"),
    ("sensor_noise", {"qq": 0.1}, "sensor_noise"),
], ids=["unknown-wearer-field", "wearer-list", "string-duration", "negative-mass",
        "infinite-delay", "negative-settle", "boolean-load-time", "zero-reach",
        "string-tolerance", "negative-refractory", "nan-threshold", "null-floor",
        "string-seed", "negative-seed", "boolean-seed", "string-stiffness",
        "negative-damping", "negative-saturation", "numeric-name", "short-stiffness",
        "joint-out-of-range", "short-start-pose", "string-grasp-pose", "negative-noise",
        "nan-noise", "unknown-noise-key"])
def test_run_scenario_rejects_bad_scenario_value(tmp_path, capsys, field, value, name):
    scen = tmp_path / "scen.json"
    base = json.loads(scenario_path("raise_lower.json").read_text())
    base[field] = value
    scen.write_text(json.dumps(base))
    assert main(["run-scenario", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1


def test_run_scenario_rejects_bad_control_file(tmp_path, capsys):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"qp": {"horizon": 1}}))
    assert main(["run-scenario", "--scenario", str(scenario_path("raise_lower.json")),
                 "--control", str(control)]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("section, values, name", [
    ("qp", {"accel_limit_deg": "fast"}, "accel_limit_deg"),
    ("transparent", {"gamma0": "x"}, "gamma0"),
], ids=["accel-limit", "gamma0"])
def test_run_scenario_rejects_non_numeric_control_value(tmp_path, capsys, section, values, name):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({section: values}))
    assert main(["run-scenario", "--scenario", str(scenario_path("raise_lower.json")),
                 "--control", str(control)]) == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1


def test_run_scenario_rejects_event_vector_of_wrong_length(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    base = json.loads(scenario_path("raise_lower.json").read_text())
    base["events"] = [{"type": "torque_pulse", "t": 1.0, "params": {"amplitude": [0, 1, 0]}}]
    scen.write_text(json.dumps(base))
    assert main(["run-scenario", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert "amplitude" in err and len(err.strip().splitlines()) == 1


def test_eval_planner_rule_scorer(tmp_path):
    report = tmp_path / "planner.json"
    assert main(["eval-planner", "--scorer", "rule", "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["success_rate"] == 1.0
    assert rep["n_items"] == 195


def test_eval_planner_replay_requires_file(tmp_path):
    assert main(["eval-planner", "--scorer", "replay",
                 "--report", str(tmp_path / "r.json")]) == 2


def test_gradcheck_passes():
    assert main(["gradcheck"]) == 0
