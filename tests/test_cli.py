"""CLI tests: all four subcommands exercised in-process with small configs."""
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import scenario_path

from exoassist import anomaly as ano
from exoassist import harness as hz
from exoassist import planner as pl
from exoassist.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


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


def test_train_detector_matches_library_recipe(tmp_path, small_train_config, small_checkpoint):
    det = hz.train_detector(json.loads(small_train_config.read_text()))["detector"]
    ano.save_checkpoint(tmp_path / "library.npz", det)
    with np.load(small_checkpoint) as cli, np.load(tmp_path / "library.npz") as lib:
        assert sorted(cli.files) == sorted(lib.files)
        for name in cli.files:
            assert np.array_equal(cli[name], lib[name]), name
    assert det.seed == json.loads(pl.data_path("train_config.json").read_text())["detector_seed"]


def test_train_detector_seeds_detector_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "duration": 1.0,
        "subjects": [{"name": "subject-a"}],
        "schedule": {"T": 4, "nu": 2},
        "train": {"epochs": 1, "hidden": [8], "embed_dim": 4},
        "detector_seed": 7,
    }))
    out = tmp_path / "det.npz"
    assert main(["train-detector", "--config", str(cfg), "--out", str(out)]) == 0
    assert ano.load_checkpoint(out).seed == 7


class _Collected(Exception):
    """Stops a train-detector run once collection is asked for."""


@pytest.mark.parametrize("config, seed", [(None, 5), ({"seed": 3}, 3)],
                         ids=["bundled", "seed-replaced"])
def test_train_detector_lays_config_over_bundled_file(tmp_path, monkeypatch, config, seed):
    calls = []

    def collect(model, subjects, **kwargs):
        calls.append((subjects, kwargs))
        raise _Collected

    monkeypatch.setattr(hz, "collect_training_data", collect)
    argv = ["train-detector", "--out", str(tmp_path / "det.npz")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    with pytest.raises(_Collected):
        main(argv)
    bundled = json.loads(pl.data_path("train_config.json").read_text())
    (subjects, kwargs), = calls
    assert subjects == [hz.WearerParams(**s) for s in bundled["subjects"]]
    assert kwargs == {"duration": bundled["duration"], "seed": seed, "L_s": bundled["L_s"],
                      "stride": bundled["stride"]}


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


# five windows in the bundled plant's shape (25 ticks of 16 channels), random but fixed
_WINDOWS = np.random.default_rng(0).standard_normal((5, 25 * 16))


@pytest.mark.parametrize("config, csv_rows, name", [
    ({"train": {"epoch": 3}}, None, "epoch"),
    ({"schedule": {"T": 5, "nu": 10}}, None, "nu"),
    ({"duration": "long"}, None, "duration"),
    ({}, [[0.5] * 7], "7 values"),
    ([], None, "--config"),
    ('{"train": ', None, "--config"),
    ({"train": {"epochs": "x"}}, None, "train"),
    ({"subjects": [{"name": "a", "K_h": "x"}]}, None, "subjects"),
    ({"schedule": []}, None, "schedule"),
    ({"calibrate": {"target": "x"}}, None, "calibrate"),
    ({"plant": 5}, None, "plant"),
    ({"subjects": [{"K_h": True}]}, None, "subjects[0] K_h"),
    ({"subjects": [{"C_h": -3}]}, None, "subjects[0] C_h"),
    ({"subjects": [{"name": 5}]}, None, "subjects[0] name"),
    ({"train": {"epochs": True}}, None, "train epochs"),
    ({"train": {"hidden": [64.7, 2]}}, None, "train hidden"),
    ({"seed": True}, None, "config seed"),
    ({"subjects": [{"K_h": [20.0, 20.0]}]}, None, "subjects[0] K_h"),
    ({"calibrate": {"percentile": 150}}, None, "calibrate percentile"),
    ({"train": {"beta1": 1.5}}, None, "train beta1"),
    ({"train": {"beta2": 1.0}}, None, "train beta2"),
    ({}, _WINDOWS[:1], "--data"),
    ({}, np.where(np.arange(_WINDOWS.shape[1]) % 16 == 3, 1.0, _WINDOWS), "--data"),
    ({"duration": 0.1}, None, "duration"),
    ({"subjects": []}, None, "subjects"),
    ({}, [], "holds no windows"),
], ids=["unknown-train-field", "nu-above-T", "string-duration", "short-csv-rows",
        "not-an-object", "malformed-json", "string-epochs", "string-subject-gain",
        "schedule-not-an-object", "string-calibrate-target", "numeric-plant-path",
        "boolean-subject-gain", "negative-subject-damping", "numeric-subject-name",
        "boolean-epochs", "fractional-hidden-width", "boolean-seed", "short-subject-gain",
        "percentile-above-100", "beta1-above-1", "beta2-at-1", "one-csv-row",
        "constant-csv-channel", "duration-below-one-window", "no-subjects",
        "empty-csv"])
def test_train_detector_rejects_bad_config(tmp_path, capsys, config, csv_rows, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = ["train-detector", "--config", str(cfg), "--out", str(tmp_path / "det.npz")]
    if csv_rows is not None:
        csv_path = tmp_path / "win.csv"
        csv_path.write_text("".join(",".join(map(str, row)) + "\n" for row in csv_rows))
        argv += ["--data", str(csv_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "det.npz").exists()


def test_train_detector_rejects_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["train-detector", "--config", str(missing),
                 "--out", str(tmp_path / "det.npz")]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and len(err.strip().splitlines()) == 1


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
    ("replan_refractory", 0.5, "replan_refractory"),  # a harness constant, not a field
    ("s_bar", float("nan"), "s_bar"),
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
        "removed-field", "nan-threshold", "string-seed", "negative-seed", "boolean-seed",
        "string-stiffness", "negative-damping", "negative-saturation", "numeric-name", "short-stiffness",
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


def test_run_scenario_rejects_negative_seed(capsys):
    # as a scenario file's "seed": -1 does, before any file is read
    assert main(["run-scenario", "--scenario", "missing.json", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed -1" in err and ">= 0" in err and len(err.strip().splitlines()) == 1


def test_run_scenario_rejects_bad_control_file(tmp_path, capsys):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"qp": {"horizon": 1}}))
    assert main(["run-scenario", "--scenario", str(scenario_path("raise_lower.json")),
                 "--control", str(control)]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag, content, detail", [
    ("--scenario", None, ""),
    ("--scenario", '{"name": ', ""),
    ("--plant", None, ""),
    ("--plant", "[1, ", ""),
    ("--control", None, ""),
    ("--control", '{"qp": ', ""),
    ("--checkpoint", None, ""),
    ("--checkpoint", b"PK\x03\x04" + bytes(8), "not a valid .npz archive"),
    ("--checkpoint", {"beta": np.zeros(3)}, "incomplete: meta"),
], ids=["missing-scenario", "malformed-scenario", "missing-plant", "malformed-plant",
        "missing-control", "malformed-control", "missing-checkpoint", "corrupt-checkpoint",
        "checkpoint-missing-array"])
def test_run_scenario_rejects_unreadable_file(tmp_path, capsys, flag, content, detail):
    path = tmp_path / "input"
    if isinstance(content, dict):
        with open(path, "wb") as f:
            np.savez(f, **content)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    argv = ["run-scenario", "--scenario", str(scenario_path("raise_lower.json"))]
    assert main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {path}" in err and detail in err and len(err.strip().splitlines()) == 1


def test_run_scenario_rejects_a_detector_the_plant_cannot_feed(tmp_path, capsys):
    layout, L_s = ano.ChannelLayout(n=2, n_c=1), 5
    schedule = ano.NoiseSchedule.linear(T=8, nu=2)
    stats = ano.NormStats(mean=np.zeros(layout.per_tick), std=np.ones(layout.per_tick))
    denoiser = ano.Denoiser(L_s * layout.per_tick, schedule.T, hidden=(8,), embed_dim=4, seed=0)
    checkpoint = tmp_path / "det.npz"
    ano.save_checkpoint(checkpoint, ano.AnomalyDetector(denoiser, schedule, stats, L_s, layout))
    assert main(["run-scenario", "--scenario", str(scenario_path("raise_lower.json")),
                 "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert "ChannelLayout(n=2, n_c=1)" in err and len(err.strip().splitlines()) == 1


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
    assert rep["fallbacks"] == 0


def test_eval_planner_replay_requires_file(tmp_path):
    assert main(["eval-planner", "--scorer", "replay",
                 "--report", str(tmp_path / "r.json")]) == 2


def _replayed_item_corpus(tmp_path) -> Path:
    """A corpus of the one item ``llm_replay.json`` holds the requests of."""
    corpus = tmp_path / "one.jsonl"
    corpus.write_text("".join(line + "\n" for line in pl.data_path(
        "corpus.jsonl").read_text().splitlines() if json.loads(line)["name"] == "dumbbell"))
    return corpus


def test_eval_planner_replays_pinned_requests(tmp_path):
    # the fixture holds the requests of one corpus item, recorded from a
    # scripted transport answering with the rule scorer's canonical plan;
    # replay matches requests exactly, so any change to a prompt or payload
    # byte misses it
    corpus = _replayed_item_corpus(tmp_path)
    report = tmp_path / "r.json"
    assert main(["eval-planner", "--corpus", str(corpus), "--scorer", "replay",
                 "--replay-file", str(GOLDEN / "llm_replay.json"),
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["success_rate"] == 1.0


def test_eval_planner_counts_fallbacks(tmp_path, capsys):
    argv = ["eval-planner", "--scorer", "replay", "--fallback",
            "--replay-file", str(GOLDEN / "llm_replay.json"), "--report", str(tmp_path / "r.json")]
    # the replayed item alone: every decision is answered from the fixture
    assert main(argv + ["--corpus", str(_replayed_item_corpus(tmp_path))]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["fallbacks"] == 0
    assert "fallbacks 0;" in capsys.readouterr().out
    # the bundled corpus: each of the other 194 items misses the fixture at
    # its first decision at least, and the rule scorer answers instead
    assert main(argv) == 0
    fallbacks = json.loads((tmp_path / "r.json").read_text())["fallbacks"]
    assert fallbacks >= 194
    assert f"fallbacks {fallbacks};" in capsys.readouterr().out


def test_eval_planner_replay_miss_without_fallback_exits_2(tmp_path, capsys):
    # the bundled corpus: its first item is not in the fixture
    report = tmp_path / "r.json"
    assert main(["eval-planner", "--scorer", "replay", "--replay-file",
                 str(GOLDEN / "llm_replay.json"), "--report", str(report)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ReplayMiss" in err and "--fallback" in err
    assert not report.exists()


def test_gradcheck_passes():
    assert main(["gradcheck"]) == 0


@pytest.mark.parametrize("fields, name", [
    ({"events": {"type": "drop", "t": 1.0}}, "scenario events"),
    ({"events": ["drop"]}, "scenario events[0]"),
    ({"events": [{"type": "drop", "t": 1.0, "params": []}]}, "scenario events[0] params"),
    ({"task": 5}, "scenario task"),
    ({"duration": 10**400}, "scenario duration"),
], ids=["events-object", "event-string", "params-list", "numeric-task", "huge-integer"])
def test_run_scenario_rejects_malformed_scenario_structure(tmp_path, capsys, fields, name):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**json.loads(scenario_path("water_mouth.json").read_text()),
                                **fields}))
    assert main(["run-scenario", "--scenario", str(scen)]) == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1


def test_run_scenario_rejects_zero_control_weight(tmp_path, capsys):
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"qp": {"R": 0.0}}))
    assert main(["run-scenario", "--scenario", str(scenario_path("raise_lower.json")),
                 "--control", str(control)]) == 2
    err = capsys.readouterr().err
    assert "qp R" in err and len(err.strip().splitlines()) == 1
