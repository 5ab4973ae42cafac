"""Golden behaviour set: the five bundled scenarios, run without a detector
at their own seeds, against references stored in ``tests/data/golden``.

Each reference holds 10 Hz samples of the joint angles, the mode and the
replan flag, plus the run report. Joint samples must agree within
``Q_TOL``; the integer columns and the report's flags and counts must agree
exactly, its float metrics within a relative 1e-6. This catches drift from
a change that alters floating-point results, which a same-code determinism
check cannot.

The scenarios never grow a QP active set, so ``tracking_comparison.json``
also records criterion 4's raise-then-lower comparison, whose refinement
QPs do: both variants' RMS error and peak commanded velocity, within a
relative 1e-6.

``train_denoiser.json`` records a small fixed training run: the per-epoch
train and validation losses, 200 fixed entries of the final flat
parameters and the calibration scale, within a relative 1e-9. That leaves
room for another BLAS kernel's rounding and none for a change to the
training arithmetic.

``collect_training_data.json`` records a short transparent-mode collection
(2 subjects x 2 s, seed 7): the window array's shape, 200 evenly spaced
entries of the raw windows and the channel mean and std, within a relative
1e-9 (absolute 1e-12). Nothing else guards the per-tick arithmetic of the
transparent controller and the wearer under sensor noise.

``detector_events.json`` records ``water_mouth``, ``drop_replan`` and the
test scenario ``tests/data/event_mix.json`` (8 s with one event of each
type: a payload step, a torque pulse, an intent conflict and a drop while
a payload is held) run at their own seeds with the session detector of
``conftest.py``. Events are compared at event level: the replan ticks
within one tick, task completion and the replan count exactly, the
detection latency within 10 ms and the fraction of scores below the
threshold within 0.005. The score of every 10th tick is compared within a
relative 1e-9, so a change in the detector's float64 arithmetic shows as
a number even when it moves no event. The scenario goldens run without a
detector and cannot see such a change; this one can.

Regenerate only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import ScenarioRuns, train_session_detector

from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
SCENARIOS = ("apple_chest", "drop_replan", "dumbbell_shelf", "raise_lower", "water_mouth")
SAMPLE_EVERY = 10  # control ticks per sample: 100 Hz -> 10 Hz
Q_TOL = 1e-6  # rad
TRACKING_ARGS = {"q_start_deg": [0, 5, 0, 20], "q_peak_deg": [0, 95, 0, 20],
                 "t_f": 3.0, "speed_limit_deg": 30.0}
TRAIN_RTOL = 1e-9
TRAIN_SAMPLES = 200  # fixed, evenly spaced entries of the final flat parameters
COLLECT_RTOL, COLLECT_ATOL = 1e-9, 1e-12
COLLECT_SAMPLES = 200  # fixed, evenly spaced entries of the raw windows
DETECTOR_SCENARIOS = {**{name: pl.data_path(f"scenarios/{name}.json")
                         for name in ("water_mouth", "drop_replan")},
                      "event_mix": Path(__file__).parent / "data" / "event_mix.json"}
SCORE_RTOL = 1e-9  # the sampled scores, every SAMPLE_EVERY-th tick
REPLAN_TICK_TOL, LATENCY_TOL_MS, FRACTION_TOL = 1, 10.0, 0.005


def golden_run(name: str) -> dict:
    """Run one bundled scenario without a detector and sample its trace."""
    runtime = pl.PlannerRuntime(pl.RuleScorer(pl.load_corpus(pl.data_path("corpus.jsonl"))),
                                pl.default_library())
    stack = hz.SimStack(model=dyn.load_plant_config(pl.data_path("plant.json")),
                        control=ctl.load_control_config(pl.data_path("control.json")),
                        planner=runtime)
    scenario = hz.load_scenario(pl.data_path(f"scenarios/{name}.json"))
    trace, report = hz.run_scenario(scenario, stack)
    every = slice(None, None, SAMPLE_EVERY)
    return {
        "scenario": name,
        "seed": scenario.seed,
        "sample_every": SAMPLE_EVERY,
        "q": trace.vector("q", stack.model.n)[every].tolist(),
        "mode": [int(m) for m in trace.columns["mode"][every]],
        "replan": [int(r) for r in trace.columns["replan"][every]],
        "report": report,
    }


def tracking_run() -> dict:
    """Criterion 4's comparison on the bundled plant and gains."""
    out = hz.tracking_comparison(dyn.load_plant_config(pl.data_path("plant.json")),
                                 ctl.load_control_config(pl.data_path("control.json")),
                                 **TRACKING_ARGS)
    return {"args": TRACKING_ARGS, **out}


def training_run() -> dict:
    """Train and calibrate a small denoiser on fixed sinusoid windows."""
    rng = np.random.default_rng(21)
    layout, L_s = ano.ChannelLayout(n=2, n_c=1), 6  # 8 channels a tick, dim 48
    t = np.arange(L_s)[:, None, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, (1, 60, layout.per_tick))
    freq = rng.uniform(0.05, 0.2, (1, 60, 1))
    raw = (np.sin(2.0 * np.pi * freq * t + phase).transpose(1, 0, 2)
           + 0.02 * rng.standard_normal((60, L_s, layout.per_tick)))
    stats = ano.compute_stats(raw)
    normed = stats.normalize(raw).reshape(60, -1)
    schedule = ano.NoiseSchedule.linear(T=12, nu=4)
    cfg = ano.TrainConfig(epochs=15, batch_size=16, hidden=(32, 32), embed_dim=8, seed=4)
    denoiser, history = ano.train_denoiser(normed[:48], schedule, cfg,
                                           val_windows=normed[48:])
    detector = ano.AnomalyDetector(denoiser, schedule, stats, L_s, layout, seed=5)
    flat = denoiser.mlp.get_flat()
    idx = np.linspace(0, flat.size - 1, TRAIN_SAMPLES).astype(int)
    return {"train": history["train"], "val": history["val"],
            "param_index": idx.tolist(), "params": flat[idx].tolist(),
            "n_params": int(flat.size), "cal_scale": detector.calibrate(normed[:48])}


def collection_run() -> dict:
    """Collect 2 subjects x 2 s of transparent-mode windows on the bundled plant."""
    subjects = [hz.WearerParams(name="subject-a"),
                hz.WearerParams(name="subject-b", K_h=25.0, C_h=6.0)]
    data = hz.collect_training_data(dyn.load_plant_config(pl.data_path("plant.json")),
                                    subjects, duration=2.0, seed=7)
    raw = data["raw"].ravel()
    idx = np.linspace(0, raw.size - 1, COLLECT_SAMPLES).astype(int)
    return {"shape": list(data["raw"].shape), "raw_index": idx.tolist(),
            "raw": raw[idx].tolist(), "mean": data["stats"].mean.tolist(),
            "std": data["stats"].std.tolist()}


def detector_run(scenario_runs: ScenarioRuns) -> dict:
    """Run the detector scenarios with the session detector; keep the events
    and every SAMPLE_EVERY-th score."""
    out = {}
    for name, path in DETECTOR_SCENARIOS.items():
        trace, report = scenario_runs(path)
        out[name] = {"replan_ticks": np.flatnonzero(trace.column("replan")).tolist(),
                     **{key: report[key] for key in (
                         "task_completed", "replan_count", "detection_latency_ms",
                         "fraction_scores_below_threshold")},
                     "s": trace.column("s")[::SAMPLE_EVERY].tolist()}
    return out


def _assert_report_matches(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        val = got[key]
        if isinstance(ref, (bool, int, str)) or ref is None:
            assert val == ref, key
        else:
            np.testing.assert_allclose(val, ref, rtol=1e-6, atol=1e-9,
                                       equal_nan=True, err_msg=key)


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_scenario(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = golden_run(name)
    assert got["seed"] == want["seed"]
    assert got["sample_every"] == want["sample_every"]
    assert got["mode"] == want["mode"]
    assert got["replan"] == want["replan"]
    q, q_ref = np.array(got["q"]), np.array(want["q"])
    assert q.shape == q_ref.shape
    worst = float(np.max(np.abs(q - q_ref)))
    assert worst <= Q_TOL, f"joint drift {math.degrees(worst):.3g} deg"
    _assert_report_matches(got["report"], want["report"])


def test_golden_tracking_comparison():
    want = json.loads((GOLDEN_DIR / "tracking_comparison.json").read_text())
    assert want["args"] == TRACKING_ARGS
    got = tracking_run()
    for variant in ("clamped", "refined"):
        for key in ("rms_deg", "max_cmd_velocity_deg_s"):
            np.testing.assert_allclose(got[variant][key], want[variant][key],
                                       rtol=1e-6, err_msg=f"{variant}.{key}")


def test_golden_training_run():
    want = json.loads((GOLDEN_DIR / "train_denoiser.json").read_text())
    got = training_run()
    assert got["n_params"] == want["n_params"]
    assert got["param_index"] == want["param_index"]
    for key in ("train", "val", "params", "cal_scale"):
        np.testing.assert_allclose(got[key], want[key], rtol=TRAIN_RTOL, err_msg=key)


def test_golden_collection_run():
    want = json.loads((GOLDEN_DIR / "collect_training_data.json").read_text())
    got = collection_run()
    assert got["shape"] == want["shape"]
    assert got["raw_index"] == want["raw_index"]
    for key in ("raw", "mean", "std"):
        np.testing.assert_allclose(got[key], want[key], rtol=COLLECT_RTOL,
                                   atol=COLLECT_ATOL, err_msg=key)


def test_golden_detector_events(scenario_runs):
    want = json.loads((GOLDEN_DIR / "detector_events.json").read_text())
    got = detector_run(scenario_runs)
    assert sorted(got) == sorted(want)
    for name, ref in want.items():
        run = got[name]
        assert run["task_completed"] == ref["task_completed"], name
        assert run["replan_count"] == ref["replan_count"], name
        assert len(run["replan_ticks"]) == len(ref["replan_ticks"]), name
        assert all(abs(a - b) <= REPLAN_TICK_TOL
                   for a, b in zip(run["replan_ticks"], ref["replan_ticks"])), name
        if ref["detection_latency_ms"] is None:
            assert run["detection_latency_ms"] is None, name
        else:
            assert abs(run["detection_latency_ms"] - ref["detection_latency_ms"]) \
                <= LATENCY_TOL_MS, name
        assert abs(run["fraction_scores_below_threshold"]
                   - ref["fraction_scores_below_threshold"]) <= FRACTION_TOL, name
        np.testing.assert_allclose(run["s"], ref["s"], rtol=SCORE_RTOL, err_msg=name)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario_name in SCENARIOS:
        path = GOLDEN_DIR / f"{scenario_name}.json"
        path.write_text(json.dumps(golden_run(scenario_name)) + "\n")
        print(f"wrote {path}")
    path = GOLDEN_DIR / "tracking_comparison.json"
    path.write_text(json.dumps(tracking_run()) + "\n")
    print(f"wrote {path}")
    path = GOLDEN_DIR / "train_denoiser.json"
    path.write_text(json.dumps(training_run()) + "\n")
    print(f"wrote {path}")
    path = GOLDEN_DIR / "collect_training_data.json"
    path.write_text(json.dumps(collection_run()) + "\n")
    print(f"wrote {path}")
    path = GOLDEN_DIR / "detector_events.json"
    path.write_text(json.dumps(detector_run(ScenarioRuns(train_session_detector()))) + "\n")
    print(f"wrote {path}")
