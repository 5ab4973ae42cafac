"""The benchmark's three workloads.

Each workload draws its inputs from the seed, sets itself up, and then
runs one *unit* of work per call of ``unit``. A unit is made of
operations (a scenario run, a comparison or a training run); each
operation's outputs are checked against the contracts the acceptance
suite states, and a failed check or an exception counts the operation as
failed. Nothing is retried, re-seeded or dropped.

- ``scenarios``: the deployed control tick. ``water_mouth`` and
  ``drop_replan`` run back to back with the trained detector and the
  rule-scorer planner, covering sense, detector score and gradient,
  replan, QP refinement and both controllers over 1 kHz physics, plus the
  anomaly -> replan -> regrasp path. Every QP here has an empty active
  set, so QP warm starts should not move it.
- ``tracking``: raise-then-lower comparisons with a binding speed limit,
  the only path where the QP has active constraints. No detector and no
  planner run here.
- ``train``: data collection in transparent mode, denoiser training and
  calibration; the training side of ``anomaly``/``nn`` and batch-style use
  of ``dynamics``/``control``.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

STEP = "dynamics.step"
# 1 kHz physics under a 100 Hz control tick, as the harness runs them
SUBSTEPS = 10
CONTROL_DT = 0.01

SCENARIO_NAMES = ("water_mouth", "drop_replan")

# criterion 4's motion, with its peak, duration and limit drawn around it;
# the quintic peaks at 15/8 * excursion / t_f, so every draw binds the limit
TRACK_START_DEG = (0.0, 5.0, 0.0, 20.0)
TRACK_PEAK_RANGE_DEG = ((-2.0, 2.0), (88.0, 92.0), (-2.0, 2.0), (25.0, 35.0))
TRACK_T_F_RANGE_S = (1.75, 1.85)
TRACK_LIMIT_RANGE_DEG_S = (29.0, 31.0)

# a training unit is the detector recipe at a size that fits a run
TRAIN_DURATION_S = 6.0
TRAIN_EPOCHS = 100

# the acceptance suite's detector: 2 subjects x 30 s at seed 5, 150 epochs
# at seed 1, detector seed 9
DETECTOR_RECIPE = {"duration": 30.0, "collect_seed": 5, "epochs": 150,
                   "train_seed": 1, "detector_seed": 9}


@dataclass
class Segment:
    """One closed loop's physics substeps, as ordinals of the step calls."""

    first: int
    stop: int
    # which of the loop's tick gaps the median is taken over: all, none, or a
    # mask with one entry per gap
    p50: bool | np.ndarray = True


@dataclass
class UnitResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0       # CPU time of the process
    sim_s: float = 0.0       # simulated seconds
    sim_wall_s: float = 0.0  # wall time of the calls that simulated them
    segments: list[Segment] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    epochs: int = 0


def _error(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def _train_config(exo) -> dict:
    return json.loads(exo.planner.data_path("train_config.json").read_text())


def _train_parts(exo, cfg: dict):
    """Subjects, schedule and training settings from train_config.json."""
    ano, hz = exo.anomaly, exo.harness
    subjects = [hz.WearerParams(**s) for s in cfg["subjects"]]
    schedule = ano.NoiseSchedule.linear(**cfg["schedule"])
    train = {k: (tuple(v) if k == "hidden" else v) for k, v in cfg["train"].items()}
    return subjects, schedule, ano.TrainConfig(**train)


def _fit(exo, data, schedule, train_cfg, detector_seed, calibrate):
    """Normalize collected windows, train the denoiser and calibrate a detector."""
    ano = exo.anomaly
    raw = data["raw"]
    normed = data["stats"].normalize(raw).reshape(raw.shape[0], -1)
    train = normed[data["train_idx"]]
    denoiser, history = ano.train_denoiser(train, schedule, train_cfg,
                                           val_windows=normed[data["val_idx"]])
    detector = ano.AnomalyDetector(denoiser, schedule, data["stats"], data["L_s"],
                                   data["layout"], seed=detector_seed)
    scale = detector.calibrate(train, **calibrate)
    return detector, history, scale


def build_scenarios_detector(exo, path) -> None:
    """Train and save the ``scenarios`` detector with the acceptance recipe,
    through the public API of the code under test."""
    dyn, hz, pl = exo.dynamics, exo.harness, exo.planner
    cfg = _train_config(exo)
    r = DETECTOR_RECIPE
    subjects, schedule, train_cfg = _train_parts(exo, cfg)
    model = dyn.load_plant_config(pl.data_path("plant.json"))
    data = hz.collect_training_data(model, subjects, duration=r["duration"],
                                    seed=r["collect_seed"], L_s=cfg["L_s"],
                                    stride=cfg["stride"])
    detector, _, _ = _fit(exo, data, schedule,
                          replace(train_cfg, epochs=r["epochs"], seed=r["train_seed"]),
                          r["detector_seed"], cfg["calibrate"])
    tmp = f"{path}.{os.getpid()}.tmp.npz"  # np.savez keeps a trailing .npz
    exo.anomaly.save_checkpoint(tmp, detector)
    os.replace(tmp, path)


def scenario_problems(scenario, report) -> list[str]:
    out = []
    if report.get("fault"):
        out.append(f"fault {report['fault']}")
    if report.get("task_completed") is not True:
        out.append("task not completed")
    if not report.get("mode_changes_flagged"):
        out.append("a mode change had no planner command or replan")
    if scenario.name == "drop_replan":
        if report.get("replan_count") != 1:
            out.append(f"{report.get('replan_count')} replans, expected 1")
        latency = report.get("detection_latency_ms")
        if latency is None or latency > 200.0:
            out.append(f"detection latency {latency} ms > 200 ms")
    if scenario.name == "water_mouth":
        frac = report.get("fraction_scores_below_threshold", 0.0)
        if frac < 0.99:
            out.append(f"{100 * frac:.2f}% of scores below threshold < 99%")
    return out


def auroc(trace_nominal, trace_drop, t_drop: float) -> float:
    """Nominal-versus-drop score separation, as acceptance criterion 6 computes it."""
    t_n = trace_nominal.column("t")
    s_n = trace_nominal.column("s")[t_n >= 0.3]
    t_d = trace_drop.column("t")
    s_d = trace_drop.column("s")
    anom = s_d[(t_d >= t_drop) & (t_d <= t_drop + 0.4)]
    scores = np.concatenate([s_n, anom])
    labels = np.concatenate([np.zeros(s_n.size), np.ones(anom.size)])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(scores.size)
    return float((ranks[labels == 1].mean() - (anom.size - 1) / 2.0) / s_n.size)


class Scenarios:
    name = "scenarios"
    # transparent ticks (~4 ms) and impedance ticks (~8 ms, with refinement)
    # form two modes; a median over both falls between them and jumps, so it
    # is taken over the impedance ticks, which run every stage
    p50_ticks = "impedance-mode"
    needs_detector = True
    expected_spans = ("harness.run_scenario", "harness.metrics", STEP,
                      "control.transparent", "control.impedance", "trajectory.refine",
                      "qp.solve", "anomaly.score_gradient", "nn.mlp.forward",
                      "nn.mlp.input_vjp", "planner.request_plan", "planner.plan",
                      "planner.scorer")

    def __init__(self, exo, seed: int, detector_path):
        self.exo = exo
        dyn, ctl, pl, hz = exo.dynamics, exo.control, exo.planner, exo.harness
        corpus = pl.load_corpus(pl.data_path("corpus.jsonl"))
        self.stack = hz.SimStack(
            model=dyn.load_plant_config(pl.data_path("plant.json")),
            control=ctl.load_control_config(pl.data_path("control.json")),
            planner=pl.PlannerRuntime(pl.RuleScorer(corpus), pl.default_library()),
            detector=exo.anomaly.load_checkpoint(detector_path))
        self.scenarios = [hz.load_scenario(pl.data_path(f"scenarios/{n}.json"))
                          for n in SCENARIO_NAMES]
        self.rng = np.random.default_rng(seed)
        self.stack.planner.request_plan(self.scenarios[0].task)
        self.stack.planner.poll()

    def unit(self, tracer, tally, op0: int) -> UnitResult:
        res = UnitResult()
        runs, problems = {}, {}
        for k, scenario in enumerate(self.scenarios):
            tracer.run_id = op0 + k
            noise_seed = int(self.rng.integers(2**31))
            first = tracer.calls[STEP]
            t0 = time.perf_counter()
            try:
                trace, report = self.exo.harness.run_scenario(scenario, self.stack,
                                                               seed=noise_seed)
            except Exception as exc:  # counted as a failed operation
                problems[scenario.name] = _error(exc)
                continue
            wall = time.perf_counter() - t0
            res.sim_s += report["n_ticks"] * CONTROL_DT
            res.sim_wall_s += wall
            # the gap before tick k + 1 holds that tick's control path
            mode = trace.column("mode")
            res.segments.append(Segment(first, tracer.calls[STEP], mode[1:] == 1))
            res.quality.setdefault("tracking_rms_deg", []).append(report["rms_tracking_deg"])
            runs[scenario.name] = (scenario, trace)
            problems[scenario.name] = scenario_problems(scenario, report)
        if "water_mouth" in runs and "drop_replan" in runs:
            drop, trace_d = runs["drop_replan"]
            value = auroc(runs["water_mouth"][1], trace_d, drop.events[0].t)
            res.quality["auroc"] = [value]
            if not value >= 0.9:
                problems["drop_replan"].append(f"AUROC {value:.3f} < 0.9")
        elif "drop_replan" in runs:
            problems["drop_replan"].append("no AUROC: the nominal run failed")
        for scenario in self.scenarios:
            tally.record(scenario.name, problems[scenario.name])
        return res


class Tracking:
    name = "tracking"
    # the rate-limited variant's ticks are a second, much faster mode, and so
    # are the refined variant's once the motion ends (no constraint binds)
    p50_ticks = "refined-variant moving"
    needs_detector = False
    expected_spans = ("harness.tracking_comparison", STEP, "control.impedance",
                      "trajectory.refine", "qp.solve")

    def __init__(self, exo, seed: int, detector_path=None):
        self.exo = exo
        dyn, ctl, pl = exo.dynamics, exo.control, exo.planner
        self.model = dyn.load_plant_config(pl.data_path("plant.json"))
        self.control = ctl.load_control_config(pl.data_path("control.json"))
        self.rng = np.random.default_rng(seed)

    def draw(self):
        peak = [float(self.rng.uniform(lo, hi)) for lo, hi in TRACK_PEAK_RANGE_DEG]
        t_f = float(self.rng.uniform(*TRACK_T_F_RANGE_S))
        limit = float(self.rng.uniform(*TRACK_LIMIT_RANGE_DEG_S))
        excursion = max(abs(p - s) for p, s in zip(peak, TRACK_START_DEG))
        if not 15.0 / 8.0 * excursion / t_f > limit:
            raise ValueError("tracking input does not bind the speed limit")
        return peak, t_f, limit

    def unit(self, tracer, tally, op0: int) -> UnitResult:
        res = UnitResult()
        tracer.run_id = op0
        peak, t_f, limit = self.draw()
        settle = 1.5
        ticks = int(round((2 * t_f + settle) / CONTROL_DT))
        first = tracer.calls[STEP]
        t0 = time.perf_counter()
        try:
            out = self.exo.harness.tracking_comparison(
                self.model, self.control, TRACK_START_DEG, peak, t_f=t_f,
                speed_limit_deg=limit, settle=settle)
        except Exception as exc:  # RefinementError included
            tally.record("comparison", _error(exc))
            return res
        res.sim_wall_s = time.perf_counter() - t0
        res.sim_s = 2 * ticks * CONTROL_DT
        mid = first + ticks * SUBSTEPS
        moving = np.arange(1, ticks) * CONTROL_DT < 2 * t_f  # the tick after each gap
        res.segments = [Segment(first, mid, False),
                        Segment(mid, mid + ticks * SUBSTEPS, moving)]
        res.quality["tracking_rms_deg"] = [out["refined"]["rms_deg"]]
        problems = [f"{variant} commanded {out[variant]['max_cmd_velocity_deg_s']:.6f} "
                    f"deg/s > limit {limit:.6f}"
                    for variant in ("clamped", "refined")
                    if not out[variant]["max_cmd_velocity_deg_s"] <= limit + 1e-6]
        tally.record("comparison", problems)
        return res


class Train:
    name = "train"
    p50_ticks = "collection"
    needs_detector = False
    expected_spans = ("harness.collect_training_data", STEP, "control.transparent",
                      "anomaly.train_denoiser", "anomaly.calibrate", "nn.mlp.forward",
                      "nn.mlp.backward", "nn.adam.step")

    def __init__(self, exo, seed: int, detector_path=None):
        self.exo = exo
        self.cfg = _train_config(exo)
        self.subjects, self.schedule, self.train_cfg = _train_parts(exo, self.cfg)
        self.model = exo.dynamics.load_plant_config(exo.planner.data_path("plant.json"))
        self.rng = np.random.default_rng(seed)

    def unit(self, tracer, tally, op0: int) -> UnitResult:
        res = UnitResult()
        tracer.run_id = op0
        collect_seed, train_seed = (int(s) for s in self.rng.integers(2**31, size=2))
        ticks = int(round(TRAIN_DURATION_S / CONTROL_DT))
        first = tracer.calls[STEP]
        try:
            t0 = time.perf_counter()
            data = self.exo.harness.collect_training_data(
                self.model, self.subjects, duration=TRAIN_DURATION_S, seed=collect_seed,
                L_s=self.cfg["L_s"], stride=self.cfg["stride"])
            res.sim_wall_s = time.perf_counter() - t0
            _, history, scale = _fit(
                self.exo, data, self.schedule,
                replace(self.train_cfg, epochs=TRAIN_EPOCHS, seed=train_seed),
                train_seed, self.cfg["calibrate"])
        except Exception as exc:  # AnomalyTrainingError, calibration failure
            tally.record("training", _error(exc))
            return res
        res.sim_s = len(self.subjects) * ticks * CONTROL_DT
        res.segments = [Segment(first + i * ticks * SUBSTEPS,
                                first + (i + 1) * ticks * SUBSTEPS)
                        for i in range(len(self.subjects))]
        res.epochs = TRAIN_EPOCHS
        res.quality["val_loss"] = [history["val"][-1]]
        problems = []
        losses = np.asarray(history["train"] + history["val"], dtype=float)
        if losses.size != 2 * TRAIN_EPOCHS or not np.all(np.isfinite(losses)):
            problems.append("a training or validation loss is missing or not finite")
        if not (np.isfinite(scale) and scale > 0.0):
            problems.append(f"calibration scale {scale}")
        tally.record("training", problems)
        return res


WORKLOADS = {w.name: w for w in (Scenarios, Tracking, Train)}
