"""Per-layer spans and the metrics the traced run derives from them.

Each target is the name a caller actually looks up: ``trajectory`` binds
``qp_solve`` at import, so the QP span wraps ``exoassist.trajectory.qp_solve``;
methods are wrapped on their classes.
"""
from __future__ import annotations

import numpy as np

from perfstats import TooFewSamples, percentile, self_times

# (span name, owner of the looked-up name below the exoassist package, attribute)
TARGETS = (
    ("dynamics.step", "dynamics", "step"),
    ("control.transparent", "control", "transparent_control"),
    ("control.impedance", "control", "impedance_control"),
    ("trajectory.refine", "trajectory", "refine"),
    ("qp.solve", "trajectory", "qp_solve"),
    ("anomaly.score_gradient", "anomaly.AnomalyDetector", "score_gradient"),
    ("anomaly.train_denoiser", "anomaly", "train_denoiser"),
    ("anomaly.calibrate", "anomaly.AnomalyDetector", "calibrate"),
    ("nn.mlp.forward", "nn.MLP", "forward"),
    ("nn.mlp.input_vjp", "nn.MLP", "input_vjp"),
    ("nn.mlp.backward", "nn.MLP", "backward"),
    ("nn.adam.step", "nn.Adam", "step"),
    ("planner.request_plan", "planner.PlannerRuntime", "request_plan"),
    ("planner.plan", "planner", "plan"),
    ("planner.scorer", "planner.RuleScorer", "score"),
    ("harness.run_scenario", "harness", "run_scenario"),
    ("harness.metrics", "harness", "metrics"),
    ("harness.collect_training_data", "harness", "collect_training_data"),
    ("harness.tracking_comparison", "harness", "tracking_comparison"),
)

DEADLINE_MS = 10.0  # the control tick's hard deadline at 100 Hz


def _timing(prefix, self_):
    kind = "self_us" if self_ else "us"
    return [(f"{prefix}.calls", "count"), (f"{prefix}.{kind}_p50", "us"),
            (f"{prefix}.{kind}_p99", "us"), (f"{prefix}.busy_s", "s")]


def _work(prefix):
    return [(f"{prefix}.calls", "count"), (f"{prefix}.busy_s", "s")]


# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    _timing("dynamics.step", True)
    + _timing("control.transparent", False)
    + _timing("control.impedance", False)
    + _timing("trajectory.refine", True)
    + _timing("qp.solve", False)
    + [("qp.iterations.mean", "count"), ("qp.iterations.max", "count"),
       ("qp.active_ratio", "ratio"), ("qp.active_solves", "count"),
       ("qp.uncertified", "count")]
    + _timing("anomaly.score_gradient", False)
    + [("anomaly.train_denoiser.busy_s", "s"), ("anomaly.epochs_per_s", "1/s"),
       ("anomaly.calibrate.busy_s", "s")]
    + _work("nn.mlp.forward") + _work("nn.mlp.input_vjp")
    + _work("nn.mlp.backward") + _work("nn.adam.step")
    + [("planner.request_plan.calls", "count"), ("planner.request_plan.ms_max", "ms"),
       ("planner.plan.busy_s", "s"), ("planner.scorer.calls", "count")]
    + [("harness.run_scenario.self_s", "s"), ("harness.metrics.busy_s", "s"),
       ("harness.collect_training_data.self_s", "s"), ("harness.ticks", "count"),
       ("harness.deadline_misses", "count"), ("harness.deadline_miss_ratio", "ratio")]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


def _owner(exo, path: str):
    obj = exo
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer, exo, qp_log: list) -> None:
    """Wrap every target; each QP solve appends (iterations, active
    constraints, certified) to ``qp_log``."""
    def record_qp(result):
        mu = result.ineq_multipliers
        active = 0 if mu is None else int(np.count_nonzero(mu > 0.0))
        qp_log.append((result.iterations, active, bool(result.certified)))

    for name, owner, attr in TARGETS:
        tracer.wrap(_owner(exo, owner), attr, name,
                    on_result=record_qp if name == "qp.solve" else None)


def per_layer(tracer, qp_log, gaps_ms, epochs: int, warnings: list) -> dict:
    """Per-layer metrics from the recorded spans, in the thread's CPU time
    (trace.* is added by the caller). ``gaps_ms`` are the traced ticks' gaps."""
    names = np.array(tracer.names, dtype=object)
    starts = np.array(tracer.cpu_starts, dtype=np.int64)
    ends = np.array(tracer.cpu_ends, dtype=np.int64)
    dur = (ends - starts).astype(float)
    own = self_times(starts, ends, tracer.parents)
    m = {}

    def spans(name, self_=False):
        mask = names == name
        return (own if self_ else dur)[mask], dur[mask]

    def pct(x, q, label):
        if x.size == 0:
            return 0.0
        try:
            return percentile(x, q)[0]
        except TooFewSamples as exc:
            warnings.append(f"{label}: {exc}")
            return float(np.percentile(x, q))

    def timing(prefix, name, self_):
        x, d = spans(name, self_)
        kind = "self_us" if self_ else "us"
        m[f"{prefix}.calls"] = int(x.size)
        m[f"{prefix}.{kind}_p50"] = pct(x / 1e3, 50, prefix)
        m[f"{prefix}.{kind}_p99"] = pct(x / 1e3, 99, prefix)
        m[f"{prefix}.busy_s"] = float(d.sum() / 1e9)

    def work(prefix, name):
        _, d = spans(name)
        m[f"{prefix}.calls"] = int(d.size)
        m[f"{prefix}.busy_s"] = float(d.sum() / 1e9)

    timing("dynamics.step", "dynamics.step", True)
    timing("control.transparent", "control.transparent", False)
    timing("control.impedance", "control.impedance", False)
    timing("trajectory.refine", "trajectory.refine", True)
    timing("qp.solve", "qp.solve", False)
    log = np.array(qp_log, dtype=float).reshape(-1, 3)
    m["qp.iterations.mean"] = float(log[:, 0].mean()) if len(log) else 0.0
    m["qp.iterations.max"] = int(log[:, 0].max()) if len(log) else 0
    m["qp.active_solves"] = int(np.count_nonzero(log[:, 1] > 0))
    m["qp.active_ratio"] = m["qp.active_solves"] / len(log) if len(log) else 0.0
    m["qp.uncertified"] = int(np.count_nonzero(log[:, 2] == 0))
    timing("anomaly.score_gradient", "anomaly.score_gradient", False)
    train_busy = float(spans("anomaly.train_denoiser")[1].sum() / 1e9)
    m["anomaly.train_denoiser.busy_s"] = train_busy
    m["anomaly.epochs_per_s"] = epochs / train_busy if train_busy else 0.0
    m["anomaly.calibrate.busy_s"] = float(spans("anomaly.calibrate")[1].sum() / 1e9)
    work("nn.mlp.forward", "nn.mlp.forward")
    work("nn.mlp.input_vjp", "nn.mlp.input_vjp")
    work("nn.mlp.backward", "nn.mlp.backward")
    work("nn.adam.step", "nn.adam.step")
    _, d = spans("planner.request_plan")
    m["planner.request_plan.calls"] = int(d.size)
    m["planner.request_plan.ms_max"] = float(d.max() / 1e6) if d.size else 0.0
    m["planner.plan.busy_s"] = float(spans("planner.plan")[1].sum() / 1e9)
    m["planner.scorer.calls"] = int(spans("planner.scorer")[1].size)
    for name, key in (("harness.run_scenario", "self_s"), ("harness.metrics", "busy_s"),
                      ("harness.collect_training_data", "self_s")):
        x, d = spans(name, key == "self_s")
        m[f"{name}.{key}"] = float(x.sum() / 1e9)
    m["harness.ticks"] = int(gaps_ms.size)
    m["harness.deadline_misses"] = int(np.count_nonzero(gaps_ms > DEADLINE_MS))
    m["harness.deadline_miss_ratio"] = (m["harness.deadline_misses"] / gaps_ms.size
                                        if gaps_ms.size else 0.0)
    return m
