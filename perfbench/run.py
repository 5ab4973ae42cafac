#!/usr/bin/env python3
"""exoassist benchmark: control-tick latency and simulator throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0

Workloads are ``scenarios``, ``tracking`` and ``train`` (see workloads.py
and NOTES.md). The run repeats the workload's unit of work, always
finishing the unit in progress and starting none that it expects to end
after ``--seconds``; the first unit always runs. Every tick is closed loop:
it waits for the one before, with no real-time pacing.

``--trace 0`` measures the end-to-end metrics; its only probe is a
timestamp pair around each ``dynamics.step`` call. ``--trace 1`` wraps
every layer, runs a fixed number of units traced and then the first unit
again untraced, and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object. The exit code is 1 when any output check failed, 2 when the
code under test is missing, and 3 when the benchmark itself finds its
instrumentation broken.
"""
import time

T_START = time.perf_counter()  # set-up is timed from here, before exoassist loads

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = 1  # at most nproc, and the same on every commit measured
# fresh processes that set up again, besides this one: half before the timed
# loop and half after it, so the median spans two moments of a busy host
SETUP_PROBES = 6
TRACE_UNITS = {"scenarios": 1, "tracking": 2, "train": 2}
MODULES = ("anomaly", "control", "dynamics", "harness", "nn", "planner", "qp",
           "trajectory")

# every end-to-end metric, in the order BENCHMARK.json lists them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("sim_rtf", "sim_s/s"),
              ("tick_ms_p50", "ms"), ("tick_ms_p99", "ms"), ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    """The benchmark's own instrumentation does not see what it expects."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACE_UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, or builds the scenarios detector
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--build-detector", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_exoassist():
    """Import the checkout's exoassist and refuse any other copy."""
    if not (SRC / "exoassist" / "__init__.py").is_file():
        raise FileNotFoundError(f"no exoassist package under {SRC}")
    sys.path.insert(0, str(SRC))
    exo = importlib.import_module("exoassist")
    if Path(exo.__file__).resolve().parent != SRC / "exoassist":
        raise FileNotFoundError(f"imported exoassist from {exo.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"exoassist.{name}")
    return exo


def detector_path(root: Path = HERE.parent) -> Path:
    """The scenarios detector's cache file, named after a digest of everything
    that trains it: the exoassist package under ``root/src`` (code and data)
    and the recipe in ``perfbench/workloads.py``. A commit whose code, data or
    recipe differ finds no detector under its name and trains its own."""
    files = sorted(p for p in (root / "src" / "exoassist").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files + [root / "perfbench" / "workloads.py"]:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return OUT / f"scenarios-detector-{digest.hexdigest()[:16]}.npz"


def child(args, flag: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), flag]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          check=True)


def build_detector(args, detector: Path) -> float:
    """Train the scenarios detector in a child process; returns its wall time."""
    t0 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    child(args, "--build-detector", timeout=900)
    if not detector.is_file():
        raise BenchmarkError("the detector build wrote no checkpoint")
    return time.perf_counter() - t0


def setup_samples(args, n: int) -> list[float]:
    samples = []
    for _ in range(n):
        out = child(args, "--setup-only", timeout=120)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


def probe_cost_us() -> float:
    """Cost of one traced call beyond the call itself, in microseconds."""
    from types import SimpleNamespace

    from spans import Tracer

    n = 20000
    target = SimpleNamespace(f=lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        target.f()
    plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(target, "f", "probe")
    t0 = time.perf_counter()
    for _ in range(n):
        target.f()
    return max(0.0, (time.perf_counter() - t0 - plain) / n * 1e6)


def run_unit(workload, tracer, tally):
    from workloads import STEP

    before, failed = tracer.calls[STEP], tally.failed
    t0, c0 = time.perf_counter(), time.process_time()
    res = workload.unit(tracer, tally, tally.attempted)
    res.wall_s = time.perf_counter() - t0
    res.cpu_s = time.process_time() - c0
    made = tracer.calls[STEP] - before
    covered = sum(seg.stop - seg.first for seg in res.segments)
    if tally.failed == failed and covered != made:
        raise BenchmarkError(f"{covered} of {made} physics steps fall in the closed "
                             "loops the workload expects")
    return res


def timed_loop(workload, tracer, tally, seconds: float) -> list:
    units = []
    t_loop = time.perf_counter()
    while not units or time.perf_counter() - t_loop + units[-1].wall_s <= seconds:
        units.append(run_unit(workload, tracer, tally))
    return units


def tick_gaps_ms(tracer, units, cpu: bool) -> tuple:
    """Tick gaps of every closed loop the units ran, and those the median is
    taken over, in ms of the thread's CPU time or of wall time."""
    import numpy as np

    from perfstats import tick_gaps
    from workloads import STEP, SUBSTEPS

    idx = np.array(tracer.indices(STEP), dtype=int)
    starts = np.array(tracer.cpu_starts if cpu else tracer.starts, dtype=float)
    ends = np.array(tracer.cpu_ends if cpu else tracer.ends, dtype=float)
    gaps, p50 = [np.zeros(0)], [np.zeros(0)]
    for res in units:
        for seg in res.segments:
            if seg.stop > idx.size:
                raise BenchmarkError(f"segment ends at step call {seg.stop}, "
                                     f"only {idx.size} were recorded")
            sel = idx[seg.first:seg.stop]
            g = tick_gaps(starts[sel], ends[sel], SUBSTEPS) / 1e6
            gaps.append(g)
            p50.append(g[np.broadcast_to(seg.p50, g.shape)])
    return np.concatenate(gaps), np.concatenate(p50)


def tick_percentiles(gaps, p50_gaps) -> tuple:
    """(p50, its sample count, p99, its sample count, samples beyond p99)."""
    from perfstats import percentile

    p50, n50, _ = percentile(p50_gaps, 50)
    p99, n99, beyond = percentile(gaps, 99)
    return p50, n50, p99, n99, beyond


def end_to_end(workload, units, tracer, setups) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    p50, n50, p99, n99, beyond = tick_percentiles(*tick_gaps_ms(tracer, units, True))
    w50, _, w99, _, _ = tick_percentiles(*tick_gaps_ms(tracer, units, False))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u.wall_s for u in units),
        "sim_rtf": sum(u.sim_s for u in units) / sum(u.sim_wall_s for u in units),
        "tick_ms_p50": p50,
        "tick_ms_p99": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": f"median of {len(setups)} set-ups",
              "wall_s": f"median of {len(units)} units; CPU "
                        f"{statistics.median(u.cpu_s for u in units):.4g} s",
              "sim_rtf": f"{sum(u.sim_s for u in units):.2f} simulated s",
              "tick_ms_p50": f"{n50} {workload.p50_ticks} gaps, CPU time; wall {w50:.4g} ms",
              "tick_ms_p99": f"{n99} gaps, {beyond} beyond, CPU time; wall {w99:.4g} ms",
              "peak_rss_mb": "high-water mark"}
    return values, counts


def quality(units, tally) -> dict:
    """Output quality the run also reports; checked, not gated."""
    out = {"fail_ratio": (tally.fail_ratio, f"{tally.failed}/{tally.attempted}")}
    merged: dict = {}
    for u in units:
        for k, v in u.quality.items():
            merged.setdefault(k, []).extend(v)
    for k, v in merged.items():
        out[k] = (statistics.fmean(v), f"mean of {len(v)}")
    return out


def emit(args, tally, metrics: dict, notes: dict, record: dict) -> int:
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<10} {name:<38} {shown:>14} {unit:<8} {notes.get(name, '')}")
    for name, (value, note) in record["quality"].items():
        print(f"{args.workload:<10} {name:<38} {value:>14.6g} {'':<8} {note}; checked, not gated")
    for line in record["warnings"]:
        print(f"warning: {line}")
    for line in tally.failures:
        print(f"FAILED {line}")
    correct = tally.failed == 0
    record.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures,
                  metrics={k: {"value": v, "unit": u, "samples": notes.get(k, "")}
                           for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def measure(args, exo, workload_cls, workload, detector: Path, build_s: float) -> int:
    from perfstats import Tally
    from spans import Tracer
    from workloads import STEP

    setup_s = time.perf_counter() - T_START - build_s
    tally = Tally()
    env = environment(args.seed)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "warnings": []}
    if args.trace == 0:
        setups = [setup_s] + setup_samples(args, SETUP_PROBES // 2)
        tracer = Tracer()
        tracer.wrap(exo.dynamics, "step", STEP)
        try:
            units = timed_loop(workload, tracer, tally, args.seconds)
        finally:
            tracer.unwrap_all()
        setups += setup_samples(args, SETUP_PROBES - SETUP_PROBES // 2)
        try:
            values, notes = end_to_end(workload, units, tracer, setups)
        except (ValueError, ZeroDivisionError) as exc:  # no operation completed
            if not tally.failed:
                raise BenchmarkError(str(exc)) from exc
            values, notes = {}, {}
        metrics = {name: (values.get(name), unit) for name, unit in END_TO_END}
        if values:
            cost = probe_cost_us() * tracer.calls[STEP] / len(units) / 1e6
            notes["wall_s"] += (f"; step probe ~{cost:.4f} s per unit "
                                f"({100 * cost / values['wall_s']:.3f}%)")
        record["setup_samples"] = setups
        record["unit_walls"] = [u.wall_s for u in units]
        record["unit_cpus"] = [u.cpu_s for u in units]
    else:
        import layers

        tracer, qp_log = Tracer(), []
        layers.install(tracer, exo, qp_log)
        try:
            units = [run_unit(workload, tracer, tally)
                     for _ in range(TRACE_UNITS[args.workload])]
        finally:
            tracer.unwrap_all()
        missing = [n for n in workload.expected_spans if tracer.calls[n] == 0]
        if missing and tally.failed == 0:
            raise BenchmarkError(f"{args.workload} recorded no call of {missing}; "
                                 "a wrapped name is no longer the one callers look up")
        # the first unit again, untraced, on the same inputs
        probe = Tracer()
        probe.wrap(exo.dynamics, "step", STEP)
        try:
            reference = run_unit(workload_cls(exo, args.seed, detector), probe, tally)
        finally:
            probe.unwrap_all()
        values = layers.per_layer(tracer, qp_log, tick_gaps_ms(tracer, units, True)[0],
                                  sum(u.epochs for u in units), record["warnings"])
        values["trace.wall_s"] = statistics.median(u.wall_s for u in units)
        values["trace.overhead_s"] = units[0].wall_s - reference.wall_s
        metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
        notes = {"trace.overhead_s": f"traced minus untraced wall of unit 0 "
                                     f"(untraced {reference.wall_s:.3f} s)",
                 "harness.ticks": "gaps in traced units"}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    record["quality"] = quality(units, tally)
    return emit(args, tally, metrics, notes, record)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    from workloads import WORKLOADS, build_scenarios_detector

    workload_cls = WORKLOADS[args.workload]
    exo = import_exoassist()
    detector = detector_path() if workload_cls.needs_detector else None
    build_s = 0.0
    if detector and not args.build_detector and not detector.is_file():
        build_s = build_detector(args, detector)
    if args.build_detector:
        build_scenarios_detector(exo, detector)
        return 0
    workload = workload_cls(exo, args.seed, detector)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    return measure(args, exo, workload_cls, workload, detector, build_s)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"benchmark error: {exc}\n{detail}", file=sys.stderr)
        sys.exit(3)
