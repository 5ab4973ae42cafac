"""Write the outputs a byte-identical change must keep, with their digests,
and compare them with another revision's.

    PYTHONPATH=src python tests/equivalence.py --out DIR --checkpoint det.npz
    PYTHONPATH=src python tests/equivalence.py --out DIR --checkpoint det.npz --against HEAD~1

``DIR`` receives:

- ``<name>.csv`` and ``<name>.json``: the trace and report of each bundled
  scenario, run without a detector at its own seed;
- ``detector-<name>.csv`` and ``detector-<name>.json``: ``water_mouth`` and
  ``drop_replan`` with the detector of ``--checkpoint``;
- ``tracking_comparison.json``: criterion 4's raise-then-lower comparison,
  with the arguments of its golden;
- ``collection.npy``: the windows of a 2 subject x 2 s transparent-mode
  collection at seed 7, as the collection golden draws it;
- ``corpus_report.json``: the rule scorer's ``evaluate_corpus`` report over
  the bundled corpus;
- ``llm_requests.json``: the request payloads an ``LLMScorer`` sends while
  planning LLM_TASK, each answered with the next choice of LLM_SCRIPT;
- ``train_config.json``: what the bundled ``train_config.json`` builds: the
  collection arguments, the subjects' ``WearerParams``, the noise
  schedule's ``beta`` and ``nu``, the ``TrainConfig`` fields, the
  calibration arguments and the detector seed;
- ``manifest.json``: the SHA-256 digest of each file above.

``--against REV`` unpacks REV with ``git archive`` into a temporary
directory and runs this script there on REV's ``src`` with the same
checkpoint (``exoassist train-detector`` writes one). It then prints, for
each artifact, ``identical`` or the largest absolute and relative
deviation of each CSV column, report key or array that differs, and exits
1 if any artifact differs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
from test_golden import SCENARIOS, TRACKING_ARGS

import exoassist
from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import llm
from exoassist import planner as pl

DETECTOR_SCENARIOS = ("water_mouth", "drop_replan")
LLM_TASK = "help me drink water"
LLM_SCRIPT = ("set_mode", "set_mode(0)", "paramset", "paramset(Spd=0, Imp=0)",
              "go_target", "go_target(mouth)", "done")


def _stack(detector=None) -> hz.SimStack:
    runtime = pl.PlannerRuntime(pl.RuleScorer(pl.load_corpus(pl.data_path("corpus.jsonl"))),
                                pl.default_library())
    return hz.SimStack(model=dyn.load_plant_config(pl.data_path("plant.json")),
                       control=ctl.load_control_config(pl.data_path("control.json")),
                       planner=runtime, detector=detector)


def _write_run(out: Path, stem: str, name: str, detector=None) -> list[str]:
    trace, report = hz.run_scenario(hz.load_scenario(pl.data_path(f"scenarios/{name}.json")),
                                    _stack(detector))
    hz.save_trace_csv(out / f"{stem}.csv", trace)
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1))
    return [f"{stem}.csv", f"{stem}.json"]


class _ScriptedTransport:
    """Records each request and answers it with the next choice of LLM_SCRIPT."""

    def __init__(self):
        self.requests: list[dict] = []

    def send(self, payload: dict) -> dict:
        choice = LLM_SCRIPT[len(self.requests)]
        self.requests.append(payload)
        answer = json.dumps({"choice": choice, "confidence": 0.9})
        return {"choices": [{"message": {"content": answer}}]}


def _train_config_build() -> dict:
    """The bundled train_config.json as ``exoassist train-detector`` builds
    it, through the package's constructors."""
    cfg = json.loads(pl.data_path("train_config.json").read_text())
    schedule = ano.NoiseSchedule.linear(**cfg["schedule"])
    return {"collection": {key: cfg[key] for key in ("duration", "seed", "L_s", "stride")},
            "subjects": [vars(hz.WearerParams(**s)) for s in cfg["subjects"]],
            "beta": schedule.beta.tolist(), "nu": schedule.nu,
            "train": vars(ano.TrainConfig(**cfg["train"])), "calibrate": cfg["calibrate"],
            # a revision whose file lacks detector_seed took the collection seed plus 99
            "detector_seed": cfg.get("detector_seed", cfg["seed"] + 99)}


def write_artifacts(out: Path, checkpoint: Path) -> dict:
    """Write every artifact into ``out``; returns the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    written = [file for name in SCENARIOS for file in _write_run(out, name, name)]
    detector = ano.load_checkpoint(checkpoint)
    for name in DETECTOR_SCENARIOS:
        written += _write_run(out, f"detector-{name}", name, detector)
    model = dyn.load_plant_config(pl.data_path("plant.json"))
    tracking = hz.tracking_comparison(model, ctl.load_control_config(pl.data_path("control.json")),
                                      **TRACKING_ARGS)
    (out / "tracking_comparison.json").write_text(json.dumps(tracking, indent=1))
    subjects = [hz.WearerParams(name="subject-a"),
                hz.WearerParams(name="subject-b", K_h=25.0, C_h=6.0)]
    np.save(out / "collection.npy",
            hz.collect_training_data(model, subjects, duration=2.0, seed=7)["raw"])
    corpus, library = pl.load_corpus(pl.data_path("corpus.jsonl")), pl.default_library()
    report = pl.evaluate_corpus(corpus, pl.RuleScorer(corpus), library)
    (out / "corpus_report.json").write_text(json.dumps(report, indent=1))
    transport = _ScriptedTransport()
    scorer = llm.LLMScorer(llm.LLMConfig(endpoint="script://", model="scripted"), library,
                           transport=transport)
    pl.plan(LLM_TASK, scorer, library)
    (out / "llm_requests.json").write_text(json.dumps(transport.requests, indent=1))
    (out / "train_config.json").write_text(json.dumps(_train_config_build(), indent=1))
    written += ["tracking_comparison.json", "collection.npy", "corpus_report.json",
                "llm_requests.json", "train_config.json"]
    manifest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(written)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# comparison with another revision


def write_revision(rev: str, out: Path, checkpoint: Path, tmp: Path) -> dict:
    """Unpack ``rev`` into ``tmp`` and write its artifacts into ``out`` with
    this script on its ``src``; returns the manifest."""
    root = Path(__file__).resolve().parent.parent
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
    run = subprocess.run([sys.executable, __file__, "--out", str(out),
                          "--checkpoint", str(checkpoint.resolve())], env=env, check=True,
                         capture_output=True, text=True)
    print(f"{rev}: {run.stdout.splitlines()[0]}")  # the package the run imported
    return json.loads((out / "manifest.json").read_text())


def _flatten(value, key: str = "") -> dict:
    """A JSON document as {key path: list of values}; a list of scalars is
    one key."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return {key: value if isinstance(value, list) else [value]}
    return {k: v for name, item in items for k, v in _flatten(item, name).items()}


def _columns(path: Path) -> dict:
    """An artifact as {column, key or array name: list of values}."""
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f))
        return {name: list(col) for name, col in zip(header, zip(*rows))}
    if path.suffix == ".npy":
        return {path.stem: np.load(path).ravel().tolist()}
    return _flatten(json.loads(path.read_text()))


def _as_floats(values):
    try:
        return np.array([np.nan if v is None else v for v in values], dtype=float)
    except (TypeError, ValueError):
        return None


def deviations(ours: Path, theirs: Path) -> list[str]:
    """One line for each column, key or array of ``ours`` that differs from
    ``theirs``: its largest absolute and relative deviation, or how many
    of its non-numeric values differ."""
    a, b = _columns(ours), _columns(theirs)
    lines = []
    for key in [*a, *(k for k in b if k not in a)]:
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'theirs' if key in b else 'ours'}")
            continue
        if len(a[key]) != len(b[key]):
            lines.append(f"{key}: {len(a[key])} values against {len(b[key])}")
            continue
        x, y = _as_floats(a[key]), _as_floats(b[key])
        if x is None or y is None:
            differ = sum(p != q for p, q in zip(a[key], b[key]))
            if differ:
                lines.append(f"{key}: {differ} of {len(a[key])} values differ")
        elif not np.array_equal(x, y, equal_nan=True):
            dev = np.abs(x - y)
            scale = np.maximum(np.abs(x), np.abs(y))
            rel = np.divide(dev, scale, out=np.zeros_like(dev), where=scale > 0)
            lines.append(f"{key}: max abs {np.nanmax(dev):.3g}, max rel {np.nanmax(rel):.3g}")
    return lines


def compare(ours: Path, theirs: Path) -> bool:
    """Print each artifact's verdict; True when every one is identical."""
    mine = json.loads((ours / "manifest.json").read_text())
    other = json.loads((theirs / "manifest.json").read_text())
    same = True
    for name in sorted(set(mine) | set(other)):
        if mine.get(name) == other.get(name):
            print(f"identical  {name}")
            continue
        same = False
        if name not in mine or name not in other:
            print(f"missing    {name} (only in {'ours' if name in mine else 'theirs'})")
            continue
        print(f"differs    {name}")
        for line in deviations(ours / name, theirs / name) or ["the bytes differ, no value does"]:
            print(f"    {line}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the artifacts")
    parser.add_argument("--checkpoint", required=True, type=Path,
                        help="detector checkpoint (.npz) for the detector runs")
    parser.add_argument("--against", metavar="REV",
                        help="git revision whose artifacts to compare with")
    args = parser.parse_args(argv)
    print(f"exoassist from {Path(exoassist.__file__).parent}")
    for name, digest in write_artifacts(args.out, args.checkpoint).items():
        print(f"{digest}  {name}")
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        theirs = Path(tmp) / "artifacts"
        write_revision(args.against, theirs, args.checkpoint, Path(tmp) / "tree")
        print(f"against {args.against}:")
        return 0 if compare(args.out, theirs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
