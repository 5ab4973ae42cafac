"""Write the outputs a byte-identical change must keep, with their digests.

    PYTHONPATH=src python tests/equivalence.py --out DIR --checkpoint det.npz

``DIR`` receives:

- ``<name>.csv`` and ``<name>.json``: the trace and report of each bundled
  scenario, run without a detector at its own seed;
- ``detector-<name>.csv`` and ``detector-<name>.json``: ``water_mouth`` and
  ``drop_replan`` with the detector of ``--checkpoint``;
- ``tracking_comparison.json``: criterion 4's raise-then-lower comparison,
  with the arguments of its golden;
- ``collection.npy``: the windows of a 2 subject x 2 s transparent-mode
  collection at seed 7, as the collection golden draws it;
- ``manifest.json``: the SHA-256 digest of each file above.

To compare two trees, run the script once with each tree's ``src`` on
``PYTHONPATH``, both with the same checkpoint (``exoassist train-detector``
writes one), and compare the two manifests: equal digests mean equal bytes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
from test_golden import SCENARIOS, TRACKING_ARGS

import exoassist
from exoassist import anomaly as ano
from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist import harness as hz
from exoassist import planner as pl

DETECTOR_SCENARIOS = ("water_mouth", "drop_replan")


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
    written += ["tracking_comparison.json", "collection.npy"]
    manifest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(written)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the artifacts")
    parser.add_argument("--checkpoint", required=True, type=Path,
                        help="detector checkpoint (.npz) for the detector runs")
    args = parser.parse_args(argv)
    print(f"exoassist from {Path(exoassist.__file__).parent}")
    for name, digest in write_artifacts(args.out, args.checkpoint).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
