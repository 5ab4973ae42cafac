"""Command-line entry points: detector training, scenario runs and planner
evaluation."""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import anomaly as ano
from . import control as ctl
from . import dynamics as dyn
from . import harness as hz
from . import planner as pl
from .config import ConfigError, Field, check_fields, config_section

__all__ = ["main"]


# ---------------------------------------------------------------------------
# train-detector


# train_config.json's fields; the bundled file sets all but "plant" (the bundled plant.json)
TRAIN_CONFIG_FIELDS = {
    "plant": Field("string"),
    "duration": Field(bound="> 0"),
    **dict.fromkeys(("L_s", "stride"), Field("integer", "> 0")),
    **dict.fromkeys(("seed", "detector_seed"), Field("integer", ">= 0")),
    "subjects": Field("objects", table=hz.WEARER_FIELDS),
    "schedule": Field("object", table={
        **dict.fromkeys(("T", "nu"), Field("integer", "> 0")),
        **dict.fromkeys(("beta_start", "beta_end"), Field(bound="> 0"))}),
    "train": Field("object", table={
        **dict.fromkeys(("epochs", "batch_size", "embed_dim"), Field("integer", "> 0")),
        **dict.fromkeys(("lr", "adam_eps"), Field(bound="> 0")),
        **dict.fromkeys(("beta1", "beta2"), Field(bound=">= 0, < 1")),
        "seed": Field("integer", ">= 0"),
        "hidden": Field("integers", "> 0")}),
    "calibrate": Field("object", table={"target": Field(bound="> 0"),
                                        "percentile": Field(bound=">= 0, <= 100")}),
}


def _csv_data(path: str, layout: ano.ChannelLayout, L_s: int) -> dict:
    """A --data CSV's windows, 80 % to train on (and to take stats from)."""
    with config_section(f"--data {path}"):
        raw = ano.load_windows_csv(path, L_s, layout.per_tick)
        cut = int(0.8 * len(raw))
        if cut == 0:
            raise ValueError(f"{len(raw)} window is too few to split 80/20; need 2")
        stats = ano.compute_stats(raw[:cut])
    return {"raw": raw, "stats": stats, "layout": layout, "L_s": L_s,
            "train_idx": np.arange(cut), "val_idx": np.arange(cut, len(raw))}


def cmd_train_detector(args) -> int:
    # every value is checked before collection starts
    with config_section(f"--config {args.config}"):
        extra = json.loads(Path(args.config).read_text()) if args.config else {}
        check_fields(extra, TRAIN_CONFIG_FIELDS, "config")
    try:
        run = hz.train_detector(extra, partial(_csv_data, args.data) if args.data else None)
    except ano.AnomalyTrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    ano.save_checkpoint(args.out, run["detector"])
    history = run["history"]  # the validation split is never empty
    print(f"trained {len(history['train'])} epochs on {len(run['data']['raw'])} windows "
          f"in {run['train_elapsed']:.1f} s; final train loss {history['train'][-1]:.2f}, "
          f"val {history['val'][-1]:.2f}, baseline {run['normed'].shape[1]}")
    print(f"checkpoint written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# run-scenario


def cmd_run_scenario(args) -> int:
    # a bad --seed, or a file that is missing, unparseable or invalid, exits 2 naming its flag
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be >= 0, as a scenario's seed")
    with config_section(f"--checkpoint {args.checkpoint}"):
        detector = ano.load_checkpoint(args.checkpoint) if args.checkpoint else None
    plant = args.plant or pl.data_path("plant.json")
    control = args.control or pl.data_path("control.json")
    with config_section(f"--plant {plant}"):
        model = dyn.load_plant_config(plant)
    with config_section(f"--control {control}"):
        control_cfg = ctl.load_control_config(control)
    with config_section(f"--scenario {args.scenario}"):
        scenario = hz.load_scenario(args.scenario)
    runtime = pl.PlannerRuntime(pl.RuleScorer(pl.load_corpus(pl.data_path("corpus.jsonl"))),
                                pl.default_library())
    stack = hz.SimStack(model=model, control=control_cfg, planner=runtime, detector=detector)
    trace, report = hz.run_scenario(scenario, stack, seed=args.seed)
    if args.trace:
        hz.save_trace_csv(args.trace, trace)
        print(f"trace written to {args.trace} ({len(trace)} ticks)")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
        print(f"report written to {args.report}")
    ok = report.get("fault") is None
    print(f"completed={report.get('task_completed')} replans={report.get('replan_count')}"
          f" fault={report.get('fault')}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# eval-planner


def cmd_eval_planner(args) -> int:
    corpus = pl.load_corpus(args.corpus or pl.data_path("corpus.jsonl"))
    library = pl.default_library()
    misses = ()  # the scorer's errors that end the run: none for the rule scorer
    if args.scorer == "rule":
        scorer = pl.RuleScorer(corpus)
    else:
        from . import llm as llmmod

        misses = llmmod.LLMError
        if args.scorer == "replay":
            if not args.replay_file:
                print("--replay-file is required with --scorer replay", file=sys.stderr)
                return 2
            cfg = llmmod.LLMConfig(endpoint="replay://fixture", model="replay")
            transport = llmmod.ReplayTransport(args.replay_file)
        else:
            cfg = llmmod.LLMConfig.from_env()
            transport = llmmod.HTTPTransport(cfg)
            if args.record_file:
                transport = llmmod.RecordingTransport(transport, args.record_file)
        scorer = llmmod.LLMScorer(cfg, library, transport=transport,
                                  fallback=pl.RuleScorer(corpus) if args.fallback else None)
    try:
        report = pl.evaluate_corpus(corpus, scorer, library)
    except misses as exc:  # only a model scorer without --fallback lets one through
        print(f"exoassist eval-planner: {type(exc).__name__}: {exc}; no report written "
              f"(--fallback answers such requests with the rule scorer)", file=sys.stderr)
        return 2
    report["fallbacks"] = sum(e["type"] == "fallback" for e in getattr(scorer, "events", ()))
    Path(args.report).write_text(json.dumps(report, indent=1))
    print(f"success rate {report['success_rate']:.3f}, "
          f"validity {report['validity_rate']:.3f}, fallbacks {report['fallbacks']}; "
          f"report written to {args.report}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="exoassist",
                                     description="Semantic-aware exoskeleton assistance simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-detector", help="collect data, train and calibrate the detector")
    p.add_argument("--config", help="training config JSON whose top-level keys replace "
                   "the bundled train_config.json's")
    p.add_argument("--out", required=True, help="checkpoint output path (.npz)")
    p.add_argument("--data", help="optional CSV of training windows")
    p.set_defaults(func=cmd_train_detector)

    p = sub.add_parser("run-scenario", help="run a closed-loop scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--checkpoint", help="detector checkpoint (.npz)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", help="trace CSV output path")
    p.add_argument("--report", help="metrics JSON output path")
    p.add_argument("--plant", help="plant.json override")
    p.add_argument("--control", help="control.json override")
    p.set_defaults(func=cmd_run_scenario)

    p = sub.add_parser("eval-planner", help="evaluate a scorer over the item corpus")
    p.add_argument("--corpus", help="JSONL corpus (defaults bundled)")
    p.add_argument("--scorer", choices=["rule", "llm", "replay"], default="rule")
    p.add_argument("--report", required=True)
    p.add_argument("--replay-file", help="fixture for --scorer replay")
    p.add_argument("--record-file", help="record live responses to this file")
    p.add_argument("--fallback", action="store_true",
                   help="fall back to the rule scorer on transport errors")
    p.set_defaults(func=cmd_eval_planner)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"exoassist {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
