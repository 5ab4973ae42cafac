"""Command-line entry points: detector training, scenario runs, planner
evaluation, and the finite-difference check suite."""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import anomaly as ano
from . import control as ctl
from . import dynamics as dyn
from . import harness as hz
from . import planner as pl


def _default(path_flag: str | None, bundled: str) -> Path:
    return Path(path_flag) if path_flag else pl.data_path(bundled)


def _load_stack(args, detector=None, scorer=None):
    model = dyn.load_plant_config(_default(getattr(args, "plant", None), "plant.json"))
    control_cfg = ctl.load_control_config(_default(getattr(args, "control", None), "control.json"))
    corpus = pl.load_corpus(pl.data_path("corpus.jsonl"))
    scorer = scorer or pl.RuleScorer(corpus)
    runtime = pl.PlannerRuntime(scorer, pl.default_library())
    return hz.SimStack(model=model, control=control_cfg, planner=runtime,
                       detector=detector)


# ---------------------------------------------------------------------------
# train-detector


def cmd_train_detector(args) -> int:
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    model = dyn.load_plant_config(_default(cfg.get("plant"), "plant.json"))

    sched_cfg = cfg.get("schedule", {})
    schedule = ano.NoiseSchedule.linear(
        T=int(sched_cfg.get("T", 50)),
        beta_start=float(sched_cfg.get("beta_start", 1e-4)),
        beta_end=float(sched_cfg.get("beta_end", 0.05)),
        nu=int(sched_cfg.get("nu", 10)),
    )
    train_cfg = ano.TrainConfig(**{k: (tuple(v) if k == "hidden" else v)
                                   for k, v in cfg.get("train", {}).items()})

    L_s = int(cfg.get("L_s", 25))
    if args.data:
        layout = ano.ChannelLayout(n=model.n, n_c=model.n_c)
        raw = ano.load_windows_csv(args.data, L_s, layout.per_tick)
        cut = int(0.8 * len(raw))
        stats = ano.compute_stats(raw[:cut])
        data = {"raw": raw, "stats": stats, "layout": layout, "L_s": L_s,
                "train_idx": np.arange(cut), "val_idx": np.arange(cut, len(raw))}
    else:
        subjects = [hz.WearerParams(**s) for s in
                    cfg.get("subjects", [{"name": "subject-a"}, {"name": "subject-b", "K_h": 25.0}])]
        data = hz.collect_training_data(
            model, subjects,
            duration=float(cfg.get("duration", 45.0)),
            seed=int(cfg.get("seed", 0)), L_s=L_s,
            stride=int(cfg.get("stride", 5)))
        print(f"collected {data['raw'].shape[0]} windows "
              f"({len(subjects)} subjects)")

    normed = data["stats"].normalize(data["raw"]).reshape(data["raw"].shape[0], -1)
    t0 = time.perf_counter()
    try:
        denoiser, history = ano.train_denoiser(
            normed[data["train_idx"]], schedule, train_cfg,
            val_windows=normed[data["val_idx"]])
    except ano.AnomalyTrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    detector = ano.AnomalyDetector(denoiser, schedule, data["stats"], data["L_s"],
                                   data["layout"], seed=int(cfg.get("seed", 0)) + 99)
    cal_cfg = cfg.get("calibrate", {})
    detector.calibrate(normed[data["train_idx"]],
                       target=float(cal_cfg.get("target", 0.35)),
                       percentile=float(cal_cfg.get("percentile", 99.0)))
    ano.save_checkpoint(args.out, detector)
    val = history["val"][-1] if history["val"] else float("nan")
    print(f"trained {train_cfg.epochs} epochs in {elapsed:.1f} s; "
          f"final train loss {history['train'][-1]:.2f}, val {val:.2f}, "
          f"baseline {normed.shape[1]}")
    print(f"checkpoint written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# run-scenario


def cmd_run_scenario(args) -> int:
    detector = ano.load_checkpoint(args.checkpoint) if args.checkpoint else None
    stack = _load_stack(args, detector=detector)
    scenario = hz.load_scenario(args.scenario)
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
    if args.scorer == "rule":
        scorer = pl.RuleScorer(corpus)
    else:
        from . import llm as llmmod

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
        scorer = llmmod.LLMScorer(cfg, transport=transport,
                                  fallback=pl.RuleScorer(corpus) if args.fallback else None)
        scorer.bind_library(library)
    report = pl.evaluate_corpus(corpus, scorer, library)
    Path(args.report).write_text(json.dumps(report, indent=1))
    print(f"success rate {report['success_rate']:.3f}, "
          f"validity {report['validity_rate']:.3f}; report written to {args.report}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(0)
    worst = {}

    # gravity vector vs potential-energy finite differences
    model = dyn.default_model()
    h = 1e-6
    errs = []
    for _ in range(5):
        q = rng.uniform(-1.2, 1.2, model.n)
        g = dyn.gravity_vector(model, q, 0.5)
        g_fd = np.array([
            (dyn.potential_energy(model, q + h * e, 0.5) - dyn.potential_energy(model, q - h * e, 0.5)) / (2 * h)
            for e in np.eye(model.n)])
        errs.append(np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))))
    worst["gravity_vs_potential"] = max(errs)

    # skew symmetry with finite-difference Mdot
    errs = []
    for _ in range(20):
        q = rng.uniform(-1.2, 1.2, model.n)
        qd = rng.uniform(-1.5, 1.5, model.n)
        C = dyn.coriolis_matrix(model, q, qd)
        Mdot = (dyn.mass_matrix(model, q + h * qd) - dyn.mass_matrix(model, q - h * qd)) / (2 * h)
        errs.append(abs(qd @ (Mdot - 2 * C) @ qd))
    worst["skew_symmetry"] = max(errs)

    # denoiser parameter gradients
    sch = ano.NoiseSchedule.linear(T=12, nu=4)
    den = ano.Denoiser(20, sch.T, hidden=(24, 24), embed_dim=8, seed=1)
    x0 = rng.standard_normal((6, 20))
    t = rng.integers(1, sch.T + 1, 6)
    eps = rng.standard_normal((6, 20))
    _, grads = ano.denoiser_loss_and_grads(den, x0, t, eps, sch)
    flat = den.mlp.get_flat()
    hp = 1e-5
    errs = []
    for i in rng.choice(flat.size, 50, replace=False):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += hp
        fm[i] -= hp
        den.mlp.set_flat(fp)
        lp, _ = ano.denoiser_loss_and_grads(den, x0, t, eps, sch, with_grads=False)
        den.mlp.set_flat(fm)
        lm, _ = ano.denoiser_loss_and_grads(den, x0, t, eps, sch, with_grads=False)
        fd = (lp - lm) / (2 * hp)
        errs.append(abs(grads[i] - fd) / max(abs(fd), abs(grads[i]), 1e-8))
    den.mlp.set_flat(flat)
    worst["denoiser_parameters"] = max(errs)

    # score input gradient vs finite differences
    layout = ano.ChannelLayout(n=4, n_c=2)
    stats = ano.NormStats(mean=np.zeros(layout.per_tick), std=np.full(layout.per_tick, 1.5))
    den2 = ano.Denoiser(5 * layout.per_tick, sch.T, hidden=(24, 24), embed_dim=8, seed=2)
    det = ano.AnomalyDetector(den2, sch, stats, 5, layout, seed=3)
    raw = rng.standard_normal((5, layout.per_tick)) * 1.5
    _, _, dfdtau = det.score_gradient(raw)
    hi = 1e-4
    errs = []
    for j in range(4):
        col = layout.tau_e_slice.start + j
        rp, rm = raw.copy(), raw.copy()
        rp[-1, col] += hi
        rm[-1, col] -= hi
        fd = (det.score(rp) - det.score(rm)) / (2 * hi)
        errs.append(abs(dfdtau[j] - fd) / max(abs(fd), abs(dfdtau[j]), 1e-10))
    worst["score_input"] = max(errs)

    limits = {"gravity_vs_potential": 1e-6, "skew_symmetry": 1e-8,
              "denoiser_parameters": 1e-4, "score_input": 1e-3}
    ok = True
    for name, err in worst.items():
        status = "ok" if err < limits[name] else "FAIL"
        if err >= limits[name]:
            ok = False
        print(f"{name:24s} max rel err {err:.3e}  (limit {limits[name]:.0e})  {status}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="exoassist",
                                     description="Semantic-aware exoskeleton assistance simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-detector", help="collect data, train and calibrate the detector")
    p.add_argument("--config", help="training config JSON (defaults bundled)")
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

    p = sub.add_parser("gradcheck", help="run all finite-difference suites")
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
