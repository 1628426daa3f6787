"""Command-line surface: train, eval, cost, collide, gradcheck, census.

Configuration comes from a JSON file plus repeatable ``--set key=value``
overrides (dotted paths, JSON-parsed values). Exit codes: 0 success,
1 configuration error, 2 runtime/divergence error (a failed allocation
included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import checks, collisions, costs, train as training
from .checkpoint import CheckpointError, load_model
from .train import ConfigError, DivergenceError, build_model, config_from_dict


def _apply_override(raw: dict, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, _, value = assignment.partition("=")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
    node[parts[-1]] = parsed


def _load_config(args) -> training.RunConfig:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"config file cannot be read: {exc}")
        except ValueError as exc:  # UnicodeDecodeError, json.JSONDecodeError
            raise ConfigError(f"config file is not UTF-8 JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    return config_from_dict(raw)


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    summary = training.train(cfg, args.out)
    print(json.dumps({k: summary[k] for k in
                      ("steps", "init_train_loss", "final_train_loss",
                       "final_eval_loss", "final_eval_token_accuracy",
                       "parameter_census", "tokens_per_second")}, indent=2))
    print(f"metrics: {summary['metrics_csv']}")
    print(f"checkpoint: {summary['checkpoint']}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    load_model(model, args.checkpoint)
    data = training.make_task_data(cfg)
    loss, acc = training.evaluate(model, data.eval_inputs, data.eval_targets)
    print(json.dumps({"eval_loss": loss, "eval_token_accuracy": acc}, indent=2))
    return 0


def _cmd_cost(args) -> int:
    cfg = _load_config(args)
    report = training.cost_report(cfg)
    print(json.dumps(asdict(report), indent=2))
    rows = [
        ("embedding params (tied)", report.embedding_params),
        ("embedding params (untied view)", report.embedding_params_untied),
        ("non-embedding params", report.non_embedding_params),
        ("matrix-product MACs/token/layer", report.flops_per_token_per_layer),
        ("AltUp predict+correct ops/token (paper count)", report.altup_overhead_flops_per_token),
        ("activation memory (entries)", report.activation_memory_entries),
    ]
    macs = costs.forward_macs(cfg.model, cfg.variant, cfg.altup, cfg.seq, cfg.memory)
    macs["total"] = sum(macs.values())
    for term, value in macs.items():
        rows.append((f"forward MACs ({cfg.model.max_seq_len}-token sequence): {term}", value))
    width = max(len(r[0]) for r in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return 0


def _cmd_collide(args) -> int:
    estimates = []
    for f in args.f:
        for scheme in args.schemes:
            estimates.append(collisions.estimate_collision(
                scheme, args.n, args.l, f, args.d, args.trials, args.seed,
                workers=args.workers))
    for e in estimates:
        extra = f" width={e.selected_width}" if e.selected_width is not None else ""
        if e.theory is not None:
            t = e.theory
            extra += (f" [r1={t.r1:.3f} r2={t.r2:.3f} c={t.c:.3f}"
                      f" p1={t.p1:.2e} p2={t.p2:.2e} rho={t.rho:.3f}]")
        print(f"{e.scheme:11s} f={e.f:<6g} p={e.probability:.6f} "
              f"ci99=[{e.ci_low:.6f}, {e.ci_high:.6f}]{extra}")
    if args.ordering:
        for f in args.f:
            report = collisions.verify_ordering(
                args.n, args.l, f, args.d, args.trials, args.seed, workers=args.workers,
                known={e.scheme: e for e in estimates if e.f == f})
            print(f"ordering at f={f}: token_id >= spherical >= hyperplane "
                  f"{'PASS' if report.pass_flag else 'FAIL'}"
                  f"{'' if report.in_regime else ' (outside large-n/small-f regime)'}")
    if args.slope:
        # informational: log-log slope of collision probability vs bucket count
        for scheme in args.schemes:
            for f in args.f:
                diag = collisions.exponent_diagnostic(
                    scheme, args.l, f, args.d, max(200, args.trials // 10),
                    args.seed, n_grid=(64, 256, 1024), workers=args.workers)
                pts = " ".join(f"(n={n}, p={p:.4g})" for n, p in diag["points"])
                print(f"slope {scheme} f={f}: {diag['slope']:+.3f}  {pts}")
    if args.out:
        collisions.write_estimates_csv(estimates, args.out)
        print(f"csv: {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = checks.run_gradcheck_suite()
    worst = 0.0
    for name, err in results:
        status = "pass" if err < checks.GRADCHECK_TOLERANCE else "FAIL"
        worst = max(worst, err)
        print(f"{status} {name:24s} max rel err {err:.3e}")
    print(f"worst {worst:.3e} (tolerance {checks.GRADCHECK_TOLERANCE})")
    return 0 if worst < checks.GRADCHECK_TOLERANCE else 2


def _cmd_census(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    report = training.cost_report(cfg)
    actual = model.census()
    closed = report.embedding_params + report.non_embedding_params
    print(f"constructed-model census: {actual}")
    print(f"closed-form total:        {closed}")
    for name, p in model.named_parameters():
        print(f"  {name:32s} {'x'.join(map(str, p.data.shape)) or 'scalar'}")
    if actual != closed:
        print("MISMATCH between closed form and constructed model")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altup",
        description="Widened-representation transformer toolkit: training harness, "
                    "cost model, and lookup-collision analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p, seed_required=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        p.add_argument("--seed", type=int, required=seed_required,
                       help="run seed" + (" (required)" if seed_required else ""))

    p_train = sub.add_parser("train", help="run the deterministic training loop")
    add_config_args(p_train, seed_required=True)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the task's eval split")
    add_config_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(fn=_cmd_eval)

    p_cost = sub.add_parser("cost", help="parameter/MAC/memory report for a config")
    add_config_args(p_cost)
    p_cost.set_defaults(fn=_cmd_cost)

    p_col = sub.add_parser("collide", help="collision-probability estimates")
    p_col.add_argument("--seed", type=int, required=True)
    p_col.add_argument("--n", type=int, default=1024, help="bucket/expert count")
    p_col.add_argument("--l", type=int, default=64, help="sentence length")
    p_col.add_argument("--d", type=int, default=64, help="embedding dim")
    p_col.add_argument("--f", type=float, nargs="+", default=[0.1, 0.25, 0.5],
                       help="overlap fractions")
    p_col.add_argument("--trials", type=int, default=50000)
    p_col.add_argument("--schemes", nargs="+", default=list(collisions.SCHEMES),
                       choices=list(collisions.SCHEMES))
    p_col.add_argument("--workers", type=int, default=1)
    p_col.add_argument("--ordering", action="store_true",
                       help="also run the three-way ordering check per f")
    p_col.add_argument("--slope", action="store_true",
                       help="informational log-log slope of p vs bucket count")
    p_col.add_argument("--out", help="write estimates CSV here")
    p_col.set_defaults(fn=_cmd_collide)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_census = sub.add_parser("census", help="closed-form vs constructed parameter counts")
    add_config_args(p_census)
    p_census.set_defaults(fn=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, CheckpointError, ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
