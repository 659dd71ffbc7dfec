"""Command-line surface: machine-readable evidence reports.

Every command prints JSON to stdout (profile curves additionally write a
CSV) and embeds a run manifest with the argument echo, library version,
seed, and wall-clock duration.  Exit codes: 0 success, 2 usage/parse
failure, 3 numeric failure.  Optimizer defaults may be overridden by a JSON
config file passed with --config or named by the GLRKIT_CONFIG environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, asymptotics, evidence, models, reduced
from .optimize import DEFAULT_CONFIG, NumericError, OptimizerConfig
from .regions import RegionError, complement, parse_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

CONFIG_ENV_VAR = "GLRKIT_CONFIG"


def _load_config(path: str | None) -> OptimizerConfig:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return DEFAULT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    allowed = {f.name for f in dataclasses.fields(OptimizerConfig)}
    unknown = set(overrides) - allowed
    if unknown:
        raise ValueError(f"unknown optimizer config keys: {sorted(unknown)}")
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _manifest(args: argparse.Namespace, started: float, seed: int | None) -> dict:
    return {
        "command": args.command,
        "argv": args._argv,
        "version": __version__,
        "seed": seed,
        "duration_s": round(time.perf_counter() - started, 6),
    }


def _round_floats(obj, digits: int = 12):
    """Render every float with 12 significant digits; non-finite as strings."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "inf" if obj > 0 else "-inf" if obj < 0 else "nan"
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), indent=2, sort_keys=True))


def _build_model(args: argparse.Namespace, cfg: OptimizerConfig):
    if args.model == "binomial":
        if args.x is None or args.n is None:
            raise ValueError("binomial model needs --x and --n")
        return models.binomial_model(models.BinomialData(args.x, args.n))
    if args.model == "two-binomial":
        needed = (args.x1, args.n1, args.x2, args.n2)
        if any(v is None for v in needed):
            raise ValueError("two-binomial model needs --x1 --n1 --x2 --n2")
        data = models.TwoBinomialData(args.x1, args.n1, args.x2, args.n2)
        return models.two_binomial_model(data)
    if args.model == "paired-normal":
        if args.data is None or args.interest is None:
            raise ValueError(
                "paired-normal model needs --data CSV and --interest "
                "{mean-diff, sd-ratio}"
            )
        with open(args.data, "r", encoding="utf-8", newline="") as fh:
            sample = models.load_paired_csv(fh)
        if args.interest == "mean-diff":
            return models.mean_diff_model(sample, cfg)
        return models.sd_ratio_model(sample, cfg)
    raise ValueError(f"unknown model {args.model!r}")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        required=True,
        choices=["binomial", "two-binomial", "paired-normal"],
    )
    p.add_argument("--x", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--x1", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--x2", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--data", help="paired-sample CSV with header y_t,y_r")
    p.add_argument("--interest", choices=["mean-diff", "sd-ratio"])


def _cmd_glr(args: argparse.Namespace, cfg: OptimizerConfig, started: float) -> dict:
    model = _build_model(args, cfg)
    h1 = parse_region(args.h1, model.space)
    h2 = complement(h1) if args.complement else parse_region(args.h2, model.space)
    report = evidence.glr(model, h1, h2, cfg)
    return {
        "model": model.name,
        "h1": args.h1,
        "h2": "complement" if args.complement else args.h2,
        "report": report.to_json_dict(),
        "manifest": _manifest(args, started, None),
    }


def _cmd_profile(args: argparse.Namespace, cfg: OptimizerConfig, started: float) -> dict:
    model = _build_model(args, cfg)
    try:
        lo_s, hi_s, steps_s = args.grid.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"--grid must be lo:hi:steps, got {args.grid!r}") from None
    if steps < 1 or hi < lo:
        raise ValueError("--grid must be lo:hi:steps with hi >= lo, steps >= 1")
    grid = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
    curve = evidence.profile_curve(model, grid, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        curve.write_csv(fh)
    return {
        "model": model.name,
        "out": args.out,
        "rows": int(curve.grid.size),
        "peak_gamma": float(curve.grid[curve.peak_index]),
        "argmax": curve.argmax,
        "sup_log_lik": curve.sup_log_lik,
        "manifest": _manifest(args, started, None),
    }


def _cmd_support(args: argparse.Namespace, cfg: OptimizerConfig, started: float) -> dict:
    if not args.k > 1.0:
        raise ValueError(f"--k must exceed 1, got {args.k}")
    model = _build_model(args, cfg)
    ss = evidence.support_set(model, args.k, cfg)
    return {
        "model": model.name,
        "support_set": ss.to_json_dict(),
        "manifest": _manifest(args, started, None),
    }


def _cmd_simulate(args: argparse.Namespace, cfg: OptimizerConfig, started: float) -> dict:
    if args.scenario == "boundary":
        sim_cfg, limit = asymptotics.boundary_scenario(
            theta0=args.theta0, n=args.n, reps=args.reps, seed=args.seed
        )
    elif args.scenario == "point-null":
        sim_cfg, limit = asymptotics.point_null_scenario(
            theta0=args.theta0, n=args.n, reps=args.reps, seed=args.seed
        )
    else:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        sim_cfg = asymptotics.consistency_scenario(
            theta0=args.theta0,
            boundary=args.boundary,
            sizes=sizes,
            reps=args.reps,
            seed=args.seed,
        )
        report = asymptotics.consistency_trend(sim_cfg)
        return {
            "scenario": args.scenario,
            "config": sim_cfg.to_json_dict(),
            "trend": report.to_json_dict(),
            "manifest": _manifest(args, started, args.seed),
        }
    emp = asymptotics.simulate_glr(sim_cfg)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write("two_log_glr\n")
            for v in emp.values:
                fh.write(f"{v:.12g}\n")
    return {
        "scenario": args.scenario,
        "config": sim_cfg.to_json_dict(),
        "limit": limit.describe(),
        "quantiles": emp.quantiles(),
        "fraction_positive": emp.fraction_positive,
        "ks_distance": asymptotics.ks_distance(emp, limit),
        "csv_out": args.csv_out,
        "manifest": _manifest(args, started, args.seed),
    }


def _cmd_reduced(args: argparse.Namespace, cfg: OptimizerConfig, started: float) -> dict:
    if args.reduced_command == "test":
        kind = args.kind.replace("-", "_")
        if kind == "equivalence":
            if args.pi_max is None:
                raise ValueError("equivalence kind needs --pi-max")
            pf = reduced.PowerFunction.equivalence(args.alpha, args.pi_max)
        else:
            pf = reduced.PowerFunction(kind, args.alpha)
        t = 1 if args.result == "reject" else 0
        ratio = reduced.glr_from_test(pf, t)
        payload = {
            "kind": args.kind,
            "alpha": args.alpha,
            "pi_max": args.pi_max,
            "result": args.result,
        }
    else:
        ratio = reduced.glr_from_pvalue_normal(args.u)
        payload = {"u": args.u}
    direction = "h2" if ratio > 1.0 else "h1" if ratio < 1.0 else "even"
    payload.update(
        {
            "glr": ratio,
            "direction": direction,
            "strength_label": evidence.strength_label(ratio),
            "manifest": _manifest(args, started, None),
        }
    )
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glrkit",
        description="Likelihood-ratio evidence for composite hypotheses",
    )
    parser.add_argument("--config", help="JSON file with optimizer overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p_glr = sub.add_parser("glr", help="likelihood ratio of two hypotheses")
    _add_model_flags(p_glr)
    p_glr.add_argument("--h1", required=True, help="predicate for hypothesis 1")
    group = p_glr.add_mutually_exclusive_group(required=True)
    group.add_argument("--h2", help="predicate for hypothesis 2")
    group.add_argument(
        "--complement", action="store_true", help="compare h1 to its complement"
    )
    p_glr.set_defaults(handler=_cmd_glr)

    p_prof = sub.add_parser("profile", help="normalized likelihood curve as CSV")
    _add_model_flags(p_prof)
    p_prof.add_argument("--grid", required=True, help="lo:hi:steps")
    p_prof.add_argument("--out", required=True, help="output CSV path")
    p_prof.set_defaults(handler=_cmd_profile)

    p_supp = sub.add_parser("support", help="1/k support set of the likelihood")
    _add_model_flags(p_supp)
    p_supp.add_argument("--k", type=float, required=True)
    p_supp.set_defaults(handler=_cmd_support)

    p_sim = sub.add_parser("simulate", help="Monte Carlo limit-law checks")
    p_sim.add_argument(
        "--scenario",
        required=True,
        choices=["boundary", "point-null", "consistency"],
    )
    p_sim.add_argument("--theta0", type=float, required=True)
    p_sim.add_argument("--n", type=int, default=2500)
    p_sim.add_argument("--reps", type=int, default=20000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sizes", default="50,200,800",
                       help="consistency scenario sample sizes")
    p_sim.add_argument("--boundary", type=float, default=0.2,
                       help="hypothesis boundary for the consistency scenario")
    p_sim.add_argument("--csv-out", help="write raw 2 log GLR values as CSV")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_red = sub.add_parser("reduced", help="evidence from reduced data")
    red_sub = p_red.add_subparsers(dest="reduced_command", required=True)
    p_test = red_sub.add_parser("test", help="evidence in a test outcome")
    p_test.add_argument("--alpha", type=float, required=True)
    p_test.add_argument(
        "--kind",
        required=True,
        choices=[
            "one-sided",
            "point-null-one-sided",
            "two-sided-point-null",
            "equivalence",
        ],
    )
    p_test.add_argument("--result", required=True, choices=["reject", "accept"])
    p_test.add_argument("--pi-max", type=float, dest="pi_max")
    p_test.set_defaults(handler=_cmd_reduced)
    p_pval = red_sub.add_parser("pvalue", help="evidence in a p-value")
    p_pval.add_argument("--u", type=float, required=True)
    p_pval.set_defaults(handler=_cmd_reduced)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    started = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        payload = args.handler(args, cfg, started)
    except (RegionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(payload)
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
