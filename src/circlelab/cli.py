"""Command-line entry point.

    circlelab run <config.json> [--seed S] [--workers W] [--out DIR]
    circlelab examples [--show NAME]
    circlelab verify <report.json>

Exit codes: 0 success, 2 estimator error (an estimator failed its own
diagnostics), 3 config error (malformed or unknown configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .configs import BUILTIN_CONFIGS, ConfigError, builtin_config, catalog, parse_config
from .convolve import ConvolutionBudgetError
from .distortion import PoleInDiskError
from .measure import EstimatorDisagreement, MeasureGapError, StationarityError
from .nearid import EndgameViolation
from .reports import config_hash, verify_report, write_report

ESTIMATOR_ERRORS = (StationarityError, MeasureGapError, EstimatorDisagreement,
                    ConvolutionBudgetError, PoleInDiskError, EndgameViolation)


def load_config(path: str) -> dict:
    if path in BUILTIN_CONFIGS:
        return builtin_config(path)
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def run_experiment(config, seed=None, workers: int = 1, out_dir="out") -> int:
    """Run a config (dict or path); returns the process exit code."""
    from .experiments import SCENARIOS

    try:
        cfg = load_config(config) if isinstance(config, str) else dict(config)
        values = parse_config(cfg)
        scenario = cfg["scenario"]
        if seed is None:
            seed = values["seed"]
        results, invs = SCENARIOS[scenario](cfg, values, int(seed), int(workers), out_dir, {})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ESTIMATOR_ERRORS as exc:
        print(f"estimator error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = {
        "scenario": scenario,
        "seed": int(seed),
        "config": cfg,
        "config_hash": config_hash(cfg),
        "results": results,
        "invariants": invs,
    }
    path = write_report(out_dir, report)
    failed = [i["name"] for i in invs if not i["ok"]]
    for inv in invs:
        print(f"[{'ok' if inv['ok'] else 'FAIL'}] {inv['name']}")
    print(f"report written to {path}")
    if failed:
        print(f"estimator error: invariants failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="circlelab",
                                     description="numerical laboratory for random walks by circle diffeomorphisms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON config, or a builtin name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", default="out")

    p_ex = sub.add_parser("examples", help="list bundled example configs")
    p_ex.add_argument("--show", default=None, help="print one bundled config as JSON")

    p_ver = sub.add_parser("verify", help="re-check a report's embedded invariants")
    p_ver.add_argument("report")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, args.seed, args.workers, args.out)
    if args.command == "examples":
        if args.show:
            try:
                print(json.dumps(builtin_config(args.show), indent=2, sort_keys=True))
            except ConfigError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 3
            return 0
        for name, scenario, desc in catalog():
            print(f"{name:12s} [{scenario}] {desc}")
        return 0
    if args.command == "verify":
        try:
            ok, messages = verify_report(args.report)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: cannot read report: {exc}", file=sys.stderr)
            return 3
        for m in messages:
            print(m)
        return 0 if ok else 2
    return 3


if __name__ == "__main__":
    sys.exit(main())
