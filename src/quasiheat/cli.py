"""Command-line entry point.

Subcommands mirror the experiments plus ``validate-config``; flags override
config keys, ``--seed`` is mandatory for runs that sample.  Exit code 0 iff
every asserted check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    validate_config,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file", default=None)
    sub.add_argument(
        "--seed", type=int, action="append", default=None,
        help="master seed (repeatable); overrides config seeds",
    )
    sub.add_argument("--output-dir", default=None, help="artifact directory")
    sub.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key, e.g. --set grid.n=128",
    )
    sub.add_argument("--plots", action="store_true", help="emit SVG plots")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quasiheat",
        description=(
            "Simulate a quasilinear stochastic heat equation and verify that "
            "its gradient is modelled, to second Hoelder order, by "
            "frozen-coefficient heat equations."
        ),
    )
    subs = p.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        _add_common(subs.add_parser(name))
    validate = subs.add_parser("validate-config")
    _add_common(validate)
    validate.add_argument("--experiment", choices=tuple(EXPERIMENTS), default=None,
                          help="experiment to validate as (default: the config's, or noise-diag)")
    return p


def _config_from_args(args, experiment: str) -> ExperimentConfig:
    if experiment == "validate-config":
        experiment = args.experiment
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config, experiment)
    else:
        cfg = ExperimentConfig(experiment=experiment or "noise-diag")
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, val = item.split("=", 1)
        cfg.apply_override(key, val)
    if args.seed:
        cfg.seeds = list(args.seed)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    if args.plots:
        cfg.plots = True
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            cfg = _config_from_args(args, "validate-config")
            summary = validate_config(cfg)
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 0
        cfg = _config_from_args(args, args.command)
        report = run_experiment(cfg)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            val = "" if check.value is None else f" value={check.value:.6g}"
            thr = f" ({check.threshold})" if check.threshold else ""
            print(f"[{status}] {check.name}{val}{thr}")
        print(
            f"report: {cfg.output_dir}/{cfg.config_hash}/report.json "
            f"({'all checks passed' if report.passed else 'FAILURES PRESENT'})"
        )
        return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
