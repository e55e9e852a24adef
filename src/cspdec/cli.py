"""Command-line front end.

Subcommands::

    cspdec generate   --config cfg.json --seed 7 --out run.json
    cspdec check-dist --config cfg.json --replicates 5000 --significance 0.01
    cspdec sweep gamma 4 8 16 32 --config cfg.json --replicates 200 --out sweep.csv
    cspdec formula 0.5 1 0

Exit codes: 0 success (check-dist: all positions pass), 1 check-dist found a
failing position, 2 usage or config error, 3 numerical divergence or
resampling exhaustion.  Every command is byte-reproducible from (config, seed).
Only check-dist loads scipy (``scipy.special``, never ``scipy.stats``), for its KS statistics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import SWEEP_AXES, expected_speedup, sweep
from .configio import (
    RUN_KEYS,
    ConfigError,
    dump_json,
    load_model_config,
    results_to_csv,
    results_to_dict,
    sweep_to_csv,
    sweep_to_dict,
)
from .diffusion import ChainDivergenceError
from .engine import ResampleExhaustedError
from .oracle import distribution_check
from .parallel import run_replicates
from .rng import replicate_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_GENERATE_TAG = 17


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="model-config JSON path")
    # Each run flag's dest is the RUN_KEYS entry it overrides.
    parser.add_argument("--seed", type=int, help="master seed (u64)")
    parser.add_argument("--gamma", type=int, help="draft length")
    parser.add_argument("--len", dest="length", type=int, help="sequence length")
    parser.add_argument("--rho", type=float, help="pre-fill ratio in [0, 1]")
    parser.add_argument("--temp", dest="temperature", type=float, help="sampling temperature")
    parser.add_argument(
        "--max-trials", dest="max_resample_trials", type=int, help="resampling trial cap"
    )
    parser.add_argument("--replicates", type=int, default=1, help="independent runs")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspdec",
        description="Speculative decoding over continuous denoising-chain tokens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run speculative generation, write results")
    _add_common(p_gen)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.add_argument("--format", choices=("json", "csv"), default="json")

    p_chk = sub.add_parser("check-dist", help="KS equivalence suite vs target-only decoding")
    _add_common(p_chk)
    p_chk.add_argument("--significance", type=float, default=0.01)

    p_swp = sub.add_parser("sweep", help="sweep an axis and emit aggregates")
    p_swp.add_argument("kind", choices=tuple(SWEEP_AXES))
    p_swp.add_argument("axis", nargs="+", help="axis values")
    _add_common(p_swp)
    p_swp.add_argument("--out", required=True, help="output path")
    p_swp.add_argument("--format", choices=("json", "csv"), default="csv")

    p_frm = sub.add_parser("formula", help="expected walltime improvement factor")
    p_frm.add_argument("alpha", type=float)
    p_frm.add_argument("gamma", type=int)
    p_frm.add_argument("c", type=float)
    return parser


def _resolve(args) -> tuple:
    model_config = load_model_config(args.config)
    return model_config, model_config.spec_config(**{k: getattr(args, k) for k in RUN_KEYS})


def _cmd_generate(args) -> int:
    model_config, run_config = _resolve(args)
    if args.replicates < 1:
        raise ConfigError("--replicates must be >= 1")
    seeds = [replicate_seed(run_config.seed, _GENERATE_TAG, r) for r in range(args.replicates)]
    stats = run_replicates(
        model_config.target, model_config.draft, run_config, seeds, jobs=args.jobs
    )
    if args.format == "json":
        payload = dump_json(results_to_dict(model_config, run_config, stats))
    else:
        payload = results_to_csv(stats)
    Path(args.out).write_text(payload)
    return EXIT_OK


def _cmd_check_dist(args) -> int:
    model_config, run_config = _resolve(args)
    if args.replicates < 1000:
        raise ConfigError("check-dist needs --replicates >= 1000")
    result = distribution_check(
        model_config.target,
        model_config.draft,
        run_config,
        runs=args.replicates,
        significance=args.significance,
        jobs=args.jobs,
    )
    for test in result.tests:
        if run_config.dim == 1:
            coord = ""
        elif test.coordinate < 0:
            coord = " projection"
        else:
            coord = f" coord {test.coordinate}"
        verdict = "PASS" if test.passed else "FAIL"
        print(
            f"position {test.position}{coord}: ks={test.statistic:.6f} "
            f"crit={test.critical:.6f} p={test.pvalue:.4f} {verdict}"
        )
    print(f"overall: {'PASS' if result.passed else 'FAIL'} "
          f"({result.runs} runs/side, significance {args.significance})")
    return EXIT_OK if result.passed else 1


def _cmd_sweep(args) -> int:
    model_config, run_config = _resolve(args)
    try:
        if args.kind == "gamma":
            values = [int(v) for v in args.axis]
        else:
            values = [float(v) for v in args.axis]
    except ValueError as exc:
        raise ConfigError(f"axis values for {args.kind}: {exc}") from exc
    result = sweep(
        model_config.target, model_config.draft, run_config, args.kind, values,
        args.replicates, args.jobs,
    )
    if args.format == "csv":
        payload = sweep_to_csv(result)
    else:
        payload = dump_json(sweep_to_dict(result))
    Path(args.out).write_text(payload)
    return EXIT_OK


def _cmd_formula(args) -> int:
    print(f"{expected_speedup(args.alpha, args.gamma, args.c):.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "check-dist":
            return _cmd_check_dist(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_formula(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ChainDivergenceError, ResampleExhaustedError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
