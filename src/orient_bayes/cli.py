"""Command-line entry point.

    orient-bayes <experiment> --config <path.json> [--seed N] [--out DIR] [--threads N]

Exit codes: 0 success, 2 config validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import bench


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orient-bayes", description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=bench.EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker-count cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = bench.ExperimentConfig.from_file(args.config)
        if cfg.experiment != args.experiment:
            raise bench.ConfigError(
                f"config declares experiment {cfg.experiment!r}, CLI asked for {args.experiment!r}"
            )
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        if args.threads is not None and args.threads < 1:
            raise bench.ConfigError(f"--threads must be >= 1, got {args.threads}")
        bench.worker_count(args.threads)  # rejects a malformed OB_THREADS before any work
    except (OSError, bench.ConfigError, ValueError) as exc:
        print(f"orient-bayes: config error: {exc}", file=sys.stderr)
        return 2
    try:
        bench.run_experiment(cfg, args.out, threads=args.threads)
    except OSError as exc:
        print(f"orient-bayes: I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
