"""Command-line entry point.

    orient-bayes <experiment> --config <path.json> [--seed N] [--out DIR]

Exit codes: 0 success, 2 config validation failure (a run too large to
allocate included), 3 I/O failure.
OB_THREADS caps the worker count.  Pooled work and every EM run BLAS on one
thread, and every EM experiment runs its batches (the noise levels of a
recovery, the noise seeds of einstein_noise) one after another, so the
outputs depend neither on OB_THREADS nor on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import bench, estimators, forward


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orient-bayes", description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=bench.EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
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
            cfg = dataclasses.replace(cfg, seed=args.seed)
        bench.worker_count()  # rejects a malformed OB_THREADS before any work
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"orient-bayes: config error: {exc}", file=sys.stderr)
        return 2
    try:
        bench.run_experiment(cfg, args.out)
    except (bench.ConfigError, forward.FileFormatError, estimators.WeightRangeError) as exc:
        # what only the run can check: a phantom file's contents and size, a noise level set by an SNR
        # or too far from the data's scale to score it or to iterate on
        print(f"orient-bayes: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # sizes the config allows but the machine cannot hold
        print(f"orient-bayes: config error: the run is too large for this machine's memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"orient-bayes: I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
