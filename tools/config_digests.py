"""Digest every config's output tree, and name what moved against an earlier one.

    python tools/config_digests.py OUT [--src SRC] [--against EARLIER] [CONFIG ...]

Runs each CONFIG (by default every ``configs/*.json``) through the CLI, with
``orient_bayes`` imported from SRC (by default this checkout's ``src``), into
``OUT/<config stem>/``, and writes ``OUT/digests.json``: the sha256 of every
output file, ``{config: {file: sha256}}``, with the numpy, scipy and BLAS
versions.  The bytes are specific to the BLAS build: block sizes such as
``estimators.SCORE_BLOCK`` are chosen for OpenBLAS 0.3.31.

With ``--against EARLIER``, an OUT of an earlier run (for example of the
parent commit, with ``--src`` at its ``src``), it prints the files that
moved, appeared or vanished, and for a moved ``results.csv`` each moved row
with its largest relative change, then the largest over every row.  It exits
0 when every tree is identical, 1 when something moved, 2 when a run fails.

All eight shipped configs take about 2.5 minutes on a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = "digests.json"


def versions() -> dict:
    """The versions the output bytes depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def run_config(config: Path, out: Path, src: Path) -> None:
    """Run one config through the CLI in a fresh process, into ``out``."""
    experiment = json.loads(config.read_text())["experiment"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "orient_bayes.cli", experiment, "--config", str(config), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{config.name} exited {proc.returncode}: {proc.stderr.strip()}")


def tree_digests(tree: Path) -> dict:
    """{config stem: {file path relative to its tree: sha256}} for every
    config tree under ``tree``."""
    return {
        config.name: {
            path.relative_to(config).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(config.rglob("*"))
            if path.is_file()
        }
        for config in sorted(tree.iterdir())
        if config.is_dir()
    }


def _relative(old: str, new: str) -> float:
    """|new - old| / |old| of two CSV fields; 0 when equal, inf when they are
    not both numbers."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("inf")
    return abs(b - a) / abs(a) if a else float("inf")


def moved_rows(old_csv: Path, new_csv: Path) -> list[tuple[int, str, float]]:
    """(row number, description, largest relative change) of each data row of
    ``new_csv`` that differs from the same row of ``old_csv``; a row present
    in only one file counts as moved by inf."""
    with open(old_csv, newline="") as fh:
        old = list(csv.DictReader(fh))
    with open(new_csv, newline="") as fh:
        new = list(csv.DictReader(fh))
    moved = []
    for i in range(max(len(old), len(new))):
        a, b = (old[i] if i < len(old) else None), (new[i] if i < len(new) else None)
        if a == b:
            continue
        row = a or b
        label = f"{row.get('estimator')} at sigma {row.get('sigma')}, L {row.get('L')}"
        if a is None or b is None:
            moved.append((i + 1, f"{label}: only in the {'new' if a is None else 'earlier'} tree", float("inf")))
            continue
        changes = {name: _relative(a.get(name, ""), b.get(name, "")) for name in {*a, *b}}
        changed = sorted(name for name, rel in changes.items() if rel)
        detail = ", ".join(f"{name} {a.get(name)} -> {b.get(name)}" for name in changed)
        moved.append((i + 1, f"{label}: {detail}", max(changes.values())))
    return moved


def compare(earlier: Path, tree: Path) -> list[str]:
    """One line per file that moved, appeared or vanished between two OUT
    trees, each moved results.csv row under its file, and a last line with
    the largest relative change of any row; no lines when they are
    identical."""
    old, new = tree_digests(earlier), tree_digests(tree)
    lines, largest = [], 0.0
    for config in sorted({*old, *new}):
        before, after = old.get(config, {}), new.get(config, {})
        for name in sorted({*before, *after}):
            if before.get(name) == after.get(name):
                continue
            state = "moved" if name in before and name in after else "new" if name in after else "gone"
            lines.append(f"{config}/{name}: {state}")
            if state == "moved" and name == "results.csv":
                for number, detail, rel in moved_rows(earlier / config / name, tree / config / name):
                    lines.append(f"  row {number} ({detail}): relative change {rel:.3g}")
                    largest = max(largest, rel)
    if lines:
        lines.append(f"largest relative change of a results.csv row: {largest:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the output trees and digests.json")
    parser.add_argument("configs", type=Path, nargs="*", help="config files (default: every configs/*.json)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds orient_bayes")
    parser.add_argument("--against", type=Path, help="an earlier OUT to compare with")
    args = parser.parse_intermixed_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.json"))
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        for config in configs:
            run_config(config.resolve(), args.out / config.stem, args.src.resolve())
    except RuntimeError as exc:
        print(f"config_digests: {exc}", file=sys.stderr)
        return 2
    digests = {**versions(), "configs": tree_digests(args.out)}
    (args.out / DIGESTS).write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    if args.against is None:
        return 0
    lines = compare(args.against, args.out)
    print("\n".join(lines) if lines else f"identical: {len(configs)} config trees")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
