"""tools/config_digests.py: digests of the CLI's output trees, and what moved
between two of them."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import pytest
from small_configs import SMALL

TOOL = Path(__file__).resolve().parent.parent / "tools" / "config_digests.py"
_spec = importlib.util.spec_from_file_location("config_digests", TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

NAMES = ("recover2d", "snr_sweep")


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """Two small configs, and the tree of one run of them."""
    root = tmp_path_factory.mktemp("digests")
    configs = []
    for name in NAMES:
        configs.append(root / f"{name}.json")
        configs[-1].write_text(json.dumps(SMALL[name]))
    first = root / "first"
    assert digests.main([str(first), *map(str, configs)]) == 0
    return configs, first


def test_an_unchanged_tree_reads_identical(trees, tmp_path, capsys):
    configs, first = trees
    assert digests.main([str(tmp_path / "again"), *map(str, configs), "--against", str(first)]) == 0
    assert capsys.readouterr().out == "identical: 2 config trees\n"
    doc = json.loads((first / digests.DIGESTS).read_text())
    assert set(doc["configs"]) == set(NAMES)
    assert {"results.csv", "results.json"} <= set(doc["configs"]["snr_sweep"])
    assert any(name.startswith("traces/") for name in doc["configs"]["recover2d"])
    assert doc["numpy"] and doc["blas"]


def test_an_edited_row_is_named_with_its_relative_change(trees, tmp_path):
    _, first = trees
    edited = tmp_path / "edited"
    shutil.copytree(first, edited)
    path = edited / "snr_sweep" / "results.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("metric_mean")
    rows[2][column] = repr(float(rows[2][column]) * (1 + 1e-6))  # the second record
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    lines = digests.compare(first, edited)
    assert len(lines) == 3
    assert lines[0] == "snr_sweep/results.csv: moved"
    assert lines[1].startswith("  row 2 (") and "metric_mean" in lines[1]
    rel = float(lines[1].rsplit(" ", 1)[1])
    assert rel == pytest.approx(1e-6, rel=1e-2)
    assert lines[2] == f"largest relative change of a results.csv row: {rel:.3g}"
