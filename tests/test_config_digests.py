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
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identical: 2 config trees"
    # then each config's wall seconds, earlier -> now, and the totals
    doc = json.loads((first / digests.DIGESTS).read_text())
    again = json.loads((tmp_path / "again" / digests.DIGESTS).read_text())
    assert list(doc["seconds"]) == list(again["seconds"]) == list(NAMES)
    assert all(seconds > 0 for seconds in [*doc["seconds"].values(), *again["seconds"].values()])
    assert lines[1:] == [
        *(f"{name}: {doc['seconds'][name]:.1f} -> {again['seconds'][name]:.1f} s" for name in NAMES),
        f"all 2 configs: {sum(doc['seconds'].values()):.1f} -> {sum(again['seconds'].values()):.1f} s",
    ]
    assert set(doc["configs"]) == set(NAMES)
    assert {"results.csv", "results.json"} <= set(doc["configs"]["snr_sweep"])
    assert any(name.startswith("traces/") for name in doc["configs"]["recover2d"])
    # the versions the bytes depend on: numpy, the one runtime dependency, and its BLAS
    assert doc["numpy"] and doc["blas"] and "scipy" not in doc


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


def test_seconds_are_never_compared(trees, tmp_path):
    # different wall times, or none recorded (an earlier run of an older
    # tool), still read identical; a config with no earlier time shows "?"
    _, first = trees
    earlier = tmp_path / "earlier"
    shutil.copytree(first, earlier)
    doc = json.loads((earlier / digests.DIGESTS).read_text())
    del doc["seconds"]
    (earlier / digests.DIGESTS).write_text(json.dumps(doc))
    assert digests.compare(earlier, first) == []
    assert digests.wall_times(earlier, {"recover2d": 1.25, "snr_sweep": 2.0}) == [
        "recover2d: ? -> 1.2 s",
        "snr_sweep: ? -> 2.0 s",
        "all 2 configs: ? -> 3.2 s",
    ]
    (earlier / digests.DIGESTS).write_text(json.dumps({**doc, "seconds": {"recover2d": 9.0}}))
    assert digests.wall_times(earlier, {"recover2d": 1.0, "snr_sweep": 2.0})[0] == "recover2d: 9.0 -> 1.0 s"


def test_an_out_that_holds_a_config_tree_is_refused(trees, capsys):
    # a file the new run no longer writes would stay in the old tree and
    # read identical; the tool exits 2 before any run and deletes nothing
    configs, first = trees
    before = digests.tree_digests(first)
    digest_file = (first / digests.DIGESTS).read_bytes()
    assert digests.main([str(first), *map(str, configs), "--against", str(first)]) == 2
    err = capsys.readouterr().err
    assert str(first / "snr_sweep") in err and str(first / "recover2d") in err
    assert digests.tree_digests(first) == before
    assert (first / digests.DIGESTS).read_bytes() == digest_file
