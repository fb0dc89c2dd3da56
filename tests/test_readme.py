"""The README's quick example runs as written."""

import re

from helpers import README, readme_quick_example

from orient_bayes import bench


def test_quick_example_runs(capsys):
    exec(compile(readme_quick_example(), "README.md", "exec"), {})
    # the example prints the mean geodesic error of its MMSE estimates, in radians
    error = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= error < 0.5


def test_field_table_matches_the_experiment_table():
    # the README's per-experiment field table is the declaration in bench.EXPERIMENTS
    section = README.read_text().split("### Fields each experiment reads", 1)[1].split("\n### ", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            experiment, geometry, fields = (cell.strip() for cell in line.strip("|").split("|"))
            documented[(experiment.strip("`"), geometry.strip("`") or None)] = set(re.findall(r"`(\w+)`", fields))
    declared = {
        (name, geometry): bench.fields_read(name, geometry or "polar")
        for name, experiment in bench.EXPERIMENTS.items()
        for geometry in (bench._GEOMETRY_READS if "geometry" in experiment.reads else [None])
    }
    assert documented == declared
