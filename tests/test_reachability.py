"""Every function in the package runs on a shipped path.

The probe profiles the CLI over a small config of every experiment and
geometry, the variants a config can select (a projected sweep, a recovery set
by SNRs with all three EM modes, a loaded phantom, an isotropic-Gaussian prior
with eta >= 1) and the README's quick example.  A function that none of them
reaches fails the test, named, unless ALLOWED lists it with its reason.
Worker threads are not profiled, so the runs use one thread (OB_THREADS=1).
"""

import ast
import json
import os
import sys
from pathlib import Path

from helpers import readme_quick_example
from small_configs import SMALL

import orient_bayes
from orient_bayes import bench, cli, estimators, forward, reconstruct, so3

PACKAGE = Path(orient_bayes.__file__).resolve().parent

# Functions no shipped path runs, kept because the tests check results or the
# maths through them.
ALLOWED = {
    "bench.parse_csv": "the tests read results.csv back through it",
    "forward.signal_scale": "the tests set noise levels in units of the signal with it",
    "so3.is_rotation": "the tests check that estimates and samples are rotations with it",
    "so3.uniform_angle_density": "the Haar angle density, the tests' oracle for the isotropic Gaussian at large eta",
}


def defined_functions() -> dict:
    """(file, first line) -> "module.qualname" of every def in the package.
    The first line of a decorated def is its first decorator's, as in its code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def shipped_runs(tmp_path) -> list[dict]:
    """A small config of each experiment and geometry, and of each variant a config selects."""
    loaded = tmp_path / "phantom.obv"
    forward.write_obv(loaded, forward.make_phantom("gaussian_blobs", 10, seed=1))
    recover2d = {key: value for key, value in SMALL["recover2d"].items() if key != "sigmas"}
    return [
        *SMALL.values(),
        {**SMALL["snr_sweep"], "projected": True},
        {**recover2d, "snrs": [1.0], "assignment_modes": list(reconstruct.ASSIGNMENTS)},
        {**SMALL["snr_sweep"], "phantom": {"kind": "loaded", "path": str(loaded)}},
        {**SMALL["prior_mismatch"], "estimation_priors": [{"kind": "isotropic_gaussian", "eta": 1.5}]},
    ]


def test_every_function_runs_on_a_shipped_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OB_THREADS", "1")
    runs = shipped_runs(tmp_path)
    for module in (bench, estimators, forward, reconstruct, so3):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached call made by an earlier test would not run again
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for k, raw in enumerate(runs):
            cfg_path = tmp_path / f"cfg{k}.json"
            cfg_path.write_text(json.dumps(raw))
            argv = [raw["experiment"], "--config", str(cfg_path), "--out", str(tmp_path / f"out{k}")]
            assert cli.main(argv) == 0, raw
        exec(compile(readme_quick_example(), "README.md", "exec"), {})
    finally:
        sys.setprofile(None)
    capsys.readouterr()  # the example's print

    defined = defined_functions()
    ran = {defined.get((os.path.realpath(code.co_filename), code.co_firstlineno)) for code in reached}
    never = sorted(set(defined.values()) - ran - set(ALLOWED))
    assert not never, f"no shipped path runs {never}: call them, delete them, or allow them with a reason"
    stale = sorted(name for name in ALLOWED if name in ran or name not in defined.values())
    assert not stale, f"allowed but reached or gone: {stale}"
