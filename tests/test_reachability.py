"""Every function and every line in the package runs on a shipped path.

The probe traces the CLI over a small config of every experiment and
geometry, the variants a config can select (a projected sweep of an
``asymmetric_L`` phantom, whose sparse support takes the support-restricted
trilinear rotation while the EM iterates take the full one, a recovery set
by SNRs with all three EM modes, a loaded phantom, an isotropic-Gaussian prior
with eta >= 1, a ``--seed`` override), every BAD_INPUTS case, four more
config errors (not JSON, a boolean ``rel_tol``, the unknown field ``method``,
an experiment mismatch), an I/O error, and the README's quick example.  A
function that none of them reaches fails the test, named, unless ALLOWED
lists it with its reason; so does a line of a reached function, or of a
lambda or comprehension in one, unless ALLOWED_LINES lists it.  ``raise`` lines are exempt as a class: most
guard inputs no shipped run gives.  Worker threads are not traced, so the
runs use one thread (OB_THREADS=1).
"""

import ast
import dis
import inspect
import json
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from helpers import readme_quick_example
from small_configs import BAD_INPUTS, SMALL, bad_input_config

import orient_bayes
from orient_bayes import bench, blas, cli, estimators, forward, reconstruct, so3

PACKAGE = Path(orient_bayes.__file__).resolve().parent

# Functions no shipped path runs, by name, with the reason each is kept.  It
# is empty: a function only the tests use lives in tests/helpers.py.
ALLOWED = {}

# Lines of reached functions that no shipped path runs, by function and
# source text (stripped), so an edit elsewhere in the file keeps the key.
ALLOWED_LINES = {
    ("bench.parallel_map", "pool = _POOLS.get(n) or _POOLS.setdefault(n, ThreadPoolExecutor(n, thread_name_prefix=_POOL_THREAD))"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("bench.parallel_map", "futures = [pool.submit(fn, x) for x in items]"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("bench.parallel_map.<locals>.<listcomp>", "futures = [pool.submit(fn, x) for x in items]"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("bench.parallel_map.<locals>.<listcomp>", "return [f.result() for f in futures]"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("bench.parallel_map", "wait(futures)"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("bench.parallel_map", "return [f.result() for f in futures]"):
        "the pool: the probe runs one worker, and the thread-count tests run it",
    ("reconstruct._safe_pcc", "except ZeroVarianceError:"):
        "a constant estimate, which no shipped config gives (a constant truth or template exits 2 first)",
    ("reconstruct._safe_pcc", "return None"):
        "a constant estimate, which no shipped config gives (a constant truth or template exits 2 first)",
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


def raise_lines(path) -> set:
    """Every line a ``raise`` statement spans in the file."""
    tree = ast.parse(Path(path).read_text())
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def body_lines(code) -> set:
    """The lines of a code object's own instructions after its prologue (up
    to RESUME, or GEN_START), which sets the frame up and traces no line."""
    line_of = {}
    for start, end, line in code.co_lines():
        line_of.update(dict.fromkeys(range(start, end, 2), line))
    instrs = list(dis.get_instructions(code))
    body = instrs[1 + max([k for k, i in enumerate(instrs) if i.opname in ("RESUME", "GEN_START")], default=-1):]
    return {line_of[i.offset] for i in body if line_of.get(i.offset) is not None}


def function_lines() -> dict:
    """(file, first line, code name) of every function's code -> its
    "module.qualname", its body lines and the key of the function it is
    nested in (None at the top).  Nested functions, lambdas and
    comprehensions are codes of their own.  Class bodies and module code run
    at import, before tracing starts, so they are left out."""
    out = {}

    def visit(code, path, prefix, parent):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    key = (path, const.co_firstlineno, const.co_name)
                    out[key] = (name, body_lines(const), parent)
                    visit(const, path, name + ".<locals>.", key)
                else:
                    visit(const, path, name + ".", parent)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(), str(path), "exec"), str(path), path.stem + ".", None)
    return out


def shipped_runs(tmp_path) -> list[dict]:
    """A small config of each experiment and geometry, and of each variant a config selects."""
    loaded = tmp_path / "phantom.obv"
    forward.write_obv(loaded, forward.make_phantom("gaussian_blobs", 10, seed=1))
    recover2d = {key: value for key, value in SMALL["recover2d"].items() if key != "sigmas"}
    return [
        *SMALL.values(),
        {**SMALL["snr_sweep"], "projected": True, "phantom": {"kind": "asymmetric_L", "n": 12, "seed": 1}},
        {**recover2d, "snrs": [1.0], "assignment_modes": list(reconstruct.ASSIGNMENTS)},
        {**SMALL["snr_sweep"], "phantom": {"kind": "loaded", "path": str(loaded)}},
        {**SMALL["prior_mismatch"], "estimation_priors": [{"kind": "isotropic_gaussian", "eta": 1.5}]},
    ]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The code objects called and the (code key, line) pairs run by every
    shipped run, bad input and the README example, traced in this process."""
    tmp_path = tmp_path_factory.mktemp("probe")
    patch = pytest.MonkeyPatch()
    patch.setenv("OB_THREADS", "1")
    for module in (blas, bench, estimators, forward, reconstruct, so3):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached call made by an earlier test would not run again
    # (exit code, config text, the CLI's experiment and further arguments)
    runs = [(0, json.dumps(raw), raw["experiment"], []) for raw in shipped_runs(tmp_path)]
    runs[0][3].extend(["--seed", "4"])
    for case in BAD_INPUTS:
        (tmp_path / case).mkdir()
        raw = bad_input_config(case, tmp_path / case)
        runs.append((2, json.dumps(raw), raw["experiment"], []))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    runs += [
        (2, "{", "snr_sweep", []),  # not JSON
        (2, json.dumps({**SMALL["recover2d"], "rel_tol": True}), "recover2d", []),
        (2, json.dumps({**SMALL["snr_sweep"], "method": "trilinear"}), "snr_sweep", []),
        (2, json.dumps(SMALL["recover2d"]), "snr_sweep", []),  # the config names another experiment
        (3, json.dumps(SMALL["snr_sweep"]), "snr_sweep", ["--out", str(blocker / "out")]),
    ]
    called, ran, paths = set(), set(), {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in paths:
            real = os.path.realpath(code.co_filename)
            paths[code.co_filename] = real if Path(real).parent == PACKAGE else None
        if paths[code.co_filename] is None:
            return None
        called.add(code)
        key = (paths[code.co_filename], code.co_firstlineno, code.co_name)

        def local(frame, event, arg):
            if event == "line":
                ran.add((key, frame.f_lineno))
            return local

        return local

    sys.settrace(trace)
    try:
        for k, (code, text, experiment, extra) in enumerate(runs):
            cfg_path = tmp_path / f"cfg{k}.json"
            cfg_path.write_text(text)
            argv = [experiment, "--config", str(cfg_path), "--out", str(tmp_path / f"out{k}"), *extra]
            assert cli.main(argv) == code, text
        exec(compile(readme_quick_example(), "README.md", "exec"), {})
    finally:
        sys.settrace(None)
        patch.undo()
    return called, ran


def test_every_function_runs_on_a_shipped_path(probe):
    called, _ = probe
    defined = defined_functions()
    ran = {defined.get((os.path.realpath(code.co_filename), code.co_firstlineno)) for code in called}
    never = sorted(set(defined.values()) - ran - set(ALLOWED))
    assert not never, f"no shipped path runs {never}: call them, delete them, or allow them with a reason"
    stale = sorted(name for name in ALLOWED if name in ran or name not in defined.values())
    assert not stale, f"allowed but reached or gone: {stale}"


def test_every_line_of_a_reached_function_runs(probe):
    called, ran = probe
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name) for code in called}
    raises = {path: raise_lines(path) for path in map(str, PACKAGE.glob("*.py"))}
    sources = {path: Path(path).read_text().splitlines() for path in raises}
    unreached, allowed_ran, matches = [], [], Counter()
    for key, (qualname, lines, parent) in function_lines().items():
        if key not in reached and (not key[2].startswith("<") or parent not in reached):
            continue  # a def no run calls fails the test above; a lambda or comprehension of a run def fails here
        path = key[0]
        for line in sorted(lines - raises[path]):
            name = (qualname, sources[path][line - 1].strip())
            matches[name] += 1
            if (key, line) not in ran and name not in ALLOWED_LINES:
                unreached.append(f"{Path(path).name}:{line} {qualname}: {name[1]}")
            elif (key, line) in ran and name in ALLOWED_LINES:
                allowed_ran.append(name)
    assert not unreached, "no shipped path runs these lines: reach them, delete them, or allow them:\n" + "\n".join(
        unreached
    )
    assert not allowed_ran, f"allowed but reached: {allowed_ran}"
    stale = [name for name in ALLOWED_LINES if matches[name] != 1]
    assert not stale, f"allowed but gone, or the text names more than one line of its function: {stale}"
