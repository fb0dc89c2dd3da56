import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from helpers import blas_at_two_threads, parse_csv
from small_configs import BAD_INPUTS, SMALL, VOLUME_FILES, bad_input_config

from orient_bayes import bench, blas, cli, estimators, forward, reconstruct, so3

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

# Every config field an experiment might not read, with a valid non-default value.
FIELDS = {f.name for f in fields(bench.ExperimentConfig)} - {"experiment", "seed"}
NON_DEFAULT = {
    "L": 7,
    "trials": 3,
    "sigmas": [0.5],
    "snrs": [0.5],
    "truth_prior": {"kind": "uniform"},
    "estimation_priors": [{"kind": "uniform"}],
    "phantom": {"seed": 3},
    "template_phantom": {"seed": 3},
    "projected": True,
    "L_values": [5, 9],
    "M": 9,
    "polar": {"d_radial": 8},
    "assignment_modes": ["soft_em"],
    "max_iters": 3,
    "rel_tol": 0.01,
    "geometry": "volume",
    "noise_seeds": 3,
}
SRC = Path(__file__).resolve().parent.parent / "src"

UNREAD = [
    (name, field)
    for name, raw in SMALL.items()
    for field in sorted(FIELDS - bench.fields_read(raw["experiment"], raw.get("geometry", "polar")))
]


def small_snr_config(**overrides):
    return bench.ExperimentConfig.from_dict({**SMALL["snr_sweep"], **overrides})


def small_prior_mismatch_config():
    return bench.ExperimentConfig.from_dict(SMALL["prior_mismatch"])


def small_grid_config():
    return bench.ExperimentConfig.from_dict(SMALL["grid_sweep"])


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict({"experiment": "snr_sweep", "sigma": [0.1]})

    def test_unknown_experiment(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict({"experiment": "figure_one"})

    def test_missing_sigma_list(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict({"experiment": "snr_sweep"})

    def test_prior_mismatch_needs_estimation_priors(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict(
                {"experiment": "prior_mismatch", "sigmas": [0.1]}
            )

    def test_grid_sweep_needs_l_values(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict(
                {"experiment": "grid_sweep", "sigmas": [0.1], "L_values": [100]}
            )

    def test_bad_assignment_mode(self):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict(
                {
                    "experiment": "recover2d",
                    "sigmas": [0.1],
                    "assignment_modes": ["annealed"],
                }
            )

    def test_nonpositive_counts(self):
        with pytest.raises(bench.ConfigError):
            small_snr_config(trials=0)

    @pytest.mark.parametrize(
        "field", ["seed", "L", "trials", "M", "max_iters", "noise_seeds"]
    )
    @pytest.mark.parametrize("value", ["300", 3.0, True, None])
    def test_non_integer_counts(self, field, value):
        with pytest.raises(bench.ConfigError):
            small_snr_config(**{field: value})

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path):
        cfg = bench.ExperimentConfig.from_file(path)
        assert cfg.experiment in bench.EXPERIMENTS

    @pytest.mark.parametrize("raw", [{}, {"seed": 1}, {"experiment": ["snr_sweep"]}, {"experiment": {"a": 1}}])
    def test_missing_or_unhashable_experiment(self, raw):
        with pytest.raises(bench.ConfigError, match="experiment"):
            bench.ExperimentConfig.from_dict(raw)

    def test_config_is_frozen(self):
        cfg = small_snr_config()
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 7

    def test_list_fields_are_stored_as_tuples(self):
        # a checked config cannot be changed into an unchecked one
        cfg = small_snr_config()
        with pytest.raises(AttributeError):
            cfg.sigmas.append(-1.0)
        # --seed replaces the seed, and the stored tuples pass the checks again
        assert replace(cfg, seed=9).sigmas == cfg.sigmas == (0.01, 0.1)

    def test_non_default_values_cover_every_field(self):
        assert set(NON_DEFAULT) == FIELDS
        defaults = {f.name: f.default for f in fields(bench.ExperimentConfig)}
        assert all(value != defaults[name] for name, value in NON_DEFAULT.items())

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_file(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_file(path)


class TestCsv:
    def records(self):
        return [
            bench.ResultRecord(
                experiment="snr_sweep",
                seed=3,
                sigma=0.1234567890123456789,
                snr=42.0,
                L=300,
                estimator="mmse",
                metric_mean=np.pi,
                metric_se=1e-17,
                trials=500,
            )
        ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        bench.emit_csv([], path)
        assert path.read_text().splitlines() == [
            "experiment,seed,sigma,snr,L,estimator,metric_mean,metric_se,trials"
        ]

    def test_one_record_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        records = self.records()
        bench.emit_csv(records, path)
        assert len(path.read_text().splitlines()) == 2
        assert parse_csv(path) == records


class TestSweeps:
    def test_snr_sweep_shape_and_determinism(self):
        cfg = small_snr_config()
        a = bench.run_snr_sweep(cfg).records
        b = bench.run_snr_sweep(cfg).records
        assert a == b
        assert len(a) == 2 * len(cfg.sigmas)
        assert {r.estimator for r in a} == {"map", "mmse"}
        assert all(r.trials == cfg.trials and r.metric_se >= 0 for r in a)

    def test_emitted_snr_matches_definition(self):
        cfg = small_snr_config()
        vbar = forward.make_phantom("gaussian_blobs", 12, seed=1)
        for r in bench.run_snr_sweep(cfg).records:
            expected = forward.snr_of(vbar, r.sigma)
            assert abs(r.snr - expected) <= 1e-9 * max(1.0, expected)

    def test_snr_list_round_trips(self):
        cfg = small_snr_config(sigmas=None, snrs=[1.0, 0.01])
        for r, target in zip(bench.run_snr_sweep(cfg).records[::2], [1.0, 0.01]):
            assert r.snr == pytest.approx(target, abs=1e-9)

    def test_thread_count_invariance(self, monkeypatch):
        sweeps = [
            (bench.run_snr_sweep, small_snr_config()),
            (bench.run_prior_mismatch, small_prior_mismatch_config()),
            (bench.run_grid_sweep, small_grid_config()),
        ]
        for run, cfg in sweeps:
            monkeypatch.setenv("OB_THREADS", "1")
            a = run(cfg)
            monkeypatch.setenv("OB_THREADS", "4")
            b = run(cfg)
            assert a == b, cfg.experiment

    def test_sweeps_take_template_norms_once_per_candidate_set(self, monkeypatch):
        # every sigma scores against the same templates, so their norms are taken once
        sizes = []
        norms = estimators.squared_norms

        def counted(a):
            sizes.append(len(a))
            return norms(a)

        monkeypatch.setattr(estimators, "squared_norms", counted)
        sweeps = [
            (bench.run_snr_sweep, small_snr_config(sigmas=[0.01, 0.1, 0.3]), 1),
            (bench.run_prior_mismatch, replace(small_prior_mismatch_config(), sigmas=(0.05, 0.2, 0.5)), 3),
            (bench.run_grid_sweep, replace(small_grid_config(), sigmas=(0.02, 0.2, 0.5)), 2),
        ]
        for run, cfg, sets in sweeps:
            sizes.clear()
            run(cfg)
            # the rest are the blocks' row norms, one per block, sigma and set
            assert len(sizes) - sizes.count(cfg.trials) == sets, cfg.experiment

    @pytest.mark.parametrize(
        "rows, threads",
        [("noise", 1), ("noise", 2), ("noise", 8), ("polar", 1), ("polar", 2), ("polar", 8)],
        ids=["1", "2", "8", "polar-1", "polar-2", "polar-8"],
    )
    def test_noisy_rows_on_pool_match_serial(self, monkeypatch, rows, threads):
        monkeypatch.delenv("OB_THREADS", raising=False)
        # bench looks parallel_map up when it runs, so this forces the worker count
        monkeypatch.setattr(bench, "parallel_map", partial(bench.parallel_map, threads=threads))
        monkeypatch.setattr(bench, "ROW_BLOCK", 4)  # a pooled fill of 29 rows runs 8 tasks
        if rows == "noise":
            # a sweep's pooled blocks of 4 rows: each draws its rows with the batch's row keys
            monkeypatch.setattr(bench, "SWEEP_BLOCK", 4)
            cfg = small_snr_config(trials=29, sigmas=[0.4])  # more blocks than threads
            clean = bench._sweep_inputs(cfg)[2]
            shape, key = clean.shape, [cfg.seed, bench._K_NOISE, 0]
            blocks, noisy = {}, bench._noisy

            def recorded(key, shape, sigma, map, clean=None, first=0):
                blocks[first] = noisy(key, shape, sigma, map, clean, first)
                return blocks[first]

            monkeypatch.setattr(bench, "_noisy", recorded)

            def draw():
                bench.run_snr_sweep(cfg)
                return np.concatenate([blocks[first] for first in sorted(blocks)])

        else:
            # recover2d's rows: each draws its shift, then its noise, from its own generator
            raw = {**SMALL["recover2d"], "seed": 7, "M": 29, "sigmas": [0.4], "max_iters": 1,
                   "polar": {"d_radial": 30, "l_angular": 10}}  # more rows than threads
            cfg = bench.ExperimentConfig.from_dict(raw)
            truth = forward.make_polar_phantom(30, 10, seed=1)
            shape, key = (cfg.M, truth.size), [cfg.seed, bench._K_SHIFT, 0]

            def draw():
                (batch,) = batch_rows(monkeypatch, bench.run_recover2d, cfg)
                return batch

        serial = np.empty(shape)
        for t in range(shape[0]):
            rng = np.random.default_rng(key + [t])
            if rows == "noise":
                serial[t] = clean[t] + rng.normal(size=shape[1]) * 0.4
            else:
                serial[t] = forward.rotate_polar(truth, -int(rng.integers(10))).ravel() + rng.normal(size=300) * 0.4
        interval = sys.getswitchinterval()
        if threads == 8:
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pooled = draw()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)

    @pytest.mark.parametrize("threads", ["1", None], ids=["OB_THREADS=1", "default"])
    def test_recover3d_rows_are_the_clean_stack_plus_noise(self, monkeypatch, threads):
        # recover3d rotates and draws each row in one task: its bytes are those
        # of the clean stack's row plus the sweeps' noise row of the same key
        if threads is None:
            monkeypatch.delenv("OB_THREADS", raising=False)
        else:
            monkeypatch.setenv("OB_THREADS", threads)
        raw = {**SMALL["recover3d"], "M": 9, "sigmas": [0.05, 0.3], "max_iters": 1,
               "assignment_modes": ["hard_map"]}
        cfg = bench.ExperimentConfig.from_dict(raw)
        truth = forward.make_phantom("gaussian_blobs", 10, seed=1)
        rotations = bench._true_rotations(cfg, so3.RotationPrior.uniform(), cfg.M)
        key = [cfg.seed, bench._K_NOISE, 1]
        stack = forward.rotated_stack(truth, rotations)
        oracle = bench._noisy(key, stack.shape, 0.3, map, lambda t, rng: stack[t])
        assert np.array_equal(batch_rows(monkeypatch, bench.run_recover3d, cfg)[1], oracle)

    def test_prior_mismatch_labels(self):
        labels = {r.estimator for r in bench.run_prior_mismatch(small_prior_mismatch_config()).records}
        assert labels == {"map", "mmse:ig(eta=0.5)", "mmse:ig(eta=0.1)"}

    def test_grid_sweep_slopes_present(self):
        records, _, _, extra = bench.run_grid_sweep(small_grid_config())
        slopes = extra["slopes"]
        assert set(slopes) == {"map", "mmse"}
        assert {r.L for r in records} == {10, 30}


def batch_rows(monkeypatch, run, cfg) -> list:
    """The rows of each observation batch run(cfg) builds, in order."""
    rows, batch = [], reconstruct.Batch

    def recorded(obs, shape, sigma):
        rows.append(np.array(obs))
        return batch(obs, shape, sigma)

    monkeypatch.setattr(reconstruct, "Batch", recorded)
    run(cfg)
    return rows


def peak_rows(run, cfg, d: int) -> float:
    """Peak memory allocated while run(cfg) runs, in rows of d doubles.
    numpy reports its buffers to tracemalloc.  A first, untraced run fills
    the caches (sampling tables, voxel grids) a run keeps."""
    run(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(cfg)
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * d)
    finally:
        tracemalloc.stop()


class TestMemory:
    """A run holds one observation batch at a time.  One worker thread, so
    the per-thread temporaries do not scale with the host's CPU count."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setenv("OB_THREADS", "1")

    def test_recover3d_holds_one_batch(self):
        # no clean stack beside the batch, and each level's batch is released
        # before the next is drawn: the batch, the L = 16 templates (one
        # window) and temporaries
        raw = {**SMALL["recover3d"], "L": 16, "M": 64, "sigmas": [0.05, 0.5], "max_iters": 1}
        raw["phantom"] = {**raw["phantom"], "n": 16}
        raw["template_phantom"] = {**raw["template_phantom"], "n": 16}
        cfg = bench.ExperimentConfig.from_dict(raw)
        assert peak_rows(bench.run_recover3d, cfg, 16**3) < 2 * cfg.M

    def test_recover2d_holds_one_batch(self):
        # each level's batch is released before the next is drawn: the batch,
        # the templates and temporaries, never two levels' batches
        raw = {**SMALL["recover2d"], "M": 240, "sigmas": [0.05, 0.1, 0.5], "max_iters": 1,
               "polar": {"d_radial": 40, "l_angular": 12}, "assignment_modes": list(reconstruct.ASSIGNMENTS)}
        cfg = bench.ExperimentConfig.from_dict(raw)
        assert peak_rows(bench.run_recover2d, cfg, 40 * 12) < 2 * cfg.M

    def test_recover3d_holds_no_candidate_stack(self):
        # every mode scores, soft-sums and back-acts, and registration scores,
        # one window of CHUNK elements at a time: the batch, about two windows
        # of volumes and temporaries, never L templates or L soft sums
        window = reconstruct.CHUNK
        raw = {**SMALL["recover3d"], "L": 4 * window + 8, "M": 64, "sigmas": [0.5], "max_iters": 1,
               "assignment_modes": list(reconstruct.ASSIGNMENTS)}
        raw["phantom"] = {**raw["phantom"], "n": 16}
        raw["template_phantom"] = {**raw["template_phantom"], "n": 16}
        cfg = bench.ExperimentConfig.from_dict(raw)
        bound = cfg.M + 3 * window
        assert bound < cfg.M + cfg.L
        assert peak_rows(bench.run_recover3d, cfg, 16**3) < bound

    def test_snr_sweep_holds_one_noisy_batch(self):
        # the clean stack and one sigma's noisy batch, never two noisy batches
        cfg = small_snr_config(trials=64, sigmas=[0.01, 0.1, 1.0])
        assert peak_rows(bench.run_snr_sweep, cfg, 12**3) < 2.5 * cfg.trials

    def test_pooled_sweep_holds_two_blocks_of_noisy_rows(self, monkeypatch):
        # two workers each draw and score one block at a time: the clean stack,
        # the templates and at most two blocks of noisy rows, never a level's batch
        monkeypatch.setenv("OB_THREADS", "2")
        cfg = small_snr_config(trials=3 * bench.SWEEP_BLOCK + 12, sigmas=[0.01, 0.1, 1.0])
        bound = cfg.trials + cfg.L + 2 * bench.SWEEP_BLOCK + 32  # 32 rows of temporaries
        assert bound < 2 * cfg.trials + cfg.L
        assert peak_rows(bench.run_snr_sweep, cfg, 12**3) < bound

    def test_einstein_noise_holds_one_batch(self, monkeypatch):
        # the seeds run in order and the two workers work inside each batch:
        # one batch of noise rows, the templates and temporaries, never one
        # batch per worker
        monkeypatch.setenv("OB_THREADS", "2")
        raw = {**SMALL["einstein_noise"], "M": 240, "noise_seeds": 3, "max_iters": 1,
               "polar": {"d_radial": 40, "l_angular": 12}, "assignment_modes": ["soft_em", "mmse_align", "hard_map"]}
        cfg = bench.ExperimentConfig.from_dict(raw)
        d, size = 40 * 12, 12
        # the templates and the soft sum, (L, d) each (L = 12 is one window),
        # and ten (M, L) temporaries
        bound = cfg.M + 2 * size + 10 * cfg.M * size / d
        assert bound < 2 * cfg.M
        assert peak_rows(bench.run_einstein_noise, cfg, d) < bound

    def test_grid_sweep_releases_each_candidate_set(self, monkeypatch):
        built = []
        original = bench._candidates

        def candidates(*args):
            assert all(ref() is None for ref in built), "the last candidate set is still held"
            cands = original(*args)
            built.append(weakref.ref(cands.templates))
            return cands

        monkeypatch.setattr(bench, "_candidates", candidates)
        bench.run_grid_sweep(small_grid_config())
        assert len(built) == 2


class TestParallelMapBlas:
    """While parallel_map or blas.fill runs, every loaded OpenBLAS runs on one
    thread."""

    @pytest.fixture
    def counts(self):
        with blas_at_two_threads() as counts:  # the caller's count, which each map must give back
            yield counts

    @pytest.mark.parametrize("threads, items", [(1, 3), (2, 1), (2, 3)], ids=["serial", "one-item", "pool"])
    def test_tasks_run_blas_on_one_thread(self, counts, threads, items):
        inside = bench.parallel_map(counts, range(items), threads)
        assert inside == [[1] * len(counts())] * items
        assert counts() == [2] * len(counts())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_raising_task_gives_the_count_back(self, counts, threads):
        def fail(x):
            raise ZeroDivisionError(x)

        with pytest.raises(ZeroDivisionError):
            bench.parallel_map(fail, range(3), threads)
        assert counts() == [2] * len(counts())

    def test_a_nested_map_leaves_the_outer_scope_at_one(self, counts):
        def task(x):
            bench.parallel_map(abs, range(3), 2)
            return counts()

        assert bench.parallel_map(task, range(4), 2) == [[1] * len(counts())] * 4
        assert counts() == [2] * len(counts())

    @pytest.mark.parametrize("n, size", [(12, 4), (10, 4), (3, 1), (2, 5)])
    def test_fill_covers_each_row_once_in_fixed_blocks(self, n, size):
        calls = []
        blas.fill(map, calls.append, n, size)
        assert [t for rows in calls for t in range(n)[rows]] == list(range(n))
        assert [len(range(n)[rows]) for rows in calls] == [size] * (n // size) + [n % size] * (n % size > 0)

    def test_fill_of_no_rows_makes_no_call(self):
        def fail(rows):
            raise AssertionError(rows)

        blas.fill(map, fail, 0, 4)

    @pytest.mark.parametrize("kind", ["builtin", "lazy", "pool"])
    def test_fill_runs_every_call_on_one_blas_thread(self, counts, kind):
        def lazy(fn, xs):  # a generator: nothing runs unless the fill exhausts it
            for x in xs:
                yield fn(x)

        maps = {"builtin": map, "lazy": lazy, "pool": partial(bench.parallel_map, threads=2)}
        seen = []
        blas.fill(maps[kind], lambda rows: seen.append((rows.start, counts())), 7, 2)
        assert sorted(start for start, _ in seen) == [0, 2, 4, 6]
        assert all(inside == [1] * len(counts()) for _, inside in seen)
        assert counts() == [2] * len(counts())


    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps to find libraries in")
    def test_a_library_loaded_after_a_scope_is_pinned_by_the_next(self):
        # a fresh interpreter holds numpy's OpenBLAS only; scipy.ndimage loads
        # scipy's own, which the next outermost scope must find and pin
        script = """
import ctypes, json
from orient_bayes import blas

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    libs = [ctypes.CDLL(path) for path in paths]
    return [next(getattr(lib, get)() for get, _ in blas._THREAD_CALLS if hasattr(lib, get)) for lib in libs]

with blas.ONE_THREAD:
    first = counts()
import scipy.ndimage
with blas.ONE_THREAD:
    second = counts()
print(json.dumps({"first": first, "second": second, "after": counts()}))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="2")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        if len(result["second"]) != len(result["first"]) + 1:
            pytest.skip(f"scipy.ndimage loaded no OpenBLAS of its own: {result}")
        assert result["first"] == [1] and result["second"] == [1, 1]
        assert result["after"] == [2, 2]


class TestEmBlas:
    """EM runs and registrations run BLAS on one thread, the calling
    thread's products included, and the caller's count is back afterwards."""

    @pytest.mark.parametrize("name, run, recorded", [
        ("recover2d", bench.run_recover2d, {"run_reconstruction", "registered_pcc"}),
        ("recover3d", bench.run_recover3d, {"run_reconstruction", "registered_pcc"}),
        ("einstein_noise", bench.run_einstein_noise, {"run_reconstruction"}),
        ("einstein_noise_volume", bench.run_einstein_noise, {"run_reconstruction"}),
    ], ids=["recover2d", "recover3d", "einstein_noise_polar", "einstein_noise_volume"])
    def test_em_runs_blas_on_one_thread(self, monkeypatch, name, run, recorded):
        cfg = bench.ExperimentConfig.from_dict(SMALL[name])
        with blas_at_two_threads() as counts:
            seen = []
            for attr in ("run_reconstruction", "registered_pcc"):
                def recording(*args, _attr=attr, _original=getattr(reconstruct, attr), **kwargs):
                    seen.append((_attr, counts()))
                    return _original(*args, **kwargs)

                monkeypatch.setattr(reconstruct, attr, recording)
            run(cfg)
            assert {attr for attr, _ in seen} == recorded
            assert all(inside == [1] * len(counts()) for _, inside in seen)
            assert counts() == [2] * len(counts())


class TestParallelMapPool:
    """parallel_map reuses one pool per worker count."""

    @staticmethod
    def thread(_=None):
        time.sleep(0.001)  # long enough that every worker takes tasks
        return threading.current_thread()

    def test_maps_share_their_workers(self):
        seen = set(bench.parallel_map(self.thread, range(8), 2)) | set(bench.parallel_map(self.thread, range(8), 2))
        assert len(seen) <= 2 and threading.current_thread() not in seen

    def test_a_nested_map_runs_in_order_on_its_worker(self):
        # four tasks on two workers, each waiting on a nested map: queued on
        # the same pool, the nested tasks would wait behind the outer ones
        def task(x):
            return set(bench.parallel_map(self.thread, range(3), 2)) == {threading.current_thread()}

        assert bench.parallel_map(task, range(4), 2) == [True] * 4

    def test_concurrent_callers(self):
        # sixteen maps from eight threads that are not pool workers, the first
        # of them racing to start the three-worker pool
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                maps = list(callers.map(lambda k: bench.parallel_map(lambda x: x * k, range(20), 3), range(16)))
        finally:
            sys.setswitchinterval(interval)
        assert maps == [[x * k for x in range(20)] for k in range(16)]

    def test_a_raising_map_ends_every_task(self):
        ended = []

        def task(x):
            if x == 0:
                raise ZeroDivisionError(x)
            time.sleep(0.05)
            ended.append(x)

        with pytest.raises(ZeroDivisionError):
            bench.parallel_map(task, range(3), 2)
        assert sorted(ended) == [1, 2]


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def small_raw(self):
        return dict(SMALL["snr_sweep"])

    def test_success_and_outputs(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out = tmp_path / "out"
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        doc = json.loads((out / "results.json").read_text())
        assert doc["config"]["experiment"] == "snr_sweep"
        assert len(doc["records"]) == len(parse_csv(out / "results.csv"))

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out1)])
        cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()

    def test_json_config_reruns_identically(self, tmp_path):
        # reload each experiment's emitted config document and rerun: records must match
        for name, raw in SMALL.items():
            cfg_path = self.write_config(tmp_path, raw)
            out = tmp_path / name
            assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(out)]) == 0
            doc = json.loads((out / "results.json").read_text())
            reloaded = bench.ExperimentConfig.from_dict(doc["config"])
            records = bench.EXPERIMENTS[raw["experiment"]].run(reloaded).records
            assert records == parse_csv(out / "results.csv"), name

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out1)])
        cli.main(["snr_sweep", "--config", str(cfg_path), "--seed", "99", "--out", str(out2)])
        assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()
        assert json.loads((out2 / "results.json").read_text())["config"]["seed"] == 99

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out = tmp_path / "out"
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path, {"experiment": "snr_sweep"})
        assert cli.main(["snr_sweep", "--config", str(cfg_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["snr_sweep", "--config", str(tmp_path / "absent.json")]) == 2

    def test_experiment_mismatch(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        assert cli.main(["grid_sweep", "--config", str(cfg_path)]) == 2

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(blocker)])
        assert code == 3

    def test_recover2d_outputs_traces(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            {
                "experiment": "recover2d",
                "seed": 1,
                "M": 20,
                "sigmas": [0.1],
                "polar": {"d_radial": 30, "l_angular": 8},
                "max_iters": 3,
            },
        )
        out = tmp_path / "out"
        assert cli.main(["recover2d", "--config", str(cfg_path), "--out", str(out)]) == 0
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert traces == ["recover2d_s0_hard_map.jsonl", "recover2d_s0_mmse_align.jsonl"]

    def test_recover2d_snr_list(self, tmp_path):
        raw = {
            "experiment": "recover2d",
            "seed": 1,
            "M": 12,
            "snrs": [1.0, 0.1],
            "polar": {"d_radial": 20, "l_angular": 6},
            "max_iters": 2,
        }
        cfg_path = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["recover2d", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = parse_csv(out / "results.csv")
        for mode in ("mmse_align", "hard_map"):
            for target in raw["snrs"]:
                rows = [r for r in records if r.estimator.startswith(mode) and r.snr == pytest.approx(target)]
                assert len(rows) == 2

    def test_non_integer_count_exit_code(self, tmp_path):
        raw = dict(self.small_raw(), L="300")
        cfg_path = self.write_config(tmp_path, raw)
        assert cli.main(["snr_sweep", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"experiment": "recover2d", "max_iters": 0},
            {"experiment": "einstein_noise", "noise_seeds": 0},
            {"seed": -1},
            {"sigmas": [0.1, -0.01]},
            {"sigmas": 0.1},
            {"sigmas": None, "snrs": [1.0, 0.0]},
            {"sigmas": None, "snrs": [-2.0]},
            {"experiment": "recover2d", "projected": True},
            {"experiment": "recover3d", "projected": True},
            {"experiment": "einstein_noise", "projected": True},
            {"method": "trilinear"},
            {"experiment": "recover2d", "rel_tol": 0},
            {"phantom": {"kind": "cube"}},
            {"phantom": {"n": 4}},
            {"experiment": "recover2d", "rel_tol": "1e-3"},
            {"experiment": "recover3d", "template_phantom": {"kind": "loaded"}},
            {"phantom": {"kind": "asymmetric_L", "n": 12.0}},
            {"sigmas": [0.0, 0.1]},
            {"experiment": "recover2d", "sigmas": [0.0]},
            {"experiment": "einstein_noise", "sigmas": [0.0]},
            {"experiment": "einstein_noise", "sigmas": [0.5, 2.0]},
            {"experiment": "einstein_noise", "sigmas": None, "snrs": [0.01]},
            {"experiment": "recover2d", "polar": {"l_angular": 0}},
            {"experiment": "recover2d", "polar": [8, 4]},
            {"experiment": "recover2d", "template_phantom": {"seed": -1}},
            {"phantom": {"kind": "gaussian_blobs", "n": 12, "seed": "a"}},
            {"experiment": "recover2d", "polar": {"l_angular": "6"}},
            {"experiment": "einstein_noise", "sigmas": [1.0], "polar": {"d_radial": 0}},
            {"experiment": "prior_mismatch", "estimation_priors": [{"kind": "foo"}]},
            {"experiment": "prior_mismatch", "estimation_priors": [{"kind": "isotropic_gaussian"}]},
            {"experiment": "prior_mismatch", "estimation_priors": [{"kind": "isotropic_gaussian", "eta": -1}]},
            {"experiment": "prior_mismatch", "estimation_priors": "ab"},
            {"experiment": "prior_mismatch", "estimation_priors": [{"kind": "uniform"}], "truth_prior": [1]},
            {"experiment": "prior_mismatch", "estimation_priors": [{"kind": "uniform", "etta": 3}]},
            {"estimation_priors": [{"kind": "uniform"}, {"kind": "isotropic_gaussian", "eta": 0.5}]},
            {"experiment": "grid_sweep", "L_values": [0, 5]},
            {"experiment": "grid_sweep", "L_values": ["a", 3]},
            {"experiment": "grid_sweep", "L_values": [2.5, 3]},
            {"experiment": "grid_sweep", "L_values": [3, 3]},
            {"experiment": "recover2d", "polar": {"d_radial": 10, "l_angualr": 6}},
            {"phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1, "sed": 5}},
            {"projected": "false"},
            {"projected": 0},
            {"L": 2**30},
            {"experiment": "recover2d", "polar": {"l_angular": 2**62}},
            {"geometry": ["polar"]},
            {"phantom": {"kind": "loaded", "path": ["volume.obv"]}},
            {"phantom": {"kind": "loaded", "path": {"a": 1}}},
            {"phantom": {"kind": "loaded", "path": 987654}},
            {"phantom": {"kind": "loaded", "path": 0}},
            {"phantom": {"kind": "loaded", "path": ""}},
            {"phantom": {"kind": "asymmetric_L", "n": 12, "path": "volume.obv"}},
            {"experiment": "recover2d", "phantom": {"kind": "gaussian_blobs", "n": 12}},
            {"experiment": "einstein_noise", "template_phantom": {"kind": "asymmetric_L", "seed": 2}},
            {"experiment": "recover2d", "assignment_modes": ["hard_map", "hard_map"]},
            {"experiment": "recover2d", "assignment_modes": "hard_map"},
            {"experiment": "recover2d", "assignment_modes": []},
            {"estimation_priors": []},
        ],
    )
    def test_invalid_config_exit_code(self, tmp_path, overrides, capsys):
        # each case starts from a valid config of its own experiment and
        # breaks the field it lists last
        raw = dict(SMALL[overrides.get("experiment", "snr_sweep")], **overrides)
        cfg_path = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert list(overrides)[-1] in err
        assert not out.exists()

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_exits_2_without_traceback(self, tmp_path, case):
        raw = bad_input_config(case, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "orient_bayes.cli", raw["experiment"], "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "config error" in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr  # no warning either

    @pytest.mark.parametrize("name", ["snr_sweep", "recover3d", "einstein_noise_volume"])
    def test_a_method_field_is_unknown(self, tmp_path, capsys, name):
        # every rotation is trilinear, so a config naming the old default is an error
        raw = dict(SMALL[name], method="trilinear")
        cfg_path = self.write_config(tmp_path, raw)
        assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "unknown config fields: ['method']" in capsys.readouterr().err

    @pytest.mark.parametrize("name, field", UNREAD, ids=[f"{name}-{field}" for name, field in UNREAD])
    def test_unread_field_exit_code(self, tmp_path, capsys, name, field):
        # a field the experiment does not read may not claim a setting
        raw = dict(SMALL[name], **{field: NON_DEFAULT[field]})
        cfg_path = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{raw['experiment']} does not read" in err and repr(field) in err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5", "²"])
    def test_bad_thread_cap_exit_code(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("OB_THREADS", cap)
        cfg_path = self.write_config(tmp_path, self.small_raw())
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "OB_THREADS" in capsys.readouterr().err

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        # OB_THREADS is the one worker cap
        cfg_path = self.write_config(tmp_path, self.small_raw())
        with pytest.raises(SystemExit) as exc:
            cli.main(["snr_sweep", "--config", str(cfg_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def assert_thread_count_invariant(self, tmp_path, monkeypatch, raw, n_files):
        cfg_path = self.write_config(tmp_path, raw)
        outs = []
        for cap in ("1", None):
            if cap is None:
                monkeypatch.delenv("OB_THREADS", raising=False)
            else:
                monkeypatch.setenv("OB_THREADS", cap)
            outs.append(tmp_path / f"out{len(outs)}")
            assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(files) == n_files
        assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_recover3d_thread_count_invariance(self, tmp_path, monkeypatch):
        raw = {
            "experiment": "recover3d",
            "seed": 3,
            "L": 40,
            "M": 40,
            "snrs": [0.5],
            "phantom": {"kind": "gaussian_blobs", "n": 10, "seed": 1},
            "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
            "assignment_modes": ["soft_em", "mmse_align", "hard_map"],
            "max_iters": 2,
        }
        self.assert_thread_count_invariant(tmp_path, monkeypatch, raw, 2 + 2 * 3)

    def test_einstein_noise_volume_thread_count_invariance(self, tmp_path, monkeypatch):
        # the noise seeds run in order; each batch's noise rows, scoring and
        # soft sums and the group's rotations run on the pool
        raw = {
            "experiment": "einstein_noise",
            "seed": 3,
            "geometry": "volume",
            "L": 12,
            "M": 8,
            "sigmas": [1.0],
            "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
            "noise_seeds": 2,
            "assignment_modes": ["soft_em", "mmse_align", "hard_map"],
            "max_iters": 2,
        }
        self.assert_thread_count_invariant(tmp_path, monkeypatch, raw, 2 + 2 * 3)

    def digests_over_thread_counts(self, tmp_path, raw) -> dict:
        """(OPENBLAS_NUM_THREADS, OB_THREADS) -> digest of results.csv and the
        traces, each run in a fresh interpreter, over {1, 2} x {1, 2}."""
        cfg_path = self.write_config(tmp_path, raw)
        pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        digests = {}
        for blas in ("1", "2"):
            for workers in ("1", "2"):
                out = tmp_path / f"out-blas{blas}-ob{workers}"
                env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=blas, OB_THREADS=workers)
                argv = [sys.executable, "-m", "orient_bayes.cli", raw["experiment"], "--config", str(cfg_path),
                        "--out", str(out)]
                subprocess.run(argv, env=env, check=True, timeout=120)
                files = [out / "results.csv", *sorted(out.glob("traces/*"))]
                digests[blas, workers] = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        return digests

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS and the pool run one thread anyway")
    def test_einstein_noise_bytes_do_not_depend_on_either_thread_count(self, tmp_path):
        # the noise seeds run in order, and each seed's scoring and soft sums
        # run in fixed blocks on the pool; as one calling-thread matmul, a soft
        # sum's rounding would follow BLAS's thread count
        raw = {
            "experiment": "einstein_noise",
            "seed": 3,
            "M": 400,
            "sigmas": [1.0],
            "polar": {"d_radial": 40, "l_angular": 12},
            "noise_seeds": 2,
            "max_iters": 2,
            "assignment_modes": ["soft_em", "mmse_align", "hard_map"],
        }
        digests = self.digests_over_thread_counts(tmp_path, raw)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS and the pool run one thread anyway")
    def test_recover2d_bytes_do_not_depend_on_either_thread_count(self, tmp_path):
        # the soft step sums each element's rows in fixed column blocks on the
        # pool; as one calling-thread matmul its rounding followed BLAS's thread count
        raw = {
            "experiment": "recover2d",
            "seed": 3,
            "M": 400,
            "sigmas": [1.0],
            "polar": {"d_radial": 40, "l_angular": 12},
            "max_iters": 3,
            "assignment_modes": ["soft_em", "mmse_align", "hard_map"],
        }
        digests = self.digests_over_thread_counts(tmp_path, raw)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS and the pool run one thread anyway")
    def test_sweep_bytes_do_not_depend_on_either_thread_count(self, tmp_path):
        # each pooled block is scored, and its MMSE averages summed, by BLAS
        # matmuls on one thread; on the calling thread their rounding followed
        # BLAS's thread count.  The SMALL sweeps are too small to show it.
        raw = {
            "experiment": "prior_mismatch",
            "seed": 0,
            "L": 300,
            "trials": 100,
            "sigmas": [0.07, 0.3, 1.2],
            "truth_prior": {"kind": "isotropic_gaussian", "eta": 0.1},
            "estimation_priors": [
                {"kind": "isotropic_gaussian", "eta": 0.5},
                {"kind": "isotropic_gaussian", "eta": 0.1},
            ],
            "phantom": {"kind": "asymmetric_L", "n": 16, "seed": 0},
        }
        digests = self.digests_over_thread_counts(tmp_path, raw)
        assert len(set(digests.values())) == 1, digests

    def test_sweep_of_a_constant_phantom_runs(self, tmp_path):
        # a sweep takes no PCC, so only an EM run rejects a constant phantom
        VOLUME_FILES["zero.obv"](tmp_path / "zero.obv")
        raw = {**self.small_raw(), "phantom": {"kind": "loaded", "path": str(tmp_path / "zero.obv")}}
        cfg_path = self.write_config(tmp_path, raw)
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_recover3d_outputs_volumes(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            {
                "experiment": "recover3d",
                "seed": 1,
                "L": 6,
                "M": 5,
                "sigmas": [0.05],
                "phantom": {"kind": "gaussian_blobs", "n": 10, "seed": 1},
                "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
                "max_iters": 2,
            },
        )
        out = tmp_path / "out"
        assert cli.main(["recover3d", "--config", str(cfg_path), "--out", str(out)]) == 0
        vols = sorted(p.name for p in (out / "volumes").iterdir())
        assert vols == ["recover3d_s0_hard_map.obv", "recover3d_s0_mmse_align.obv"]
        vol = forward.read_obv(out / "volumes" / vols[0])
        assert vol.shape == (10, 10, 10)

    def test_no_cli_run_loads_scipy(self, tmp_path):
        # a fresh interpreter, since the test modules themselves import scipy:
        # every experiment and geometry runs (asymmetric_L, smoothed in numpy,
        # is a projected sweep's phantom and the template of recover3d and of
        # volume einstein_noise), then a config error and --help
        sweep = {**SMALL["snr_sweep"], "phantom": {"kind": "asymmetric_L", "n": 12}, "projected": True}
        configs = [("sweep", sweep), *((name, SMALL[name]) for name in SMALL if name != "snr_sweep"),
                   ("bad", {**SMALL["recover2d"], "method": "trilinear"})]
        runs = []
        for name, raw in configs:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            runs.append([raw["experiment"], "--config", str(path), "--out", str(tmp_path / name)])
        script = """
import contextlib, io, json, sys
from orient_bayes import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0] * (len(configs) - 1) + [2, 0]
        assert result["loaded"] == []

    def test_einstein_noise_runs(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            {
                "experiment": "einstein_noise",
                "seed": 1,
                "M": 15,
                "sigmas": [1.0],
                "polar": {"d_radial": 20, "l_angular": 6},
                "noise_seeds": 2,
                "max_iters": 2,
            },
        )
        out = tmp_path / "out"
        assert cli.main(["einstein_noise", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = parse_csv(out / "results.csv")
        assert {r.estimator for r in records} == {"mmse_align/template", "hard_map/template"}
        assert all(r.trials == 2 for r in records)
