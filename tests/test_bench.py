import json
import os
import subprocess
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from small_configs import SMALL

from orient_bayes import bench, cli, forward

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
    "method": "tricubic",
    "geometry": "volume",
    "noise_seeds": 3,
}
# Bad inputs that exit 2; each ran, or stopped with a traceback, before its
# check.  "<name.obv>" stands for the volume file VOLUME_FILES[name].
BAD_INPUTS = {
    "loaded-file-malformed": {"phantom": {"kind": "loaded", "path": "<bad.obv>"}},
    "loaded-file-too-small": {"phantom": {"kind": "loaded", "path": "<n2.obv>"}},
    "loaded-file-not-finite": {"phantom": {"kind": "loaded", "path": "<nan.obv>"}},
    "loaded-with-n": {"phantom": {"kind": "loaded", "path": "<n12.obv>", "n": 64}},
    "loaded-with-seed": {"phantom": {"kind": "loaded", "path": "<n12.obv>", "seed": 1}},
    "recover3d-phantom-sizes-differ": {"experiment": "recover3d", "phantom": {"kind": "gaussian_blobs", "n": 12}},
    "recover3d-loaded-size-differs": {"experiment": "recover3d", "phantom": {"kind": "loaded", "path": "<n12.obv>"}},
    "sigma-variance-overflows": {"sigmas": [1e300]},
    "sigma-variance-underflows": {"sigmas": [1e-300]},
    "sigma-too-large-for-a-double": {"sigmas": [10**400]},
    "snr-sigma-variance-overflows": {"sigmas": None, "snrs": [5e-324]},
    "eta-below-floor": {
        "experiment": "prior_mismatch", "estimation_priors": [{"kind": "isotropic_gaussian", "eta": 1e-5}]
    },
}
VOLUME_FILES = {
    "bad.obv": lambda path: path.write_bytes(b"OBV2" + bytes(12)),
    "n2.obv": lambda path: forward.write_obv(path, np.ones((2, 2, 2))),
    "nan.obv": lambda path: forward.write_obv(path, np.full((8, 8, 8), np.nan)),
    "n12.obv": lambda path: forward.write_obv(path, forward.make_phantom("gaussian_blobs", 12, seed=1)),
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
        assert bench.parse_csv(path) == records


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
            expected = forward.snr_of(vbar, forward.NoiseModel(sigma=r.sigma))
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

    @pytest.mark.parametrize(
        "rows, threads",
        [("noise", 1), ("noise", 2), ("noise", 8), ("polar", 1), ("polar", 2), ("polar", 8)],
        ids=["1", "2", "8", "polar-1", "polar-2", "polar-8"],
    )
    def test_noisy_rows_on_pool_match_serial(self, monkeypatch, rows, threads):
        monkeypatch.delenv("OB_THREADS", raising=False)
        rng = np.random.default_rng(3)
        clean = rng.normal(size=(29, 300))  # more rows than threads
        key = [7, bench._K_NOISE, 2]
        serial = np.empty_like(clean)
        if rows == "noise":
            for t in range(clean.shape[0]):
                serial[t] = clean[t] + np.random.default_rng(key + [t]).normal(size=clean.shape[1]) * 0.4
            draw = partial(bench._noisy, clean, 0.4, key, threads)
        else:
            # recover2d's rows: each draws its shift, then its noise, from its own generator
            truth = clean[0].reshape(30, 10)
            for t in range(clean.shape[0]):
                rng = np.random.default_rng(key + [t])
                serial[t] = forward.rotate_polar(truth, -int(rng.integers(10))).ravel() + rng.normal(size=300) * 0.4
            cfg = bench.ExperimentConfig.from_dict({"experiment": "recover2d", "sigmas": [0.4], "M": 29})
            draw = partial(bench._polar_observations, cfg, truth, 0.4, key, threads)
        interval = sys.getswitchinterval()
        if threads == 8:
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pooled = draw()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)

    def test_prior_mismatch_labels(self):
        labels = {r.estimator for r in bench.run_prior_mismatch(small_prior_mismatch_config()).records}
        assert labels == {"map", "mmse:ig(eta=0.5)", "mmse:ig(eta=0.1)"}

    def test_grid_sweep_slopes_present(self):
        records, _, _, extra = bench.run_grid_sweep(small_grid_config())
        slopes = extra["slopes"]
        assert set(slopes) == {"map", "mmse"}
        assert {r.L for r in records} == {10, 30}


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
        assert len(doc["records"]) == len(bench.parse_csv(out / "results.csv"))

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
            assert records == bench.parse_csv(out / "results.csv"), name

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out1)])
        cli.main(["snr_sweep", "--config", str(cfg_path), "--seed", "99", "--out", str(out2)])
        assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()

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
        records = bench.parse_csv(out / "results.csv")
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
            {"method": "bicubic"},
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
            {"method": ["trilinear"]},
            {"method": {"a": 1}},
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
        overrides = BAD_INPUTS[case]
        raw = dict(SMALL[overrides.get("experiment", "snr_sweep")], **overrides)
        text = json.dumps(raw)
        for name, write in VOLUME_FILES.items():
            write(tmp_path / name)
            text = text.replace(f'"<{name}>"', json.dumps(str(tmp_path / name)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "orient_bayes.cli", raw["experiment"], "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "config error" in done.stderr and "Traceback" not in done.stderr

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

    @pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_cap_exit_code(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("OB_THREADS", cap)
        cfg_path = self.write_config(tmp_path, self.small_raw())
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "OB_THREADS" in capsys.readouterr().err

    def test_nonpositive_threads_flag_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path, self.small_raw())
        assert cli.main(["snr_sweep", "--config", str(cfg_path), "--threads", "0"]) == 2

    def assert_thread_count_invariant(self, tmp_path, raw, n_files):
        cfg_path = self.write_config(tmp_path, raw)
        outs = []
        for extra in (["--threads", "1"], []):
            outs.append(tmp_path / f"out{len(outs)}")
            argv = [raw["experiment"], "--config", str(cfg_path), "--out", str(outs[-1])]
            assert cli.main(argv + extra) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(files) == n_files
        assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_recover3d_thread_count_invariance(self, tmp_path):
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
        self.assert_thread_count_invariant(tmp_path, raw, 2 + 2 * 3)

    def test_einstein_noise_volume_thread_count_invariance(self, tmp_path):
        # the noise seeds run on the pool and each volume group on the builtin map
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
        self.assert_thread_count_invariant(tmp_path, raw, 2 + 2 * 3)

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
        records = bench.parse_csv(out / "results.csv")
        assert {r.estimator for r in records} == {"mmse_align/template", "hard_map/template"}
        assert all(r.trials == 2 for r in records)
