import json
import sys
from pathlib import Path

import numpy as np
import pytest

from orient_bayes import bench, cli, forward

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def small_snr_config(**overrides):
    raw = {
        "experiment": "snr_sweep",
        "seed": 5,
        "L": 20,
        "trials": 6,
        "sigmas": [0.01, 0.1],
        "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
    }
    raw.update(overrides)
    return bench.ExperimentConfig.from_dict(raw)


def small_prior_mismatch_config():
    return bench.ExperimentConfig.from_dict(
        {
            "experiment": "prior_mismatch",
            "seed": 2,
            "L": 15,
            "trials": 4,
            "sigmas": [0.05],
            "truth_prior": {"kind": "isotropic_gaussian", "eta": 0.1},
            "estimation_priors": [
                {"kind": "isotropic_gaussian", "eta": 0.5},
                {"kind": "isotropic_gaussian", "eta": 0.1},
            ],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        }
    )


def small_grid_config():
    return bench.ExperimentConfig.from_dict(
        {
            "experiment": "grid_sweep",
            "seed": 2,
            "trials": 4,
            "sigmas": [0.02],
            "L_values": [10, 30],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        }
    )


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
        a = bench.run_snr_sweep(cfg)
        b = bench.run_snr_sweep(cfg)
        assert a == b
        assert len(a) == 2 * len(cfg.sigmas)
        assert {r.estimator for r in a} == {"map", "mmse"}
        assert all(r.trials == cfg.trials and r.metric_se >= 0 for r in a)

    def test_emitted_snr_matches_definition(self):
        cfg = small_snr_config()
        vbar = forward.make_phantom("gaussian_blobs", 12, seed=1)
        for r in bench.run_snr_sweep(cfg):
            expected = forward.snr_of(vbar, forward.NoiseModel(sigma=r.sigma))
            assert abs(r.snr - expected) <= 1e-9 * max(1.0, expected)

    def test_snr_list_round_trips(self):
        cfg = small_snr_config(sigmas=None, snrs=[1.0, 0.01])
        for r, target in zip(bench.run_snr_sweep(cfg)[::2], [1.0, 0.01]):
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

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_noisy_rows_on_pool_match_serial(self, monkeypatch, threads):
        monkeypatch.delenv("OB_THREADS", raising=False)
        rng = np.random.default_rng(3)
        clean = rng.normal(size=(29, 300))  # more rows than threads
        key = [7, bench._K_NOISE, 2]
        serial = np.empty_like(clean)
        for t in range(clean.shape[0]):
            serial[t] = clean[t] + np.random.default_rng(key + [t]).normal(size=clean.shape[1]) * 0.4
        interval = sys.getswitchinterval()
        if threads == 8:
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pooled = bench._noisy(clean, 0.4, key, threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)

    def test_prior_mismatch_labels(self):
        labels = {r.estimator for r in bench.run_prior_mismatch(small_prior_mismatch_config())}
        assert labels == {"map", "mmse:ig(eta=0.5)", "mmse:ig(eta=0.1)"}

    def test_grid_sweep_slopes_present(self):
        records, slopes = bench.run_grid_sweep(small_grid_config())
        assert set(slopes) == {"map", "mmse"}
        assert {r.L for r in records} == {10, 30}


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def small_raw(self):
        return {
            "experiment": "snr_sweep",
            "seed": 5,
            "L": 20,
            "trials": 6,
            "sigmas": [0.01, 0.1],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        }

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
        # reload the emitted config document and rerun: records must match
        cfg_path = self.write_config(tmp_path, self.small_raw())
        out = tmp_path / "out"
        cli.main(["snr_sweep", "--config", str(cfg_path), "--out", str(out)])
        doc = json.loads((out / "results.json").read_text())
        reloaded = bench.ExperimentConfig.from_dict(doc["config"])
        records = bench.run_snr_sweep(reloaded)
        assert records == bench.parse_csv(out / "results.csv")

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
        ],
    )
    def test_invalid_config_exit_code(self, tmp_path, overrides, capsys):
        raw = dict(self.small_raw(), **overrides)
        cfg_path = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main([raw["experiment"], "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
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
        cfg_path = self.write_config(tmp_path, raw)
        outs = []
        for extra in (["--threads", "1"], []):
            outs.append(tmp_path / f"out{len(outs)}")
            assert cli.main(["recover3d", "--config", str(cfg_path), "--out", str(outs[-1])] + extra) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(files) == 2 + 2 * 3
        assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

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
