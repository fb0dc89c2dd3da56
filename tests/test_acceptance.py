"""End-to-end acceptance gate.

Each criterion reruns its experiment at desk scale and prints one summary
line (visible with ``pytest -s``).  Criteria 2-6 are ordering checks on the
estimator comparison figures; 1 and 7-9 are numerical contracts; 10 is
byte-level reproducibility of the CLI.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import kstest

from helpers import geodesic_distance, horn_rotation, is_rotation, signal_scale, uniform_angle_density

from orient_bayes import bench, cli, estimators, forward, so3


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def phantom():
    return forward.make_phantom("asymmetric_L", 32, seed=0)


def test_criterion_1_map_mmse_convergence(phantom):
    # fixed observation draw; the MMSE/MAP geodesic gap collapses as sigma -> 0
    t0 = time.time()
    scale = signal_scale(phantom)
    cands = estimators.CandidateSet.build(phantom, so3.RotationPrior.uniform(), 300, seed=0)
    g_true = so3.sample_uniform(np.random.default_rng([0, 11, 0]), 1)[0]
    clean = forward.rotate_volume(phantom, g_true).ravel()
    eps = np.random.default_rng([0, 12, 0]).normal(size=clean.size)
    gaps = []
    for k in range(1, 7):
        sigma = scale * 10.0**-k
        y = (clean + sigma * eps)[None]  # a one-row batch
        g_map = cands.rotations[estimators.Scores.of(y, cands.templates).map_indices()]
        w = np.exp(estimators.normalized_log_weights(y, cands.templates, sigma**2))
        g_mmse = estimators.mmse_rotations(w, cands.rotations)
        gaps.append(float(so3.geodesic_distances(g_mmse, g_map)[0]))
    elapsed = time.time() - t0
    ok = gaps[-1] <= 1e-6 and gaps[-3] >= gaps[-2] >= gaps[-1] and elapsed < 10
    report(1, ok, f"final gap {gaps[-1]:.2e} rad, last decades {gaps[-3:]}, {elapsed:.1f}s")


def test_criterion_2_snr_sweep_ordering(phantom):
    t0 = time.time()
    details = []
    ok = True
    for projected, trials, lo, hi in [(False, 500, 1.0, 35.0), (True, 200, 0.45, 9.0)]:
        scale = signal_scale(phantom, projected=projected)
        cfg = bench.ExperimentConfig.from_dict(
            {
                "experiment": "snr_sweep",
                "seed": 0,
                "L": 300,
                "trials": trials,
                "sigmas": list(np.geomspace(lo * scale, hi * scale, 6)),
                "projected": projected,
                "phantom": {"kind": "asymmetric_L", "n": 32, "seed": 0},
            }
        )
        recs = bench.run_snr_sweep(cfg).records
        map_means = [r.metric_mean for r in recs if r.estimator == "map"]
        mmse_means = [r.metric_mean for r in recs if r.estimator == "mmse"]
        impr = [(m - e) / m for m, e in zip(map_means, mmse_means)]
        everywhere = all(e <= m for m, e in zip(map_means, mmse_means))
        ok = ok and everywhere and impr[-1] >= 0.05 and impr[-2] >= 0.05 and abs(impr[0]) <= 0.02
        details.append(
            f"{'projected' if projected else 'direct'}: low-SNR impr "
            f"{impr[-2]:.1%}/{impr[-1]:.1%}, high-SNR gap {impr[0]:.2%}"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(2, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_mmse_bayes_risk_below_map_on_grid_truth():
    # With each truth drawn uniformly from the candidate grid, the posterior
    # over the grid is exact, and the Procrustes-rounded posterior mean
    # minimizes the posterior expected chordal loss ||R_hat - R||_F^2 over
    # SO(3), so its mean error is at most MAP's in expectation.  Criterion 2
    # draws off-grid truth, where MMSE is not the exact Bayes estimator.
    # The paired difference must clear margin_se standard errors at every
    # (seed, noise level); seeds and levels were fixed before the first run.
    margin_se = 3.0
    t0 = time.time()
    vbar = forward.make_phantom("gaussian_blobs", 12, seed=0)
    scale = signal_scale(vbar)
    L, trials = 60, 2000
    details, ok = [], True
    for seed in (0, 1, 2):
        cands = estimators.CandidateSet.build(vbar, so3.RotationPrior.uniform(), L, seed=seed)
        for k in (6.0, 12.0):
            sigma = k * scale
            rng = np.random.default_rng([seed, 0xB4E5])
            idx = rng.integers(L, size=trials)
            ys = cands.templates[idx] + sigma * rng.normal(size=(trials, vbar.size))
            scores = estimators.Scores.of(ys, cands.templates)
            g_map = cands.rotations[scores.map_indices()]
            g_mmse = estimators.mmse_rotations(np.exp(scores.log_weights(sigma**2)), cands.rotations)
            truth = cands.rotations[idx]
            diff = np.sum((g_map - truth) ** 2, axis=(1, 2)) - np.sum((g_mmse - truth) ** 2, axis=(1, 2))
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(trials))
            ok = ok and z >= margin_se
            details.append(f"seed {seed} sigma {k:g}x: MAP-MMSE {diff.mean():.3f} ({z:.1f} SE)")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    print(f"[bayes risk  ] {'PASS' if ok else 'FAIL'}: margin >= {margin_se:g} SE; " + "; ".join(details)
          + f", {elapsed:.1f}s")
    assert ok, details


def test_criterion_3_prior_mismatch_ordering(phantom):
    t0 = time.time()
    scale = signal_scale(phantom)
    cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "prior_mismatch",
            "seed": 0,
            "L": 300,
            "trials": 1000,
            "sigmas": [s * scale for s in (1.0, 4.0, 10.0, 25.0)],
            "truth_prior": {"kind": "isotropic_gaussian", "eta": 0.1},
            "estimation_priors": [
                {"kind": "isotropic_gaussian", "eta": 0.1},
                {"kind": "isotropic_gaussian", "eta": 0.5},
                {"kind": "isotropic_gaussian", "eta": 0.7},
            ],
            "phantom": {"kind": "asymmetric_L", "n": 32, "seed": 0},
        }
    )
    recs = bench.run_prior_mismatch(cfg).records
    lowest_snr = max(r.sigma for r in recs)
    at_low = {r.estimator: r.metric_mean for r in recs if r.sigma == lowest_snr}
    matched = at_low["mmse:ig(eta=0.1)"]
    mid = at_low["mmse:ig(eta=0.5)"]
    wide = at_low["mmse:ig(eta=0.7)"]
    elapsed = time.time() - t0
    ok = matched < mid < wide < at_low["map"] and elapsed < 600
    report(
        3,
        ok,
        f"lowest-SNR errors matched {matched:.3f} < eta0.5 {mid:.3f} < "
        f"eta0.7 {wide:.3f} < map {at_low['map']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_4_grid_scaling(phantom):
    t0 = time.time()
    scale = signal_scale(phantom)
    cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "grid_sweep",
            "seed": 0,
            "trials": 500,
            "sigmas": [0.01 * scale, 1e6 * scale],
            "L_values": [100, 300, 1000, 3000],
            "phantom": {"kind": "asymmetric_L", "n": 32, "seed": 0},
        }
    )
    records, _, _, extra = bench.run_grid_sweep(cfg)
    slopes = extra["slopes"]
    means = {(r.L, r.sigma, r.estimator): r.metric_mean for r in records}
    lo_sigma, hi_sigma = sorted({r.sigma for r in records})
    ls = np.array([100, 300, 1000, 3000], dtype=float)
    cells_agree = all(
        abs(means[(int(L), lo_sigma, "map")] - means[(int(L), lo_sigma, "mmse")])
        <= 0.02 * means[(int(L), lo_sigma, "map")]
        for L in ls
    )
    plateau_agree = all(
        abs(means[(int(L), hi_sigma, "map")] - means[(int(L), hi_sigma, "mmse")])
        <= 0.05 * means[(int(L), hi_sigma, "map")]
        for L in ls
    )
    plateau_slopes = [
        float(
            np.polyfit(
                np.log(ls), np.log([means[(int(L), hi_sigma, lab)] for L in ls]), 1
            )[0]
        )
        for lab in ("map", "mmse")
    ]
    elapsed = time.time() - t0
    ok = (
        abs(slopes["map"] + 1.0 / 3.0) <= 0.1
        and cells_agree
        and plateau_agree
        and all(abs(s) <= 0.05 for s in plateau_slopes)
        and elapsed < 1200
    )
    report(
        4,
        ok,
        f"high-SNR MAP slope {slopes['map']:.3f}, plateau slopes "
        f"{plateau_slopes[0]:.3f}/{plateau_slopes[1]:.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_polar_recovery():
    t0 = time.time()
    truth = forward.make_polar_phantom(300, 30, seed=1)
    scale = signal_scale(truth)
    cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "recover2d",
            "seed": 0,
            "M": 2000,
            "sigmas": [s * scale for s in (0.5, 12.0, 16.0)],
            "polar": {"d_radial": 300, "l_angular": 30},
            "max_iters": 50,
        }
    )
    recs = bench.run_recover2d(cfg).records
    truth_pcc = {
        (round(r.sigma / scale, 2), r.estimator): r.metric_mean
        for r in recs
        if "/" not in r.estimator
    }
    high_ok = truth_pcc[(0.5, "mmse_align")] >= 0.99 and truth_pcc[(0.5, "hard_map")] >= 0.99
    mid_ok = truth_pcc[(12.0, "mmse_align")] > truth_pcc[(12.0, "hard_map")]
    noise_cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "einstein_noise",
            "seed": 0,
            "M": 2000,
            "sigmas": [1.0],
            "geometry": "polar",
            "polar": {"d_radial": 300, "l_angular": 30},
            "noise_seeds": 10,
            "max_iters": 30,
        }
    )
    noise_recs = bench.run_einstein_noise(noise_cfg).records
    bias = {r.estimator: r.metric_mean for r in noise_recs}
    bias_ok = bias["hard_map/template"] > bias["mmse_align/template"]
    elapsed = time.time() - t0
    ok = high_ok and mid_ok and bias_ok and elapsed < 600
    report(
        5,
        ok,
        f"high-SNR PCC {truth_pcc[(0.5, 'mmse_align')]:.3f}/{truth_pcc[(0.5, 'hard_map')]:.3f}, "
        f"mid-SNR mmse {truth_pcc[(12.0, 'mmse_align')]:.3f} > map {truth_pcc[(12.0, 'hard_map')]:.3f}, "
        f"noise bias map {bias['hard_map/template']:.3f} > mmse {bias['mmse_align/template']:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_volume_recovery():
    t0 = time.time()
    cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "recover3d",
            "seed": 1,
            "L": 300,
            "M": 500,
            "snrs": [1e-2, 2e-3],
            "phantom": {"kind": "gaussian_blobs", "n": 32, "seed": 1},
            "template_phantom": {"kind": "asymmetric_L", "n": 32, "seed": 2},
            "max_iters": 30,
        }
    )
    recs = bench.run_recover3d(cfg).records
    snrs = sorted({r.snr for r in recs}, reverse=True)  # [~1e-2, ~2e-3]
    truth_pcc = {
        (snrs.index(r.snr), r.estimator): r.metric_mean
        for r in recs
        if "/" not in r.estimator
    }
    snr_ok = truth_pcc[(0, "mmse_align")] >= truth_pcc[(0, "hard_map")] and truth_pcc[
        (1, "mmse_align")
    ] > truth_pcc[(1, "hard_map")]
    noise_cfg = bench.ExperimentConfig.from_dict(
        {
            "experiment": "einstein_noise",
            "seed": 0,
            "geometry": "volume",
            "M": 200,
            "L": 150,
            "sigmas": [1.0],
            "template_phantom": {"kind": "asymmetric_L", "n": 32, "seed": 2},
            "noise_seeds": 5,
            "max_iters": 10,
        }
    )
    noise_recs = bench.run_einstein_noise(noise_cfg).records
    bias = {r.estimator: r.metric_mean for r in noise_recs}
    bias_ok = bias["hard_map/template"] > bias["mmse_align/template"]
    elapsed = time.time() - t0
    ok = snr_ok and bias_ok and elapsed < 1800
    report(
        6,
        ok,
        f"PCC@1e-2 mmse {truth_pcc[(0, 'mmse_align')]:.3f} vs map "
        f"{truth_pcc[(0, 'hard_map')]:.3f}; PCC@2e-3 mmse "
        f"{truth_pcc[(1, 'mmse_align')]:.3f} vs map {truth_pcc[(1, 'hard_map')]:.3f}; "
        f"noise bias map {bias['hard_map/template']:.3f} > mmse "
        f"{bias['mmse_align/template']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_7_density_quadrature():
    t0 = time.time()
    omega = np.linspace(0.0, np.pi, 4097)
    norm_ok = all(
        abs(simpson(so3.ig_density(omega, eta), x=omega) - 1.0) <= 1e-3
        for eta in (0.1, 0.5, 1.0, 2.0)
    )
    gap = float(np.max(np.abs(so3.ig_density(omega, 10.0) - uniform_angle_density(omega))))
    haar_cdf = lambda w: (np.asarray(w) - np.sin(w)) / np.pi
    gs = so3.sample_uniform(np.random.default_rng(3), 100_000)
    eye = np.broadcast_to(np.eye(3), gs.shape)
    ks_uniform = kstest(so3.geodesic_distances(eye, gs), haar_cdf).statistic
    gs_ig = so3.ig_sample(np.random.default_rng(2), 10.0, 100_000)
    ks_ig = kstest(so3.geodesic_distances(eye, gs_ig), haar_cdf).statistic
    elapsed = time.time() - t0
    ok = norm_ok and gap <= 1e-3 and ks_uniform <= 0.01 and ks_ig <= 0.01 and elapsed < 60
    report(
        7,
        ok,
        f"normalizations within 1e-3, eta=10 sup-gap {gap:.2e}, KS {ks_uniform:.4f}/"
        f"{ks_ig:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_procrustes_validity():
    # the attainable half of the oracle suite: every projection is a proper
    # rotation, idempotent, and scores at least as well as the best of
    # 50,000 Haar samples on the trace objective
    t0 = time.time()
    rng = np.random.default_rng(7)
    sample = so3.sample_uniform(rng, 50_000)
    flat = sample.reshape(-1, 9)
    ok = True
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        proj = so3.procrustes_project(a)
        best = sample[np.argmax(flat @ a.reshape(9))]
        ok = ok and is_rotation(proj)
        ok = ok and np.trace(proj.T @ a) >= np.trace(best.T @ a) - 1e-9
        ok = ok and np.linalg.norm(so3.procrustes_project(proj) - proj) < 1e-10
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(8, ok, f"100 projections valid, idempotent, objective-dominant, {elapsed:.1f}s")


def test_criterion_8_oracle_gap_bound():
    # the oracle is Horn's quaternion method, the exact maximizer of
    # tr(R^T a); a best-of-50,000 Haar sample, the oracle this test first
    # had, lies up to its covering radius of about 0.15 rad from the optimum
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        gaps.append(geodesic_distance(horn_rotation(a)[0], so3.procrustes_project(a)))
    assert max(gaps) <= 0.08


def test_criterion_9_weight_stability(phantom):
    cands = estimators.CandidateSet.build(phantom, so3.RotationPrior.uniform(), 100, seed=0)
    y = phantom.ravel()[None] / signal_scale(phantom)  # unit-scale data, a one-row batch
    unit_templates = cands.templates / signal_scale(phantom)
    ok = True
    for sigma in (1e-8, 1.0, 1e8):
        log_w = estimators.normalized_log_weights(y, unit_templates, sigma**2)
        w = np.exp(log_w)
        ok = ok and np.all(np.isfinite(log_w)) and np.all(np.isfinite(w))
        ok = ok and abs(float(np.sum(w)) - 1.0) <= 1e-12
    report(9, ok, "weights finite and normalized to 1e-12 for sigma in {1e-8, 1, 1e8}")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    configs = {
        "snr_sweep": {
            "experiment": "snr_sweep", "seed": 3, "L": 25, "trials": 8,
            "sigmas": [0.05, 0.5],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        },
        "prior_mismatch": {
            "experiment": "prior_mismatch", "seed": 3, "L": 20, "trials": 6,
            "sigmas": [0.2],
            "truth_prior": {"kind": "isotropic_gaussian", "eta": 0.1},
            "estimation_priors": [{"kind": "isotropic_gaussian", "eta": 0.5}],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        },
        "grid_sweep": {
            "experiment": "grid_sweep", "seed": 3, "trials": 6,
            "sigmas": [0.05], "L_values": [10, 25],
            "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
        },
        "recover2d": {
            "experiment": "recover2d", "seed": 3, "M": 30, "sigmas": [0.3],
            "polar": {"d_radial": 24, "l_angular": 8}, "max_iters": 3,
        },
        "recover3d": {
            "experiment": "recover3d", "seed": 3, "L": 8, "M": 6,
            "sigmas": [0.05], "max_iters": 2,
            "phantom": {"kind": "gaussian_blobs", "n": 10, "seed": 1},
            "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
        },
        "einstein_noise": {
            "experiment": "einstein_noise", "seed": 3, "M": 12, "sigmas": [1.0],
            "polar": {"d_radial": 16, "l_angular": 6},
            "noise_seeds": 2, "max_iters": 2,
        },
    }
    ok = True
    for name, raw in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(raw))
        out1, out2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        monkeypatch.setenv("OB_THREADS", "1")
        assert cli.main([name, "--config", str(cfg_path), "--out", str(out1)]) == 0
        monkeypatch.setenv("OB_THREADS", "64")
        assert cli.main([name, "--config", str(cfg_path), "--out", str(out2)]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        same = files1 == files2 and all(
            (out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1
        )
        ok = ok and same
    elapsed = time.time() - t0
    report(10, ok, f"6 experiments byte-identical across thread counts, {elapsed:.0f}s")
