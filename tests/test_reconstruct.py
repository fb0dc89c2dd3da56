import json
import sys

import numpy as np
import pytest
from scipy.special import logsumexp

from orient_bayes import bench, estimators, forward, reconstruct, so3


@pytest.fixture(scope="module")
def polar_truth():
    return forward.make_polar_phantom(40, 8, seed=0)


def polar_templates(img):
    # row s is the template of shift s: s^-1 . img, flattened
    return np.stack([forward.rotate_polar(img, -s).ravel() for s in range(img.shape[1])])


def polar_assigned_average(ys, shifts, shape):
    # (1/M) sum_i s_i . y_i, one observation at a time
    return sum(forward.rotate_polar(y.reshape(shape), s) for y, s in zip(ys, shifts)) / len(ys)


def noiseless_polar_obs(img, shifts):
    rng = np.random.default_rng(0)
    return np.stack(
        [
            forward.synthesize_polar_observation(img, s, forward.NoiseModel(sigma=0.0), rng).data
            for s in shifts
        ]
    )


class TestPcc:
    def test_self(self, polar_truth):
        assert reconstruct.pcc(polar_truth, polar_truth) == 1.0

    def test_negation(self, polar_truth):
        assert reconstruct.pcc(polar_truth, -polar_truth) == -1.0

    def test_constant_offset(self, polar_truth):
        assert reconstruct.pcc(polar_truth, polar_truth + 3.7) == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_rejected(self, polar_truth):
        assert reconstruct.ZeroVarianceError is estimators.ZeroVarianceError
        with pytest.raises(reconstruct.ZeroVarianceError):
            reconstruct.pcc(polar_truth, np.ones_like(polar_truth))

    def test_shape_mismatch(self, polar_truth):
        with pytest.raises(estimators.DimensionMismatchError):
            reconstruct.pcc(polar_truth, polar_truth[:10])


class TestPolarSteps:
    def test_soft_single_obs_identity(self, polar_truth):
        # M = 1 with zero shift: the update returns the observation bit-exactly
        ys = noiseless_polar_obs(polar_truth, [0])
        out = reconstruct.em_step_soft(ys, polar_truth, None, forward.NoiseModel(sigma=1e-6))
        assert np.allclose(out, polar_truth, atol=1e-12)

    def test_hand_computed_four_term_sum(self):
        # four shifts with distinct residuals: check against a direct
        # evaluation of sum_l w_l (l . y)
        img = forward.make_polar_phantom(12, 4, seed=3)
        y = forward.rotate_polar(img, -1).ravel() + 0.05
        noise = forward.NoiseModel(sigma=0.5)
        x = polar_templates(img)
        w = np.exp(
            estimators.normalized_log_weights(y[None], x, noise.effective_variance())
        )[0]
        expected = sum(
            w[s] * forward.rotate_polar(y.reshape(img.shape), s) for s in range(4)
        )
        out = reconstruct.em_step_soft(y[None], img, None, noise)
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_shifted_copies_recover_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [2, 5])
        out = reconstruct.hard_step(ys, polar_truth, None, forward.NoiseModel(sigma=1e-9))
        assert np.array_equal(out, polar_truth)

    def test_hard_step_brute_force_indices(self, polar_truth):
        rng = np.random.default_rng(5)
        noise = forward.NoiseModel(sigma=0.4)
        ys = noiseless_polar_obs(polar_truth, [1, 3, 6]) + 0.4 * rng.normal(
            size=(3, polar_truth.size)
        )
        x = polar_templates(polar_truth)
        oracle = np.array(
            [np.argmin([np.sum((y - t) ** 2) for t in x]) for y in ys]
        )
        out = reconstruct.hard_step(ys, polar_truth, None, noise)
        expected = polar_assigned_average(ys, oracle, polar_truth.shape)
        assert np.allclose(out, expected, atol=1e-12)

    def test_one_hot_collapse_all_steps_agree(self, polar_truth):
        # at tiny sigma on exact-grid data every posterior is one-hot, so the
        # three update rules coincide
        ys = noiseless_polar_obs(polar_truth, [0, 2, 4, 7])
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(polar_truth))
        soft = reconstruct.em_step_soft(ys, polar_truth, None, noise)
        mmse = reconstruct.em_step_mmse(ys, polar_truth, None, noise)
        hard = reconstruct.hard_step(ys, polar_truth, None, noise)
        assert np.allclose(soft, mmse, atol=1e-10)
        assert np.allclose(mmse, hard, atol=1e-10)

    def test_permutation_invariance(self, polar_truth):
        rng = np.random.default_rng(6)
        ys = noiseless_polar_obs(polar_truth, [0, 1, 3, 5]) + 0.2 * rng.normal(
            size=(4, polar_truth.size)
        )
        noise = forward.NoiseModel(sigma=0.2)
        perm = rng.permutation(4)
        for step in (reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step):
            a = step(ys, polar_truth, None, noise)
            b = step(ys[perm], polar_truth, None, noise)
            assert np.allclose(a, b, atol=1e-10)

    def test_fixed_alignment_linearity(self, polar_truth):
        # with the shift decisions frozen, the averaging is linear in the data;
        # scaling the data keeps every MAP shift, so ys and 3 ys share them
        ys = noiseless_polar_obs(polar_truth, [1, 4])
        noise = forward.NoiseModel(sigma=0.1)
        a = reconstruct.hard_step(3.0 * ys, polar_truth, None, noise)
        b = 3.0 * reconstruct.hard_step(ys, polar_truth, None, noise)
        assert np.allclose(a, b, atol=1e-12)
        expected = polar_assigned_average(3.0 * ys, [1, 4], polar_truth.shape)
        assert np.allclose(a, expected, atol=1e-12)


def polar_log_likelihood(ys, v, sigma):
    # sum_m log sum_l exp(-||y_m - shift_l(v)||^2 / 2 sigma^2), up to constants,
    # one residual at a time
    shifted = np.stack([forward.rotate_polar(v, s).ravel() for s in range(v.shape[1])])
    resid = np.sum((ys[:, None, :] - shifted[None, :, :]) ** 2, axis=2)
    return float(np.sum(logsumexp(-resid / (2.0 * sigma**2), axis=1)))


@pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0, 10.0])
def test_polar_soft_em_never_lowers_likelihood(sigma):
    # on the exact shift group the soft step is the EM update for the marginal
    # likelihood (Dempster, Laird & Rubin 1977), so no iteration may lower it
    noise = forward.NoiseModel(sigma=sigma)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        truth = forward.make_polar_phantom(20, 12, seed=seed)
        clean = np.stack([forward.rotate_polar(truth, s).ravel() for s in rng.integers(12, size=40)])
        ys = clean + sigma * rng.normal(size=clean.shape)
        v = forward.make_polar_phantom(20, 12, seed=seed + 100)
        ll = [polar_log_likelihood(ys, v, sigma)]
        for _ in range(15):
            v = reconstruct.em_step_soft(ys, v, None, noise)
            ll.append(polar_log_likelihood(ys, v, sigma))
        for before, after in zip(ll, ll[1:]):
            assert after >= before - 1e-12 * abs(before)


@pytest.fixture(scope="module")
def volume_setup():
    vbar = forward.make_phantom("gaussian_blobs", 12, seed=2)
    cands = estimators.CandidateSet.build(vbar, so3.RotationPrior.uniform(), 8, seed=4)
    rng = np.random.default_rng(7)
    ys = np.stack(
        [
            forward.synthesize_observation(
                vbar, g, forward.NoiseModel(sigma=0.0), False, rng
            ).data
            for g in cands.rotations[:4]
        ]
    )
    return vbar, cands, ys


class TestVolumeSteps:
    def test_one_hot_collapse(self, volume_setup):
        vbar, cands, ys = volume_setup
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(vbar))
        soft = reconstruct.em_step_soft(ys, vbar, cands, noise)
        mmse = reconstruct.em_step_mmse(ys, vbar, cands, noise)
        hard = reconstruct.hard_step(ys, vbar, cands, noise)
        assert np.allclose(soft, mmse, atol=1e-10)
        assert np.allclose(mmse, hard, atol=1e-10)

    def test_hard_step_brute_force_indices(self, volume_setup):
        vbar, cands, ys = volume_setup
        noise = forward.NoiseModel(sigma=0.1)
        x = [forward.rotate_volume(vbar, g).ravel() for g in cands.rotations]
        oracle = np.array([np.argmin([np.sum((y - t) ** 2) for t in x]) for y in ys])
        out = reconstruct.hard_step(ys, vbar, cands, noise)
        expected = sum(
            forward.rotate_volume(y.reshape(vbar.shape), cands.rotations[i].T)
            for y, i in zip(ys, oracle)
        ) / len(ys)
        assert np.allclose(out, expected, atol=1e-10)

    def test_hard_step_improves_template_correlation(self, volume_setup):
        vbar, cands, ys = volume_setup
        out = reconstruct.hard_step(ys, vbar, cands, forward.NoiseModel(sigma=0.05))
        assert reconstruct.pcc(out, vbar) > 0.9


class TestRunReconstruction:
    def test_noiseless_fixed_point(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 1, 2, 5, 6])
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em")
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(polar_truth))
        v, trace = reconstruct.run_reconstruction(
            ys, polar_truth, None, noise, cfg, truth=polar_truth
        )
        assert len(trace) <= 2
        assert trace[-1]["pcc_truth"] == pytest.approx(1.0, abs=1e-9)
        assert trace[-1]["rel_change"] < cfg.rel_tol

    def test_max_iters_one(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(assignment="hard_map", max_iters=1, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            ys, polar_truth, None, forward.NoiseModel(sigma=0.1), cfg
        )
        assert len(trace) == 1
        assert trace[0]["iter"] == 0

    def test_trace_without_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(max_iters=2, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            ys, polar_truth, None, forward.NoiseModel(sigma=0.1), cfg
        )
        assert all(r["pcc_truth"] is None for r in trace)
        assert all(np.isfinite(r["pcc_template"]) for r in trace)

    def test_deterministic(self, polar_truth):
        rng_ys = noiseless_polar_obs(polar_truth, [1, 2, 4]) + 0.3
        cfg = reconstruct.ReconstructionConfig(assignment="mmse_align", max_iters=5)
        noise = forward.NoiseModel(sigma=0.3)
        v1, t1 = reconstruct.run_reconstruction(rng_ys, polar_truth, None, noise, cfg)
        v2, t2 = reconstruct.run_reconstruction(rng_ys, polar_truth, None, noise, cfg)
        assert np.array_equal(v1, v2)
        assert t1 == t2

    def test_bad_config(self):
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(assignment="annealed")
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(max_iters=0)
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(rel_tol=0.0)


class TestRegisteredPcc:
    def test_polar_is_max_over_every_shift(self, polar_truth):
        rng = np.random.default_rng(8)
        final = forward.rotate_polar(polar_truth, 3) + 0.3 * rng.normal(size=polar_truth.shape)
        oracle = max(
            reconstruct.pcc(forward.rotate_polar(final, s), polar_truth)
            for s in range(polar_truth.shape[1])
        )
        assert reconstruct.registered_pcc(final, polar_truth) == oracle
        assert oracle > reconstruct.pcc(final, polar_truth)

    def test_volume_is_max_over_identity_and_candidates(self, volume_setup):
        vbar, cands, _ = volume_setup
        final = forward.rotate_volume(vbar, cands.rotations[2].T)
        oracle = max(
            [reconstruct.pcc(final, vbar)]
            + [reconstruct.pcc(forward.rotate_volume(final, g), vbar) for g in cands.rotations]
        )
        assert reconstruct.registered_pcc(final, vbar, cands, "trilinear") == oracle
        assert oracle > reconstruct.pcc(final, vbar)


def two_threads(fn, items):
    return bench.parallel_map(fn, items, 2)


@pytest.fixture(scope="module")
def pooled_setup():
    # more candidates and observations than one CHUNK, so every sum spans chunks
    count = reconstruct.CHUNK + 8
    vbar = forward.make_phantom("gaussian_blobs", 10, seed=3)
    rotations = estimators.candidate_rotations(so3.RotationPrior.uniform(), count, seed=5)
    true = so3.RotationPrior.uniform().sample(np.random.default_rng(9), count)
    rng = np.random.default_rng(6)
    noise = forward.NoiseModel(sigma=0.5 * forward.signal_scale(vbar))
    ys = np.stack([forward.synthesize_observation(vbar, g, noise, False, rng).data for g in true])
    return vbar, rotations, ys, noise


class TestWorkerMap:
    """Any order-preserving map gives the bytes of the builtin map."""

    @pytest.mark.parametrize("step", [reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step])
    def test_steps(self, pooled_setup, step):
        vbar, rotations, ys, noise = pooled_setup
        serial = step(ys, vbar, rotations, noise)
        assert np.array_equal(step(ys, vbar, rotations, noise, map=two_threads), serial)

    def test_registered_pcc(self, pooled_setup):
        vbar, rotations, ys, _ = pooled_setup
        final = ys[0].reshape(vbar.shape)
        serial = reconstruct.registered_pcc(final, vbar, rotations)
        assert reconstruct.registered_pcc(final, vbar, rotations, map=two_threads) == serial

    def test_run_reconstruction(self, pooled_setup):
        vbar, rotations, ys, noise = pooled_setup
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em", max_iters=2, rel_tol=1e-30)
        v_a, trace_a = reconstruct.run_reconstruction(ys, vbar, rotations, noise, cfg, truth=vbar)
        v_b, trace_b = reconstruct.run_reconstruction(ys, vbar, rotations, noise, cfg, truth=vbar, map=two_threads)
        assert np.array_equal(v_a, v_b)
        assert trace_a == trace_b

    def test_many_threads_fast_switching(self, pooled_setup):
        # more workers than cores, switching often: templates are written to
        # disjoint rows and sums are taken on the calling thread, so no
        # update can be lost
        vbar, rotations, ys, noise = pooled_setup
        serial = reconstruct.em_step_soft(ys, vbar, rotations, noise)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = reconstruct.em_step_soft(
                ys, vbar, rotations, noise, map=lambda fn, xs: bench.parallel_map(fn, xs, 8)
            )
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)

    def test_rotations_array_equals_candidate_set(self, volume_setup):
        vbar, cands, ys = volume_setup
        noise = forward.NoiseModel(sigma=0.1)
        for step in (reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step):
            assert np.array_equal(step(ys, vbar, cands.rotations, noise), step(ys, vbar, cands, noise))


def test_write_trace_round_trip(tmp_path, polar_truth):
    ys = noiseless_polar_obs(polar_truth, [0, 2])
    cfg = reconstruct.ReconstructionConfig(max_iters=3, rel_tol=1e-30)
    _, trace = reconstruct.run_reconstruction(
        ys, polar_truth, None, forward.NoiseModel(sigma=0.2), cfg, truth=polar_truth
    )
    path = tmp_path / "trace.jsonl"
    reconstruct.write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    back = [json.loads(line) for line in lines]
    assert back == trace
    assert set(back[0]) == {"iter", "rel_change", "pcc_truth", "pcc_template"}
