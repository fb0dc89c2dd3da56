import json
import sys
from functools import partial

import numpy as np
import pytest
from helpers import direct_log_weights
from scipy.special import logsumexp

from orient_bayes import bench, estimators, forward, reconstruct, so3
from orient_bayes.estimators import ZeroVarianceError


@pytest.fixture(scope="module")
def polar_truth():
    return forward.make_polar_phantom(40, 8, seed=0)


SHIFTS = reconstruct.Shifts(8)  # the shift group of polar_truth


def batch(ys, v, noise):
    # the observations as a batch of structures shaped like v
    return reconstruct.Batch(ys, np.shape(v), noise)


def polar_templates(img):
    # row s is the template of shift s: s^-1 . img, flattened
    return np.stack([forward.rotate_polar(img, -s).ravel() for s in range(img.shape[1])])


def polar_assigned_average(ys, shifts, shape):
    # (1/M) sum_i s_i . y_i, one observation at a time
    return sum(forward.rotate_polar(y.reshape(shape), s) for y, s in zip(ys, shifts)) / len(ys)


def noiseless_polar_obs(img, shifts):
    return np.stack([forward.rotate_polar(img, -s).ravel() for s in shifts])


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
        out = reconstruct.em_step_soft(batch(ys, polar_truth, forward.NoiseModel(sigma=1e-6)), polar_truth, SHIFTS)
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
        out = reconstruct.em_step_soft(batch(y[None], img, noise), img, reconstruct.Shifts(4))
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_shifted_copies_recover_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [2, 5])
        out = reconstruct.hard_step(batch(ys, polar_truth, forward.NoiseModel(sigma=1e-9)), polar_truth, SHIFTS)
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
        out = reconstruct.hard_step(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
        expected = polar_assigned_average(ys, oracle, polar_truth.shape)
        assert np.allclose(out, expected, atol=1e-12)

    def test_one_hot_collapse_all_steps_agree(self, polar_truth):
        # at tiny sigma on exact-grid data every posterior is one-hot, so the
        # three update rules coincide
        ys = noiseless_polar_obs(polar_truth, [0, 2, 4, 7])
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(polar_truth))
        soft = reconstruct.em_step_soft(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
        mmse = reconstruct.em_step_mmse(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
        hard = reconstruct.hard_step(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
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
            a = step(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
            b = step(batch(ys[perm], polar_truth, noise), polar_truth, SHIFTS)
            assert np.allclose(a, b, atol=1e-10)

    def test_fixed_alignment_linearity(self, polar_truth):
        # with the shift decisions frozen, the averaging is linear in the data;
        # scaling the data keeps every MAP shift, so ys and 3 ys share them
        ys = noiseless_polar_obs(polar_truth, [1, 4])
        noise = forward.NoiseModel(sigma=0.1)
        a = reconstruct.hard_step(batch(3.0 * ys, polar_truth, noise), polar_truth, SHIFTS)
        b = 3.0 * reconstruct.hard_step(batch(ys, polar_truth, noise), polar_truth, SHIFTS)
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
            v = reconstruct.em_step_soft(batch(ys, v, noise), v, reconstruct.Shifts(12))
            ll.append(polar_log_likelihood(ys, v, sigma))
        for before, after in zip(ll, ll[1:]):
            assert after >= before - 1e-12 * abs(before)


@pytest.fixture(scope="module")
def volume_setup():
    vbar = forward.make_phantom("gaussian_blobs", 12, seed=2)
    cands = estimators.CandidateSet.build(vbar, so3.RotationPrior.uniform(), 8, seed=4)
    return vbar, cands, forward.rotated_stack(vbar, cands.rotations[:4])


class TestVolumeSteps:
    def test_one_hot_collapse(self, volume_setup):
        vbar, cands, ys = volume_setup
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(vbar))
        group = reconstruct.Rotations(cands.rotations)
        soft = reconstruct.em_step_soft(batch(ys, vbar, noise), vbar, group)
        mmse = reconstruct.em_step_mmse(batch(ys, vbar, noise), vbar, group)
        hard = reconstruct.hard_step(batch(ys, vbar, noise), vbar, group)
        assert np.allclose(soft, mmse, atol=1e-10)
        assert np.allclose(mmse, hard, atol=1e-10)

    def test_hard_step_brute_force_indices(self, volume_setup):
        vbar, cands, ys = volume_setup
        noise = forward.NoiseModel(sigma=0.1)
        x = [forward.rotate_volume(vbar, g).ravel() for g in cands.rotations]
        oracle = np.array([np.argmin([np.sum((y - t) ** 2) for t in x]) for y in ys])
        out = reconstruct.hard_step(batch(ys, vbar, noise), vbar, reconstruct.Rotations(cands.rotations))
        expected = sum(
            forward.rotate_volume(y.reshape(vbar.shape), cands.rotations[i].T)
            for y, i in zip(ys, oracle)
        ) / len(ys)
        assert np.allclose(out, expected, atol=1e-10)

    def test_hard_step_improves_template_correlation(self, volume_setup):
        vbar, cands, ys = volume_setup
        group = reconstruct.Rotations(cands.rotations)
        out = reconstruct.hard_step(batch(ys, vbar, forward.NoiseModel(sigma=0.05)), vbar, group)
        assert reconstruct.pcc(out, vbar) > 0.9


class TestGroups:
    def test_rotations_take_an_array_only(self, volume_setup):
        _, cands, _ = volume_setup
        with pytest.raises(TypeError):
            reconstruct.Rotations(cands)
        with pytest.raises(ValueError):
            reconstruct.Rotations(np.eye(3))

    def test_rotation_templates_are_the_candidate_templates(self, volume_setup):
        # the EM steps and the sweeps fill their templates through one loop
        vbar, cands, _ = volume_setup
        assert np.array_equal(reconstruct.Rotations(cands.rotations).templates(vbar), cands.templates)

    def test_shifts_reject_another_angular_length(self, polar_truth):
        with pytest.raises(estimators.DimensionMismatchError):
            reconstruct.Shifts(7).templates(polar_truth)


class TestRunReconstruction:
    def test_noiseless_fixed_point(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 1, 2, 5, 6])
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em")
        noise = forward.NoiseModel(sigma=1e-8 * forward.signal_scale(polar_truth))
        v, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, noise), polar_truth, SHIFTS, cfg, truth=polar_truth
        )
        assert len(trace) <= 2
        assert trace[-1]["pcc_truth"] == pytest.approx(1.0, abs=1e-9)
        assert trace[-1]["rel_change"] < cfg.rel_tol

    def test_max_iters_one(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(assignment="hard_map", max_iters=1, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, forward.NoiseModel(sigma=0.1)), polar_truth, SHIFTS, cfg
        )
        assert len(trace) == 1
        assert trace[0]["iter"] == 0

    def test_trace_without_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(max_iters=2, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, forward.NoiseModel(sigma=0.1)), polar_truth, SHIFTS, cfg
        )
        assert all(r["pcc_truth"] is None for r in trace)
        assert all(np.isfinite(r["pcc_template"]) for r in trace)

    def test_deterministic(self, polar_truth):
        rng_ys = noiseless_polar_obs(polar_truth, [1, 2, 4]) + 0.3
        cfg = reconstruct.ReconstructionConfig(assignment="mmse_align", max_iters=5)
        noise = forward.NoiseModel(sigma=0.3)
        v1, t1 = reconstruct.run_reconstruction(batch(rng_ys, polar_truth, noise), polar_truth, SHIFTS, cfg)
        v2, t2 = reconstruct.run_reconstruction(batch(rng_ys, polar_truth, noise), polar_truth, SHIFTS, cfg)
        assert np.array_equal(v1, v2)
        assert t1 == t2

    def test_bad_config(self):
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(assignment="annealed")
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(max_iters=0)
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(rel_tol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": float("nan")}, {"rel_tol": float("inf")}, {"max_iters": 2.5}, {"max_iters": True},
            {"rel_tol": 10**400},
        ],
    )
    def test_non_finite_tol_and_non_integer_iters_rejected(self, kwargs):
        # a NaN tolerance never stops EM early; a fractional count fails in
        # range(); 10**400 raised OverflowError, not ValueError
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(**kwargs)

    def test_numpy_integer_iters_accepted(self):
        assert reconstruct.ReconstructionConfig(max_iters=np.int64(3)).max_iters == 3


class TestBatch:
    def test_rejects_rows_of_another_size(self, polar_truth):
        with pytest.raises(estimators.DimensionMismatchError):
            reconstruct.Batch(np.zeros((3, polar_truth.size + 1)), polar_truth.shape, forward.NoiseModel(sigma=1.0))

    def test_rejects_a_structure_of_another_shape(self, polar_truth):
        b = batch(noiseless_polar_obs(polar_truth, [0, 1]), polar_truth, forward.NoiseModel(sigma=1.0))
        with pytest.raises(estimators.DimensionMismatchError):
            b.scores(polar_truth.T, reconstruct.Shifts(40))

    def test_holds_the_rows_and_their_squared_norms(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3, 5])
        b = batch(ys, polar_truth, forward.NoiseModel(sigma=1.0))
        assert len(b) == 3
        assert np.array_equal(b.shaped[1], ys[1].reshape(polar_truth.shape))
        assert np.array_equal(b.y_sq, np.einsum("md,md->m", ys, ys))


def counted_templates(group):
    """Record a copy of every structure ``group.templates`` expands."""
    calls = []
    templates = group.templates

    def counting(v):
        calls.append(np.array(v, copy=True))
        return templates(v)

    group.templates = counting
    return calls


@pytest.fixture(scope="module", params=["shifts", "rotations"])
def em_problem(request, polar_truth, volume_setup):
    # noisy observations of a truth and a different starting template
    rng = np.random.default_rng(11)
    if request.param == "shifts":
        truth, template = polar_truth, forward.make_polar_phantom(40, 8, seed=1)
        clean = noiseless_polar_obs(truth, rng.integers(8, size=12))
        make_group = partial(reconstruct.Shifts, 8)
    else:
        truth, cands, clean = volume_setup
        template = forward.make_phantom("asymmetric_L", 12, seed=2)
        make_group = partial(reconstruct.Rotations, cands.rotations)
    sigma = 0.5 * forward.signal_scale(truth)
    ys = clean + sigma * rng.normal(size=clean.shape)
    return ys, truth, template, make_group, forward.NoiseModel(sigma=sigma)


def test_a_shared_batch_gives_the_bytes_of_fresh_batches(em_problem):
    # every mode reads one batch and one scoring of the start template, yet
    # each gives what it gives on a batch of its own
    ys, truth, template, make_group, noise = em_problem
    shared, group = batch(ys, template, noise), make_group()
    calls, later_iters = counted_templates(group), 0
    for mode in reconstruct.ASSIGNMENTS:
        cfg = reconstruct.ReconstructionConfig(assignment=mode, max_iters=3, rel_tol=1e-30)
        fresh_group = make_group()
        fresh_calls = counted_templates(fresh_group)
        v_a, trace_a = reconstruct.run_reconstruction(shared, template, group, cfg, truth=truth)
        fresh = batch(ys, template, noise)
        v_b, trace_b = reconstruct.run_reconstruction(fresh, template, fresh_group, cfg, truth=truth)
        assert np.array_equal(v_a, v_b)
        assert trace_a == trace_b
        later_iters += len(trace_a) - 1
        assert sum(np.array_equal(v, template) for v in fresh_calls) == 1
    # the start template is expanded once per batch, not once per mode
    assert sum(np.array_equal(v, template) for v in calls) == 1
    assert len(calls) == 1 + later_iters


class TestPerCoordinateVariance:
    """Under a per-coordinate variance every step weighs each residual term
    by its own variance, so the batch's unweighted scores must not be used."""

    @pytest.fixture(scope="class")
    def problem(self):
        truth = forward.make_polar_phantom(12, 6, seed=4)
        template = forward.make_polar_phantom(12, 6, seed=5)
        rng = np.random.default_rng(12)
        # half the radial rows are far noisier than the rest
        tau = np.repeat(np.where(np.arange(12) % 2, 4.0, 0.0), 6) * forward.signal_scale(truth)
        noise = forward.NoiseModel(sigma=0.3 * forward.signal_scale(truth), tau=tau)
        clean = noiseless_polar_obs(truth, rng.integers(6, size=30))
        ys = clean + np.sqrt(noise.effective_variance(truth.size)) * rng.normal(size=clean.shape)
        log_w = direct_log_weights(ys, polar_templates(template), noise.effective_variance(truth.size))
        return ys, template, noise, log_w

    def test_soft(self, problem):
        ys, template, noise, log_w = problem
        w = np.exp(log_w)
        expected = sum(forward.rotate_polar((w[:, s] @ ys).reshape(template.shape), s) for s in range(6)) / len(ys)
        out = reconstruct.em_step_soft(batch(ys, template, noise), template, reconstruct.Shifts(6))
        assert np.allclose(out, expected, atol=1e-12)

    def test_mmse(self, problem):
        ys, template, noise, log_w = problem
        mean_angle, _ = estimators.mmse_angles(np.exp(log_w), 2.0 * np.pi * np.arange(6) / 6)
        shifts = np.round(mean_angle * 6 / (2.0 * np.pi)).astype(int) % 6
        out = reconstruct.em_step_mmse(batch(ys, template, noise), template, reconstruct.Shifts(6))
        assert np.allclose(out, polar_assigned_average(ys, shifts, template.shape), atol=1e-12)

    def test_hard_takes_the_largest_weight(self, problem):
        ys, template, noise, log_w = problem
        idx = np.argmax(log_w, axis=1)
        # the weighting decides: the unweighted least-squares element differs
        assert np.any(idx != estimators.Scores.of(ys, polar_templates(template)).map_indices())
        out = reconstruct.hard_step(batch(ys, template, noise), template, reconstruct.Shifts(6))
        assert np.allclose(out, polar_assigned_average(ys, idx, template.shape), atol=1e-12)

    @pytest.mark.parametrize("step", [reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step])
    def test_partly_zero_variance_rejected(self, problem, step):
        # a zero variance makes its coordinate infinitely informative
        ys, template, _, _ = problem
        noise = forward.NoiseModel(sigma=0.0, tau=np.repeat(np.where(np.arange(12) % 2, 1.0, 0.0), 6))
        with pytest.raises(ZeroVarianceError):
            step(batch(ys, template, noise), template, reconstruct.Shifts(6))


def test_hard_step_runs_at_zero_sigma(polar_truth):
    # the least-squares element needs no variance; the weighted steps do
    ys = noiseless_polar_obs(polar_truth, [2, 5])
    noise = forward.NoiseModel(sigma=0.0)
    assert np.array_equal(reconstruct.hard_step(batch(ys, polar_truth, noise), polar_truth, SHIFTS), polar_truth)
    for step in (reconstruct.em_step_soft, reconstruct.em_step_mmse):
        with pytest.raises(ZeroVarianceError):
            step(batch(ys, polar_truth, noise), polar_truth, SHIFTS)


class TestRegisteredPcc:
    def test_polar_is_max_over_every_shift(self, polar_truth):
        rng = np.random.default_rng(8)
        final = forward.rotate_polar(polar_truth, 3) + 0.3 * rng.normal(size=polar_truth.shape)
        oracle = max(
            reconstruct.pcc(forward.rotate_polar(final, s), polar_truth)
            for s in range(polar_truth.shape[1])
        )
        assert reconstruct.registered_pcc(final, polar_truth, SHIFTS) == oracle
        assert oracle > reconstruct.pcc(final, polar_truth)

    def test_volume_is_max_over_identity_and_candidates(self, volume_setup):
        vbar, cands, _ = volume_setup
        final = forward.rotate_volume(vbar, cands.rotations[2].T)
        oracle = max(
            [reconstruct.pcc(final, vbar)]
            + [reconstruct.pcc(forward.rotate_volume(final, g), vbar) for g in cands.rotations]
        )
        group = reconstruct.Rotations(cands.rotations, "trilinear")
        assert reconstruct.registered_pcc(final, vbar, group) == oracle
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
    ys = forward.rotated_stack(vbar, true) + noise.sigma * rng.normal(size=(count, vbar.size))
    return vbar, rotations, ys, noise


class TestWorkerMap:
    """Any order-preserving map gives the bytes of the builtin map."""

    @pytest.mark.parametrize("step", [reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step])
    def test_steps(self, pooled_setup, step):
        vbar, rotations, ys, noise = pooled_setup
        serial = step(batch(ys, vbar, noise), vbar, reconstruct.Rotations(rotations))
        pooled = step(batch(ys, vbar, noise), vbar, reconstruct.Rotations(rotations, map=two_threads))
        assert np.array_equal(pooled, serial)

    def test_registered_pcc(self, pooled_setup):
        vbar, rotations, ys, _ = pooled_setup
        final = ys[0].reshape(vbar.shape)
        serial = reconstruct.registered_pcc(final, vbar, reconstruct.Rotations(rotations))
        pooled = reconstruct.Rotations(rotations, map=two_threads)
        assert reconstruct.registered_pcc(final, vbar, pooled) == serial

    def test_run_reconstruction(self, pooled_setup):
        vbar, rotations, ys, noise = pooled_setup
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em", max_iters=2, rel_tol=1e-30)
        serial, pooled = reconstruct.Rotations(rotations), reconstruct.Rotations(rotations, map=two_threads)
        v_a, trace_a = reconstruct.run_reconstruction(batch(ys, vbar, noise), vbar, serial, cfg, truth=vbar)
        v_b, trace_b = reconstruct.run_reconstruction(batch(ys, vbar, noise), vbar, pooled, cfg, truth=vbar)
        assert np.array_equal(v_a, v_b)
        assert trace_a == trace_b

    def test_many_threads_fast_switching(self, pooled_setup):
        # more workers than cores, switching often: templates are written to
        # disjoint rows and sums are taken on the calling thread, so no
        # update can be lost
        vbar, rotations, ys, noise = pooled_setup
        serial = reconstruct.em_step_soft(batch(ys, vbar, noise), vbar, reconstruct.Rotations(rotations))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = reconstruct.Rotations(rotations, map=lambda fn, xs: bench.parallel_map(fn, xs, 8))
            pooled = reconstruct.em_step_soft(batch(ys, vbar, noise), vbar, eight)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)


def test_write_trace_round_trip(tmp_path, polar_truth):
    ys = noiseless_polar_obs(polar_truth, [0, 2])
    cfg = reconstruct.ReconstructionConfig(max_iters=3, rel_tol=1e-30)
    _, trace = reconstruct.run_reconstruction(
        batch(ys, polar_truth, forward.NoiseModel(sigma=0.2)), polar_truth, SHIFTS, cfg, truth=polar_truth
    )
    path = tmp_path / "trace.jsonl"
    reconstruct.write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    back = [json.loads(line) for line in lines]
    assert back == trace
    assert set(back[0]) == {"iter", "rel_change", "pcc_truth", "pcc_template"}
