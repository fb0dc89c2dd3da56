import json
import sys
from functools import partial

import numpy as np
import pytest
from helpers import blas_at_two_threads
from scipy.special import logsumexp

from orient_bayes import bench, estimators, forward, reconstruct, so3
from orient_bayes.estimators import ZeroVarianceError


@pytest.fixture(scope="module")
def polar_truth():
    return forward.make_polar_phantom(40, 8, seed=0)


SHIFTS = reconstruct.Shifts(8)  # the shift group of polar_truth


def batch(ys, v, sigma):
    # the observations as a batch of structures shaped like v
    return reconstruct.Batch(ys, np.shape(v), sigma)


def one_step(step, b, v, group):
    # the step from iterate v, handed v's scores as run_reconstruction hands them
    return step(b, b.scores(v, group), group)


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
        out = one_step(reconstruct.em_step_soft, batch(ys, polar_truth, 1e-6), polar_truth, SHIFTS)
        assert np.allclose(out, polar_truth, atol=1e-12)

    def test_hand_computed_four_term_sum(self):
        # four shifts with distinct residuals: check against a direct
        # evaluation of sum_l w_l (l . y)
        img = forward.make_polar_phantom(12, 4, seed=3)
        y = forward.rotate_polar(img, -1).ravel() + 0.05
        sigma = 0.5
        x = polar_templates(img)
        w = np.exp(
            estimators.normalized_log_weights(y[None], x, sigma**2)
        )[0]
        expected = sum(
            w[s] * forward.rotate_polar(y.reshape(img.shape), s) for s in range(4)
        )
        out = one_step(reconstruct.em_step_soft, batch(y[None], img, sigma), img, reconstruct.Shifts(4))
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_shifted_copies_recover_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [2, 5])
        out = one_step(reconstruct.hard_step, batch(ys, polar_truth, 1e-9), polar_truth, SHIFTS)
        assert np.array_equal(out, polar_truth)

    def test_hard_step_brute_force_indices(self, polar_truth):
        rng = np.random.default_rng(5)
        sigma = 0.4
        ys = noiseless_polar_obs(polar_truth, [1, 3, 6]) + 0.4 * rng.normal(
            size=(3, polar_truth.size)
        )
        x = polar_templates(polar_truth)
        oracle = np.array(
            [np.argmin([np.sum((y - t) ** 2) for t in x]) for y in ys]
        )
        out = one_step(reconstruct.hard_step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
        expected = polar_assigned_average(ys, oracle, polar_truth.shape)
        assert np.allclose(out, expected, atol=1e-12)

    def test_one_hot_collapse_all_steps_agree(self, polar_truth):
        # at tiny sigma on exact-grid data every posterior is one-hot, so the
        # three update rules coincide
        ys = noiseless_polar_obs(polar_truth, [0, 2, 4, 7])
        sigma = 1e-8 * forward.signal_scale(polar_truth)
        soft = one_step(reconstruct.em_step_soft, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
        mmse = one_step(reconstruct.em_step_mmse, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
        hard = one_step(reconstruct.hard_step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
        assert np.allclose(soft, mmse, atol=1e-10)
        assert np.allclose(mmse, hard, atol=1e-10)

    def test_permutation_invariance(self, polar_truth):
        rng = np.random.default_rng(6)
        ys = noiseless_polar_obs(polar_truth, [0, 1, 3, 5]) + 0.2 * rng.normal(
            size=(4, polar_truth.size)
        )
        sigma = 0.2
        perm = rng.permutation(4)
        for step in (reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step):
            a = one_step(step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
            b = one_step(step, batch(ys[perm], polar_truth, sigma), polar_truth, SHIFTS)
            assert np.allclose(a, b, atol=1e-10)

    def test_fixed_alignment_linearity(self, polar_truth):
        # with the shift decisions frozen, the averaging is linear in the data;
        # scaling the data keeps every MAP shift, so ys and 3 ys share them
        ys = noiseless_polar_obs(polar_truth, [1, 4])
        sigma = 0.1
        a = one_step(reconstruct.hard_step, batch(3.0 * ys, polar_truth, sigma), polar_truth, SHIFTS)
        b = 3.0 * one_step(reconstruct.hard_step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
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
    for seed in range(6):
        rng = np.random.default_rng(seed)
        truth = forward.make_polar_phantom(20, 12, seed=seed)
        clean = np.stack([forward.rotate_polar(truth, s).ravel() for s in rng.integers(12, size=40)])
        ys = clean + sigma * rng.normal(size=clean.shape)
        v = forward.make_polar_phantom(20, 12, seed=seed + 100)
        ll = [polar_log_likelihood(ys, v, sigma)]
        for _ in range(15):
            v = one_step(reconstruct.em_step_soft, batch(ys, v, sigma), v, reconstruct.Shifts(12))
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
        sigma = 1e-8 * forward.signal_scale(vbar)
        group = reconstruct.Rotations(cands.rotations)
        soft = one_step(reconstruct.em_step_soft, batch(ys, vbar, sigma), vbar, group)
        mmse = one_step(reconstruct.em_step_mmse, batch(ys, vbar, sigma), vbar, group)
        hard = one_step(reconstruct.hard_step, batch(ys, vbar, sigma), vbar, group)
        assert np.allclose(soft, mmse, atol=1e-10)
        assert np.allclose(mmse, hard, atol=1e-10)

    def test_hard_step_brute_force_indices(self, volume_setup):
        vbar, cands, ys = volume_setup
        sigma = 0.1
        x = [forward.rotate_volume(vbar, g).ravel() for g in cands.rotations]
        oracle = np.array([np.argmin([np.sum((y - t) ** 2) for t in x]) for y in ys])
        out = one_step(reconstruct.hard_step, batch(ys, vbar, sigma), vbar, reconstruct.Rotations(cands.rotations))
        expected = sum(
            forward.rotate_volume(y.reshape(vbar.shape), cands.rotations[i].T)
            for y, i in zip(ys, oracle)
        ) / len(ys)
        assert np.allclose(out, expected, atol=1e-10)

    def test_hard_step_improves_template_correlation(self, volume_setup):
        vbar, cands, ys = volume_setup
        group = reconstruct.Rotations(cands.rotations)
        out = one_step(reconstruct.hard_step, batch(ys, vbar, 0.05), vbar, group)
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

    @pytest.mark.parametrize(
        "make", [lambda: reconstruct.Shifts(0), lambda: reconstruct.Rotations(np.empty((0, 3, 3)))],
        ids=["shifts", "rotations"],
    )
    def test_rejects_a_group_with_no_elements(self, make):
        # an empty group used to construct, and its first scoring failed with
        # numpy's "need at least one array to concatenate"
        with pytest.raises(ValueError, match="at least one element"):
            make()


class TestRunReconstruction:
    def test_noiseless_fixed_point(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 1, 2, 5, 6])
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em")
        sigma = 1e-8 * forward.signal_scale(polar_truth)
        v, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, sigma), polar_truth, SHIFTS, cfg, truth=polar_truth
        )
        assert len(trace) <= 2
        assert trace[-1]["pcc_truth"] == pytest.approx(1.0, abs=1e-9)
        assert trace[-1]["rel_change"] < cfg.rel_tol

    def test_max_iters_one(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(assignment="hard_map", max_iters=1, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, 0.1), polar_truth, SHIFTS, cfg
        )
        assert len(trace) == 1
        assert trace[0]["iter"] == 0

    def test_trace_without_truth(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3])
        cfg = reconstruct.ReconstructionConfig(max_iters=2, rel_tol=1e-30)
        _, trace = reconstruct.run_reconstruction(
            batch(ys, polar_truth, 0.1), polar_truth, SHIFTS, cfg
        )
        assert all(r["pcc_truth"] is None for r in trace)
        assert all(np.isfinite(r["pcc_template"]) for r in trace)

    def test_deterministic(self, polar_truth):
        rng_ys = noiseless_polar_obs(polar_truth, [1, 2, 4]) + 0.3
        cfg = reconstruct.ReconstructionConfig(assignment="mmse_align", max_iters=5)
        sigma = 0.3
        v1, t1 = reconstruct.run_reconstruction(batch(rng_ys, polar_truth, sigma), polar_truth, SHIFTS, cfg)
        v2, t2 = reconstruct.run_reconstruction(batch(rng_ys, polar_truth, sigma), polar_truth, SHIFTS, cfg)
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
            {"rel_tol": 10**400}, {"rel_tol": True}, {"rel_tol": "x"},
        ],
    )
    def test_non_finite_tol_and_non_integer_iters_rejected(self, kwargs):
        # a NaN tolerance never stops EM early; a fractional count fails in
        # range(); 10**400 raised OverflowError and "x" TypeError, not ValueError
        with pytest.raises(ValueError):
            reconstruct.ReconstructionConfig(**kwargs)

    def test_numpy_integer_iters_accepted(self):
        assert reconstruct.ReconstructionConfig(max_iters=np.int64(3)).max_iters == 3


class TestBatch:
    def test_rejects_rows_of_another_size(self, polar_truth):
        with pytest.raises(estimators.DimensionMismatchError):
            reconstruct.Batch(np.zeros((3, polar_truth.size + 1)), polar_truth.shape, 1.0)

    def test_rejects_a_structure_of_another_shape(self, polar_truth):
        b = batch(noiseless_polar_obs(polar_truth, [0, 1]), polar_truth, 1.0)
        with pytest.raises(estimators.DimensionMismatchError):
            b.scores(polar_truth.T, reconstruct.Shifts(40))

    @pytest.mark.parametrize("sigma", [1e-160, 1e300, -1.0, np.nan, np.inf])
    def test_rejects_an_unusable_sigma(self, polar_truth, sigma):
        # 1e-160 squares to a subnormal, which gave all-NaN weights without an
        # error; 1e300 squares past the largest double
        with pytest.raises(ValueError):
            batch(noiseless_polar_obs(polar_truth, [0, 1]), polar_truth, sigma)

    def test_rejects_an_empty_batch(self, polar_truth):
        # with no rows the soft step averaged to all-NaN under a RuntimeWarning,
        # the MMSE and hard steps divided by zero, and EM traced nan and inf
        with pytest.raises(ValueError, match="at least one observation"):
            reconstruct.Batch(np.zeros((0, polar_truth.size)), polar_truth.shape, 1.0)

    def test_holds_the_rows_and_their_squared_norms(self, polar_truth):
        ys = noiseless_polar_obs(polar_truth, [0, 3, 5])
        b = batch(ys, polar_truth, 1.0)
        assert len(b) == 3
        assert np.array_equal(b.shaped[1], ys[1].reshape(polar_truth.shape))
        assert np.array_equal(b.y_sq, np.einsum("md,md->m", ys, ys))


def counted_templates(group):
    """Record a copy of every structure ``group.templates`` expands, once per
    window of elements."""
    calls = []
    templates = group.templates

    def counting(v, *window):
        calls.append(np.array(v, copy=True))
        return templates(v, *window)

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
    return ys, truth, template, make_group, sigma


def test_a_shared_batch_gives_the_bytes_of_fresh_batches(em_problem):
    # every mode reads one batch and one scoring of the start template, yet
    # each gives what it gives on a batch of its own
    ys, truth, template, make_group, sigma = em_problem
    shared, group = batch(ys, template, sigma), make_group()
    calls, later_iters = counted_templates(group), 0
    for mode in reconstruct.ASSIGNMENTS:
        cfg = reconstruct.ReconstructionConfig(assignment=mode, max_iters=3, rel_tol=1e-30)
        fresh_group = make_group()
        fresh_calls = counted_templates(fresh_group)
        v_a, trace_a = reconstruct.run_reconstruction(shared, template, group, cfg, truth=truth)
        fresh = batch(ys, template, sigma)
        v_b, trace_b = reconstruct.run_reconstruction(fresh, template, fresh_group, cfg, truth=truth)
        assert np.array_equal(v_a, v_b)
        assert trace_a == trace_b
        later_iters += len(trace_a) - 1
        assert sum(np.array_equal(v, template) for v in fresh_calls) == 1
    # the start template is expanded once per batch, not once per mode
    assert sum(np.array_equal(v, template) for v in calls) == 1
    assert len(calls) == 1 + later_iters


@pytest.mark.parametrize("mode", reconstruct.ASSIGNMENTS)
def test_the_loop_scores_each_iterate_once(monkeypatch, em_problem, mode):
    # run_reconstruction scores each iterate but the last once and hands the
    # step those very scores; no step scores anything itself
    ys, truth, template, make_group, sigma = em_problem
    scored, handed, iterates = [], [], [template]
    scores = reconstruct.Batch.scores

    def scoring(b, v, group):
        out = scores(b, v, group)
        scored.append((np.array(v, copy=True), out))
        return out

    def handing(step):
        def wrapped(b, s, group):
            handed.append(s)
            iterates.append(step(b, s, group))
            return iterates[-1]

        return wrapped

    monkeypatch.setattr(reconstruct.Batch, "scores", scoring)
    for name, step in reconstruct._STEPS.items():
        monkeypatch.setitem(reconstruct._STEPS, name, handing(step))
    cfg = reconstruct.ReconstructionConfig(assignment=mode, max_iters=3, rel_tol=1e-30)
    _, trace = reconstruct.run_reconstruction(batch(ys, template, sigma), template, make_group(), cfg, truth=truth)
    assert len(scored) == len(handed) == len(trace)
    for (v, out), s, iterate in zip(scored, handed, iterates):
        assert s is out
        assert np.array_equal(v, iterate)


def test_hard_step_runs_at_zero_sigma(polar_truth):
    # the least-squares element needs no variance; the weighted steps do
    ys = noiseless_polar_obs(polar_truth, [2, 5])
    sigma = 0.0
    out = one_step(reconstruct.hard_step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
    assert np.array_equal(out, polar_truth)
    for step in (reconstruct.em_step_soft, reconstruct.em_step_mmse):
        with pytest.raises(ZeroVarianceError):
            one_step(step, batch(ys, polar_truth, sigma), polar_truth, SHIFTS)
    cfg = reconstruct.ReconstructionConfig(assignment="hard_map", max_iters=2)
    v, _ = reconstruct.run_reconstruction(batch(ys, polar_truth, sigma), polar_truth, SHIFTS, cfg)
    assert np.array_equal(v, polar_truth)


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


class TestWindowedScores:
    """A candidate's scores do not depend on the other candidates: a batch
    scores its group one window of CHUNK elements at a time."""

    def test_each_window_scores_as_a_group_of_its_own(self):
        count = 2 * reconstruct.CHUNK + 11
        vbar = forward.make_phantom("gaussian_blobs", 10, seed=3)
        rotations = estimators.candidate_rotations(so3.RotationPrior.uniform(), count, seed=5)
        ys = np.random.default_rng(6).normal(size=(estimators.SCORE_BLOCK + 7, vbar.size))
        group = reconstruct.Rotations(rotations)
        windows = group.windows()
        assert len(windows) == 3
        assert np.array_equal(np.concatenate([np.arange(count)[w] for w in windows]), np.arange(count))
        scores = batch(ys, vbar, 1.0).scores(vbar, group)
        assert np.array_equal(scores.y_sq, estimators.squared_norms(ys))
        for window in windows:
            assert window.stop - window.start <= reconstruct.CHUNK
            alone = batch(ys, vbar, 1.0).scores(vbar, reconstruct.Rotations(rotations[window]))
            assert np.array_equal(scores.cross[:, window], alone.cross)
            assert np.array_equal(scores.x_sq[window], alone.x_sq)

    def test_a_shift_group_is_one_product(self, polar_truth):
        # a group of at most CHUNK shifts is one window: one Scores.of product
        rng = np.random.default_rng(3)
        ys = noiseless_polar_obs(polar_truth, rng.integers(8, size=30)) + 0.5 * rng.normal(size=(30, polar_truth.size))
        assert len(SHIFTS.windows()) == 1
        scores = batch(ys, polar_truth, 0.5).scores(polar_truth, SHIFTS)
        oracle = estimators.Scores.of(ys, polar_templates(polar_truth))
        assert np.array_equal(scores.cross, oracle.cross)
        assert np.array_equal(scores.x_sq, oracle.x_sq)


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
    sigma = 0.5 * forward.signal_scale(vbar)
    ys = forward.rotated_stack(vbar, true) + sigma * rng.normal(size=(count, vbar.size))
    return vbar, rotations, ys, sigma


class TestWorkerMap:
    """Any order-preserving map gives the bytes of the builtin map."""

    @pytest.mark.parametrize("step", [reconstruct.em_step_soft, reconstruct.em_step_mmse, reconstruct.hard_step])
    def test_steps(self, pooled_setup, step):
        vbar, rotations, ys, sigma = pooled_setup
        serial = one_step(step, batch(ys, vbar, sigma), vbar, reconstruct.Rotations(rotations))
        pooled = one_step(step, batch(ys, vbar, sigma), vbar, reconstruct.Rotations(rotations, map=two_threads))
        assert np.array_equal(pooled, serial)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_batch_products_in_blocks(self, threads):
        # the scoring rows and the soft sum's columns span two full blocks and
        # a short one, and each block is written into its own part of one
        # output by whichever worker runs it; eight workers switch often
        angular, radial = 12, 2 * reconstruct.SOFT_BLOCK // 12 + 5
        m = 2 * estimators.SCORE_BLOCK + 7
        assert (radial * angular) % reconstruct.SOFT_BLOCK and m % estimators.SCORE_BLOCK
        v = forward.make_polar_phantom(radial, angular, seed=4)
        rng = np.random.default_rng(8)
        ys = noiseless_polar_obs(v, rng.integers(angular, size=m)) + 0.5 * rng.normal(size=(m, v.size))
        serial = reconstruct.Shifts(angular)
        pooled = reconstruct.Shifts(angular, map=lambda fn, xs: bench.parallel_map(fn, xs, threads))
        cross = batch(ys, v, 0.5).scores(v, serial).cross
        step = one_step(reconstruct.em_step_soft, batch(ys, v, 0.5), v, serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if threads > 2 else interval)
        try:
            pooled_cross = batch(ys, v, 0.5).scores(v, pooled).cross
            pooled_step = one_step(reconstruct.em_step_soft, batch(ys, v, 0.5), v, pooled)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled_cross, cross)
        assert np.array_equal(pooled_step, step)
        # one product each, up to rounding
        assert np.allclose(cross, ys @ polar_templates(v).T, rtol=1e-12, atol=1e-9)
        b = batch(ys, v, 0.5)
        colsum = np.exp(b.scores(v, serial).log_weights(b.var)).T @ ys
        oracle = sum(forward.rotate_polar(u.reshape(v.shape), s) for s, u in enumerate(colsum)) / m
        assert np.allclose(step, oracle, rtol=1e-12, atol=1e-12)

    def test_builtin_map_runs_the_blocks_on_one_blas_thread(self):
        # a caller's BLAS at two threads: the blocks still run on one, as a
        # pool's tasks do, and the caller's count is back afterwards
        angular, m = 12, estimators.SCORE_BLOCK + 7
        v = forward.make_polar_phantom(reconstruct.SOFT_BLOCK // angular + 5, angular, seed=4)
        ys = np.random.default_rng(8).normal(size=(m, v.size))
        with blas_at_two_threads() as counts:
            seen = []

            def recording(fn, xs):
                for x in xs:
                    seen.append(counts())
                    yield fn(x)

            group = reconstruct.Shifts(angular, map=recording)
            one_step(reconstruct.em_step_soft, batch(ys, v, 0.5), v, group)
            # two scoring blocks and two soft blocks, then the back-shifts,
            # copies that call no BLAS
            assert len(seen) == 4 + angular
            assert seen[:4] == [[1] * len(counts())] * 4
            assert counts() == [2] * len(counts())

    def test_registered_pcc(self, pooled_setup):
        vbar, rotations, ys, _ = pooled_setup
        final = ys[0].reshape(vbar.shape)
        serial = reconstruct.registered_pcc(final, vbar, reconstruct.Rotations(rotations))
        pooled = reconstruct.Rotations(rotations, map=two_threads)
        assert reconstruct.registered_pcc(final, vbar, pooled) == serial

    def test_run_reconstruction(self, pooled_setup):
        vbar, rotations, ys, sigma = pooled_setup
        cfg = reconstruct.ReconstructionConfig(assignment="soft_em", max_iters=2, rel_tol=1e-30)
        serial, pooled = reconstruct.Rotations(rotations), reconstruct.Rotations(rotations, map=two_threads)
        v_a, trace_a = reconstruct.run_reconstruction(batch(ys, vbar, sigma), vbar, serial, cfg, truth=vbar)
        v_b, trace_b = reconstruct.run_reconstruction(batch(ys, vbar, sigma), vbar, pooled, cfg, truth=vbar)
        assert np.array_equal(v_a, v_b)
        assert trace_a == trace_b

    def test_many_threads_fast_switching(self, pooled_setup):
        # more workers than cores, switching often: templates are written to
        # disjoint rows and sums are taken on the calling thread, so no
        # update can be lost
        vbar, rotations, ys, sigma = pooled_setup
        serial = one_step(reconstruct.em_step_soft, batch(ys, vbar, sigma), vbar, reconstruct.Rotations(rotations))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = reconstruct.Rotations(rotations, map=lambda fn, xs: bench.parallel_map(fn, xs, 8))
            pooled = one_step(reconstruct.em_step_soft, batch(ys, vbar, sigma), vbar, eight)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial)


def test_write_trace_round_trip(tmp_path, polar_truth):
    ys = noiseless_polar_obs(polar_truth, [0, 2])
    cfg = reconstruct.ReconstructionConfig(max_iters=3, rel_tol=1e-30)
    _, trace = reconstruct.run_reconstruction(
        batch(ys, polar_truth, 0.2), polar_truth, SHIFTS, cfg, truth=polar_truth
    )
    path = tmp_path / "trace.jsonl"
    reconstruct.write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    back = [json.loads(line) for line in lines]
    assert back == trace
    assert set(back[0]) == {"iter", "rel_change", "pcc_truth", "pcc_template"}
