from functools import partial

import numpy as np
import pytest
from helpers import rot_z

from orient_bayes import bench, estimators, forward, so3


def make_cands(rotations, templates):
    return estimators.CandidateSet(
        rotations=np.asarray(rotations, dtype=float),
        templates=np.asarray(templates, dtype=float),
        prior=so3.RotationPrior.uniform(),
    )


@pytest.fixture(scope="module")
def volume_setup():
    vbar = forward.make_phantom("gaussian_blobs", 16, seed=0)
    cands = estimators.CandidateSet.build(
        vbar, so3.RotationPrior.uniform(), count=60, seed=7
    )
    return vbar, cands


class TestPosteriorWeights:
    def test_hand_example_two_templates(self):
        # y = 0 against templates 0 and 1 at sigma = 1: (1, e^{-1/2}) normalized
        cands = make_cands([np.eye(3), rot_z(1.0)], [[0.0], [1.0]])
        w = estimators.posterior_weights([0.0], cands, forward.NoiseModel(sigma=1.0)).w
        assert w[0] == pytest.approx(0.62246, abs=1e-5)
        assert w[1] == pytest.approx(0.37754, abs=1e-5)

    def test_equal_residuals_split_evenly(self):
        cands = make_cands([np.eye(3), rot_z(1.0)], [[1.0, 0.0], [0.0, 1.0]])
        w = estimators.posterior_weights([0.0, 0.0], cands, forward.NoiseModel(sigma=0.7)).w
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_flat_likelihood_limit(self, volume_setup):
        vbar, cands = volume_setup
        w = estimators.posterior_weights(
            vbar.ravel(), cands, forward.NoiseModel(sigma=1e12)
        ).w
        assert np.max(np.abs(w - 1.0 / len(cands.rotations))) <= 1e-9

    @pytest.mark.parametrize("sigma", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_sums_to_one_across_sigma(self, volume_setup, sigma):
        vbar, cands = volume_setup
        rep = estimators.posterior_weights(vbar.ravel(), cands, forward.NoiseModel(sigma=sigma))
        assert np.sum(rep.w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(rep.log_w))
        assert np.all(rep.w >= 0)
        assert 1.0 <= rep.effective_sample_size <= len(cands.rotations) + 1e-9

    def test_monotone_likelihood(self):
        # pulling one template closer to y strictly raises its weight
        y = np.array([1.0, 0.0])
        noise = forward.NoiseModel(sigma=1.0)
        far = make_cands([np.eye(3), rot_z(1.0)], [[0.0, 0.0], [0.0, 1.0]])
        near = make_cands([np.eye(3), rot_z(1.0)], [[0.5, 0.0], [0.0, 1.0]])
        w_far = estimators.posterior_weights(y, far, noise).w
        w_near = estimators.posterior_weights(y, near, noise).w
        assert w_near[0] > w_far[0]

    def test_diagonal_tau_matches_scalar(self, volume_setup):
        vbar, cands = volume_setup
        y = vbar.ravel()
        scalar = estimators.posterior_weights(y, cands, forward.NoiseModel(sigma=0.5)).w
        vector = estimators.posterior_weights(
            y, cands, forward.NoiseModel(sigma=0.3, tau=np.full(cands.dim, 0.4))
        ).w
        assert np.allclose(scalar, vector, atol=1e-10)

    def test_dimension_mismatch(self, volume_setup):
        _, cands = volume_setup
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.posterior_weights(np.zeros(3), cands, forward.NoiseModel(sigma=1.0))

    def test_zero_variance_rejected(self):
        cands = make_cands([np.eye(3)], [[0.0, 1.0]])
        with pytest.raises(estimators.ZeroVarianceError):
            estimators.posterior_weights([0.0, 0.0], cands, forward.NoiseModel(sigma=0.0))

    def test_partly_zero_variance_rejected(self):
        # one zero coordinate variance makes that coordinate's residual
        # infinitely informative: the weights would be nan, not a posterior
        cands = make_cands([np.eye(3), rot_z(1.0)], [[0.0, 1.0], [1.0, 0.0]])
        noise = forward.NoiseModel(sigma=0.0, tau=np.array([0.0, 1.0]))
        with pytest.raises(estimators.ZeroVarianceError):
            estimators.posterior_weights([0.0, 0.0], cands, noise)
        with pytest.raises(estimators.ZeroVarianceError):
            estimators.mmse_estimate([0.0, 0.0], cands, noise)


class TestMapEstimate:
    def test_exact_template_match(self, volume_setup):
        _, cands = volume_setup
        rep = estimators.map_estimate(cands.templates[17], cands)
        assert rep.map_index == 17
        assert np.array_equal(rep.rotation, cands.rotations[17])

    def test_tie_breaks_to_lowest_index(self):
        cands = make_cands(
            [rot_z(t) for t in (0.1, 0.2, 0.3)],
            [[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]],
        )
        rep = estimators.map_estimate([0.0, 0.0], cands)
        assert rep.map_index == 0

    def test_brute_force_oracle(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(21)
        for _ in range(10):
            y = vbar.ravel() + rng.normal(size=cands.dim)
            dists = [np.sum((y - x) ** 2) for x in cands.templates]
            assert estimators.map_estimate(y, cands).map_index == int(np.argmin(dists))

    def test_tau_scaling_leaves_argmax(self, volume_setup):
        vbar, cands = volume_setup
        y = vbar.ravel() + np.random.default_rng(22).normal(size=cands.dim)
        idx = estimators.map_estimate(y, cands).map_index
        for scale in (1e-3, 1.0, 1e3):
            w = estimators.posterior_weights(
                y, cands, forward.NoiseModel(sigma=scale)
            ).w
            assert int(np.argmax(w)) == idx


class TestMmseEstimate:
    def test_single_candidate(self):
        g = rot_z(0.9)
        cands = make_cands([g], [[1.0, 2.0]])
        rep = estimators.mmse_estimate([1.0, 2.0], cands, forward.NoiseModel(sigma=1.0))
        assert np.allclose(rep.rotation, g, atol=1e-12)

    def test_symmetric_pair_averages_to_identity(self):
        cands = make_cands(
            [rot_z(0.2), rot_z(-0.2)], [[1.0, 0.0], [-1.0, 0.0]]
        )
        rep = estimators.mmse_estimate([0.0, 0.0], cands, forward.NoiseModel(sigma=1.0))
        assert np.allclose(rep.rotation, np.eye(3), atol=1e-10)

    def test_collapses_to_map_at_low_noise(self, volume_setup):
        vbar, cands = volume_setup
        y = cands.templates[5]
        sigma = 1e-6 * forward.signal_scale(vbar)
        mmse = estimators.mmse_estimate(y, cands, forward.NoiseModel(sigma=sigma))
        map_rep = estimators.map_estimate(y, cands)
        assert so3.geodesic_distance(mmse.rotation, map_rep.rotation) <= 1e-6

    def test_sigma_decade_collapse_nonincreasing(self, volume_setup):
        # the MMSE/MAP gap shrinks through sigma decades and ends below 1e-6
        vbar, cands = volume_setup
        rng = np.random.default_rng(30)
        scale = forward.signal_scale(vbar)
        y = cands.templates[11] + 1e-3 * scale * rng.normal(size=cands.dim)
        g_map = estimators.map_estimate(y, cands).rotation
        gaps = [
            so3.geodesic_distance(
                estimators.mmse_estimate(
                    y, cands, forward.NoiseModel(sigma=scale * 10.0**-k)
                ).rotation,
                g_map,
            )
            for k in range(1, 7)
        ]
        assert gaps[-1] <= 1e-6
        assert gaps[-3] >= gaps[-2] >= gaps[-1]

    def test_degenerate_average_flag(self):
        # I plus the three axis half-turns sum to the zero matrix exactly
        half_turns = [
            np.eye(3),
            np.diag([1.0, -1.0, -1.0]),
            np.diag([-1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, 1.0]),
        ]
        cands = make_cands(half_turns, np.zeros((4, 2)))
        rep = estimators.mmse_estimate([0.0, 0.0], cands, forward.NoiseModel(sigma=1.0))
        assert rep.degenerate_average
        assert so3.is_rotation(rep.rotation)

    def test_reports_ess_and_clean_flags(self, volume_setup):
        vbar, cands = volume_setup
        y = vbar.ravel() + 0.2 * np.random.default_rng(32).normal(size=cands.dim)
        noise = forward.NoiseModel(sigma=0.5)
        rep = estimators.mmse_estimate(y, cands, noise)
        weights = estimators.posterior_weights(y, cands, noise)
        assert rep.effective_sample_size == weights.effective_sample_size
        assert not rep.procrustes_nonunique and not rep.degenerate_average

    def test_batch_matches_scalar(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(31)
        ys = cands.templates[:4] + 0.1 * rng.normal(size=(4, cands.dim))
        noise = forward.NoiseModel(sigma=0.5)
        w = np.exp(estimators.Scores.of(ys, cands.templates).log_weights(noise.effective_variance()))
        batch, _, _ = estimators.mmse_rotations(w, cands.rotations)
        for y, g in zip(ys, batch):
            assert np.allclose(estimators.mmse_estimate(y, cands, noise).rotation, g, atol=1e-9)


class TestSharedScores:
    """The sweep scores a batch once and reads MAP and MMSE from those scores."""

    @pytest.fixture
    def batch(self, volume_setup):
        _, cands = volume_setup
        rng = np.random.default_rng(5)
        picked = cands.templates[rng.integers(len(cands.rotations), size=25)]
        ys = picked + 0.3 * rng.normal(size=(25, cands.dim))
        return ys, cands, forward.NoiseModel(sigma=0.3)

    def test_map_indices_match_per_call_path(self, batch):
        ys, cands, _ = batch
        shared = estimators.Scores.of(ys, cands.templates).map_indices()
        assert np.array_equal(shared, [estimators.map_estimate(y, cands).map_index for y in ys])

    def test_mmse_rotations_match_per_call_path(self, batch):
        ys, cands, noise = batch
        w = np.exp(estimators.Scores.of(ys, cands.templates).log_weights(noise.effective_variance()))
        shared, _, _ = estimators.mmse_rotations(w, cands.rotations)
        # the per-call path: its own log-weights, posterior average, Procrustes rounding
        w = np.exp(estimators.normalized_log_weights(ys, cands.templates, noise.effective_variance()))
        avg = w @ cands.rotations.reshape(len(cands.rotations), 9)
        per_call = so3.procrustes_project(avg.reshape(-1, 3, 3)).rotation
        assert np.array_equal(shared, per_call)

    def test_zero_variance_rejected(self, batch):
        ys, cands, _ = batch
        with pytest.raises(estimators.ZeroVarianceError):
            estimators.Scores.of(ys, cands.templates).log_weights(0.0)

    def test_dimension_mismatch(self, batch):
        ys, cands, _ = batch
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.Scores.of(ys[:, :-1], cands.templates)


class TestRawAverage:
    """The posterior average inside ``mmse_rotations``, seen through its rounding."""

    def test_one_hot(self, volume_setup):
        # a one-hot average is the candidate itself, bit for bit
        _, cands = volume_setup
        w = np.zeros(len(cands.rotations))
        w[3] = 1.0
        rotations, nonunique, degenerate = estimators.mmse_rotations(w, cands.rotations)
        assert np.array_equal(rotations, so3.procrustes_project(cands.rotations[3:4]).rotation)
        assert not nonunique[0] and not degenerate[0]

    def test_hand_average_of_z_pair(self):
        # the average is diag(cos t, cos t, 1), whose nearest rotation is I
        theta = 0.7
        rotations, nonunique, degenerate = estimators.mmse_rotations(
            np.array([0.5, 0.5]), np.stack([rot_z(theta), rot_z(-theta)])
        )
        assert np.allclose(rotations[0], np.eye(3), atol=1e-12)
        assert not nonunique[0] and not degenerate[0]

    def test_haar_mean_near_zero(self):
        # half the weight on I, half spread over a Haar sample: the sample's
        # mean is near zero, so the rounded mean stays near I
        gs = so3.sample_uniform(np.random.default_rng(9), 10_000)
        w = np.concatenate([[0.5], np.full(10_000, 0.5e-4)])
        rotations, _, _ = estimators.mmse_rotations(w, np.concatenate([np.eye(3)[None], gs]))
        assert so3.geodesic_distance(rotations[0], np.eye(3)) <= 0.05

    def test_length_mismatch(self, volume_setup):
        _, cands = volume_setup
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.mmse_rotations(np.ones(3), cands.rotations)


class TestSo2Angle:
    def test_one_hot(self):
        w = np.zeros(5)
        w[2] = 1.0
        angles = np.linspace(0.0, 2.0, 5)
        mean, degenerate = estimators.mmse_angles(w, angles)
        assert mean[0] == pytest.approx(angles[2], abs=1e-12)
        assert not degenerate[0]

    def test_symmetric_pair(self):
        mean, _ = estimators.mmse_angles(np.array([0.5, 0.5]), np.array([0.2, -0.2]))
        assert mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        mean, _ = estimators.mmse_angles(
            np.array([[0.75, 0.25], [0.25, 0.75]]), np.array([0.0, np.pi / 2])
        )
        assert mean == pytest.approx([0.32175, np.pi / 2 - 0.32175], abs=1e-5)

    def test_degenerate_resultant(self):
        mean, degenerate = estimators.mmse_angles(
            np.array([[0.5, 0.5], [0.75, 0.25]]), np.array([0.0, np.pi])
        )
        assert degenerate.tolist() == [True, False]
        assert mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.mmse_angles(np.ones(3), np.zeros(2))


class TestPermutationEquivariance:
    def test_weights_and_estimates(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(40)
        y = vbar.ravel() + 0.2 * rng.normal(size=cands.dim)
        perm = rng.permutation(len(cands.rotations))
        permuted = estimators.CandidateSet(
            rotations=cands.rotations[perm],
            templates=cands.templates[perm],
            prior=cands.prior,
        )
        noise = forward.NoiseModel(sigma=0.5)
        w = estimators.posterior_weights(y, cands, noise).w
        w_perm = estimators.posterior_weights(y, permuted, noise).w
        assert np.allclose(w_perm, w[perm], atol=1e-12)
        a = estimators.mmse_estimate(y, cands, noise).rotation
        b = estimators.mmse_estimate(y, permuted, noise).rotation
        assert np.allclose(a, b, atol=1e-10)
        assert np.allclose(
            estimators.map_estimate(y, cands).rotation,
            estimators.map_estimate(y, permuted).rotation,
            atol=1e-12,
        )


class TestCandidateSetBuild:
    def test_reproducible(self):
        vbar = forward.make_phantom("gaussian_blobs", 16, seed=1)
        a = estimators.CandidateSet.build(vbar, so3.RotationPrior.uniform(), 10, seed=3)
        b = estimators.CandidateSet.build(vbar, so3.RotationPrior.uniform(), 10, seed=3)
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.templates, b.templates)

    @pytest.mark.parametrize("projected", [False, True])
    def test_worker_map_same_bytes(self, projected):
        vbar = forward.make_phantom("gaussian_blobs", 12, seed=1)
        args = (vbar, so3.RotationPrior.uniform(), 40, 3)
        serial = estimators.CandidateSet.build(*args, projected=projected)
        two_threads = partial(bench.parallel_map, threads=2)
        pooled = estimators.CandidateSet.build(*args, projected=projected, map=two_threads)
        assert np.array_equal(pooled.rotations, serial.rotations)
        assert np.array_equal(pooled.templates, serial.templates)
        # the rows come from forward.rotated_stack, here called directly
        for map_ in (map, two_threads):
            stack = forward.rotated_stack(vbar, serial.rotations, projected=projected, map=map_)
            assert np.array_equal(stack, serial.templates)

    @pytest.mark.parametrize("prior", [so3.RotationPrior.uniform(), so3.RotationPrior.isotropic_gaussian(0.3)])
    def test_candidate_rotations_match_build(self, prior):
        vbar = forward.make_phantom("gaussian_blobs", 10, seed=1)
        cands = estimators.CandidateSet.build(vbar, prior, 12, seed=13)
        assert np.array_equal(estimators.candidate_rotations(prior, 12, seed=13), cands.rotations)

    def test_projected_dimension(self):
        vbar = forward.make_phantom("gaussian_blobs", 16, seed=1)
        cands = estimators.CandidateSet.build(
            vbar, so3.RotationPrior.uniform(), 5, seed=3, projected=True
        )
        assert cands.dim == 16 * 16

    def test_length_invariant(self):
        with pytest.raises(ValueError):
            estimators.CandidateSet(
                rotations=np.broadcast_to(np.eye(3), (2, 3, 3)),
                templates=np.zeros((3, 4)),
                prior=so3.RotationPrior.uniform(),
            )
