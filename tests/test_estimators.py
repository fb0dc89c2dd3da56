from functools import partial

import numpy as np
import pytest
from helpers import geodesic_distance, is_rotation, rot_z, signal_scale

from orient_bayes import bench, estimators, forward, so3


def make_cands(rotations, templates):
    return estimators.CandidateSet(
        rotations=np.asarray(rotations, dtype=float),
        templates=np.asarray(templates, dtype=float),
        prior=so3.RotationPrior.uniform(),
    )


def weights(y, cands, sigma):
    # posterior weights of one observation: a one-row batch of normalized_log_weights
    return np.exp(estimators.normalized_log_weights(np.ravel(y)[None], cands.templates, sigma**2))[0]


def map_index(y, cands):
    return int(estimators.Scores.of(np.ravel(y)[None], cands.templates).map_indices()[0])


def mmse(y, cands, sigma):
    # the rounded posterior mean of one observation
    return estimators.mmse_rotations(weights(y, cands, sigma), cands.rotations)[0]


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
        w = weights([0.0], cands, 1.0)
        assert w[0] == pytest.approx(0.62246, abs=1e-5)
        assert w[1] == pytest.approx(0.37754, abs=1e-5)

    def test_equal_residuals_split_evenly(self):
        cands = make_cands([np.eye(3), rot_z(1.0)], [[1.0, 0.0], [0.0, 1.0]])
        w = weights([0.0, 0.0], cands, 0.7)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_flat_likelihood_limit(self, volume_setup):
        vbar, cands = volume_setup
        w = weights(vbar.ravel(), cands, 1e12)
        assert np.max(np.abs(w - 1.0 / len(cands.rotations))) <= 1e-9

    @pytest.mark.parametrize("sigma", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_sums_to_one_across_sigma(self, volume_setup, sigma):
        vbar, cands = volume_setup
        log_w = estimators.normalized_log_weights(vbar.ravel()[None], cands.templates, sigma**2)
        w = np.exp(log_w)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(log_w))
        assert np.all(w >= 0)

    def test_monotone_likelihood(self):
        # pulling one template closer to y strictly raises its weight
        y = np.array([1.0, 0.0])
        sigma = 1.0
        far = make_cands([np.eye(3), rot_z(1.0)], [[0.0, 0.0], [0.0, 1.0]])
        near = make_cands([np.eye(3), rot_z(1.0)], [[0.5, 0.0], [0.0, 1.0]])
        w_far = weights(y, far, sigma)
        w_near = weights(y, near, sigma)
        assert w_near[0] > w_far[0]

    def test_dimension_mismatch(self, volume_setup):
        _, cands = volume_setup
        with pytest.raises(estimators.DimensionMismatchError):
            weights(np.zeros(3), cands, 1.0)

    def test_zero_variance_rejected(self):
        cands = make_cands([np.eye(3)], [[0.0, 1.0]])
        with pytest.raises(estimators.ZeroVarianceError):
            weights([0.0, 0.0], cands, 0.0)

    def test_a_log_weight_past_the_double_range_is_a_weight_of_zero(self):
        # at sigma = 2e-154, 2 sigma^2 = 8e-308: every squared distance but
        # the exact match's 0 overflows to -inf, without a warning
        cands = make_cands([np.eye(3), rot_z(1.0)], [[0.0, 0.0], [4.0, 0.0]])
        assert weights([0.0, 0.0], cands, 2e-154).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("sigma, y", [(2e-154, [1.0, 5.0]), (9e153, [1.5e154, -1.5e154])],
                             ids=["every-log-weight-overflows", "squared-norm-overflows"])
    def test_a_row_without_a_finite_log_weight_is_an_error(self, sigma, y):
        # sigma^2 is a normal double at both ends, but the row has no finite
        # maximum to normalize by; without the check its weights were nan
        cands = make_cands([np.eye(3), rot_z(1.0)], [[0.0, 0.0], [4.0, 0.0]])
        with pytest.raises(estimators.WeightRangeError, match="no finite maximum"):
            weights(y, cands, sigma)


class TestMapEstimate:
    def test_exact_template_match(self, volume_setup):
        _, cands = volume_setup
        assert map_index(cands.templates[17], cands) == 17

    def test_tie_breaks_to_lowest_index(self):
        cands = make_cands(
            [rot_z(t) for t in (0.1, 0.2, 0.3)],
            [[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]],
        )
        assert map_index([0.0, 0.0], cands) == 0

    def test_brute_force_oracle(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(21)
        for _ in range(10):
            y = vbar.ravel() + rng.normal(size=vbar.size)
            dists = [np.sum((y - x) ** 2) for x in cands.templates]
            assert map_index(y, cands) == int(np.argmin(dists))

    def test_sigma_scaling_leaves_argmax(self, volume_setup):
        vbar, cands = volume_setup
        y = vbar.ravel() + np.random.default_rng(22).normal(size=vbar.size)
        idx = map_index(y, cands)
        for scale in (1e-3, 1.0, 1e3):
            assert int(np.argmax(weights(y, cands, scale))) == idx


class TestMmseEstimate:
    def test_single_candidate(self):
        g = rot_z(0.9)
        cands = make_cands([g], [[1.0, 2.0]])
        rotation = mmse([1.0, 2.0], cands, 1.0)
        assert np.allclose(rotation, g, atol=1e-12)

    def test_symmetric_pair_averages_to_identity(self):
        cands = make_cands(
            [rot_z(0.2), rot_z(-0.2)], [[1.0, 0.0], [-1.0, 0.0]]
        )
        rotation = mmse([0.0, 0.0], cands, 1.0)
        assert np.allclose(rotation, np.eye(3), atol=1e-10)

    def test_collapses_to_map_at_low_noise(self, volume_setup):
        vbar, cands = volume_setup
        y = cands.templates[5]
        sigma = 1e-6 * signal_scale(vbar)
        rotation = mmse(y, cands, sigma)
        assert geodesic_distance(rotation, cands.rotations[map_index(y, cands)]) <= 1e-6

    def test_sigma_decade_collapse_nonincreasing(self, volume_setup):
        # the MMSE/MAP gap shrinks through sigma decades and ends below 1e-6
        vbar, cands = volume_setup
        rng = np.random.default_rng(30)
        scale = signal_scale(vbar)
        y = cands.templates[11] + 1e-3 * scale * rng.normal(size=vbar.size)
        g_map = cands.rotations[map_index(y, cands)]
        gaps = [
            geodesic_distance(mmse(y, cands, scale * 10.0**-k), g_map)
            for k in range(1, 7)
        ]
        assert gaps[-1] <= 1e-6
        assert gaps[-3] >= gaps[-2] >= gaps[-1]

    def test_zero_average_gives_a_rotation(self):
        # I plus the three axis half-turns sum to the zero matrix exactly
        half_turns = [
            np.eye(3),
            np.diag([1.0, -1.0, -1.0]),
            np.diag([-1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, 1.0]),
        ]
        cands = make_cands(half_turns, np.zeros((4, 2)))
        assert is_rotation(mmse([0.0, 0.0], cands, 1.0))

    def test_batch_matches_scalar(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(31)
        ys = cands.templates[:4] + 0.1 * rng.normal(size=(4, vbar.size))
        sigma = 0.5
        w = np.exp(estimators.Scores.of(ys, cands.templates).log_weights(sigma**2))
        batch = estimators.mmse_rotations(w, cands.rotations)
        for y, g in zip(ys, batch):
            assert np.allclose(mmse(y, cands, sigma), g, atol=1e-9)


class TestSharedScores:
    """The sweep scores a batch once and reads MAP and MMSE from those scores."""

    @pytest.fixture
    def batch(self, volume_setup):
        _, cands = volume_setup
        rng = np.random.default_rng(5)
        picked = cands.templates[rng.integers(len(cands.rotations), size=25)]
        ys = picked + 0.3 * rng.normal(size=(25, picked.shape[1]))
        return ys, cands, 0.3

    def test_map_indices_match_per_call_path(self, batch):
        ys, cands, _ = batch
        shared = estimators.Scores.of(ys, cands.templates).map_indices()
        assert np.array_equal(shared, [map_index(y, cands) for y in ys])

    def test_mmse_rotations_match_per_call_path(self, batch):
        ys, cands, sigma = batch
        w = np.exp(estimators.Scores.of(ys, cands.templates).log_weights(sigma**2))
        shared = estimators.mmse_rotations(w, cands.rotations)
        # the per-call path: its own log-weights, posterior average, Procrustes rounding
        w = np.exp(estimators.normalized_log_weights(ys, cands.templates, sigma**2))
        avg = w @ cands.rotations.reshape(len(cands.rotations), 9)
        per_call = so3.procrustes_project(avg.reshape(-1, 3, 3))
        assert np.array_equal(shared, per_call)

    def test_precomputed_norms_give_the_same_scores(self, batch):
        ys, cands, sigma = batch
        plain = estimators.Scores.of(ys, cands.templates)
        norms = estimators.squared_norms(ys), estimators.squared_norms(cands.templates)
        given = estimators.Scores.of(ys, cands.templates, *norms)
        for name in ("y_sq", "x_sq", "cross"):
            assert np.array_equal(getattr(given, name), getattr(plain, name)), name
        assert np.array_equal(given.log_weights(sigma**2), plain.log_weights(sigma**2))

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
        rotations = estimators.mmse_rotations(w, cands.rotations)
        assert np.array_equal(rotations, so3.procrustes_project(cands.rotations[3:4]))

    def test_hand_average_of_z_pair(self):
        # the average is diag(cos t, cos t, 1), whose nearest rotation is I
        theta = 0.7
        rotations = estimators.mmse_rotations(np.array([0.5, 0.5]), np.stack([rot_z(theta), rot_z(-theta)]))
        assert np.allclose(rotations[0], np.eye(3), atol=1e-12)

    def test_haar_mean_near_zero(self):
        # half the weight on I, half spread over a Haar sample: the sample's
        # mean is near zero, so the rounded mean stays near I
        gs = so3.sample_uniform(np.random.default_rng(9), 10_000)
        w = np.concatenate([[0.5], np.full(10_000, 0.5e-4)])
        rotations = estimators.mmse_rotations(w, np.concatenate([np.eye(3)[None], gs]))
        assert geodesic_distance(rotations[0], np.eye(3)) <= 0.05

    def test_length_mismatch(self, volume_setup):
        _, cands = volume_setup
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.mmse_rotations(np.ones(3), cands.rotations)


class TestSo2Angle:
    def test_one_hot(self):
        w = np.zeros(5)
        w[2] = 1.0
        angles = np.linspace(0.0, 2.0, 5)
        mean = estimators.mmse_angles(w, angles)
        assert mean[0] == pytest.approx(angles[2], abs=1e-12)

    def test_symmetric_pair(self):
        mean = estimators.mmse_angles(np.array([0.5, 0.5]), np.array([0.2, -0.2]))
        assert mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        mean = estimators.mmse_angles(
            np.array([[0.75, 0.25], [0.25, 0.75]]), np.array([0.0, np.pi / 2])
        )
        assert mean == pytest.approx([0.32175, np.pi / 2 - 0.32175], abs=1e-5)

    def test_degenerate_resultant(self):
        # the first row's resultant is zero; the second row keeps its direction
        mean = estimators.mmse_angles(np.array([[0.5, 0.5], [0.75, 0.25]]), np.array([0.0, np.pi]))
        assert mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(estimators.DimensionMismatchError):
            estimators.mmse_angles(np.ones(3), np.zeros(2))


class TestPermutationEquivariance:
    def test_weights_and_estimates(self, volume_setup):
        vbar, cands = volume_setup
        rng = np.random.default_rng(40)
        y = vbar.ravel() + 0.2 * rng.normal(size=vbar.size)
        perm = rng.permutation(len(cands.rotations))
        permuted = estimators.CandidateSet(
            rotations=cands.rotations[perm],
            templates=cands.templates[perm],
            prior=cands.prior,
        )
        sigma = 0.5
        assert np.allclose(weights(y, permuted, sigma), weights(y, cands, sigma)[perm], atol=1e-12)
        assert np.allclose(mmse(y, cands, sigma), mmse(y, permuted, sigma), atol=1e-10)
        assert np.allclose(
            cands.rotations[map_index(y, cands)], permuted.rotations[map_index(y, permuted)], atol=1e-12
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
        assert cands.templates.shape == (5, 16 * 16)

    def test_length_invariant(self):
        with pytest.raises(ValueError):
            estimators.CandidateSet(
                rotations=np.broadcast_to(np.eye(3), (2, 3, 3)),
                templates=np.zeros((3, 4)),
                prior=so3.RotationPrior.uniform(),
            )
