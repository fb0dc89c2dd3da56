import numpy as np
import pytest
from helpers import geodesic_distance, horn_rotation, is_rotation, rot_z, uniform_angle_density
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.stats import kstest

from orient_bayes import estimators, so3


def haar_angle_cdf(omega):
    return (np.asarray(omega) - np.sin(omega)) / np.pi


class TestGeodesic:
    def test_identity(self):
        assert geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.5, np.pi / 2, 3.0, np.pi])
    def test_z_rotation_angle(self, theta):
        assert geodesic_distance(np.eye(3), rot_z(theta)) == pytest.approx(theta, abs=1e-12)

    def test_bi_invariance(self):
        rng = np.random.default_rng(11)
        for g1, g2, h in zip(*(so3.sample_uniform(rng, 30) for _ in range(3))):
            d = geodesic_distance(g1, g2)
            assert geodesic_distance(h @ g1, h @ g2) == pytest.approx(d, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        g1, g2 = so3.sample_uniform(rng, 2)
        assert geodesic_distance(g1, g2) == pytest.approx(geodesic_distance(g2, g1), abs=1e-12)


def assert_horn_optimal(a, rot):
    """rot maximizes tr(R^T a): within 1e-6 rad of Horn's rotation where K's top
    eigenvalue is separated from the next by at least 1e-3 of the largest
    |eigenvalue|, and always to 1e-12 of sum |a| in the objective, which is all
    a repeated top eigenvalue (a non-unique maximizer) leaves to compare."""
    oracle, lam = horn_rotation(a)
    assert abs(np.trace(rot.T @ a) - np.trace(oracle.T @ a)) <= 1e-12 * np.sum(np.abs(a))
    gap = lam[-1] - lam[-2]
    if gap > 0 and gap >= 1e-3 * np.max(np.abs(lam)):
        assert geodesic_distance(oracle, rot) <= 1e-6


class TestProcrustes:
    def test_rotation_fixed_point(self):
        g = rot_z(0.3)
        assert np.allclose(so3.procrustes_project(g), g, atol=1e-12)

    def test_scale_invariance(self):
        g = rot_z(0.3)
        assert np.allclose(so3.procrustes_project(2.0 * g), g, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            r1 = so3.procrustes_project(a)
            r2 = so3.procrustes_project(r1)
            assert np.linalg.norm(r1 - r2) < 1e-10

    def test_outputs_are_rotations(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert is_rotation(so3.procrustes_project(rng.normal(size=(3, 3))))

    def test_brute_force_oracle(self):
        # Exhaustive trace maximization over a dense Haar sample.  The
        # covering radius of a 50k i.i.d. sample is ~0.15 rad, so per-matrix
        # gaps are bounded by that resolution; the mean sits near 0.07.
        rng = np.random.default_rng(7)
        sample = so3.sample_uniform(rng, 50_000)
        flat = sample.reshape(-1, 9)
        gaps = []
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            best = sample[np.argmax(flat @ a.reshape(9))]
            proj = so3.procrustes_project(a)
            # the projection must score at least as well as the best sample
            assert np.trace(proj.T @ a) >= np.trace(best.T @ a) - 1e-9
            gaps.append(geodesic_distance(best, proj))
        assert max(gaps) <= 0.25
        assert np.mean(gaps) <= 0.10

    @settings(max_examples=500, deadline=None)
    @given(
        a=st.one_of(
            hnp.arrays(np.float64, (3, 3), elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
            hnp.arrays(np.float64, (3, 3), elements=st.integers(-2, 2).map(float)),
        )
    )
    def test_matches_the_quaternion_oracle(self, a):
        # integer entries give the ties: reflection ties, rank <= 1 and zero
        assert_horn_optimal(a, so3.procrustes_project(a))

    def test_mmse_rotations_match_the_quaternion_oracle(self):
        # each row's rounding against the oracle on that row's posterior mean
        rng = np.random.default_rng(21)
        grid = so3.sample_uniform(rng, 40)
        w = rng.dirichlet(np.full(40, 0.3), size=200)
        rounded = estimators.mmse_rotations(w, grid)
        for row, rot in zip(w, rounded):
            assert_horn_optimal(np.einsum("l,lij->ij", row, grid), rot)

    def test_rank_deficient_gives_a_rotation(self):
        # the minimizer is not unique; one of them is returned
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        assert is_rotation(so3.procrustes_project(a))

    def test_reflection_tie_gives_a_rotation(self):
        # equal smallest singular values with negative determinant correction
        assert is_rotation(so3.procrustes_project(np.diag([2.0, 1.0, -1.0])))

    def test_batch_matches_scalar(self):
        # a stack gives each matrix's own rotation bit for bit
        rank_one = np.zeros((3, 3))
        rank_one[0, 0] = 1.0
        special = [rot_z(np.pi), np.diag([1.0, -1.0, -1.0]), np.diag([2.0, 1.0, -1.0]),
                   np.diag([1.0, 1.0, -1.0]), rank_one, np.zeros((3, 3))]
        mats = np.concatenate([special, np.random.default_rng(8).normal(size=(40, 3, 3))])
        batch = so3.procrustes_project(mats)
        assert batch.shape == mats.shape
        for a, rot in zip(mats, batch):
            assert np.array_equal(so3.procrustes_project(a), rot)
            assert is_rotation(rot)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((2, 2, 3, 3)), np.full((3, 3), np.nan)])
    def test_rejects_non_3x3_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            so3.procrustes_project(bad)


class TestUniformSampling:
    def test_single_sample_valid(self):
        g = so3.sample_uniform(np.random.default_rng(0), 1)[0]
        assert is_rotation(g)

    def test_all_valid_rotations(self):
        for g in so3.sample_uniform(np.random.default_rng(1), 200):
            assert is_rotation(g)

    def test_entrywise_mean_near_zero(self):
        gs = so3.sample_uniform(np.random.default_rng(2), 100_000)
        assert np.max(np.abs(gs.mean(axis=0))) <= 0.02

    def test_angle_distribution(self):
        gs = so3.sample_uniform(np.random.default_rng(3), 100_000)
        angles = so3.geodesic_distances(np.broadcast_to(np.eye(3), gs.shape), gs)
        stat = kstest(angles, haar_angle_cdf).statistic
        assert stat <= 0.01

    def test_reproducible(self):
        a = so3.sample_uniform(np.random.default_rng(42), 100)
        b = so3.sample_uniform(np.random.default_rng(42), 100)
        assert np.array_equal(a, b)


class TestIgDensity:
    def test_zero_at_origin(self):
        for eta in [0.1, 0.5, 1.0, 5.0]:
            assert so3.ig_density(0.0, eta) == 0.0

    def test_large_eta_matches_uniform(self):
        omega = np.linspace(0.0, np.pi, 2001)
        gap = np.abs(so3.ig_density(omega, 10.0) - uniform_angle_density(omega))
        assert np.max(gap) <= 1e-3

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0])
    def test_normalization(self, eta):
        omega = np.linspace(0.0, np.pi, 4097)
        total = simpson(so3.ig_density(omega, eta), x=omega)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_uniform_gap_nonincreasing_in_eta(self):
        omega = np.linspace(0.0, np.pi, 2001)
        gaps = [
            np.max(np.abs(so3.ig_density(omega, eta) - uniform_angle_density(omega)))
            for eta in [1.0, 2.0, 5.0, 10.0]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_regime_switch_is_continuous(self):
        omega = np.linspace(0.0, np.pi, 501)
        below = so3._ig_small_eta(omega, 1.0 - 1e-9)
        above = so3._ig_series(omega, 1.0)
        assert np.max(np.abs(below - above)) < 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            so3.ig_density(0.5, 0.0)
        with pytest.raises(ValueError):
            so3.ig_density(4.0, 1.0)


class TestInverseCdf:
    def test_endpoints(self):
        table = so3.build_inverse_cdf(10.0)
        assert table.cdf_values[0] == 0.0
        assert table.cdf_values[-1] == 1.0
        assert table.omega_grid[-1] == np.pi

    def test_monotone(self):
        table = so3.build_inverse_cdf(0.5)
        assert np.all(np.diff(table.cdf_values) >= 0)

    def test_median_matches_uniform_limit(self):
        # oracle: solve the Haar angle CDF (w - sin w)/pi = 1/2 directly
        median = brentq(lambda w: haar_angle_cdf(w) - 0.5, 0.0, np.pi)
        table = so3.build_inverse_cdf(10.0)
        assert abs(table.inverse(0.5) - median) <= 1e-2

    def test_concentration_small_eta(self):
        table = so3.build_inverse_cdf(0.1)
        assert table.inverse(0.999) < 1.0


class TestIgSampling:
    def test_single_sample_valid(self):
        g = so3.ig_sample(np.random.default_rng(0), 0.5, 1)[0]
        assert is_rotation(g)

    def test_concentrated_mean_angle(self):
        gs = so3.ig_sample(np.random.default_rng(1), 0.1, 10_000)
        angles = so3.geodesic_distances(np.broadcast_to(np.eye(3), gs.shape), gs)
        # oracle: quadrature mean of the angle density at eta = 0.1
        omega = np.linspace(0.0, np.pi, 4097)
        dens = so3.ig_density(omega, 0.1)
        expected = simpson(omega * dens, x=omega) / simpson(dens, x=omega)
        assert angles.mean() == pytest.approx(expected, abs=0.02)
        assert angles.mean() <= 0.5

    def test_large_eta_matches_haar(self):
        gs = so3.ig_sample(np.random.default_rng(2), 10.0, 100_000)
        angles = so3.geodesic_distances(np.broadcast_to(np.eye(3), gs.shape), gs)
        assert kstest(angles, haar_angle_cdf).statistic <= 0.01

    def test_reproducible(self):
        a = so3.ig_sample(np.random.default_rng(5), 0.3, 50)
        b = so3.ig_sample(np.random.default_rng(5), 0.3, 50)
        assert np.array_equal(a, b)

    def test_mean_angle_at_the_eta_floor(self):
        # small-eta closed form: the mean angle is 4 eta / sqrt(pi)
        eta = so3.MIN_ETA
        gs = so3.ig_sample(np.random.default_rng(0), eta, 2000)
        angles = so3.geodesic_distances(np.broadcast_to(np.eye(3), gs.shape), gs)
        assert angles.mean() / eta == pytest.approx(4.0 / np.sqrt(np.pi), rel=0.02)

    @pytest.mark.parametrize("eta", [1e-4, 1e-5, 1e-200, 0.0, np.nan])
    def test_eta_below_the_floor_rejected(self, eta):
        # the inverse-CDF table cannot resolve a narrower density: at 1e-5 it gave NaN rotations
        with pytest.raises(ValueError):
            so3.RotationPrior.isotropic_gaussian(eta)
        with pytest.raises(ValueError):
            so3.ig_sample(np.random.default_rng(0), eta, 1)

    @pytest.mark.parametrize("eta", [np.inf, True], ids=["inf", "bool"])
    def test_eta_not_a_finite_number_rejected(self, eta):
        # an infinite eta sampled all-NaN rotations, and True was taken as 1.0
        with pytest.raises(ValueError):
            so3.RotationPrior.isotropic_gaussian(eta)
        with pytest.raises(ValueError):
            so3.build_inverse_cdf(eta)

    def test_prior_wrapper(self):
        prior = so3.RotationPrior.isotropic_gaussian(0.3)
        a = prior.sample(np.random.default_rng(6), 10)
        b = so3.RotationPrior.isotropic_gaussian(0.3).sample(np.random.default_rng(6), 10)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            so3.RotationPrior(kind="isotropic_gaussian")

