import numpy as np
import pytest
from helpers import rot_z

from orient_bayes import forward, so3


@pytest.fixture(scope="module")
def blob_phantom():
    return forward.make_phantom("gaussian_blobs", 32, seed=0)


@pytest.fixture(scope="module")
def chiral_phantom():
    return forward.make_phantom("asymmetric_L", 32, seed=0)


class TestRotateVolume:
    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    def test_identity_bit_exact(self, blob_phantom, method):
        out = forward.rotate_volume(blob_phantom, np.eye(3), method=method)
        assert np.array_equal(out, blob_phantom)

    def test_quarter_turn_is_permutation(self, blob_phantom):
        g = rot_z(np.pi / 2)
        g = np.round(g)  # exact 0/+-1 entries so coordinates land on grid points
        out = forward.rotate_volume(blob_phantom, g, method="trilinear")
        # oracle: the same quarter turn as an index permutation
        expected = np.rot90(blob_phantom, k=-1, axes=(0, 1))
        interior = forward._inscribed_sphere_mask(32)
        assert np.max(np.abs((out - expected)[interior])) == 0.0

    def test_round_trip_error_bounded(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(4), 1)[0]
        back = forward.rotate_volume(
            forward.rotate_volume(blob_phantom, g), g.T
        )
        mask = forward._inscribed_sphere_mask(32)
        rel = np.linalg.norm((back - blob_phantom)[mask]) / np.linalg.norm(blob_phantom[mask])
        assert rel <= 0.05

    def test_zero_volume_preserved(self):
        g = so3.sample_uniform(np.random.default_rng(5), 1)[0]
        for method in ("trilinear", "tricubic"):
            out = forward.rotate_volume(np.zeros((16, 16, 16)), g, method=method)
            assert np.array_equal(out, np.zeros((16, 16, 16)))

    def test_norm_roughly_preserved(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(6), 1)[0]
        out = forward.rotate_volume(blob_phantom, g)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(blob_phantom), rel=0.05)

    def test_cached_grid_is_read_only(self):
        grid = forward._centered_grid(9)
        assert forward._centered_grid(9) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        assert grid[0, 0] == -4.0

    def test_unknown_method(self, blob_phantom):
        with pytest.raises(ValueError):
            forward.rotate_volume(blob_phantom, np.eye(3), method="nearest")


class TestProjectZ:
    def test_constant_volume(self):
        n = 8
        img = forward.project_z(np.full((n, n, n), 3.0))
        assert np.allclose(img, 3.0 * n)

    def test_single_voxel(self):
        vol = np.zeros((8, 8, 8))
        vol[2, 5, 3] = 7.0
        img = forward.project_z(vol)
        assert img[2, 5] == 7.0
        assert np.count_nonzero(img) == 1

    def test_linearity(self):
        rng = np.random.default_rng(7)
        v1, v2 = rng.normal(size=(2, 8, 8, 8))
        a, b = rng.normal(size=2)
        lhs = forward.project_z(a * v1 + b * v2)
        rhs = a * forward.project_z(v1) + b * forward.project_z(v2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_commutes_with_z_quarter_turn(self, blob_phantom):
        g = np.round(rot_z(np.pi / 2))
        lhs = forward.project_z(forward.rotate_volume(blob_phantom, g))
        rhs = np.rot90(forward.project_z(blob_phantom), k=-1)
        interior = np.linalg.norm(
            np.stack(np.meshgrid(*[np.arange(32) - 15.5] * 2, indexing="ij")), axis=0
        ) <= 0.95 * 15.5
        assert np.max(np.abs((lhs - rhs)[interior])) <= 1e-9


class TestSynthesizeObservation:
    def test_noiseless_identity(self, blob_phantom):
        obs = forward.synthesize_observation(
            blob_phantom, np.eye(3), forward.NoiseModel(sigma=0.0), False, np.random.default_rng(0)
        )
        assert np.array_equal(obs, blob_phantom.ravel())

    def test_noise_variance(self):
        obs = forward.synthesize_observation(
            np.zeros((32, 32, 32)), np.eye(3), forward.NoiseModel(sigma=1.0), False,
            np.random.default_rng(1),
        )
        assert 0.97 <= obs.var() <= 1.03

    def test_deterministic(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(2), 1)[0]
        kwargs = dict(noise=forward.NoiseModel(sigma=0.5), projected=True)
        a = forward.synthesize_observation(blob_phantom, g, rng=np.random.default_rng(3), **kwargs)
        b = forward.synthesize_observation(blob_phantom, g, rng=np.random.default_rng(3), **kwargs)
        assert np.array_equal(a, b)

    def test_noiseless_projected_matches_pipeline(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(4), 1)[0]
        obs = forward.synthesize_observation(
            blob_phantom, g, forward.NoiseModel(sigma=0.0), True, np.random.default_rng(0)
        )
        expected = forward.project_z(forward.rotate_volume(blob_phantom, g)).ravel()
        assert np.array_equal(obs, expected)

    def test_structural_tau(self):
        noise = forward.NoiseModel(sigma=0.6, tau=0.8)
        assert noise.effective_std() == pytest.approx(1.0)


class TestNoiseModel:
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # a NaN sigma used to give NaN posterior weights without an error
        with pytest.raises(ValueError):
            forward.NoiseModel(sigma=sigma)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, np.array([0.5, np.nan]), np.array([np.inf, 0.5])])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError):
            forward.NoiseModel(sigma=1.0, tau=tau)

    def test_tau_of_more_than_one_dimension_rejected(self):
        # a (2, 3) tau used to pass effective_variance(6) as a (2, 3) variance
        with pytest.raises(ValueError):
            forward.NoiseModel(sigma=1.0, tau=np.ones((2, 3)))

    def test_vector_tau_accepted(self):
        noise = forward.NoiseModel(sigma=0.6, tau=np.full(4, 0.8))
        assert np.allclose(noise.effective_variance(4), 1.0)


class TestRotatePolar:
    def test_zero_shift(self):
        img = forward.make_polar_phantom(50, 12, seed=0)
        assert np.array_equal(forward.rotate_polar(img, 0), img)

    def test_full_turn(self):
        img = forward.make_polar_phantom(50, 12, seed=0)
        assert np.array_equal(forward.rotate_polar(img, 12), img)

    def test_inverse_shift(self):
        img = forward.make_polar_phantom(50, 12, seed=1)
        assert np.array_equal(forward.rotate_polar(forward.rotate_polar(img, 5), -5), img)

    def test_norm_preserved(self):
        img = forward.make_polar_phantom(50, 12, seed=2)
        assert np.linalg.norm(forward.rotate_polar(img, 3)) == np.linalg.norm(img)


class TestSnr:
    def test_unit_signal(self):
        sig = np.ones((4, 4, 4))
        assert forward.snr_of(sig, forward.NoiseModel(sigma=1.0)) == pytest.approx(1.0)
        assert forward.snr_of(sig, forward.NoiseModel(sigma=10.0)) == pytest.approx(0.01)

    def test_round_trip(self, blob_phantom):
        sigma = forward.sigma_for_snr(blob_phantom, 1e-2)
        snr = forward.snr_of(blob_phantom, forward.NoiseModel(sigma=sigma))
        assert snr == pytest.approx(1e-2, abs=1e-12)

    def test_zero_noise_rejected(self, blob_phantom):
        with pytest.raises(forward.ZeroNoiseError):
            forward.snr_of(blob_phantom, forward.NoiseModel(sigma=0.0))


class TestPhantoms:
    def test_identifiability(self, chiral_phantom):
        rng = np.random.default_rng(8)
        norm = np.linalg.norm(chiral_phantom)
        worst = np.inf
        for g in so3.sample_uniform(rng, 1000):
            if so3.geodesic_distance(np.eye(3), g) < 1e-3:
                continue
            diff = np.linalg.norm(chiral_phantom - forward.rotate_volume(chiral_phantom, g))
            worst = min(worst, diff / norm)
        assert worst > 0.05

    def test_support_inside_sphere(self, blob_phantom):
        outside = ~forward._inscribed_sphere_mask(32)
        assert np.all(blob_phantom[outside] == 0)

    def test_seeded_reproducibility(self):
        a = forward.make_phantom("gaussian_blobs", 16, seed=3)
        b = forward.make_phantom("gaussian_blobs", 16, seed=3)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = forward.make_phantom("gaussian_blobs", 16, seed=3)
        b = forward.make_phantom("gaussian_blobs", 16, seed=4)
        assert not np.array_equal(a, b)

    def test_polar_phantom_shape(self):
        img = forward.make_polar_phantom(300, 30, seed=1)
        assert img.shape == (300, 30)
        assert np.all(np.isfinite(img))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            forward.make_phantom("cube", 16)


class TestObvFormat:
    def test_round_trip(self, tmp_path, blob_phantom):
        path = tmp_path / "vol.obv"
        forward.write_obv(path, blob_phantom)
        back = forward.read_obv(path)
        assert back.shape == blob_phantom.shape
        assert np.allclose(back, blob_phantom, atol=1e-6)

    def test_x_fastest_payload(self, tmp_path):
        vol = np.arange(8.0).reshape(2, 2, 2)
        path = tmp_path / "tiny.obv"
        forward.write_obv(path, vol)
        raw = path.read_bytes()
        assert raw[:4] == b"OBV1"
        payload = np.frombuffer(raw[16:], dtype="<f4")
        # x varies fastest: first two entries are vol[0,0,0], vol[1,0,0]
        assert payload[0] == vol[0, 0, 0]
        assert payload[1] == vol[1, 0, 0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.obv"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(forward.FileFormatError):
            forward.read_obv(path)

    def test_truncated_payload(self, tmp_path, blob_phantom):
        path = tmp_path / "trunc.obv"
        forward.write_obv(path, blob_phantom)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(forward.FileFormatError):
            forward.read_obv(path)

    def test_loaded_phantom(self, tmp_path, blob_phantom):
        path = tmp_path / "v.obv"
        forward.write_obv(path, blob_phantom)
        vol = forward.make_phantom("loaded", 32, path=path)
        assert np.allclose(vol, blob_phantom, atol=1e-6)
