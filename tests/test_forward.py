import itertools

import numpy as np
import pytest
from helpers import geodesic_distance, rot_z
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from orient_bayes import bench, forward, so3


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
        with pytest.raises(ValueError, match="method must be one of"):
            forward.rotate_volume(blob_phantom, np.eye(3), method="nearest")

    @pytest.mark.parametrize("method", [["trilinear"], {"a": 1}, None, 1])
    def test_non_string_method(self, blob_phantom, method):
        # one rule for the config and the library: a ValueError naming method, not a TypeError
        with pytest.raises(ValueError, match="method must be one of"):
            forward.rotate_volume(blob_phantom, np.eye(3), method=method)

    def test_interpolation_orders(self):
        assert [forward.interpolation_order(m) for m in ("trilinear", "tricubic")] == [1, 3]


SIGNED_PERMUTATIONS = [
    np.diag(signs) @ np.array(perm)
    for perm in itertools.permutations(np.eye(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]
# the 24 axis quarter turns, the identity among them
QUARTER_TURNS = [m for m in SIGNED_PERMUTATIONS if np.linalg.det(m) > 0]
rotations = st.sampled_from(QUARTER_TURNS) | st.integers(0, 2**32 - 1).map(
    lambda seed: so3.sample_uniform(np.random.default_rng(seed), 1)[0]
)
# finite values of both signs, signed zeros, and the non-finite values a
# nonzero-bits box counts too
voxels = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


def one_call(vol, g, method):
    """The oracle: one map_coordinates call over every sample point, or for
    the identity a copy."""
    n = vol.shape[0]
    if np.array_equal(g, np.eye(3)):
        return vol.copy()
    coords = g @ forward._centered_grid(n)
    coords += (n - 1) / 2.0
    order = forward.interpolation_order(method)
    return ndimage.map_coordinates(vol, coords, order=order, mode="constant", cval=0.0).reshape(n, n, n)


def assert_same_bytes(a, b):
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def boxed(n, lo, hi, values):
    """An (n, n, n) volume of +0.0 holding ``values`` in the box lo..hi (inclusive)."""
    vol = np.zeros((n, n, n))
    vol[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] = values
    return vol


@st.composite
def boxed_volumes(draw):
    """A cube whose nonzero bits sit in a random sub-box, which may touch a
    face or be one voxel; or the all-zero cube."""
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        return np.zeros((n, n, n))
    lo = [draw(st.integers(0, n - 1)) for _ in range(3)]
    hi = [draw(st.integers(a, n - 1)) for a in lo]
    shape = tuple(b - a + 1 for a, b in zip(lo, hi))
    return boxed(n, lo, hi, draw(hnp.arrays(np.float64, shape, elements=voxels)))


class TestSupportRestrictedRotation:
    """A trilinear rotation interpolates only where the nonzero box can be
    read; its bytes are those of one unrestricted map_coordinates call."""

    @settings(max_examples=300, deadline=None)
    @given(vol=boxed_volumes(), g=rotations, method=st.sampled_from(list(forward.INTERPOLATION_ORDERS)))
    def test_bytes_are_one_unrestricted_call(self, vol, g, method):
        assert_same_bytes(forward.rotate_volume(vol, g, method=method), one_call(vol, g, method))

    # corners, and voxels one layer in from a face: at p = n - 1 scipy also
    # reads voxel n - 2, with weight 0, which a NaN or an infinity turns into NaN
    @pytest.mark.parametrize("voxel", [(0, 0, 0), (7, 7, 7), (0, 7, 0), (6, 3, 3), (1, 6, 6)])
    @pytest.mark.parametrize("value", [1.5, -2.0, -0.0, np.nan, np.inf])
    def test_one_voxel_at_a_corner_or_a_face(self, voxel, value):
        vol = boxed(8, voxel, voxel, value)
        for g in [*QUARTER_TURNS, *so3.sample_uniform(np.random.default_rng(3), 8)]:
            assert_same_bytes(forward.rotate_volume(vol, g), one_call(vol, g, "trilinear"))

    @pytest.mark.parametrize("projected", [False, True], ids=["volume", "projected"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["builtin-map", "parallel_map"])
    def test_rotated_stack_rows(self, chiral_phantom, monkeypatch, projected, pooled):
        monkeypatch.setenv("OB_THREADS", "2")
        gs = np.concatenate([QUARTER_TURNS[:6], so3.sample_uniform(np.random.default_rng(8), 10)])
        rows = forward.rotated_stack(chiral_phantom, gs, projected=projected, map=bench.parallel_map if pooled else map)
        for row, g in zip(rows, gs):
            vol = one_call(chiral_phantom, g, "trilinear")
            assert_same_bytes(row, forward.project_z(vol).ravel() if projected else vol.ravel())

    @pytest.mark.parametrize(
        "kind, shift, method, restricted",
        [
            ("asymmetric_L", 0, "trilinear", True),
            ("asymmetric_L", -9, "trilinear", True),
            ("gaussian_blobs", 0, "trilinear", False),
            ("asymmetric_L", 0, "tricubic", False),
        ],
    )
    def test_only_a_sparse_trilinear_rotation_is_restricted(self, monkeypatch, kind, shift, method, restricted):
        # asymmetric_L's nonzero box is x 9..29, y 8..26, z 9..24 of the 32^3
        # grid, and a shift by -9 along x makes it touch one face;
        # gaussian_blobs reaches the second layer of every face; a tricubic
        # prefilter spreads any support
        points, sample = [], ndimage.map_coordinates

        def counted(vol, coords, **kwargs):
            points.append(coords.shape[1])
            return sample(vol, coords, **kwargs)

        monkeypatch.setattr(ndimage, "map_coordinates", counted)
        vol = np.roll(forward.make_phantom(kind, 32, seed=0), shift, axis=0)
        forward.rotate_volume(vol, so3.sample_uniform(np.random.default_rng(1), 1)[0], method=method)
        assert (points[0] < 0.5 * 32**3) if restricted else points == [32**3]


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
    """An observation is a row of forward.rotated_stack plus a row of bench._noisy."""

    def test_noiseless_identity(self, blob_phantom):
        obs = forward.rotated_stack(blob_phantom, [np.eye(3)])
        assert np.array_equal(obs, blob_phantom.reshape(1, -1))

    def test_noise_variance(self):
        obs = bench._noisy([1], (1, 32**3), 1.0, map)
        assert 0.97 <= obs.var() <= 1.03

    def test_deterministic(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(2), 1)

        def observe():
            stack = forward.rotated_stack(blob_phantom, g, projected=True)
            return bench._noisy([3], stack.shape, 0.5, map, lambda t, rng: stack[t])

        assert np.array_equal(observe(), observe())

    def test_noiseless_projected_matches_pipeline(self, blob_phantom):
        g = so3.sample_uniform(np.random.default_rng(4), 1)
        obs = forward.rotated_stack(blob_phantom, g, projected=True)
        expected = forward.project_z(forward.rotate_volume(blob_phantom, g[0])).ravel()
        assert np.array_equal(obs[0], expected)


class TestNoiseModel:
    """The noise is white Gaussian of one level sigma; check_sigma is its rule."""

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # a NaN sigma used to give NaN posterior weights without an error
        with pytest.raises(ValueError):
            forward.check_sigma(sigma)

    @pytest.mark.parametrize("sigma", [-1.0, 1e-160, 1e300, 10**400, True, "1.0", None, [1.0], np.array([1.0, 2.0])])
    def test_unusable_sigma_rejected(self, sigma):
        # 1e-160 squares to a subnormal and 1e300 overflows: the weights
        # would be NaN, or the variance an OverflowError
        with pytest.raises(ValueError):
            forward.check_sigma(sigma)

    @pytest.mark.parametrize("sigma", [0, 0.0, 1.5e-154, 1e-3, 1.0, 7, 9e153, np.float64(0.5), np.int64(2)])
    def test_usable_sigma_accepted(self, sigma):
        forward.check_sigma(sigma)


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
        assert forward.snr_of(sig, 1.0) == pytest.approx(1.0)
        assert forward.snr_of(sig, 10.0) == pytest.approx(0.01)

    def test_round_trip(self, blob_phantom):
        sigma = forward.sigma_for_snr(blob_phantom, 1e-2)
        snr = forward.snr_of(blob_phantom, sigma)
        assert snr == pytest.approx(1e-2, abs=1e-12)

    def test_zero_noise_rejected(self, blob_phantom):
        with pytest.raises(forward.ZeroNoiseError):
            forward.snr_of(blob_phantom, 0.0)

    def test_zero_signal_has_no_sigma(self):
        # every sigma gives a zero-power signal SNR 0, so sigma 0 must not stand in
        with pytest.raises(ValueError):
            forward.sigma_for_snr(np.zeros((8, 8, 8)), 1.0)


class TestPhantoms:
    def test_identifiability(self, chiral_phantom):
        rng = np.random.default_rng(8)
        norm = np.linalg.norm(chiral_phantom)
        worst = np.inf
        for g in so3.sample_uniform(rng, 1000):
            if geodesic_distance(np.eye(3), g) < 1e-3:
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

    @pytest.mark.parametrize(
        "kind, n, path, match",
        [
            (["loaded"], 16, None, "kind must be one of"),
            ("loaded", 16, None, "path must be a non-empty string"),
            ("loaded", 16, "", "path must be a non-empty string"),
            ("gaussian_blobs", 4, None, "n must be an integer >= 8"),
            ("asymmetric_L", 12.0, None, "n must be an integer >= 8"),
            ("asymmetric_L", True, None, "n must be an integer >= 8"),
        ],
    )
    def test_phantom_rule(self, kind, n, path, match):
        # check_phantom is the one rule; the experiment config applies it too
        with pytest.raises(ValueError, match=match):
            forward.check_phantom(kind, n, path)
        with pytest.raises(ValueError, match=match):
            forward.make_phantom(kind, n, path=path)

    @pytest.mark.parametrize("n", [513, 10**400], ids=["513", "10**400"])
    def test_phantom_n_has_an_upper_bound(self, n):
        # rejected before any voxel is allocated; 10**400 is too large for a double
        with pytest.raises(ValueError, match="<= 512"):
            forward.check_phantom("asymmetric_L", n)
        with pytest.raises(ValueError, match="<= 512"):
            forward.make_phantom("gaussian_blobs", n)


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
