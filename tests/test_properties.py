"""Property tests of invariants the maths guarantees, over generated inputs."""

import string
import tempfile
from pathlib import Path

import numpy as np
from helpers import direct_log_weights
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp
from small_configs import SMALL

from orient_bayes import bench, estimators, forward, reconstruct, so3

SETTINGS = settings(max_examples=60, deadline=None)

sizes = st.integers(min_value=1, max_value=12)


@SETTINGS
@given(
    m=sizes,
    l=sizes,
    d=sizes,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_sigma=st.floats(min_value=-4.0, max_value=4.0),
    per_coordinate=st.booleans(),
)
def test_log_weights_normalized(m, l, d, seed, log_sigma, per_coordinate):
    rng = np.random.default_rng(seed)
    ys, x = rng.normal(size=(m, d)), rng.normal(size=(l, d))
    var = 10.0 ** (2 * log_sigma)
    if per_coordinate:
        var = var * rng.uniform(0.5, 2.0, size=d)
    log_w = estimators.normalized_log_weights(ys, x, var)
    assert log_w.shape == (m, l)
    assert np.all(np.abs(logsumexp(log_w, axis=1)) <= 1e-12)


@SETTINGS
@given(
    m=sizes,
    radial=sizes,
    angular=sizes,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    log_snr=st.floats(min_value=-2.0, max_value=2.0),
    per_coordinate=st.booleans(),
)
def test_whitened_scores_are_the_direct_sum(m, radial, angular, seed, log_scale, log_snr, per_coordinate):
    # the weights and MAP indices every EM step reads, and the one-call
    # weights, against -1/2 sum_i (y_i - x_i)^2 / var_i taken one residual at a time
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    v = scale * rng.normal(size=(radial, angular))
    ys = scale * rng.normal(size=(m, v.size))
    sigma = scale * 10.0**log_snr
    tau = sigma * rng.uniform(0.0, 2.0, size=v.size) if per_coordinate else 0.0
    noise = forward.NoiseModel(sigma=sigma, tau=tau)
    var = noise.effective_variance(v.size)
    x = np.stack([np.roll(v, -s, axis=1).ravel() for s in range(angular)])  # template of shift s
    oracle = direct_log_weights(ys, x, var)
    # the expanded residual ||y||^2 - 2 y.x + ||x||^2 rounds in proportion to
    # the whitened squared norms
    norms = np.max(np.sum(ys**2 / var, axis=1)) + np.max(np.sum(x**2 / var, axis=1))
    tol = 1e-12 + 8 * v.size * np.finfo(float).eps * norms

    group, b = reconstruct.Shifts(angular), reconstruct.Batch(ys, v.shape, noise)
    assert np.all(np.abs(estimators.normalized_log_weights(ys, x, var) - oracle) <= tol)
    assert np.all(np.abs(b.scores(v, group).log_weights(b.var) - oracle) <= tol)  # the steps' exp weights

    ranked = np.sort(-2.0 * oracle, axis=1)  # residuals sum (y - x)^2 / var, up to a row constant
    untied = (ranked[:, 1] - ranked[:, 0] > 4 * tol) if angular > 1 else np.ones(m, dtype=bool)
    map_idx = b.scores(v, group).map_indices()
    assert np.array_equal(map_idx[untied], np.argmax(oracle, axis=1)[untied])


@SETTINGS
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=1, max_dims=1, max_side=8).map(lambda s: (*s, 3, 3)),
        elements=st.floats(-100.0, 100.0, allow_subnormal=False),
    )
)
def test_procrustes_batch_returns_rotations(a):
    r = so3.procrustes_project(a).rotation
    assert r.shape == a.shape
    eye = np.broadcast_to(np.eye(3), r.shape)
    assert np.allclose(np.swapaxes(r, 1, 2) @ r, eye, rtol=0.0, atol=1e-12)
    assert np.allclose(np.linalg.det(r), 1.0, rtol=0.0, atol=1e-12)


@st.composite
def map_inputs(draw):
    # small integers keep every score exact, so ties are exact and common
    m, l, d = draw(sizes), draw(sizes), draw(sizes)
    ints = st.integers(min_value=-3, max_value=3)
    ys = draw(hnp.arrays(np.int64, (m, d), elements=ints)).astype(float)
    x = draw(hnp.arrays(np.int64, (l, d), elements=ints)).astype(float)
    return ys, x


@SETTINGS
@given(
    map_inputs(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.3, max_value=10.0),
)
def test_row_result_does_not_depend_on_its_batch(inputs, seed, sigma):
    # each row's MAP index, rounded MMSE rotation and flags are those of the
    # row scored alone, and the MAP index is the least-squares candidate
    ys, x = inputs
    rotations = so3.sample_uniform(np.random.default_rng(seed), x.shape[0])

    def estimate(rows):
        scores = estimators.Scores.of(rows, x)
        w = np.exp(scores.log_weights(sigma**2))
        return (scores.map_indices(), *estimators.mmse_rotations(w, rotations))

    batch_map, batch_mmse, batch_nonunique, batch_degenerate = estimate(ys)
    for m, y in enumerate(ys):
        (idx,), (mmse,), (nonunique,), (degenerate,) = estimate(y[None])
        assert idx == batch_map[m] == np.argmin(np.sum((y - x) ** 2, axis=1))  # exact residuals
        assert np.allclose(mmse, batch_mmse[m], rtol=0.0, atol=1e-12)
        assert (nonunique, degenerate) == (batch_nonunique[m], batch_degenerate[m])


@SETTINGS
@given(
    map_inputs(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.3, max_value=10.0),
    st.sampled_from([so3.RotationPrior.uniform(), so3.RotationPrior.isotropic_gaussian(0.3)]),
)
def test_mmse_minimizes_the_posterior_expected_loss(inputs, seed, sigma, prior):
    # rho(Q) = sum_l w_l ||Q - R_l||_F^2 = const - 2 tr(Q^T sum_l w_l R_l) is
    # minimized over SO(3) by the Procrustes rounding of the posterior mean, so
    # no candidate, the MAP one included, has a smaller expected loss
    ys, x = inputs
    rotations = prior.sample(np.random.default_rng(seed), x.shape[0])
    w = np.exp(estimators.normalized_log_weights(ys, x, sigma**2))
    mmse, _, _ = estimators.mmse_rotations(w, rotations)
    at_mmse = np.einsum("ml,mlij->m", w, (mmse[:, None] - rotations[None]) ** 2)
    at_candidates = w @ np.sum((rotations[:, None] - rotations[None]) ** 2, axis=(2, 3))  # (M, L)
    # ||Q - R||_F^2 <= 8 on SO(3)
    assert np.all(at_mmse <= at_candidates.min(axis=1) + 1e-12 * 8)


class RecordingAssignments(reconstruct.Shifts):
    """Shifts that keep the element each row is assigned."""

    def assigned_average(self, ys, idx):
        self.idx = idx
        return super().assigned_average(ys, idx)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda size: hnp.arrays(float, st.tuples(sizes, st.just(size)), elements=st.floats(0.0, 1.0))
    )
)
def test_mmse_shift_minimizes_the_posterior_expected_loss(w):
    # the SO(2) case: sum_l w_l |e^{i theta_l} - e^{i phi}|^2 =
    # 2 sum_l w_l - 2 Re(e^{-i phi} sum_l w_l e^{i theta_l}) falls as phi nears
    # the circular mean, so the grid shift mmse_average rounds that mean to
    # has the least expected loss of every grid shift
    m, size = w.shape
    group = RecordingAssignments(size)
    group.mmse_average(np.zeros((m, 1, size)), w)
    unit = np.exp(2j * np.pi * np.arange(size) / size)
    loss = w @ np.abs(unit[:, None] - unit[None, :]) ** 2  # (M, shift)
    # each loss is a sum of at most 12 terms of at most 4
    assert np.all(loss[np.arange(m), group.idx] <= loss.min(axis=1) + 1e-12)


@st.composite
def shift_inputs(draw):
    # integer-valued images keep every inner product exact
    shape = (draw(sizes), draw(sizes))
    ints = st.integers(min_value=-5, max_value=5)
    v = draw(hnp.arrays(np.int64, shape, elements=ints)).astype(float)
    u = draw(hnp.arrays(np.int64, shape, elements=ints)).astype(float)
    return v, u, draw(st.integers(min_value=0, max_value=shape[1] - 1))


@SETTINGS
@given(shift_inputs())
def test_shifts_back_is_the_adjoint_and_shift_zero_the_identity(inputs):
    # the soft step back-acts weighted sums through the adjoint, and
    # registered_pcc relies on element 0 being the identity
    v, u, ell = inputs
    group = reconstruct.Shifts(v.shape[1])
    assert np.sum(group.act(ell, v) * u) == np.sum(v * group.back(ell, u))
    assert np.array_equal(group.act(0, v), v)


class RecordingShifts(reconstruct.Shifts):
    """Shifts that keep each per-element sum handed to ``back``."""

    def __init__(self, size):
        super().__init__(size)
        self.sums = {}

    def back(self, ell, u):
        self.sums[int(ell)] = u.copy()
        return super().back(ell, u)


@st.composite
def assigned_rows(draw):
    """A stack of M polar images, some rows all -0.0, and an element per row:
    either any elements (some unused) or one element for every row."""
    size = draw(st.integers(min_value=1, max_value=6))
    # two or more coordinates per image: numpy sums a single coordinate pairwise
    radial = draw(st.integers(min_value=2 if size == 1 else 1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=12))
    values = st.floats(min_value=-1e300, max_value=1e300)  # -0.0 and subnormals included
    ys = draw(hnp.arrays(float, (m, radial, size), elements=values))
    ys[draw(hnp.arrays(bool, m))] = -0.0
    elements = st.integers(min_value=0, max_value=size - 1)
    if draw(st.booleans()):
        idx = np.full(m, draw(elements))
    else:
        idx = draw(hnp.arrays(np.int64, m, elements=elements))
    return ys, idx


@SETTINGS
@given(assigned_rows())
def test_grouped_sum_is_the_masked_sum_bit_for_bit(inputs):
    # the hard and polar MMSE steps sum each element's rows in place, without
    # a masked copy of the stack; the bytes must be those of the masked sum
    ys, idx = inputs
    group = RecordingShifts(ys.shape[2])
    out = group.assigned_average(ys, idx)
    used = np.unique(idx)
    assert sorted(group.sums) == list(used)  # an unused element is never back-acted
    oracle = 0.0
    for ell in used:
        masked = ys[idx == ell].sum(axis=0)
        assert np.array_equal(np.signbit(group.sums[ell]), np.signbit(masked))
        assert group.sums[ell].tobytes() == masked.tobytes()
        oracle = oracle + forward.rotate_polar(masked, ell)
    assert out.tobytes() == (oracle / len(ys)).tobytes()


# any finite double: subnormal, huge and negative values included
doubles = st.floats(allow_nan=False, allow_infinity=False)
labels = st.text(alphabet=string.printable)  # commas, both quotes, whitespace and newlines
records = st.builds(
    bench.ResultRecord,
    experiment=labels,
    seed=st.integers(),
    sigma=doubles,
    snr=doubles,
    L=st.integers(),
    estimator=labels,
    metric_mean=doubles,
    metric_se=doubles,
    trials=st.integers(),
)


@SETTINGS
@given(st.lists(records, max_size=5))
def test_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        bench.emit_csv(rows, path)
        assert bench.parse_csv(path) == rows


# names the config checks look for, so generated values often reach past the
# first type check
NAMES = st.sampled_from(
    [*bench.EXPERIMENTS, *reconstruct.ASSIGNMENTS, *forward.INTERPOLATION_ORDERS, *forward.PHANTOM_KINDS,
     *so3.PRIOR_KINDS, "polar", "volume", "kind", "n", "seed", "path", "eta", "d_radial", "l_angular"]
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text() | NAMES, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(SMALL)),
    st.sampled_from(sorted(bench.ExperimentConfig.__dataclass_fields__)),
    json_values,
)
def test_any_json_value_in_one_field_loads_or_is_a_config_error(name, field, value):
    raw = {**SMALL[name], field: value}
    try:
        bench.ExperimentConfig.from_dict(raw)
    except bench.ConfigError:
        pass
