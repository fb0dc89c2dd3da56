"""Property tests of invariants the maths guarantees, over generated inputs."""

import string
import tempfile
from pathlib import Path

import numpy as np
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
def test_batch_map_equals_scalar_and_brute_force(inputs, seed, sigma):
    ys, x = inputs
    rotations = so3.sample_uniform(np.random.default_rng(seed), x.shape[0])
    cands = estimators.CandidateSet(rotations=rotations, templates=x, prior=so3.RotationPrior.uniform())
    noise = forward.NoiseModel(sigma=sigma)
    scores = estimators.Scores.of(ys, x)
    batch = scores.map_indices()
    mmse, nonunique, degenerate = estimators.mmse_rotations(
        np.exp(scores.log_weights(noise.effective_variance())), rotations
    )
    for m, (y, idx) in enumerate(zip(ys, batch)):
        rep = estimators.map_estimate(y, cands)
        assert rep.map_index == idx == np.argmin(np.sum((y - x) ** 2, axis=1))  # exact residuals
        assert np.array_equal(rep.rotation, rotations[idx])
        rep = estimators.mmse_estimate(y, cands, noise)
        assert np.allclose(rep.rotation, mmse[m], rtol=0.0, atol=1e-12)
        assert (rep.procrustes_nonunique, rep.degenerate_average) == (nonunique[m], degenerate[m])


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
