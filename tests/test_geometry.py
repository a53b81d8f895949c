import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import register_oracle, segment_distance_oracle, segment_distance_pairs
from test_acceptance import REG_TOL_ROT_DEG, REG_TOL_TRANS_MM
from prostasim import geometry
from prostasim.geometry import (
    DegenerateConfiguration,
    RigidTransform,
    apply,
    axis_decompose,
    compose,
    identity,
    inverse,
    max_line_deviation,
    normalize,
    register_points,
    rotation_about_axis,
    rotation_angle_deg,
    segment_segment_distance,
    translation,
)


def random_transform(rng, max_angle=180.0, max_trans=50.0):
    axis = rng.normal(size=3)
    angle = rng.uniform(-max_angle, max_angle)
    t = rotation_about_axis(axis, angle, np.zeros(3))
    return RigidTransform(t.rotation, rng.uniform(-max_trans, max_trans, 3))


def test_rigid_transform_keeps_float64_arrays_of_its_shape_and_converts_the_rest():
    rot, trans = np.eye(3), np.array([1.0, 2.0, 3.0])
    for r, v in (
        (rot, trans),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3]),  # lists of ints
        (np.eye(3, dtype=np.int64), np.array([1, 2, 3])),
        (np.eye(3, dtype=np.float32), np.array([1.0, 2.0, 3.0], dtype=np.float32)),
        (np.eye(3).ravel(), np.array([[1.0, 2.0, 3.0]])),  # flat (9,) and (1, 3)
    ):
        t = RigidTransform(r, v)
        assert t.rotation is not r and t.translation is not v
        assert (t.rotation.dtype, t.rotation.shape) == (np.float64, (3, 3))
        assert (t.translation.dtype, t.translation.shape) == (np.float64, (3,))
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, [1.0, 2.0, 3.0])
    for r, v in ((np.eye(2), trans), (rot, np.zeros(4)), (np.zeros((3, 4)), trans), (rot, [1.0, 2.0])):
        with pytest.raises(ValueError):
            RigidTransform(r, v)


def test_identity_and_translation():
    p = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(apply(identity(), p), p)
    np.testing.assert_allclose(apply(translation([1, 1, 1]), p), p + 1.0)


def test_apply_batch_matches_pointwise(rng):
    t = random_transform(rng)
    pts = rng.normal(size=(17, 3))
    batch = apply(t, pts)
    for i in range(len(pts)):
        np.testing.assert_allclose(batch[i], apply(t, pts[i]), atol=1e-12)


def test_compose_is_apply_then_apply(rng):
    # the definitional oracle: compose(t1, t2) acts as t2 first, then t1
    for _ in range(25):
        t1 = random_transform(rng)
        t2 = random_transform(rng)
        p = rng.normal(size=3) * 10
        np.testing.assert_allclose(
            apply(compose(t1, t2), p), apply(t1, apply(t2, p)), atol=1e-9
        )


def test_inverse_round_trip(rng):
    for _ in range(25):
        t = random_transform(rng)
        p = rng.normal(size=3) * 10
        np.testing.assert_allclose(apply(inverse(t), apply(t, p)), p, atol=1e-9)
        np.testing.assert_allclose(apply(t, apply(inverse(t), p)), p, atol=1e-9)


def test_long_compose_chain_stays_orthonormal(rng):
    t = identity()
    for _ in range(500):
        t = compose(t, random_transform(rng, max_angle=5.0, max_trans=0.5))
    gram = t.rotation @ t.rotation.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-12)


def test_rotation_about_axis_basics():
    t = rotation_about_axis([0, 0, 1], 90.0, np.zeros(3))
    np.testing.assert_allclose(apply(t, [1, 0, 0]), [0, 1, 0], atol=1e-12)
    assert rotation_angle_deg(t) == pytest.approx(90.0, abs=1e-9)


def test_rotation_center_is_fixed(rng):
    for _ in range(10):
        center = rng.uniform(-20, 20, 3)
        t = rotation_about_axis(rng.normal(size=3), rng.uniform(-170, 170), center)
        np.testing.assert_allclose(apply(t, center), center, atol=1e-9)


def test_rotation_angle_of_identity():
    assert rotation_angle_deg(identity()) == 0.0


def test_normalize_unit_and_zero():
    v = normalize([3.0, 4.0, 0.0])
    np.testing.assert_allclose(v, [0.6, 0.8, 0.0])
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


def test_axis_decompose_known():
    depth, lateral = axis_decompose([0, 0, -60], [0, 0, 1], [3, 4, 0])
    assert depth == pytest.approx(60.0)
    assert lateral == pytest.approx(5.0)


def test_axis_decompose_is_closest_point(rng):
    # entry + depth*dir must be the nearest line point to the target
    for _ in range(20):
        entry = rng.uniform(-30, 30, 3)
        d = normalize(rng.normal(size=3))
        target = rng.uniform(-30, 30, 3)
        depth, lateral = axis_decompose(entry, d, target)
        at_depth = np.linalg.norm(entry + depth * d - target)
        assert at_depth == pytest.approx(lateral, abs=1e-9)
        for dt in rng.uniform(-20, 20, 15):
            other = np.linalg.norm(entry + (depth + dt) * d - target)
            assert other >= lateral - 1e-9


def _brute_segment_distance(p0, p1, q0, q1, steps=400):
    s = np.linspace(0.0, 1.0, steps + 1)
    pa = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
    pb = q0[None, :] + s[:, None] * (q1 - q0)[None, :]
    diff = pa[:, None, :] - pb[None, :, :]
    return float(np.min(np.sqrt(np.sum(diff * diff, axis=2))))


def test_segment_distance_against_dense_sampling(rng):
    for _ in range(20):
        p0, p1, q0, q1 = rng.uniform(-10, 10, (4, 3))
        exact = segment_segment_distance([p0], [p1], [q0], [q1])[0, 0]
        grid = _brute_segment_distance(p0, p1, q0, q1)
        # the sampled minimum can only overestimate, and not by much
        assert exact <= grid + 1e-9
        assert grid - exact < 5e-3


def test_segment_distance_known_cases():
    p0 = [[-1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    p1 = [[1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]]
    q0 = [[0, -1, 0.0], [0, 1, 0], [3, 4, 0], [-1, 2, 0]]
    q1 = [[0, 1, 0.0], [1, 1, 0], [3, 4, 0], [1, 2, 0]]
    d = segment_segment_distance(p0, p1, q0, q1)
    # crossing segments touch
    assert d[0, 0] == pytest.approx(0.0, abs=1e-12)
    # parallel unit-offset segments
    assert d[1, 1] == pytest.approx(1.0)
    # degenerate point vs point
    assert d[2, 2] == pytest.approx(5.0)
    # degenerate point vs a segment
    assert d[3, 3] == pytest.approx(2.0)


def test_segment_distances_match_the_scalar_oracle(rng):
    # every pair of a stack, with points among the segments on both sides
    p0, p1 = rng.uniform(-10, 10, (2, 8, 3))
    q0, q1 = rng.uniform(-10, 10, (2, 5, 3))
    p1[2], q1[3] = p0[2], q0[3]
    d = segment_segment_distance(p0, p1, q0, q1)
    for i in range(8):
        for j in range(5):
            assert d[i, j] == pytest.approx(segment_distance_oracle(p0[i], p1[i], q0[j], q1[j]), abs=1e-12)


@st.composite
def segment_stacks(draw):
    """Up to 40 p segments and up to 4 q segments: (p0, p1, q0, q1).

    Either side holds points, and a p segment may run parallel to a q one.
    """
    coords = st.floats(-50, 50, allow_nan=False)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    q0, q1 = draw(arrays(np.float64, (2, m, 3), elements=coords))
    p0, p1 = draw(arrays(np.float64, (2, n, 3), elements=coords))
    for j in range(m):
        if draw(st.booleans()):
            q1[j] = q0[j]
    for i in range(n):
        kind = draw(st.sampled_from(["segment", "point", "parallel"]))
        if kind == "point":
            p1[i] = p0[i]
        elif kind == "parallel":
            j = draw(st.integers(0, m - 1))
            p1[i] = p0[i] + draw(st.floats(-3, 3)) * (q1[j] - q0[j])
    return p0, p1, q0, q1


PARALLEL = (
    np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [5.0, 5.0, 5.0]]),
    np.array([[4.0, 1.0, 0.0], [2.0, 0.0, 0.0], [7.0, 5.0, 5.0]]),
    np.array([[1.0, 0.0, 0.0], [3.0, 3.0, 3.0]]),
    np.array([[3.0, 0.0, 0.0], [3.0, 3.0, 3.0]]),
)


@settings(max_examples=100, deadline=None)
@given(segments=segment_stacks())
@example(segments=PARALLEL)
def test_each_row_of_segment_distances_is_that_row_alone(segments):
    # the planner checks a subset of its candidates at a time: a row's
    # distances must not depend on the rows beside it
    p0, p1, q0, q1 = segments
    d = segment_segment_distance(p0, p1, q0, q1)
    assert d.shape == (len(p0), len(q0))
    # the component planes keep the bits of the pair arrays
    assert d.tobytes() == segment_distance_pairs(p0, p1, q0, q1).tobytes()
    for i in range(len(p0)):
        alone = segment_segment_distance(p0[i:i + 1], p1[i:i + 1], q0, q1)
        assert alone.tobytes() == d[i:i + 1].tobytes(), i
        for j in range(len(q0)):
            assert d[i, j] == pytest.approx(segment_distance_oracle(p0[i], p1[i], q0[j], q1[j]), abs=1e-9)


def test_register_recovers_exact_transform(rng):
    pts = rng.uniform(-30, 30, (6, 3))
    for _ in range(50):
        true = random_transform(rng, max_angle=20.0, max_trans=10.0)
        obs = apply(true, pts)
        est, rms = register_points(pts, obs)
        assert rms < 1e-9
        np.testing.assert_allclose(est.translation, true.translation, atol=1e-9)
        np.testing.assert_allclose(est.rotation, true.rotation, atol=1e-9)


def test_register_proper_rotation_under_reflection_bait(rng):
    # near-planar configurations tempt the SVD into det(-1); the guard
    # must keep the estimate a proper rotation
    pts = rng.uniform(-10, 10, (5, 3))
    pts[:, 2] *= 1e-6
    true = random_transform(rng, max_angle=20.0, max_trans=5.0)
    est, _ = register_points(pts, apply(true, pts) + rng.normal(0, 0.5, (5, 3)))
    assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)


def kabsch_with_correction_matrix(reference, obs):
    """The fit of ``register_to`` in its SVD form, by LAPACK: ``det(V U^T)`` and
    the correction as the product ``V diag(1, 1, d) U^T``, the tolerance
    reference of the elementwise fit.  Returns the rotations, translations,
    rms and the d of each row."""
    obs_mean = obs.mean(axis=1)
    h = np.swapaxes(reference.centered, 1, 2) @ (obs - obs_mean[:, None])
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    correction = np.zeros_like(h)
    correction[:, 0, 0] = correction[:, 1, 1] = 1.0
    correction[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rot = v @ correction @ ut
    trans = obs_mean - (rot @ reference.mean[:, :, None])[:, :, 0]
    resid = (reference.centered + reference.mean[:, None]) @ np.swapaxes(rot, 1, 2) + trans[:, None] - obs
    rms = np.sqrt(np.mean(np.sum(resid * resid, axis=2), axis=1))
    return rot, trans, rms, correction[:, 2, 2]


@pytest.mark.parametrize("k", [1, 7, 128])
def test_register_reflection_branch_matches_the_row_oracle_bit_for_bit(rng, k):
    # every third row observes its reference mirrored (a reflection is the
    # best orthogonal fit), every third a near-planar set under noise, the
    # rest a proper motion: the stack mixes d = -1 with d = +1
    ref = rng.uniform(-20, 20, (k, 12, 3))
    obs = np.empty_like(ref)
    for i in range(k):
        t = random_transform(rng, max_angle=30.0, max_trans=5.0)
        if i % 3 == 1:
            ref[i, :, 2] *= 1e-6
        obs[i] = apply(t, ref[i]) + rng.normal(0, 0.5 if i % 3 == 1 else 0.05, (12, 3))
        if i % 3 == 0:
            obs[i, :, 0] *= -1.0
    reference = geometry.prepare_reference(ref)
    rot, trans, rms = geometry.register_to(reference, obs)
    # each row has the bits of the fit written out for that set alone
    for i in range(k):
        rot_i, trans_i, rms_i = register_oracle(ref[i], obs[i])
        assert rot[i].tobytes() == rot_i.tobytes() and trans[i].tobytes() == trans_i.tobytes(), i
        assert rms[i] == rms_i, i
    # and is LAPACK's corrected fit within criterion 1's tolerances
    rot_0, trans_0, rms_0, d = kabsch_with_correction_matrix(reference, obs)
    frob = np.sqrt(np.sum((rot - rot_0) ** 2, axis=(1, 2)))
    assert np.degrees(2.0 * np.arcsin(frob / (2.0 * np.sqrt(2.0)))).max() <= REG_TOL_ROT_DEG
    assert np.linalg.norm(trans - trans_0, axis=1).max() <= REG_TOL_TRANS_MM
    np.testing.assert_allclose(rms, rms_0, rtol=0.0, atol=REG_TOL_TRANS_MM)
    assert d[0] == -1.0  # the mirrored row
    if k > 1:
        assert set(d.tolist()) == {-1.0, 1.0}
    np.testing.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-9)


def test_register_raises_where_no_rotation_is_the_unique_best(rng):
    # every observed point at one place: a zero cross-covariance, which
    # every rotation fits; the stack raises whatever its other rows
    ref = rng.uniform(-20, 20, (2, 8, 3))
    obs = np.zeros_like(ref)
    obs[1] = apply(random_transform(rng), ref[1])
    reference = geometry.prepare_reference(ref)
    for rows in ([0], [0, 1]):
        with pytest.raises(DegenerateConfiguration, match="no unique best rotation"):
            geometry.register_to(reference.rows(rows), obs[rows])
    geometry.register_to(reference.rows([1]), obs[1:])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_point_sums_add_the_points_in_order(rng, k):
    # magnitudes 1e-8..1e8 make the order of a sum show in its bits
    planes = rng.normal(size=(12, 3, k)) * 10.0 ** rng.integers(-8, 9, size=(12, 3, k))
    want = np.zeros((3, k))
    for slab in planes:
        want = want + slab
    assert geometry._sum_points(planes).tobytes() == want.tobytes()


def test_register_requires_three_noncollinear():
    line = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    with pytest.raises(DegenerateConfiguration):
        register_points(line, line)
    with pytest.raises(DegenerateConfiguration):
        register_points(line[:2], line[:2])
    with pytest.raises(ValueError):
        register_points(line, line[:3])


def test_register_least_squares_beats_perturbations(rng):
    pts = rng.uniform(-20, 20, (8, 3))
    true = random_transform(rng, max_angle=15.0, max_trans=8.0)
    obs = apply(true, pts) + rng.normal(0, 0.4, pts.shape)
    est, rms = register_points(pts, obs)

    def cost(t):
        r = apply(t, pts) - obs
        return float(np.sqrt(np.mean(np.sum(r * r, axis=1))))

    assert rms == pytest.approx(cost(est), abs=1e-12)
    for _ in range(40):
        bump = random_transform(rng, max_angle=1.0, max_trans=0.3)
        assert cost(compose(bump, est)) >= rms - 1e-12


def test_max_line_deviation():
    line = np.array([[-2.0, 0, 0], [-1, 0, 0], [1, 0, 0], [2, 0, 0]])
    bent = line.copy()
    bent[0, 1] = 0.5
    centered = bent - bent.mean(axis=0)
    on_line, off_line = max_line_deviation(np.stack([line, centered]))
    assert on_line == pytest.approx(0.0, abs=1e-12)
    assert off_line > 0.1


def line_deviation_row(centered):
    """One set's largest distance from its best-fit line, computed on its own."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0:
        return 0.0
    axis = vt[0]
    off = centered - np.outer(centered @ axis, axis)
    return float(np.max(np.linalg.norm(off, axis=1)))


def test_stacked_line_deviation_matches_a_row_loop(rng):
    for _ in range(50):
        k = int(rng.integers(1, 40))
        sets = rng.normal(size=(k, 12, 3)) * rng.uniform(0.01, 30.0, (k, 1, 3))
        # a set on a line, a set of one repeated point, and a set at the origin
        sets[rng.integers(k)] = np.outer(rng.normal(size=12), rng.normal(size=3)) + rng.normal(size=3)
        sets[rng.integers(k)] = rng.normal(size=3)
        centered = sets - sets.mean(axis=1)[:, None]
        centered[rng.integers(k)] = 0.0
        got = max_line_deviation(centered)
        assert got.shape == (k,)
        want = [line_deviation_row(c) for c in centered]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@st.composite
def small_transforms(draw):
    axis = draw(
        st.tuples(*[st.floats(-1, 1, allow_nan=False) for _ in range(3)]).filter(
            lambda a: sum(x * x for x in a) > 1e-4
        )
    )
    angle = draw(st.floats(-179, 179, allow_nan=False))
    trans = draw(st.tuples(*[st.floats(-20, 20, allow_nan=False) for _ in range(3)]))
    base = rotation_about_axis(np.array(axis), angle, np.zeros(3))
    return RigidTransform(base.rotation, np.array(trans))


@settings(max_examples=50, deadline=None)
@given(t=small_transforms(), p=st.tuples(*[st.floats(-30, 30) for _ in range(3)]),
       q=st.tuples(*[st.floats(-30, 30) for _ in range(3)]))
def test_rigid_transforms_preserve_distance(t, p, q):
    p = np.array(p)
    q = np.array(q)
    before = np.linalg.norm(p - q)
    after = np.linalg.norm(apply(t, p) - apply(t, q))
    assert after == pytest.approx(before, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(a=small_transforms(), b=small_transforms(), c=small_transforms(),
       p=st.tuples(*[st.floats(-10, 10) for _ in range(3)]))
def test_compose_associative_on_points(a, b, c, p):
    p = np.array(p)
    left = apply(compose(compose(a, b), c), p)
    right = apply(compose(a, compose(b, c)), p)
    np.testing.assert_allclose(left, right, atol=1e-7)
