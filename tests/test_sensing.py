import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prostasim import geometry, rng
from prostasim.geometry import DegenerateConfiguration, prepare_reference
from prostasim.phantom import PhantomConfig, Phantoms, generate_phantom
from prostasim.rng import draw_insertions, substream
from prostasim.sensing import (
    NoiseModel,
    _base_sd,
    observe,
    observe_point,
    rigid_register,
    track_target,
)


@pytest.fixture
def phantom():
    return generate_phantom(PhantomConfig(), 10, seed=5)


def quiet_noise(**overrides):
    params = dict(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)
    params.update(overrides)
    return NoiseModel(**params)


def stream(seed=9):
    return substream(seed, rng.OBSERVE)


def observe_one(phantom, t, noise, s, needle_count=0):
    """One volume: ``observe`` on a stack of one, with the next N x 3 normals of ``s``."""
    normals = s.standard_normal(phantom.fiducial_points.shape)
    return observe(phantom, t.rotation[None], t.translation[None], noise, normals, [needle_count])[0]


def observe_point_one(phantom, point, noise, s, needle_count=0):
    """One point: ``observe_point`` on a stack of one, with the next 3 normals of ``s``."""
    return observe_point(phantom, [point], noise, s.standard_normal((1, 3)), [needle_count])[0]


def register_one(ref_points, obs):
    """Registration of one volume against one reference set: (transform, rms)."""
    rot, trans, rms = rigid_register(prepare_reference(ref_points[None]), obs[None])
    return geometry.RigidTransform(rot[0], trans[0]), float(rms[0])


def some_transform():
    rot = geometry.rotation_about_axis([0.2, 1.0, 0.1], 4.0, center=[0, 0, -10])
    return geometry.compose(geometry.translation([1.5, -2.0, 3.0]), rot)


def test_validate_rejects_bad_params():
    with pytest.raises(ValueError):
        quiet_noise(sigma0=-0.1).validate()
    with pytest.raises(ValueError):
        quiet_noise(depth_gain=-0.01).validate()
    with pytest.raises(ValueError):
        quiet_noise(degradation_per_needle=0.9).validate()
    quiet_noise(degradation_per_needle=1.0).validate()


def test_noiseless_observation_is_exact(phantom):
    t = some_transform()
    obs = observe_one(phantom, t, quiet_noise(), stream())
    assert obs.shape == phantom.fiducial_points[0].shape
    for rest, world in zip(phantom.fiducial_points[0], obs):
        np.testing.assert_allclose(world, geometry.apply(t, rest), atol=1e-12)


def test_register_recovers_transform(phantom):
    t = some_transform()
    obs = observe_one(phantom, t, quiet_noise(), stream())
    reg, rms = register_one(phantom.fiducial_points[0], obs)
    assert rms < 1e-9
    np.testing.assert_allclose(reg.rotation, t.rotation, atol=1e-9)
    np.testing.assert_allclose(reg.translation, t.translation, atol=1e-9)


def test_track_target_is_transform_application(phantom):
    t = some_transform()
    target = phantom.target_rest[0, 0]
    got = track_target(t.rotation[None], t.translation[None], target[None])[0]
    np.testing.assert_allclose(got, geometry.apply(t, target), atol=1e-12)


def test_registration_rms_matches_residual_dof(phantom):
    # fitting 6 rigid dof to 3n noisy coordinates leaves sd^2 * (3n - 6)
    # expected squared residual, so rms -> sd * sqrt((3n - 6) / n)
    sd = 0.5
    n = phantom.fiducial_points.shape[1]
    expect = sd * np.sqrt((3 * n - 6) / n)
    noise = quiet_noise(sigma0=sd)
    s = stream()
    draws = []
    for _ in range(300):
        obs = observe_one(phantom, geometry.identity(), noise, s)
        draws.append(register_one(phantom.fiducial_points[0], obs)[1])
    assert np.mean(draws) == pytest.approx(expect, rel=0.06)


def test_observe_point_scatter_matches_sigma(phantom):
    # z = 0 sits gland_semiaxes[2] mm past the entry plane
    noise = quiet_noise(sigma0=0.3, depth_gain=0.01)
    depth = phantom.gland_semiaxes[0, 2]
    expect = 0.3 + 0.01 * depth
    s = stream()
    pts = np.array([observe_point_one(phantom, [5.0, 1.0, 0.0], noise, s) for _ in range(4000)])
    np.testing.assert_allclose(pts.mean(axis=0), [5.0, 1.0, 0.0], atol=0.05)
    np.testing.assert_allclose(pts.std(axis=0), expect, rtol=0.08)


def test_degradation_raises_base_sigma(phantom):
    # twin streams draw the same normals, so only the sd scales the deviation
    noise = quiet_noise(sigma0=0.3, degradation_per_needle=1.2)
    exact = phantom.fiducial_points[0]  # the noiseless volume at rest
    dev0 = observe_one(phantom, geometry.identity(), noise, stream(), needle_count=0) - exact
    dev3 = observe_one(phantom, geometry.identity(), noise, stream(), needle_count=3) - exact
    np.testing.assert_allclose(dev3, 1.2**3 * dev0, rtol=1e-12)


@pytest.mark.parametrize("degradation", [1.0, 1.17])
def test_base_sd_table_has_each_rows_own_power_bit_for_bit(degradation):
    noise = quiet_noise(sigma0=0.08, degradation_per_needle=degradation)
    for counts in ([], [0], [3, 0, 7, 3, 3, 1], [63, 2, 63, 0], list(range(63, -1, -1)), [9] * 5):
        sd = _base_sd(noise, np.array(counts, dtype=np.int64))
        want = np.array([0.08 * degradation**k for k in counts], dtype=np.float64)
        assert (sd.dtype, sd.shape) == (want.dtype, want.shape)
        assert sd.tobytes() == want.tobytes(), counts
    # a list of Python ints is read as the array is
    assert _base_sd(noise, [5, 1]).tobytes() == np.array([0.08 * degradation**5, 0.08 * degradation]).tobytes()


def test_depth_gain_widens_scatter_with_depth(phantom):
    noise = quiet_noise(sigma0=0.05, depth_gain=0.05)
    s = stream()
    shallow = np.array(
        [observe_point_one(phantom, [0, 0, -phantom.gland_semiaxes[0, 2]], noise, s) for _ in range(2000)]
    )
    deep = np.array([observe_point_one(phantom, [0, 0, 20.0], noise, s) for _ in range(2000)])
    assert deep.std(axis=0).mean() > 2.0 * shallow.std(axis=0).mean()


def test_register_needs_three_common_points(phantom):
    with pytest.raises(DegenerateConfiguration, match="at least 3"):
        prepare_reference(phantom.fiducial_points[:, :2])
    moved = geometry.apply(some_transform(), phantom.fiducial_points[0, :3])
    _, rms = register_one(phantom.fiducial_points[0, :3], moved)
    assert rms < 1e-9

def test_observation_stream_replays(phantom):
    noise = quiet_noise(sigma0=0.4)
    n = phantom.fiducial_points.shape[1]

    def first_volume():
        streams = draw_insertions(7, [(1, 2, 3)], [0], n, 2).rows(0)
        return observe(phantom, np.eye(3)[None], np.zeros((1, 3)), noise,
                       streams.observation_normals[None, 0], [0])[0]

    a, b = first_volume(), first_volume()
    np.testing.assert_array_equal(a, b)
    alone = observe_one(phantom, geometry.identity(), noise, substream(7, rng.OBSERVE, 1, 2, 3))
    np.testing.assert_array_equal(a, alone)


def test_streams_have_a_fixed_layout(phantom):
    """A volume takes N x 3 normals and a point 3, whatever their sd: the
    reference layout is one stream drawn point by point with ``normal``."""
    c = phantom.gland_semiaxes[0, 2]
    n = phantom.fiducial_points.shape[1]
    # moved back by c, the fiducials with rest z <= 0 sit in front of the
    # entry plane z = -c, where sigma0 = 0 leaves them an sd of 0
    mixed = geometry.translation([0.0, 0.0, -c])
    rest_z = phantom.fiducial_points[0, :, 2]
    assert (rest_z <= 0).any() and (rest_z > 0).any()
    for noise, t in (
        (quiet_noise(), some_transform()),
        (quiet_noise(depth_gain=0.02), mixed),
        (quiet_noise(sigma0=0.3), some_transform()),
    ):
        a, b = stream(), stream()
        target = geometry.apply(t, phantom.target_rest[0, 0])
        z = a.standard_normal(n * 3 + 3)
        normals = z[:-3].reshape(1, n, 3)
        volume = observe(phantom, t.rotation[None], t.translation[None], noise, normals, [0])[0]
        np.testing.assert_array_equal(volume, observe_per_point(phantom, t, noise, b, 0))
        sigma = noise.sigma0 + noise.depth_gain * max(0.0, float(target[2]) + c)
        point = observe_point(phantom, target[None], noise, z[None, -3:], [0])[0]
        np.testing.assert_array_equal(point, target + b.normal(0.0, sigma, 3))
        assert a.standard_normal() == b.standard_normal()


def test_observe_point_stacks_points_observed_alone_bit_for_bit(phantom):
    # two gland shapes, needle counts 0-4, points in front of and past the
    # entry plane: each row is the point observed alone, and numpy's
    # normal(0.0, sigma, 3) with sigma on Python floats
    other = generate_phantom(PhantomConfig(gland_semiaxes=(21.0, 17.0, 26.0)), 10, seed=6)
    rs = np.random.default_rng(11)
    k = 40
    which = rs.integers(0, 2, k)
    phantoms = Phantoms.concat([phantom, other]).rows(which)
    points = rs.uniform(-30.0, 30.0, (k, 3))
    counts = rs.integers(0, 5, k).tolist()
    for noise in (quiet_noise(), quiet_noise(sigma0=0.2, depth_gain=0.03, degradation_per_needle=1.15)):
        a, b, c = stream(), stream(), stream()
        rows = observe_point(phantoms, points, noise, a.standard_normal((k, 3)), counts)
        for j, (row, point, count) in enumerate(zip(rows, points, counts)):
            p = phantoms.rows([j])
            alone = observe_point_one(p, point, noise, b, count)
            base = noise.sigma0 * noise.degradation_per_needle**count
            sigma = base + noise.depth_gain * max(0.0, float(point[2]) + p.gland_semiaxes[0, 2])
            assert row.tobytes() == alone.tobytes() == (point + c.normal(0.0, sigma, 3)).tobytes()


def observe_per_point(phantom, t, noise, s, needle_count):
    """observe as a loop over the fiducials of a one-row ``phantom``, one draw of three per point."""
    base = noise.sigma0 * noise.degradation_per_needle**needle_count
    rows = []
    for rest in phantom.fiducial_points[0]:
        world = geometry.apply(t, rest)
        sigma = base + noise.depth_gain * max(0.0, float(world[2]) + phantom.gland_semiaxes[0, 2])
        rows.append(world + s.normal(0.0, sigma, 3))
    return np.array(rows)


def test_observe_matches_per_point_loop_bit_for_bit(phantom):
    rng = np.random.default_rng(2024)
    c = phantom.gland_semiaxes[0, 2]
    a, b = stream(seed=3), stream(seed=3)
    zero_rows = set()
    for case in range(300):
        # sigma0 = 0 with a depth gain leaves sd 0 on every fiducial in
        # front of the entry plane z = -c; the z shift moves some, all or
        # none of them there
        sigma0 = 0.0 if case % 2 else float(rng.uniform(0.01, 1.0))
        noise = quiet_noise(sigma0=sigma0, depth_gain=float(rng.uniform(0.0, 0.05)),
                            degradation_per_needle=float(rng.uniform(1.0, 1.3)))
        rot = geometry.rotation_about_axis(rng.normal(size=3), rng.uniform(-30, 30), rng.uniform(-10, 10, 3))
        t = geometry.compose(geometry.translation(rng.uniform(-5, 5, 3) - [0, 0, rng.uniform(0, 2 * c)]), rot)
        k = int(rng.integers(0, 4))
        got = observe_one(phantom, t, noise, a, needle_count=k)
        want = observe_per_point(phantom, t, noise, b, k)
        np.testing.assert_array_equal(got, want)
        assert a.standard_normal() == b.standard_normal()
        if sigma0 == 0.0:
            zero_rows.add(int(np.sum(geometry.apply(t, phantom.fiducial_points[0])[:, 2] + c <= 0)))
    n = phantom.fiducial_points.shape[1]
    assert 0 in zero_rows and n in zero_rows and zero_rows - {0, n}


# two phantoms of different shape, so rows of one stack differ in their fiducials
PHANTOMS = (
    generate_phantom(PhantomConfig(), 10, seed=5),
    generate_phantom(PhantomConfig(gland_semiaxes=(21.0, 17.0, 26.0)), 10, seed=6),
)


def register_row(ref, obs):
    """One volume's registration, computed on its own: (rotation, translation, rms)."""
    ref_mean = ref.mean(axis=0)
    obs_mean = obs.mean(axis=0)
    h = (ref - ref_mean).T @ (obs - obs_mean)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = obs_mean - rot @ ref_mean
    resid = ref @ rot.T + trans - obs
    return rot, trans, float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))


@st.composite
def stack_rows(draw):
    """One row of a stack: phantom, gland transform (identity or not), needle count, stream seed."""
    phantom = draw(st.sampled_from(PHANTOMS))
    if draw(st.booleans()):
        t = geometry.identity()
    else:
        axis = draw(st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
            lambda a: sum(x * x for x in a) > 1e-4))
        angle = draw(st.floats(-30, 30))
        # z down to -2c carries some or all fiducials in front of the entry plane
        shift = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-50, 5)))
        t = geometry.compose(geometry.translation(shift), geometry.rotation_about_axis(axis, angle, [0, 0, -10]))
    return phantom, t, draw(st.integers(0, 4)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(stack_rows(), min_size=1, max_size=6),
    sigma0=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    depth_gain=st.floats(0.0, 0.05),
    degradation=st.floats(1.0, 1.3),
)
def test_stacked_kernels_match_a_row_by_row_loop_bit_for_bit(rows, sigma0, depth_gain, degradation):
    noise = quiet_noise(sigma0=sigma0, depth_gain=depth_gain, degradation_per_needle=degradation)
    phantoms = Phantoms.concat([r[0] for r in rows])
    transforms = [r[1] for r in rows]
    counts = [r[2] for r in rows]
    ours = [stream(seed) for *_, seed in rows]
    theirs = [stream(seed) for *_, seed in rows]

    def normals():
        return np.array([s.standard_normal(points.shape) for s, points in zip(ours, phantoms.fiducial_points)])

    rotations = np.array([t.rotation for t in transforms])
    translations = np.array([t.translation for t in transforms])
    rest = np.eye(3)[None].repeat(len(rows), axis=0), np.zeros((len(rows), 3))

    # a reference volume at rest, then a volume under each row's transform
    ref = observe(phantoms, *rest, noise, normals(), counts)
    obs = observe(phantoms, rotations, translations, noise, normals(), counts)
    rot, trans, rms = rigid_register(prepare_reference(ref), obs)
    targets = phantoms.target_rest[:, 0]
    tracked = track_target(rot, trans, targets)

    for k, (phantom, t, count, _) in enumerate(rows):
        ref_k = observe_per_point(phantom, geometry.identity(), noise, theirs[k], count)
        obs_k = observe_per_point(phantom, t, noise, theirs[k], count)
        np.testing.assert_array_equal(ref[k], ref_k)
        np.testing.assert_array_equal(obs[k], obs_k)
        rot_k, trans_k, rms_k = register_row(ref_k, obs_k)
        np.testing.assert_array_equal(rot[k], rot_k)
        np.testing.assert_array_equal(trans[k], trans_k)
        assert rms[k] == rms_k
        np.testing.assert_array_equal(tracked[k], rot_k @ targets[k] + trans_k)
        # each row took exactly its own draws
        assert ours[k].standard_normal() == theirs[k].standard_normal()
