import numpy as np
import pytest

from prostasim import geometry
from prostasim.geometry import DegenerateConfiguration, prepare_reference
from prostasim.phantom import PhantomSpec, generate_phantom
from prostasim.rng import InsertionStreams
from prostasim.sensing import (
    NoiseModel,
    observe,
    observe_point,
    rigid_register,
    track_target,
)


@pytest.fixture
def phantom():
    return generate_phantom(PhantomSpec(), seed=5)


def quiet_noise(**overrides):
    params = dict(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)
    params.update(overrides)
    return NoiseModel(**params)


def stream(seed=9):
    return InsertionStreams(seed, phantom=0, target=0, replicate=0).observation()


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
    obs = observe(phantom, t, quiet_noise(), stream())
    assert obs.shape == phantom.fiducial_points.shape
    for rest, world in zip(phantom.fiducial_points, obs):
        np.testing.assert_allclose(world, geometry.apply(t, rest), atol=1e-12)


def test_register_recovers_transform(phantom):
    t = some_transform()
    obs = observe(phantom, t, quiet_noise(), stream())
    reg, rms = rigid_register(prepare_reference(phantom.fiducial_points), obs)
    assert rms < 1e-9
    np.testing.assert_allclose(reg.rotation, t.rotation, atol=1e-9)
    np.testing.assert_allclose(reg.translation, t.translation, atol=1e-9)


def test_track_target_is_transform_application(phantom):
    t = some_transform()
    target = phantom.targets[0].position_rest
    np.testing.assert_allclose(track_target(t, target), geometry.apply(t, target), atol=1e-12)


def test_registration_rms_matches_residual_dof(phantom):
    # fitting 6 rigid dof to 3n noisy coordinates leaves sd^2 * (3n - 6)
    # expected squared residual, so rms -> sd * sqrt((3n - 6) / n)
    sd = 0.5
    n = len(phantom.fiducial_points)
    expect = sd * np.sqrt((3 * n - 6) / n)
    noise = quiet_noise(sigma0=sd)
    s = stream()
    reference = prepare_reference(phantom.fiducial_points)
    draws = []
    for _ in range(300):
        obs = observe(phantom, geometry.identity(), noise, s)
        _, rms = rigid_register(reference, obs)
        draws.append(rms)
    assert np.mean(draws) == pytest.approx(expect, rel=0.06)


def test_observe_point_scatter_matches_sigma(phantom):
    # z = 0 sits gland_semiaxes[2] mm past the entry plane
    noise = quiet_noise(sigma0=0.3, depth_gain=0.01)
    depth = phantom.gland_semiaxes[2]
    expect = 0.3 + 0.01 * depth
    s = stream()
    pts = np.array([observe_point(phantom, [5.0, 1.0, 0.0], noise, s) for _ in range(4000)])
    np.testing.assert_allclose(pts.mean(axis=0), [5.0, 1.0, 0.0], atol=0.05)
    np.testing.assert_allclose(pts.std(axis=0), expect, rtol=0.08)


def test_degradation_raises_base_sigma(phantom):
    # twin streams draw the same normals, so only the sd scales the deviation
    noise = quiet_noise(sigma0=0.3, degradation_per_needle=1.2)
    exact = phantom.fiducial_points  # the noiseless volume at rest
    dev0 = observe(phantom, geometry.identity(), noise, stream(), needle_count=0) - exact
    dev3 = observe(phantom, geometry.identity(), noise, stream(), needle_count=3) - exact
    np.testing.assert_allclose(dev3, 1.2**3 * dev0, rtol=1e-12)


def test_depth_gain_widens_scatter_with_depth(phantom):
    noise = quiet_noise(sigma0=0.05, depth_gain=0.05)
    s = stream()
    shallow = np.array(
        [observe_point(phantom, [0, 0, -phantom.gland_semiaxes[2]], noise, s) for _ in range(2000)]
    )
    deep = np.array([observe_point(phantom, [0, 0, 20.0], noise, s) for _ in range(2000)])
    assert deep.std(axis=0).mean() > 2.0 * shallow.std(axis=0).mean()


def test_register_needs_three_common_points(phantom):
    with pytest.raises(DegenerateConfiguration, match="at least 3"):
        prepare_reference(phantom.fiducial_points[:2])
    reference = prepare_reference(phantom.fiducial_points[:3])
    moved = geometry.apply(some_transform(), phantom.fiducial_points[:3])
    _, rms = rigid_register(reference, moved)
    assert rms < 1e-9

def test_observation_stream_replays(phantom):
    noise = quiet_noise(sigma0=0.4)
    ks = dict(phantom=1, target=2, replicate=3)
    a = observe(phantom, geometry.identity(), noise, InsertionStreams(7, **ks).observation())
    b = observe(phantom, geometry.identity(), noise, InsertionStreams(7, **ks).observation())
    np.testing.assert_array_equal(a, b)


def test_streams_have_a_fixed_layout(phantom):
    """A volume takes N x 3 normals and a point 3, whatever their sd."""
    c = phantom.gland_semiaxes[2]
    n = len(phantom.fiducial_points)
    # moved back by c, the fiducials with rest z <= 0 sit in front of the
    # entry plane z = -c, where sigma0 = 0 leaves them an sd of 0
    mixed = geometry.translation([0.0, 0.0, -c])
    rest_z = phantom.fiducial_points[:, 2]
    assert (rest_z <= 0).any() and (rest_z > 0).any()
    for noise, t in (
        (quiet_noise(), some_transform()),
        (quiet_noise(depth_gain=0.02), mixed),
        (quiet_noise(sigma0=0.3), some_transform()),
    ):
        a, b = stream(), stream()
        observe(phantom, t, noise, a)
        observe_point(phantom, geometry.apply(t, phantom.targets[0].position_rest), noise, a)
        b.standard_normal(n * 3 + 3)
        assert a.standard_normal() == b.standard_normal()


def observe_per_point(phantom, t, noise, s, needle_count):
    """observe as a loop over fiducials, one draw of three per point."""
    base = noise.sigma0 * noise.degradation_per_needle**needle_count
    rows = []
    for rest in phantom.fiducial_points:
        world = geometry.apply(t, rest)
        sigma = base + noise.depth_gain * max(0.0, float(world[2]) + phantom.gland_semiaxes[2])
        rows.append(world + s.normal(0.0, sigma, 3))
    return np.array(rows)


def test_observe_matches_per_point_loop_bit_for_bit(phantom):
    rng = np.random.default_rng(2024)
    c = phantom.gland_semiaxes[2]
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
        got = observe(phantom, t, noise, a, needle_count=k)
        want = observe_per_point(phantom, t, noise, b, k)
        np.testing.assert_array_equal(got, want)
        assert a.standard_normal() == b.standard_normal()
        if sigma0 == 0.0:
            zero_rows.add(int(np.sum(geometry.apply(t, phantom.fiducial_points)[:, 2] + c <= 0)))
    n = len(phantom.fiducial_points)
    assert 0 in zero_rows and n in zero_rows and zero_rows - {0, n}
