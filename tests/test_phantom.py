import numpy as np
import pytest

from prostasim import geometry, phantom as ph
from prostasim.phantom import (
    ANTERIOR,
    APEX,
    BASE,
    CENTER,
    LEFT,
    POSTERIOR,
    RIGHT,
    MotionParams,
    NeedleState,
    PhantomSpec,
    default_quotas,
    generate_phantom,
    gland_entry_depth,
    largest_remainder,
    penetration,
    prostate_transform,
    world_to_material,
)
from prostasim.rng import MOTION, substream


def quiet_motion(**overrides):
    params = dict(axial_gain=0.0, axial_base_offset=0.0, rotation_gain=0.0, noise_sd_motion=0.0)
    params.update(overrides)
    return MotionParams(**params)


def make_phantom(seed=3, **spec_kw):
    return generate_phantom(PhantomSpec(**spec_kw), seed)


def entry_depth(p, entry, d):
    """The gland entry depth of one needle line: a stack of one."""
    return gland_entry_depth([p], [entry], [d])[0]


def needle_penetration(p, needle):
    return penetration(entry_depth(p, needle.entry, needle.dir), needle.tip_depth)


def transform(p, motion, needle, noise):
    """The gland transform of one needle, given its entry depth along the normalized direction."""
    depth = entry_depth(p, needle.entry, geometry.normalize(needle.dir))
    return prostate_transform(p, motion, needle, noise, depth)


def test_generation_is_deterministic():
    a = generate_phantom(PhantomSpec(), 11)
    b = generate_phantom(PhantomSpec(), 11)
    for ta, tb in zip(a.targets, b.targets):
        np.testing.assert_array_equal(ta.position_rest, tb.position_rest)
        assert ta.zone == tb.zone
    c = generate_phantom(PhantomSpec(), 12)
    assert any(
        not np.array_equal(ta.position_rest, tc.position_rest)
        for ta, tc in zip(a.targets, c.targets)
    )


def test_zone_quotas_and_predicates():
    p = make_phantom()
    a = p.gland_semiaxes[0]
    counts = {APEX: 0, BASE: 0, LEFT: 0, CENTER: 0, RIGHT: 0, ANTERIOR: 0, POSTERIOR: 0}
    for t in p.targets:
        z = t.zone
        counts[z.depth_zone] += 1
        counts[z.lateral_zone] += 1
        counts[z.ap_zone] += 1
        pos = t.position_rest
        assert (pos[2] < 0) == (z.depth_zone == APEX)
        if z.lateral_zone == LEFT:
            assert pos[0] > a / 3
        elif z.lateral_zone == RIGHT:
            assert pos[0] < -a / 3
        else:
            assert abs(pos[0]) <= a / 3
        assert (pos[1] > 0) == (z.ap_zone == ANTERIOR)
    expected = default_quotas(10)
    assert counts == expected


def test_targets_inside_margin_and_spaced():
    spec = PhantomSpec(margin=0.9, min_spacing=5.0)
    p = generate_phantom(spec, 5)
    semi = np.array(p.gland_semiaxes) * 0.9
    positions = [t.position_rest for t in p.targets]
    for pos in positions:
        assert np.sum((pos / semi) ** 2) <= 1.0 + 1e-12
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            assert np.linalg.norm(positions[i] - positions[j]) >= 5.0 - 1e-12


def test_impossible_spacing_raises_with_zone_name():
    spec = PhantomSpec(min_spacing=60.0)
    with pytest.raises(ValueError, match="min spacing"):
        generate_phantom(spec, 1)


def test_bad_quota_sum_raises():
    quotas = default_quotas(10)
    quotas[APEX] += 1
    with pytest.raises(ValueError, match="quotas"):
        generate_phantom(PhantomSpec(zone_quotas=quotas), 1)


def test_target_count_bounds():
    with pytest.raises(ValueError):
        generate_phantom(PhantomSpec(n_targets=0), 1)
    with pytest.raises(ValueError):
        generate_phantom(PhantomSpec(n_targets=65), 1)


def test_largest_remainder_sums_and_known_split():
    assert largest_remainder(10, [0.5, 0.5]) == [5, 5]
    assert sum(largest_remainder(7, [1 / 3] * 3)) == 7
    assert largest_remainder(90, [50 / 90, 40 / 90]) == [50, 40]


def test_entry_depth_axial_analytic():
    p = make_phantom()
    # straight down the z axis: surface at z = -c
    c = p.gland_semiaxes[2]
    t0 = entry_depth(p, [0, 0, -60], [0, 0, 1])
    assert t0 == pytest.approx(60.0 - c, abs=1e-12)


def test_entry_depth_miss_and_inside():
    p = make_phantom()
    assert np.isnan(entry_depth(p, [100, 0, -60], [0, 0, 1]))
    assert np.isnan(entry_depth(p, [0, 0, -60], [0, 0, -1]))
    assert entry_depth(p, [0, 0, 0], [0, 0, 1]) == 0.0


def test_penetration_and_drag_values():
    motion = quiet_motion(axial_gain=0.2, axial_base_offset=1.5)
    p = make_phantom()
    c = p.gland_semiaxes[2]
    entry = np.array([0.0, 0.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    shallow = NeedleState(entry, d, 10.0)
    assert needle_penetration(p, shallow) == 0.0
    assert motion.drag(needle_penetration(p, shallow)) == 0.0
    deep = NeedleState(entry, d, 60.0)
    assert needle_penetration(p, deep) == pytest.approx(c)
    assert motion.drag(needle_penetration(p, deep)) == pytest.approx(1.5 + 0.2 * c)


def test_transform_identity_before_gland():
    motion = quiet_motion(axial_base_offset=3.0)
    p = make_phantom()
    needle = NeedleState([0, 0, -60], [0, 0, 1], 5.0)
    t = transform(p, motion, needle, np.zeros(3))
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_array_equal(t.translation, np.zeros(3))


def test_transform_pure_drag_through_centroid():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0)
    p = make_phantom()
    c = p.gland_semiaxes[2]
    needle = NeedleState([0, 0, -60], [0, 0, 1], 60.0)
    t = transform(p, motion, needle, np.zeros(3))
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_allclose(t.translation, [0, 0, 2.0 + 0.1 * c], atol=1e-12)


def test_axial_displacement_monotone_in_depth():
    motion = quiet_motion(axial_gain=0.15, axial_base_offset=1.0, rotation_gain=0.02)
    p = make_phantom()
    entry = np.array([4.0, -3.0, -60.0])
    d = geometry.normalize([0.05, 0.02, 1.0])
    prev = -1.0
    for depth in np.linspace(0.0, 90.0, 40):
        t = transform(p, motion, NeedleState(entry, d, float(depth)), np.zeros(3))
        # the gland centroid is the frame's origin
        moved = geometry.apply(t, np.zeros(3))
        axial = float(moved @ d)
        assert axial >= prev - 1e-9
        prev = axial


def test_rotation_zero_for_centered_needle():
    motion = quiet_motion(rotation_gain=0.05, axial_base_offset=1.0)
    p = make_phantom()
    needle = NeedleState([0, 0, -60], [0, 0, 1], 70.0)
    t = transform(p, motion, needle, np.zeros(3))
    assert geometry.rotation_angle_deg(t) == pytest.approx(0.0, abs=1e-12)


def test_rotation_angle_matches_formula_and_pivot_fixed():
    motion = quiet_motion(rotation_gain=0.01, axial_base_offset=0.0)
    p = make_phantom()
    entry = np.array([12.0, 5.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    needle = NeedleState(entry, d, 70.0)
    t = transform(p, motion, needle, np.zeros(3))
    lateral = np.hypot(12.0, 5.0)
    pen = needle_penetration(p, needle)
    assert geometry.rotation_angle_deg(t) == pytest.approx(0.01 * lateral * pen, rel=1e-9)
    # with zero drag the pivot must stay put
    np.testing.assert_allclose(geometry.apply(t, p.pivot), p.pivot, atol=1e-9)


def test_motion_noise_is_frozen_across_corrections():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0, noise_sd_motion=1.5)
    p = make_phantom()
    noise = substream(9, MOTION).normal(0.0, motion.noise_sd_motion, 3)
    entry = np.array([0.0, 0.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    first = transform(p, motion, NeedleState(entry, d, 58.0, pass_depth=58.0), noise)
    # corrected deeper, same first-pass depth: identical transform
    second = transform(p, motion, NeedleState(entry, d, 63.0, pass_depth=58.0), noise)
    np.testing.assert_array_equal(first.rotation, second.rotation)
    np.testing.assert_array_equal(first.translation, second.translation)
    # a genuinely deeper first pass does move differently
    deeper = transform(p, motion, NeedleState(entry, d, 63.0, pass_depth=63.0), noise)
    assert not np.array_equal(first.translation, deeper.translation)


def test_material_world_round_trip():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0, rotation_gain=0.01,
                          noise_sd_motion=1.0)
    p = make_phantom()
    noise = substream(4, MOTION).normal(0.0, motion.noise_sd_motion, 3)
    t = transform(p, motion, NeedleState([6, 2, -60], [0, 0, 1], 70.0), noise)
    rest = p.targets[0].position_rest
    world = geometry.apply(t, rest)
    back = world_to_material(t.rotation[None], t.translation[None], world[None])[0]
    np.testing.assert_allclose(back, rest, atol=1e-9)


def test_fiducials_on_shrunken_surface():
    p = make_phantom()
    semi = np.array(p.gland_semiaxes) * 0.85
    for pos in p.fiducial_points:
        assert np.sum((pos / semi) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert p.fiducial_points.shape == (12, 3)


def test_negative_params_rejected():
    with pytest.raises(ValueError):
        MotionParams(axial_gain=-0.1).validate()
    with pytest.raises(ValueError):
        NeedleState([0, 0, 0], [0, 0, 1], -1.0)
