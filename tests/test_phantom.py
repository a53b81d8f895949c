import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TEN_TARGET_QUOTAS, UNSPLITTABLE_QUOTAS, gland_transform_at, gland_transform_oracle
from prostasim import geometry, phantom as ph, rng
from prostasim.phantom import (
    ANTERIOR,
    APEX,
    BASE,
    CENTER,
    DEFAULT_ZONE_QUOTAS,
    LEFT,
    POSTERIOR,
    RIGHT,
    ZONE_GROUPS,
    MotionParams,
    PhantomConfig,
    Phantoms,
    generate_phantom,
    gland_entry_depth,
    gland_levers,
    penetration,
    phantom_quota_split,
    world_to_material,
)
from prostasim.rng import MOTION, substream


def quiet_motion(**overrides):
    params = dict(axial_gain=0.0, axial_base_offset=0.0, rotation_gain=0.0, noise_sd_motion=0.0)
    params.update(overrides)
    return MotionParams(**params)


def make_phantom(seed=3, **params):
    """One phantom of 10 targets: a ``Phantoms`` of one row."""
    return generate_phantom(PhantomConfig(**params), 10, seed, TEN_TARGET_QUOTAS)


def targets_of(p):
    """The (id, rest position, zone labels) of each target of the one-row ``p``, in id order."""
    zones = zip(*(column[0].tolist() for column in (p.zone_depth, p.zone_lateral, p.zone_ap)))
    return [(i, pos, labels) for i, (pos, labels) in enumerate(zip(p.target_rest[0], zones))]


def entry_depth(p, entry, d):
    """The gland entry depth of one needle line: a stack of one."""
    return gland_entry_depth(p, [entry], [d])[0]


def needle_penetration(p, entry, d, depth):
    return penetration(entry_depth(p, entry, d), depth)


def levers(p, entry, d, pass_depth):
    """The levers of one needle line and first pass: a block of one."""
    return gland_levers(p, [entry], geometry.normalize(np.array([d], dtype=np.float64)), [pass_depth])


def transform(p, motion, entry, d, tip_depth, noise, pass_depth=None):
    """The gland transform with the tip at ``tip_depth`` after a first pass
    to ``pass_depth`` (by default the tip's depth: one uncorrected pass)."""
    pass_depth = tip_depth if pass_depth is None else pass_depth
    return gland_transform_at(levers(p, entry, d, pass_depth), 0, motion, tip_depth, noise)


def test_generation_is_deterministic():
    a = make_phantom(11)
    b = make_phantom(11)
    for (_, pa, za), (_, pb, zb) in zip(targets_of(a), targets_of(b)):
        np.testing.assert_array_equal(pa, pb)
        assert za == zb
    c = make_phantom(12)
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa, _), (_, pc, _) in zip(targets_of(a), targets_of(c))
    )


def test_zone_quotas_and_predicates():
    p = make_phantom()
    a = p.gland_semiaxes[0, 0]
    counts = {APEX: 0, BASE: 0, LEFT: 0, CENTER: 0, RIGHT: 0, ANTERIOR: 0, POSTERIOR: 0}
    for _, pos, (depth_zone, lateral_zone, ap_zone) in targets_of(p):
        counts[depth_zone] += 1
        counts[lateral_zone] += 1
        counts[ap_zone] += 1
        assert (pos[2] < 0) == (depth_zone == APEX)
        if lateral_zone == LEFT:
            assert pos[0] > a / 3
        elif lateral_zone == RIGHT:
            assert pos[0] < -a / 3
        else:
            assert abs(pos[0]) <= a / 3
        assert (pos[1] > 0) == (ap_zone == ANTERIOR)
    assert counts == TEN_TARGET_QUOTAS


def test_targets_inside_margin_and_spaced():
    p = make_phantom(5, target_margin=0.9, min_target_spacing=5.0)
    semi = p.gland_semiaxes[0] * 0.9
    positions = p.target_rest[0]
    for pos in positions:
        assert np.sum((pos / semi) ** 2) <= 1.0 + 1e-12
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            assert np.linalg.norm(positions[i] - positions[j]) >= 5.0 - 1e-12


def test_impossible_spacing_raises_with_zone_name():
    with pytest.raises(ValueError, match="min spacing"):
        make_phantom(1, min_target_spacing=60.0)


def test_bad_quota_sum_raises():
    quotas = dict(TEN_TARGET_QUOTAS)
    quotas[APEX] += 1
    with pytest.raises(ValueError, match="quotas"):
        generate_phantom(PhantomConfig(), 10, 1, quotas)


def test_target_count_bounds():
    with pytest.raises(ValueError):
        generate_phantom(PhantomConfig(), 0, 1, TEN_TARGET_QUOTAS)
    with pytest.raises(ValueError):
        generate_phantom(PhantomConfig(), 65, 1, TEN_TARGET_QUOTAS)


def largest_remainder_oracle(total, fractions):
    """Integer split of ``total`` proportional to ``fractions``, by largest remainder over floats."""
    raw = [total * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    short = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in order[:short]:
        counts[i] += 1
    return counts


def quota_split_oracle(zone_quotas, n_phantoms, per):
    """The per-phantom quotas as ``phantom_quota_split`` made them before it read the zone table.

    An even largest-remainder split of the apex, left, center and anterior
    counts, with base, right and posterior the hard-coded remainders; kept
    as the oracle of the table-driven integer split.
    """
    even = [1.0 / n_phantoms] * n_phantoms
    split = {key: largest_remainder_oracle(zone_quotas[key], even) for key in ("apex", "left", "center", "anterior")}
    out = []
    for i in range(n_phantoms):
        apex, left, center, anterior = (split[key][i] for key in ("apex", "left", "center", "anterior"))
        quotas = {APEX: apex, BASE: per - apex, LEFT: left, CENTER: center, RIGHT: per - left - center,
                  ANTERIOR: anterior, POSTERIOR: per - anterior}
        bad = [k for k, v in quotas.items() if v < 0]
        if bad:
            raise ValueError(f"zone quotas leave phantom {i} with negative {bad[0]} count")
        out.append(quotas)
    return out


def quota_split_outcome(split, zone_quotas, n_phantoms, per):
    """Each phantom's quotas as (label, count) items in order, or the ValueError's text."""
    try:
        return [list(quotas.items()) for quotas in split(zone_quotas, n_phantoms, per)]
    except ValueError as e:
        return str(e)


@st.composite
def quota_cases(draw):
    """Study-level quotas, some negative, a phantom count and targets per phantom."""
    n_phantoms = draw(st.integers(1, 300))
    per = draw(st.integers(0, 64))
    counts = st.integers(-3, n_phantoms * per + 3)
    return {key: draw(counts) for key in DEFAULT_ZONE_QUOTAS}, n_phantoms, per


@settings(max_examples=300, deadline=None)
@given(quota_cases())
@example((DEFAULT_ZONE_QUOTAS, 9, 10))
@example((UNSPLITTABLE_QUOTAS, 9, 10))
@example(({key: 3 * 65536 - 1 for key in DEFAULT_ZONE_QUOTAS}, 65536, 6))
@example(({key: -1 for key in DEFAULT_ZONE_QUOTAS}, 3, 0))
def test_quota_split_is_the_even_largest_remainder_split(case):
    assert quota_split_outcome(phantom_quota_split, *case) == quota_split_outcome(quota_split_oracle, *case)


def test_entry_depth_axial_analytic():
    p = make_phantom()
    # straight down the z axis: surface at z = -c
    c = p.gland_semiaxes[0, 2]
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
    c = p.gland_semiaxes[0, 2]
    entry = np.array([0.0, 0.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    assert needle_penetration(p, entry, d, 10.0) == 0.0
    assert motion.drag(needle_penetration(p, entry, d, 10.0)) == 0.0
    assert needle_penetration(p, entry, d, 60.0) == pytest.approx(c)
    assert motion.drag(needle_penetration(p, entry, d, 60.0)) == pytest.approx(1.5 + 0.2 * c)


def test_transform_pure_drag_through_centroid():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0)
    p = make_phantom()
    c = p.gland_semiaxes[0, 2]
    t = transform(p, motion, [0, 0, -60], [0, 0, 1], 60.0, np.zeros(3))
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_allclose(t.translation, [0, 0, 2.0 + 0.1 * c], atol=1e-12)


def test_axial_displacement_monotone_in_depth():
    motion = quiet_motion(axial_gain=0.15, axial_base_offset=1.0, rotation_gain=0.02)
    p = make_phantom()
    entry = np.array([4.0, -3.0, -60.0])
    d = geometry.normalize([0.05, 0.02, 1.0])
    prev = -1.0
    for depth in np.linspace(0.0, 90.0, 40):
        t = transform(p, motion, entry, d, float(depth), np.zeros(3))
        # the gland centroid is the frame's origin
        moved = geometry.apply(t, np.zeros(3))
        axial = float(moved @ d)
        assert axial >= prev - 1e-9
        prev = axial


def test_rotation_zero_for_centered_needle():
    motion = quiet_motion(rotation_gain=0.05, axial_base_offset=1.0)
    p = make_phantom()
    t = transform(p, motion, [0, 0, -60], [0, 0, 1], 70.0, np.zeros(3))
    assert geometry.rotation_angle_deg(t) == pytest.approx(0.0, abs=1e-12)


def test_rotation_angle_matches_formula_and_pivot_fixed():
    motion = quiet_motion(rotation_gain=0.01, axial_base_offset=0.0)
    p = make_phantom()
    entry = np.array([12.0, 5.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    t = transform(p, motion, entry, d, 70.0, np.zeros(3))
    lateral = np.hypot(12.0, 5.0)
    pen = needle_penetration(p, entry, d, 70.0)
    assert geometry.rotation_angle_deg(t) == pytest.approx(0.01 * lateral * pen, rel=1e-9)
    # with zero drag the pivot must stay put
    np.testing.assert_allclose(geometry.apply(t, p.pivot[0]), p.pivot[0], atol=1e-9)


def test_motion_noise_is_frozen_across_corrections():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0, noise_sd_motion=1.5)
    p = make_phantom()
    noise = substream(9, MOTION).normal(0.0, motion.noise_sd_motion, 3)
    entry = np.array([0.0, 0.0, -60.0])
    d = np.array([0.0, 0.0, 1.0])
    first = transform(p, motion, entry, d, 58.0, noise)
    # corrected deeper, same first-pass depth: identical transform
    second = transform(p, motion, entry, d, 63.0, noise, pass_depth=58.0)
    np.testing.assert_array_equal(first.rotation, second.rotation)
    np.testing.assert_array_equal(first.translation, second.translation)
    # a genuinely deeper first pass does move differently
    deeper = transform(p, motion, entry, d, 63.0, noise)
    assert not np.array_equal(first.translation, deeper.translation)


def test_material_world_round_trip():
    motion = quiet_motion(axial_gain=0.1, axial_base_offset=2.0, rotation_gain=0.01,
                          noise_sd_motion=1.0)
    p = make_phantom()
    noise = substream(4, MOTION).normal(0.0, motion.noise_sd_motion, 3)
    t = transform(p, motion, [6, 2, -60], [0, 0, 1], 70.0, noise)
    rest = p.target_rest[0, 0]
    world = geometry.apply(t, rest)
    back = world_to_material(t.rotation[None], t.translation[None], world[None])[0]
    np.testing.assert_allclose(back, rest, atol=1e-9)


def test_fiducials_on_shrunken_surface():
    p = make_phantom()
    semi = p.gland_semiaxes[0] * 0.85
    for pos in p.fiducial_points[0]:
        assert np.sum((pos / semi) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert p.fiducial_points.shape == (1, 12, 3)


def test_negative_params_rejected():
    with pytest.raises(ValueError):
        MotionParams(axial_gain=-0.1).validate()


# Oracles of the array forms: the gland transform evaluated whole on one
# line (conftest.gland_transform_oracle) and the placement loop drawing
# and testing one candidate at a time.


def bits(t):
    return t.rotation.tobytes() + t.translation.tobytes()


def still_and_moving(rs):
    """Motion models with every term on, and with the rotation or the noise off."""
    yield MotionParams(0.118, 2.45, 0.016, 1.85), rs.standard_normal(3) * 1.85
    random = MotionParams(rs.uniform(0, 0.3), rs.uniform(0, 4), rs.uniform(0, 0.05), 0.9)
    yield random, 0.0 + 0.9 * rs.standard_normal(3)
    yield MotionParams(0.2, 1.0, 0.0, 1.0), rs.standard_normal(3)
    yield MotionParams(0.1, 2.0, 0.02, 0.0), np.zeros(3)


def assert_levers_match_the_per_line_formula(phantoms, entries, dirs, pass_depths, tips, rs):
    """Levers made for the lines as one block, each line's transforms against the oracle's bits."""
    entries = np.asarray(entries, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    levers = gland_levers(phantoms, entries, dirs, pass_depths)
    depths = levers.entry_depth
    np.testing.assert_array_equal(depths, gland_entry_depth(phantoms, entries, dirs))
    assert len(levers) == len(phantoms)
    for k in range(len(levers)):
        for tip in tips[k]:
            for motion, noise in still_and_moving(rs):
                got = gland_transform_at(levers, k, motion, tip, noise)
                want = gland_transform_oracle(
                    phantoms.rows(k), motion, entries[k], dirs[k], tip, pass_depths[k], noise, depths[k]
                )
                assert bits(got) == bits(want), (k, tip, motion)
    return levers, depths


SHAPED = (make_phantom(), make_phantom(seed=6, gland_semiaxes=(21.0, 17.0, 26.0), pivot=(2.0, 14.0, -12.0)))


def test_levers_and_transform_match_the_per_line_formula():
    rs = np.random.default_rng(2024)
    n = 300
    phantoms = Phantoms.concat(SHAPED).rows(rs.integers(0, 2, n))
    entries = np.column_stack([rs.uniform(-30, 30, (n, 2)), rs.uniform(-80, -30, n)])
    aims = rs.uniform(-25, 25, (n, 3))
    lengths = np.linalg.norm(aims - entries, axis=1)
    # unit directions as the planner makes them and as normalized: they can differ in the last ulp
    dirs = np.where(
        (rs.random(n) < 0.5)[:, None], (aims - entries) / lengths[:, None], geometry.normalize(aims - entries)
    )
    pass_depths = lengths * rs.uniform(0.5, 1.5, n)
    tips = [[float(p), max(0.0, float(p + rs.uniform(-15, 15)))] for p in pass_depths]
    levers, depths = assert_levers_match_the_per_line_formula(phantoms, entries, dirs, pass_depths, tips, rs)
    assert np.count_nonzero(levers.kx.any(axis=(1, 2))) == n
    assert np.isfinite(depths).sum() > n // 2


def test_levers_match_the_per_line_formula_at_the_edges():
    rs = np.random.default_rng(7)
    p = SHAPED[0]
    c = p.gland_semiaxes[0, 2]
    entries = [
        [0.0, 0.0, -60.0],  # on the axis: lateral 0, no rotation
        [1e-13, 0.0, -60.0],  # lateral 1e-13, at most 1e-12: no rotation
        [100.0, 0.0, -60.0],  # misses the gland: NaN entry depth
        [6.0, -4.0, -60.0],  # a tip exactly at the entry depth and one ulp past it
    ]
    dirs = [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [0.02, 0.01, 1.0]]
    units = geometry.normalize(np.array(dirs))
    at = float(gland_entry_depth(p, [entries[3]], units[3:])[0])
    tips = [[70.0, 60.0 - c], [70.0], [70.0, 0.0], [at, float(np.nextafter(at, np.inf)), 70.0]]
    levers, depths = assert_levers_match_the_per_line_formula(
        p.rows([0] * 4), entries, units, [70.0, 70.0, 70.0, 70.0], tips, rs
    )
    # no axis: the rows of a line through the centroid, or within 1e-12 of it, are zero
    assert levers.lateral[0] == 0.0 and not levers.kx[0].any() and not levers.kx2[0].any()
    assert 0.0 < levers.lateral[1] <= 1e-12 and not levers.kx[1].any()
    assert np.isnan(depths[2]) and levers.penetration[2] == 0.0
    assert levers.kx[3].any()
    motion = MotionParams(0.1, 2.0, 0.02, 0.0)
    assert bits(gland_transform_at(levers, 2, motion, 70.0, np.zeros(3))) == bits(geometry.identity())
    assert bits(gland_transform_at(levers, 3, motion, at, np.zeros(3))) == bits(geometry.identity())
    assert bits(gland_transform_at(levers, 3, motion, 70.0, np.zeros(3))) != bits(geometry.identity())


def zone_ok_oracle(p, a, labels):
    depth, lat, ap = labels
    if depth == APEX and not p[2] < 0:
        return False
    if depth == BASE and not p[2] > 0:
        return False
    third = a / 3.0
    if lat == LEFT and not p[0] > third:
        return False
    if lat == RIGHT and not p[0] < -third:
        return False
    if lat == CENTER and not abs(p[0]) <= third:
        return False
    if ap == ANTERIOR and not p[1] > 0:
        return False
    if ap == POSTERIOR and not p[1] < 0:
        return False
    return True


def test_zone_mask_matches_the_oracle_on_the_zone_boundaries():
    a = 25.0
    third = a / 3.0
    xs = [-a, -third, 0.0, third, a] + [np.nextafter(x, to) for x in (-third, third) for to in (-a, a)]
    points = np.array(list(itertools.product(xs, (-1.0, -0.0, 0.0, 1.0), (-1.0, 0.0, 1.0))))
    triples = list(itertools.product(*ZONE_GROUPS.values()))
    assert len(triples) == 12
    for labels in triples:
        assert ph._zone_mask(points, a, labels).tolist() == [zone_ok_oracle(p, a, labels) for p in points], labels


def placement_oracle(phantom, n_targets, seed, zone_quotas, index=0):
    """The (id, rest position bits, zones) of each target of ``generate_phantom``, one candidate drawn and tested per attempt."""
    a, b, c = phantom.gland_semiaxes
    stream = substream(seed, rng.PHANTOM_BUILD, phantom=index)
    depth_seq = ph._shuffled_labels(stream, [(APEX, zone_quotas[APEX]), (BASE, zone_quotas[BASE])])
    lat_seq = ph._shuffled_labels(
        stream, [(LEFT, zone_quotas[LEFT]), (CENTER, zone_quotas[CENTER]), (RIGHT, zone_quotas[RIGHT])]
    )
    ap_seq = ph._shuffled_labels(stream, [(ANTERIOR, zone_quotas[ANTERIOR]), (POSTERIOR, zone_quotas[POSTERIOR])])
    semi = np.array([a, b, c]) * phantom.target_margin
    placed, targets = [], []
    for i in range(n_targets):
        labels = (depth_seq[i], lat_seq[i], ap_seq[i])
        pos = None
        for _ in range(ph._PLACEMENT_ATTEMPTS):
            cand = (stream.uniform(-1.0, 1.0, 3)) * semi
            if np.sum((cand / semi) ** 2) > 1.0:
                continue
            if not zone_ok_oracle(cand, a, labels):
                continue
            if placed and min(np.linalg.norm(cand - q) for q in placed) < phantom.min_target_spacing:
                continue
            pos = cand
            break
        if pos is None:
            raise ValueError(
                f"could not place target {i} in zone {labels} with min spacing "
                f"{phantom.min_target_spacing} mm after {ph._PLACEMENT_ATTEMPTS} attempts"
            )
        placed.append(pos)
        targets.append((i, pos.tobytes(), labels))
    return targets


def placement(make, spec, seed):
    """The targets' ids, position bits and zones, or the error message, of the
    phantom that ``spec``, the arguments of ``generate_phantom`` but the seed, gives."""
    try:
        return make(seed=seed, **spec)
    except ValueError as e:
        return str(e)


def corner_quotas(n):
    """Every target in the apex-left-anterior corner: most candidates miss the zone."""
    return {APEX: n, BASE: 0, LEFT: n, CENTER: 0, RIGHT: 0, ANTERIOR: n, POSTERIOR: 0}


def quotas_of(*counts):
    """Zone quotas by label, given each label's count in zone-table order."""
    return dict(zip((label for labels in ZONE_GROUPS.values() for label in labels), counts))


# the first four place their targets in the default study's zone mix
PLACEMENT_SPECS = (
    dict(phantom=PhantomConfig(), n_targets=10, zone_quotas=TEN_TARGET_QUOTAS),
    dict(phantom=PhantomConfig(min_target_spacing=6.0), n_targets=30, index=2,
         zone_quotas=quotas_of(17, 13, 11, 9, 10, 17, 13)),
    dict(phantom=PhantomConfig(min_target_spacing=3.0, gland_semiaxes=(21.0, 17.0, 26.0), target_margin=0.8),
         n_targets=64, zone_quotas=quotas_of(36, 28, 23, 20, 21, 37, 27)),
    dict(phantom=PhantomConfig(min_target_spacing=12.0), n_targets=5, index=3,
         zone_quotas=quotas_of(3, 2, 2, 1, 2, 3, 2)),
    dict(phantom=PhantomConfig(min_target_spacing=5.0), n_targets=8, zone_quotas=corner_quotas(8)),
)


def built_targets(**spec):
    return [(i, pos.tobytes(), labels) for i, pos, labels in targets_of(generate_phantom(**spec))]


@pytest.mark.parametrize("spec", PLACEMENT_SPECS)
def test_placement_matches_one_candidate_per_attempt(spec):
    for seed in range(40):
        assert placement(built_targets, spec, seed) == placement(placement_oracle, spec, seed), seed


# a budget under one chunk of candidates, and one that ends inside the second
# chunk; each runs out on some seeds and not on others
@pytest.mark.parametrize("attempts, n, spacing", [(100, 12, 3.0), (300, 8, 6.0)])
def test_placement_runs_out_of_attempts_as_one_candidate_per_attempt_does(monkeypatch, attempts, n, spacing):
    monkeypatch.setattr(ph, "_PLACEMENT_ATTEMPTS", attempts)
    spec = dict(phantom=PhantomConfig(min_target_spacing=spacing), n_targets=n, zone_quotas=corner_quotas(n))
    outcomes = [placement(built_targets, spec, seed) for seed in range(30)]
    assert outcomes == [placement(placement_oracle, spec, seed) for seed in range(30)]
    failed = [o for o in outcomes if isinstance(o, str)]
    assert failed and len(failed) < len(outcomes)
    assert all(f"after {attempts} attempts" in o for o in failed)


def test_impossible_spacing_gives_the_same_error_as_one_candidate_per_attempt():
    spec = dict(phantom=PhantomConfig(min_target_spacing=60.0), n_targets=10, zone_quotas=TEN_TARGET_QUOTAS)
    message = placement(placement_oracle, spec, 1)
    assert message.startswith("could not place target 1 in zone")
    assert placement(built_targets, spec, 1) == message
