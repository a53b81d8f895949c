import math

import numpy as np
import pytest

from prostasim.geometry import Segment, segment_segment_distance
from prostasim.kinematics import RobotGeometry, Trajectory
from prostasim.planning import (
    DEPTH_MARGIN,
    EntryRegion,
    NoFeasiblePath,
    PubicArchModel,
    candidate_entries,
    clearance_grid,
    collision_check,
    first_blocked_depth,
    replan_angled,
)


@pytest.fixture
def geom():
    return RobotGeometry()


def capsule(a, b, r):
    return (Segment(np.array(a, dtype=float), np.array(b, dtype=float)), r)


def straight_traj(target, geom, depth=None):
    target = np.asarray(target, dtype=float)
    entry = np.array([target[0], target[1], geom.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    depth = float(np.linalg.norm(target - entry)) if depth is None else depth
    return Trajectory(entry, d, depth, "Horizontal")


def test_disabled_arch_never_blocks(geom):
    arch = PubicArchModel([capsule([0, 0, -30], [0, 0, -30], 50.0)], enabled=False)
    rep = collision_check(arch, straight_traj([0, 0, 10], geom))
    assert rep.clearance == math.inf
    assert rep.blocking_index is None


def test_clearance_analytic_value(geom):
    # axial shaft at x=0; capsule axis parallel to it at x=10, radius 2
    arch = PubicArchModel([capsule([10, 0, -40], [10, 0, 0], 2.0)])
    rep = collision_check(arch, straight_traj([0, 0, 10], geom), needle_radius=0.5)
    assert rep.clearance == pytest.approx(10.0 - 2.0 - 0.5)
    assert rep.blocking_index is None


def test_collision_reports_blocking_capsule(geom):
    arch = PubicArchModel(
        [
            capsule([50, 0, -30], [60, 0, -30], 2.0),  # far away
            capsule([-5, 0, -30], [5, 0, -30], 3.0),  # crosses the path
        ]
    )
    rep = collision_check(arch, straight_traj([0, 0, 10], geom))
    assert rep.clearance < 0
    assert rep.blocking_index == 1


def test_invalid_radii_rejected(geom):
    with pytest.raises(ValueError):
        PubicArchModel([capsule([0, 0, 0], [1, 0, 0], 0.0)])
    arch = PubicArchModel([capsule([0, 0, 0], [1, 0, 0], 1.0)])
    with pytest.raises(ValueError):
        collision_check(arch, straight_traj([0, 0, 10], RobotGeometry()), needle_radius=0.0)


def test_first_blocked_depth_analytic(geom):
    # point capsule on the axis at z=-30: tip touches when it comes within
    # radius + needle_radius, i.e. 60 - 30 - 5.635 = 24.365 mm deep
    arch = PubicArchModel([capsule([0, 0, -30], [0, 0, -30], 5.0)])
    depth = first_blocked_depth(arch, [0, 0, -60], [0, 0, 1], 60.0, needle_radius=0.635)
    assert depth == pytest.approx(24.4, abs=0.11)
    assert first_blocked_depth(arch, [30, 0, -60], [0, 0, 1], 60.0) is None


def test_candidate_entries_contains_direct_and_is_row_major(geom):
    target = np.array([5.0, -3.0, 10.0])
    entries, angles = candidate_entries(target, EntryRegion(), geom)
    direct = np.nonzero((entries[:, 0] == 5.0) & (entries[:, 1] == -3.0))[0]
    assert direct.size == 1
    assert angles[direct[0]] == 0.0
    # row-major ordering: y never decreases
    assert np.all(np.diff(entries[:, 1]) >= 0.0)
    # every candidate respects region, angle and travel
    for (ex, ey), ang in zip(entries, angles):
        assert EntryRegion().contains(ex, ey)
        assert ang <= geom.max_angulation + 1e-9


def test_candidate_entries_pruned_by_region(geom):
    target = np.array([0.0, 0.0, 10.0])
    slim = EntryRegion(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0)
    entries, _ = candidate_entries(target, slim, geom)
    assert np.all(np.abs(entries) <= 4.0)


def test_candidate_entries_rejects_target_behind_plane(geom):
    with pytest.raises(ValueError):
        candidate_entries([0.0, 0.0, -70.0], EntryRegion(), geom)


def test_replan_unblocked_is_horizontal(geom):
    arch = PubicArchModel([capsule([0, 50, -32], [30, 50, -32], 4.0)])  # far above
    target = np.array([4.0, 2.0, 8.0])
    traj = replan_angled(arch, target, EntryRegion(), geom)
    assert traj.approach == "Horizontal"
    np.testing.assert_allclose(traj.entry, [4.0, 2.0, geom.front_plane_z])
    np.testing.assert_allclose(traj.dir, [0, 0, 1], atol=1e-12)
    assert traj.planned_depth == pytest.approx(8.0 + 60.0)


def blocked_scene(geom):
    """A bar crossing directly in front of an anterior target."""
    target = np.array([0.0, 14.0, 5.0])
    arch = PubicArchModel([capsule([-40, 14, -35], [40, 14, -35], 4.0)])
    return arch, target


def test_replan_blocked_goes_angled(geom):
    arch, target = blocked_scene(geom)
    direct = straight_traj(target, geom)
    assert collision_check(arch, direct).clearance < 0
    traj = replan_angled(arch, target, EntryRegion(), geom)
    assert traj.approach == "Angled"
    # the chosen trajectory clears the arch
    assert collision_check(arch, traj).clearance > 0
    # it still passes through the target
    along = (target - traj.entry) @ traj.dir
    np.testing.assert_allclose(traj.entry + along * traj.dir, target, atol=1e-9)
    ang = math.degrees(math.acos(min(1.0, traj.dir[2])))
    assert 1.0 < ang <= geom.max_angulation


def test_replan_picks_smallest_angle_bin(geom):
    arch, target = blocked_scene(geom)
    traj = replan_angled(arch, target, EntryRegion(), geom)
    chosen_angle = math.degrees(math.acos(min(1.0, traj.dir[2])))
    chosen_bin = round(chosen_angle / 1.0)
    # exhaustive check: no collision-free candidate in a smaller bin
    entries, angles = candidate_entries(target, EntryRegion(), geom)
    for (ex, ey), ang in zip(entries, angles):
        if round(ang / 1.0) >= chosen_bin:
            continue
        entry3 = np.array([ex, ey, geom.front_plane_z])
        d = (target - entry3) / np.linalg.norm(target - entry3)
        cand = Trajectory(entry3, d, float(np.linalg.norm(target - entry3)), "x")
        assert collision_check(arch, cand).clearance <= 0.0


def test_replan_wall_raises_no_feasible_path(geom):
    arch = PubicArchModel([capsule([-60, 0, -30], [60, 0, -30], 30.0)])
    target = np.array([0.0, 0.0, 10.0])
    with pytest.raises(NoFeasiblePath) as exc:
        replan_angled(arch, target, EntryRegion(), geom)
    assert exc.value.best_clearance < 0
    assert math.isfinite(exc.value.best_clearance)


def test_clearance_monotone_in_needle_radius(geom):
    arch = PubicArchModel([capsule([10, 0, -40], [10, 0, 0], 2.0)])
    traj = straight_traj([0, 0, 10], geom)
    radii = [0.2, 0.5, 1.0, 2.0]
    values = [collision_check(arch, traj, r).clearance for r in radii]
    assert values == sorted(values, reverse=True)


def test_depth_margin_extends_shaft(geom):
    # capsule sits past the target but within the overshoot margin
    target = np.array([0.0, 0.0, 0.0])
    beyond = target[2] + DEPTH_MARGIN - 1.0
    arch = PubicArchModel([capsule([-5, 0, beyond], [5, 0, beyond], 1.0)])
    rep = collision_check(arch, straight_traj(target, geom))
    assert rep.clearance < 0


def _random_grid_case(rng, n=64, m=3):
    entries = rng.uniform(-30, 30, (n, 2))
    target = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 20)])
    cap_a = rng.uniform(-40, 40, (m, 3))
    cap_a[:, 2] = rng.uniform(-45, -25, m)
    cap_b = cap_a + rng.uniform(-20, 20, (m, 3))
    cap_r = rng.uniform(1.0, 6.0, m)
    return entries, target, cap_a, cap_b, cap_r


def test_clearance_grid_matches_scalar_path(rng, geom):
    entries, target, cap_a, cap_b, cap_r = _random_grid_case(rng)
    got = clearance_grid(entries, -60.0, target, DEPTH_MARGIN, cap_a, cap_b, cap_r, 0.635)
    # scalar reference, built from the single-pair distance
    for i, (ex, ey) in enumerate(entries):
        p0 = np.array([ex, ey, -60.0])
        d = target - p0
        norm = np.linalg.norm(d)
        p1 = p0 + d * (norm + DEPTH_MARGIN) / norm
        expect = min(
            segment_segment_distance(p0, p1, cap_a[j], cap_b[j]) - cap_r[j]
            for j in range(len(cap_r))
        ) - 0.635
        assert got[i] == pytest.approx(expect, abs=1e-9)
