import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from conftest import candidate_entries_oracle, replan_angled_oracle, segment_distance_oracle
from prostasim import planning
from prostasim.config import DEFAULT_ARCH_CAPSULES, default_config
from prostasim.kinematics import RobotGeometry, Trajectory, inverse_kinematics
from prostasim.planning import (
    ANGLE_BIN_DEG,
    ANGLE_GUARD,
    DEFAULT_NEEDLE_RADIUS,
    DEPTH_MARGIN,
    ENTRY_GRID_STEP,
    EntryRegion,
    NoFeasiblePath,
    PubicArchModel,
    candidate_entries,
    clearance_grid,
    collision_check,
    first_blocked_depth,
    plan_trajectories,
    replan_angled,
)


@pytest.fixture
def geom():
    return RobotGeometry()


def capsule(a, b, r):
    return a, b, r


# the arch of no capsules, as a disabled one is built
NO_ARCH = PubicArchModel([], [], [])

# the drawn properties fail as drawn: shrinking a failing example of their
# oracle comparisons held the run for over a minute
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


def arch_of(capsules, enabled=True):
    """The arch of a list of capsules (a, b, radius), each checked; disabled, it has none of them."""
    arch = PubicArchModel(*zip(*capsules)) if capsules else NO_ARCH
    return arch if enabled else NO_ARCH


def clearance(arch, traj, needle_radius=DEFAULT_NEEDLE_RADIUS):
    """The clearance of one trajectory: a stack of one."""
    return collision_check(arch, [traj.entry], [traj.dir], [traj.planned_depth], needle_radius)[0]


def straight_traj(target, geom, depth=None):
    target = np.asarray(target, dtype=float)
    entry = np.array([target[0], target[1], geom.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    depth = float(np.linalg.norm(target - entry)) if depth is None else depth
    return Trajectory(entry, d, depth, "Horizontal")


def test_disabled_arch_never_blocks(geom):
    arch = arch_of([capsule([0, 0, -30], [0, 0, -30], 50.0)], enabled=False)
    assert clearance(arch, straight_traj([0, 0, 10], geom)) == math.inf


def test_an_arch_of_no_capsules_blocks_nothing():
    geom = RobotGeometry(stage_travel=12.0, max_angulation=13.0)
    geom.validate()
    rs = np.random.default_rng(8)
    # direct entries in and beyond the stages' +/-12 mm travel, so some winners are angled
    targets = np.column_stack([rs.uniform(-16, 16, (40, 2)), rs.uniform(-20, 20, 40)])
    # (collision_check gives +inf here too: test_disabled_arch_never_blocks)
    assert (clearance_grid(targets[:, :2], geom.front_plane_z, targets, DEPTH_MARGIN,
                           NO_ARCH.a, NO_ARCH.b, NO_ARCH.radius, DEFAULT_NEEDLE_RADIUS) == math.inf).all()
    assert first_blocked_depth(NO_ARCH, [0, 0, -60], [0, 0, 1], 60.0) is None
    # every clearance +inf: each target's winner is its first candidate, in
    # grid order, of its lowest angulation bin
    got = replan_angled(NO_ARCH, targets, EntryRegion(), geom)
    grid, angles, owner = candidate_entries(targets, EntryRegion(), geom)
    bins = np.round(angles / ANGLE_BIN_DEG)
    winners = [rows[np.argmin(bins[rows])] for rows in (np.flatnonzero(owner == k) for k in range(40))]
    np.testing.assert_array_equal(got.entry[:, :2], grid[winners])
    assert (got.entry[:, 2] == geom.front_plane_z).all()
    np.testing.assert_array_equal(got.approach, np.where(angles[winners] > ANGLE_BIN_DEG, "Angled", "Horizontal"))
    assert set(got.approach.tolist()) == {"Angled", "Horizontal"}


def test_clearance_analytic_value(geom):
    # axial shaft at x=0; capsule axis parallel to it at x=10, radius 2
    arch = arch_of([capsule([10, 0, -40], [10, 0, 0], 2.0)])
    got = clearance(arch, straight_traj([0, 0, 10], geom), needle_radius=0.5)
    assert got == pytest.approx(10.0 - 2.0 - 0.5)


def test_collision_reports_blocking_capsule(geom):
    arch = arch_of(
        [
            capsule([50, 0, -30], [60, 0, -30], 2.0),  # far away
            capsule([-5, 0, -30], [5, 0, -30], 3.0),  # crosses the path
        ]
    )
    traj = straight_traj([0, 0, 10], geom)
    assert clearance(arch, traj) < 0
    # the capsule crossing the path is the one that blocks it
    assert clearance(PubicArchModel(arch.a[:1], arch.b[:1], arch.radius[:1]), traj) > 0


def test_invalid_radii_rejected(geom):
    with pytest.raises(ValueError):
        arch_of([capsule([0, 0, 0], [1, 0, 0], 0.0)])
    arch = arch_of([capsule([0, 0, 0], [1, 0, 0], 1.0)])
    with pytest.raises(ValueError):
        clearance(arch, straight_traj([0, 0, 10], RobotGeometry()), needle_radius=0.0)


def test_first_blocked_depth_analytic(geom):
    # point capsule on the axis at z=-30: tip touches when it comes within
    # radius + needle_radius, i.e. 60 - 30 - 5.635 = 24.365 mm deep
    arch = arch_of([capsule([0, 0, -30], [0, 0, -30], 5.0)])
    depth = first_blocked_depth(arch, [0, 0, -60], [0, 0, 1], 60.0, needle_radius=0.635)
    assert depth == pytest.approx(24.4, abs=0.11)
    assert first_blocked_depth(arch, [30, 0, -60], [0, 0, 1], 60.0) is None


def test_candidate_entries_contains_direct_and_is_row_major(geom):
    target = np.array([5.0, -3.0, 10.0])
    entries, angles, owner = candidate_entries([target], EntryRegion(), geom)
    assert np.all(owner == 0)
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
    entries = candidate_entries([target], slim, geom)[0]
    assert np.all(np.abs(entries) <= 4.0)


def assert_angles_decide_alike(angles, want, geom):
    """The planner's angles against the oracle's ``math`` ones, for the same kept rows.

    Every decision the planner takes from an angle is exact: its bin, its
    approach label, and (bit for bit) every angle within ``ANGLE_GUARD`` of
    a bin edge, of ``ANGLE_BIN_DEG`` or of the angulation limit.  The other
    angles are numpy's, within a few ulp of ``math``'s (3 measured).
    """
    assert angles.shape == want.shape
    np.testing.assert_array_equal(np.round(angles / ANGLE_BIN_DEG), np.round(want / ANGLE_BIN_DEG))
    np.testing.assert_array_equal(angles > ANGLE_BIN_DEG, want > ANGLE_BIN_DEG)
    scaled = want / ANGLE_BIN_DEG
    to_edge = (0.5 - np.abs(scaled - np.round(scaled))) * ANGLE_BIN_DEG
    near = (
        (to_edge <= ANGLE_GUARD) | (np.abs(want - ANGLE_BIN_DEG) <= ANGLE_GUARD)
        | (np.abs(want - (geom.max_angulation + 1e-12)) <= ANGLE_GUARD)
    )
    np.testing.assert_array_equal(angles[near], want[near])
    np.testing.assert_array_max_ulp(angles, want, maxulp=4)


def test_candidate_entries_match_grid_loop(rng):
    geoms = [RobotGeometry(), RobotGeometry(max_angulation=25.0, stage_travel=20.0)]
    regions = [EntryRegion(), EntryRegion(x_min=-10.0, x_max=12.0, y_min=-5.0, y_max=30.0)]
    for case in range(100):
        # a block of 1-4 targets: each target's candidates in turn, tagged with its index
        targets = rng.uniform([-30, -30, -40], [30, 30, 30], (1 + case % 4, 3))
        geom, region = geoms[case % 2], regions[(case // 2) % 2]
        entries, angles, owner = candidate_entries(targets, region, geom)
        want = [candidate_entries_oracle(target, region, geom) for target in targets]
        np.testing.assert_array_equal(entries, np.concatenate([w[0] for w in want]))
        assert_angles_decide_alike(angles, np.concatenate([w[1] for w in want]), geom)
        np.testing.assert_array_equal(owner, np.repeat(np.arange(len(targets)), [len(w[1]) for w in want]))


@pytest.mark.parametrize("travel, angulation, region", [
    (200.0, 60.0, EntryRegion()),
    (12.0, 13.0, EntryRegion()),
    (60.0, 45.0, EntryRegion(x_min=-6.0, x_max=9.0, y_min=-20.0, y_max=-2.0)),
])
def test_the_entry_grid_is_bounded_before_it_is_built(travel, angulation, region):
    geom = RobotGeometry(stage_travel=travel, max_angulation=angulation)
    geom.validate()
    targets = np.array([[3.1, -7.0, 40.0], [-11.5, 12.25, -20.0], [0.0, 0.0, 0.0]])
    entries, angles, owner = candidate_entries(targets, region, geom)
    for k, target in enumerate(targets):
        want_entries, want_angles = candidate_entries_oracle(target, region, geom)
        np.testing.assert_array_equal(entries[owner == k], want_entries)
        assert_angles_decide_alike(angles[owner == k], want_angles, geom)
    # each axis spans at most the region's and the stages' width, plus a step on either side
    ex, _, grid_owner = planning._entry_grid(targets, region, geom)
    width_x = min(region.x_max - region.x_min, 2.0 * travel)
    width_y = min(region.y_max - region.y_min, 2.0 * travel)
    per_target = (math.floor(width_x / ENTRY_GRID_STEP) + 3) * (math.floor(width_y / ENTRY_GRID_STEP) + 3)
    assert np.bincount(grid_owner, minlength=3).max() <= per_target
    dz = targets[:, 2] - geom.front_plane_z
    unbounded = (2 * np.floor(math.tan(math.radians(angulation)) * dz / ENTRY_GRID_STEP) + 1) ** 2
    assert ex.size < unbounded.sum()


def depths_around(threshold, offset, geom):
    """The z of two targets on the z axis whose candidate at ``offset`` (mm) has its ``math`` angle around ``threshold``.

    Of the depths a few hundred ulp around the one that puts the candidate
    at ``threshold``, these are the one with the largest angle at or below
    it and the one with the smallest angle above it, each within an ulp.
    """
    def angle(tz):
        return math.degrees(math.atan2(math.hypot(*offset), tz - geom.front_plane_z))

    tz = geom.front_plane_z + math.hypot(*offset) / math.tan(math.radians(threshold))
    depths = [tz]
    for toward in (-math.inf, math.inf):
        step = tz
        for _ in range(200):
            step = math.nextafter(step, toward)
            depths.append(step)
    below = max((angle(z), z) for z in depths if angle(z) <= threshold)
    above = min((angle(z), z) for z in depths if angle(z) > threshold)
    assert threshold - below[0] <= math.ulp(threshold) and above[0] - threshold <= math.ulp(threshold)
    return below[1], above[1]


@pytest.mark.parametrize("ulps", [4, -4])
def test_an_angle_near_a_threshold_is_taken_with_math(monkeypatch, ulps):
    # numpy's arctan2 moved by 4 ulp, more than it differs from math's: a
    # candidate within an ulp of a threshold then lands on the other side of
    # it, unless its angle is taken again with math
    arctan2 = np.arctan2

    def moved(y, x, out=None):
        angle = arctan2(y, x)
        for _ in range(abs(ulps)):
            angle = np.nextafter(angle, math.copysign(math.inf, ulps))
        if out is None:
            return angle
        out[...] = angle
        return out

    monkeypatch.setattr(planning.np, "arctan2", moved)
    cases = [
        (2.5 * ANGLE_BIN_DEG, (ENTRY_GRID_STEP, 0.0), RobotGeometry()),  # a bin edge
        (ANGLE_BIN_DEG, (ENTRY_GRID_STEP, 0.0), RobotGeometry()),  # the approach label
        # the limit, at a diagonal step, which the grid builds for these depths
        (8.0 + 1e-12, (ENTRY_GRID_STEP, ENTRY_GRID_STEP), RobotGeometry(max_angulation=8.0)),
    ]
    for threshold, offset, geom in cases:
        for tz in depths_around(threshold, offset, geom):
            target = np.array([0.0, 0.0, tz])
            entries, angles, _ = candidate_entries([target], EntryRegion(), geom)
            want_entries, want = candidate_entries_oracle(target, EntryRegion(), geom)
            np.testing.assert_array_equal(entries, want_entries)
            np.testing.assert_array_equal(np.round(angles / ANGLE_BIN_DEG), np.round(want / ANGLE_BIN_DEG))
            np.testing.assert_array_equal(angles > ANGLE_BIN_DEG, want > ANGLE_BIN_DEG)


def test_a_steep_robot_builds_no_more_than_the_region_holds():
    # unbounded, a target 100 mm deep would build ~5700^2 grid points here
    geom = RobotGeometry(stage_travel=1e4, max_angulation=89.0)
    geom.validate()
    targets = np.array([[0.0, 0.0, 40.0], [29.0, -29.0, 40.0]])
    # the grid holds just the entries in the region, all of them candidates
    ex, ey, owner = planning._entry_grid(targets, EntryRegion(), geom)
    assert np.bincount(owner).tolist() == [31 * 31, 30 * 30]
    entries, _, owner = candidate_entries(targets, EntryRegion(), geom)
    assert np.all(np.abs(entries) <= 30.0)
    assert np.bincount(owner).tolist() == [31 * 31, 30 * 30]


def test_candidate_entries_rejects_target_behind_plane(geom):
    # no entry reaches a target on or behind the entry plane: it owns no row,
    # and the target in front of it keeps the rows it has alone
    targets = [[0.0, 0.0, 10.0], [1.0, 2.0, -70.0], [3.0, 4.0, geom.front_plane_z]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries, angles, owner = candidate_entries(targets, EntryRegion(), geom)
        alone, alone_angles, _ = candidate_entries(targets[:1], EntryRegion(), geom)
    assert owner.size and not owner.any()
    np.testing.assert_array_equal(entries, alone)
    np.testing.assert_array_equal(angles, alone_angles)
    for behind in targets[1:]:
        assert candidate_entries([behind], EntryRegion(), geom)[0].shape == (0, 2)


def test_the_target_a_failed_plan_names_does_not_depend_on_the_block():
    # the default arch at capsule radius 14: every path to the first target
    # collides, and the second lies behind the entry plane (z = -60)
    cfg = default_config()
    for cap in cfg.arch.capsules:
        cap["radius"] = 14.0
    blocked, behind = (-20.0, 10.0, 0.0), (0.0, 0.0, -70.0)
    for targets in ([blocked], [blocked, behind]):
        with pytest.raises(NoFeasiblePath, match="no collision-free trajectory") as exc:
            plan_trajectories(cfg.arch.build(), targets, cfg.entry_region, cfg.robot)
        assert exc.value.target.tolist() == list(blocked)
        assert exc.value.best_clearance == pytest.approx(-2.666, abs=1e-3)
    # behind it in block order, the target with no entry in reach is named first
    with pytest.raises(NoFeasiblePath, match="no candidate entry within") as exc:
        plan_trajectories(cfg.arch.build(), [behind, blocked], cfg.entry_region, cfg.robot)
    assert exc.value.target.tolist() == list(behind)
    assert exc.value.best_clearance == -math.inf


@pytest.mark.parametrize("z", [-70.0, -60.0])
def test_a_target_on_or_behind_the_entry_plane_gets_no_path(z):
    # the default arch and robot, whose entry plane is z = -60: a direct path
    # would run backward (z = -70) or have no length (z = -60), so the target
    # goes to the grid search, which finds no entry for it and names it
    cfg = default_config()
    assert cfg.robot.front_plane_z == -60.0
    targets = [[0.0, 0.0, 10.0], [0.0, 0.0, z]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoFeasiblePath, match="no candidate entry within") as exc:
            plan_trajectories(cfg.arch.build(), targets, EntryRegion(), cfg.robot)
    assert exc.value.best_clearance == -math.inf
    assert exc.value.target.tolist() == targets[1]


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(
    separation=st.floats(40.0, 200.0),
    travel=st.floats(4.0, 60.0),
    angulation=st.floats(0.02, 1.0),
    front=st.floats(-100.0, -40.0),
    radius=st.floats(2.0, 14.0),
    enabled=st.booleans(),
    region=st.tuples(
        st.floats(-40.0, -0.5), st.floats(0.5, 40.0), st.floats(-40.0, -0.5), st.floats(0.5, 40.0)
    ),
    targets=st.lists(
        st.tuples(
            st.floats(-45.0, 45.0), st.floats(-45.0, 45.0),
            st.one_of(st.floats(1e-6, 3.0), st.floats(3.0, 160.0)),
        ),
        min_size=1, max_size=6,
    ),
)
# a target a hair in front of the plane, beside a deep one far off axis
@example(
    separation=100.0, travel=40.0, angulation=0.5, front=-60.0, radius=8.0, enabled=True,
    region=(-30.0, 30.0, -30.0, 30.0), targets=[(3.0, 20.0, 1e-6), (-29.0, 28.0, 150.0)],
)
# two targets for the grid search, one behind the arch (angled) and one just
# outside the region (its winner is 0.76 degrees off axis, horizontal)
@example(
    separation=100.0, travel=40.0, angulation=0.5, front=-60.0, radius=8.0, enabled=True,
    region=(-30.0, 30.0, -30.0, 30.0), targets=[(0.0, 20.0, 100.0), (30.5, 29.0, 150.0)],
)
def test_every_planned_trajectory_is_within_reach(
    separation, travel, angulation, front, radius, enabled, region, targets
):
    # the planner keeps every entry within stage travel and angulation, so
    # the stages realize each line it returns (a target it finds no path
    # for raises, and is left out of the block)
    reachable = math.degrees(math.atan(2.0 * travel / separation))
    geom = RobotGeometry(
        stage_separation=separation, stage_travel=travel, max_angulation=angulation * reachable,
        front_plane_z=front,
    )
    geom.validate()
    arch, region = default_arch(radius, enabled), EntryRegion(*region)
    # each target's depth is in front of the entry plane
    feasible, alone = [], []
    for x, y, depth in targets:
        target = [x, y, front + depth]
        try:
            alone.append(plan_trajectories(arch, [target], region, geom))
        except NoFeasiblePath:
            continue
        feasible.append(target)
    plans = plan_trajectories(arch, np.array(feasible).reshape(-1, 3), region, geom)
    assert len(plans) == len(feasible)
    inverse_kinematics(geom, plans.entry, plans.dir)
    # and row k of the block's plan is target k's plan alone, bit for bit
    for k, one in enumerate(alone):
        row = plans.rows([k])
        for name in ("entry", "dir", "planned_depth", "approach"):
            assert getattr(row, name).tobytes() == getattr(one, name).tobytes(), (k, name)


def test_replan_unblocked_is_horizontal(geom):
    arch = arch_of([capsule([0, 50, -32], [30, 50, -32], 4.0)])  # far above
    target = np.array([4.0, 2.0, 8.0])
    traj = replan_angled(arch, [target], EntryRegion(), geom).rows(0)
    assert traj.approach == "Horizontal"
    np.testing.assert_allclose(traj.entry, [4.0, 2.0, geom.front_plane_z])
    np.testing.assert_allclose(traj.dir, [0, 0, 1], atol=1e-12)
    assert traj.planned_depth == pytest.approx(8.0 + 60.0)


def blocked_scene(geom):
    """A bar crossing directly in front of an anterior target."""
    target = np.array([0.0, 14.0, 5.0])
    arch = arch_of([capsule([-40, 14, -35], [40, 14, -35], 4.0)])
    return arch, target


def test_replan_blocked_goes_angled(geom):
    arch, target = blocked_scene(geom)
    direct = straight_traj(target, geom)
    assert clearance(arch, direct) < 0
    traj = replan_angled(arch, [target], EntryRegion(), geom).rows(0)
    assert traj.approach == "Angled"
    # the chosen trajectory clears the arch
    assert clearance(arch, traj) > 0
    # it still passes through the target
    along = (target - traj.entry) @ traj.dir
    np.testing.assert_allclose(traj.entry + along * traj.dir, target, atol=1e-9)
    ang = math.degrees(math.acos(min(1.0, traj.dir[2])))
    assert 1.0 < ang <= geom.max_angulation


def test_replan_picks_smallest_angle_bin(geom):
    arch, target = blocked_scene(geom)
    traj = replan_angled(arch, [target], EntryRegion(), geom).rows(0)
    chosen_angle = math.degrees(math.acos(min(1.0, traj.dir[2])))
    chosen_bin = round(chosen_angle / 1.0)
    # exhaustive check: no collision-free candidate in a smaller bin
    entries, angles, _ = candidate_entries([target], EntryRegion(), geom)
    for (ex, ey), ang in zip(entries, angles):
        if round(ang / 1.0) >= chosen_bin:
            continue
        entry3 = np.array([ex, ey, geom.front_plane_z])
        d = (target - entry3) / np.linalg.norm(target - entry3)
        cand = Trajectory(entry3, d, float(np.linalg.norm(target - entry3)), "x")
        assert clearance(arch, cand) <= 0.0


def test_replan_wall_raises_no_feasible_path(geom):
    arch = arch_of([capsule([-60, 0, -30], [60, 0, -30], 30.0)])
    target = np.array([0.0, 0.0, 10.0])
    with pytest.raises(NoFeasiblePath) as exc:
        replan_angled(arch, [target], EntryRegion(), geom)
    assert exc.value.best_clearance < 0
    assert math.isfinite(exc.value.best_clearance)
    np.testing.assert_array_equal(exc.value.target, target)
    assert "to the target at (0.000, 0.000, 10.000) mm" in str(exc.value)



def test_replan_keeps_the_direct_path_within_stage_travel():
    # the direct entry at x = 17.3 is beyond the stages' +/-12 mm travel
    geom = RobotGeometry(stage_travel=12.0, max_angulation=13.0)
    geom.validate()
    arch = arch_of([], enabled=False)
    target = np.array([17.3, 2.0, 5.0])
    traj = replan_angled(arch, [target], EntryRegion(), geom).rows(0)
    assert traj.approach == "Angled"
    assert abs(traj.entry[0]) <= geom.stage_travel
    inverse_kinematics(geom, [traj.entry], [traj.dir])  # within every joint limit


def test_replan_with_no_entry_in_reach_says_so():
    geom = RobotGeometry(stage_travel=8.0, max_angulation=5.0)
    geom.validate()
    arch = arch_of([capsule([0, 50, -32], [30, 50, -32], 4.0)])
    target = np.array([15.0, 0.0, 5.0])
    with pytest.raises(NoFeasiblePath, match="no candidate entry within") as exc:
        replan_angled(arch, [target], EntryRegion(), geom)
    assert exc.value.best_clearance == -math.inf
    assert "for the target at (15.000, 0.000, 5.000) mm" in str(exc.value)

def test_clearance_monotone_in_needle_radius(geom):
    arch = arch_of([capsule([10, 0, -40], [10, 0, 0], 2.0)])
    traj = straight_traj([0, 0, 10], geom)
    radii = [0.2, 0.5, 1.0, 2.0]
    values = [clearance(arch, traj, r) for r in radii]
    assert values == sorted(values, reverse=True)


def test_depth_margin_extends_shaft(geom):
    # capsule sits past the target but within the overshoot margin
    target = np.array([0.0, 0.0, 0.0])
    beyond = target[2] + DEPTH_MARGIN - 1.0
    arch = arch_of([capsule([-5, 0, beyond], [5, 0, beyond], 1.0)])
    assert clearance(arch, straight_traj(target, geom)) < 0


def _random_grid_case(rng, n=64, m=3):
    entries = rng.uniform(-30, 30, (n, 2))
    targets = rng.uniform([-10, -10, 0], [10, 10, 20], (n, 3))
    cap_a = rng.uniform(-40, 40, (m, 3))
    cap_a[:, 2] = rng.uniform(-45, -25, m)
    cap_b = cap_a + rng.uniform(-20, 20, (m, 3))
    cap_r = rng.uniform(1.0, 6.0, m)
    return entries, targets, cap_a, cap_b, cap_r


def test_clearance_grid_matches_scalar_path(rng, geom, monkeypatch):
    entries, targets, cap_a, cap_b, cap_r = _random_grid_case(rng)
    # a point capsule (zero-length axis) on its own and among segments
    point = np.array([[0.0, 12.0, -32.0]])
    cases = [
        (cap_a, cap_b, cap_r),
        (point, point.copy(), np.array([11.0])),
        (np.vstack([cap_a, point]), np.vstack([cap_b, point]), np.append(cap_r, 1.0)),
    ]
    for a, b, r in cases:
        got = clearance_grid(entries, -60.0, targets, DEPTH_MARGIN, a, b, r, 0.635)
        # a subset of the rows keeps every bit, as the search's rounds need,
        # and so does a kernel that takes any number of rows at a time
        rows = rng.permutation(len(entries))[:17]
        np.testing.assert_array_equal(
            clearance_grid(entries[rows], -60.0, targets[rows], DEPTH_MARGIN, a, b, r, 0.635), got[rows]
        )
        for at_once in (1, 5, len(entries)):
            with monkeypatch.context() as m:
                m.setattr(planning, "KERNEL_ROWS", at_once)
                again = clearance_grid(entries, -60.0, targets, DEPTH_MARGIN, a, b, r, 0.635)
            assert again.tobytes() == got.tobytes(), at_once
        # scalar reference, built from the single-pair distance
        for i, (ex, ey) in enumerate(entries):
            p0 = np.array([ex, ey, -60.0])
            d = targets[i] - p0
            norm = np.linalg.norm(d)
            p1 = p0 + d * (norm + DEPTH_MARGIN) / norm
            expect = min(
                segment_distance_oracle(p0, p1, a[j], b[j]) - r[j] for j in range(len(r))
            ) - 0.635
            assert got[i] == pytest.approx(expect, abs=1e-9)


def default_arch(radius, enabled=True):
    return arch_of([capsule(c["a"], c["b"], radius) for c in DEFAULT_ARCH_CAPSULES], enabled=enabled)


def assert_block_matches_each_target_alone(arch, targets, region, geom):
    """replan_angled on the block against the per-target oracle, field by field."""
    alone = []
    for target in targets:
        try:
            alone.append(replan_angled_oracle(arch, target, region, geom))
        except NoFeasiblePath as e:
            alone.append(e)
    failed = [a for a in alone if isinstance(a, NoFeasiblePath)]
    if failed:
        with pytest.raises(NoFeasiblePath) as exc:
            replan_angled(arch, targets, region, geom)
        # the first target in block order that has no clear candidate
        assert exc.value.best_clearance == failed[0].best_clearance
        np.testing.assert_array_equal(exc.value.target, failed[0].target)
        assert str(exc.value) == str(failed[0])
        return
    got = replan_angled(arch, targets, region, geom)
    assert len(got) == len(targets)
    for a, b in zip(alone, map(got.rows, range(len(got)))):
        np.testing.assert_array_equal(b.entry, a.entry)
        np.testing.assert_array_equal(b.dir, a.dir)
        assert b.planned_depth == a.planned_depth
        assert b.approach == a.approach


# the explicit blocks below use the default arch's capsules; each tuple is a target (x, y, z)
LAST_ROUND = (-11.9, 17.5, -0.6)  # r 9.5, 25 deg: the winner is in bin 17 or above
INFEASIBLE = (-17.8, 22.4, -19.7)  # r 10.6, 24.3 deg: best clearance -3.37 mm
OUT_OF_REACH = (25.0, 0.0, -20.0)  # with x in [-5, 5] and 10 deg, no entry is in reach


@settings(max_examples=50, deadline=None, phases=NO_SHRINK)
@given(
    targets=st.lists(
        st.tuples(st.floats(-25.0, 25.0), st.floats(-25.0, 25.0), st.floats(-40.0, 25.0)),
        min_size=1, max_size=8,
    ),
    radius=st.floats(8.0, 13.0),
    angulation=st.floats(10.0, 25.0),
    enabled=st.booleans(),
    region=st.tuples(
        st.floats(-30.0, -2.0), st.floats(2.0, 30.0), st.floats(-30.0, -2.0), st.floats(2.0, 30.0)
    ),
)
# the middle target's winner is found only in the last round
@example(
    targets=[(2.0, -3.0, 10.0), LAST_ROUND, (-6.0, 12.0, -30.0)],
    radius=9.5, angulation=25.0, enabled=True, region=(-30.0, 30.0, -30.0, 30.0),
)
# the arch is off, so every clearance is +inf: bins and then grid order decide,
# and each direct entry lies outside the shrunken region
@example(
    targets=[(14.0, 3.0, 0.0), (-13.0, -12.5, 20.0), (0.5, 11.0, -35.0)],
    radius=8.0, angulation=20.0, enabled=False, region=(-10.0, 10.0, -8.0, 8.0),
)
# one infeasible target between two feasible ones
@example(
    targets=[(2.0, -3.0, 10.0), INFEASIBLE, LAST_ROUND],
    radius=10.6, angulation=24.3, enabled=True, region=(-30.0, 30.0, -30.0, 30.0),
)
# a target with no candidate in reach (-inf), after a feasible one
@example(
    targets=[(1.0, -2.0, 0.0), OUT_OF_REACH],
    radius=8.0, angulation=10.0, enabled=True, region=(-5.0, 5.0, -30.0, 30.0),
)
# a block of one target with no grid entry in the region on one axis
@example(
    targets=[(0.0, 15.0, 0.0)],
    radius=8.0, angulation=10.0, enabled=False, region=(-2.0, 2.0, -2.0, 2.0),
)
# an infeasible target before one behind the entry plane (z = -60): the first is named
@example(
    targets=[INFEASIBLE, (0.0, 0.0, -70.0)],
    radius=10.6, angulation=24.3, enabled=True, region=(-30.0, 30.0, -30.0, 30.0),
)
def test_a_block_search_finds_what_each_target_finds_alone(targets, radius, angulation, enabled, region):
    geom = RobotGeometry(max_angulation=angulation)
    arch = default_arch(radius, enabled)
    assert_block_matches_each_target_alone(arch, np.array(targets), EntryRegion(*region), geom)


def test_the_search_checks_bins_in_rounds_up_to_the_winning_one(monkeypatch):
    geom = RobotGeometry(max_angulation=25.0)
    arch = default_arch(9.5)
    region = EntryRegion()
    checked = []

    def counted(entries, *args):
        checked.append(len(entries))
        return clearance_grid(entries, *args)

    monkeypatch.setattr(planning, "clearance_grid", counted)
    targets = np.array([(2.0, -3.0, 10.0), LAST_ROUND])
    _, angles, owner = candidate_entries(targets, region, geom)
    bins = np.round(angles)
    plans = replan_angled(arch, targets, region, geom)
    near, far = plans.rows(0), plans.rows(1)
    far_bin = round(math.degrees(math.acos(far.dir[2])))
    assert near.approach == "Horizontal" and far_bin > 16
    # the first target is clear in bin 0 and leaves after round one; the
    # second is checked in all five rounds, every candidate of it
    assert checked[0] == np.count_nonzero(bins <= 2)
    assert checked[1:] == [
        np.count_nonzero((owner == 1) & (bins > lo) & (bins <= hi))
        for lo, hi in ((2, 4), (4, 8), (8, 16), (16, math.inf))
    ]
