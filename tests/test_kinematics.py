import numpy as np
import pytest

from prostasim import geometry
from prostasim.kinematics import (
    JointState,
    OutOfReach,
    RobotGeometry,
    Trajectory,
    advance_insertion,
    angulation_deg,
    forward_kinematics,
    insertion_duration,
    inverse_kinematics,
)


@pytest.fixture
def geom():
    return RobotGeometry()


def ik(geom, traj):
    """The joint state of one trajectory: a stack of one."""
    return JointState(*inverse_kinematics(geom, [traj.entry], [traj.dir])[0])


def random_feasible_trajectory(rng, geom):
    while True:
        fx, fy, bx, by = rng.uniform(-geom.stage_travel * 0.98, geom.stage_travel * 0.98, 4)
        front = np.array([fx, fy, geom.front_plane_z])
        back = np.array([bx, by, geom.front_plane_z - geom.stage_separation])
        d = geometry.normalize(front - back)
        if angulation_deg(d) <= geom.max_angulation:
            return Trajectory(front, d, rng.uniform(40, 90), "Horizontal")


def test_geometry_validation(geom):
    geom.validate()
    bad = RobotGeometry(max_angulation=45.0)
    with pytest.raises(ValueError, match="max_angulation"):
        bad.validate()
    with pytest.raises(ValueError, match="insertion_speed"):
        RobotGeometry(insertion_speed=0.0).validate()


def test_angulation_of_axis():
    assert angulation_deg([0, 0, 1]) == 0.0
    assert angulation_deg([1, 0, 1]) == pytest.approx(45.0)


def test_ik_fk_round_trip(rng, geom):
    for _ in range(100):
        traj = random_feasible_trajectory(rng, geom)
        js = ik(geom, traj)
        entry, d, tip = forward_kinematics(geom, js)
        # same line: entry on it, direction parallel
        _, lateral = geometry.axis_decompose(traj.entry, traj.dir, entry)
        assert lateral < 1e-9
        np.testing.assert_allclose(d, traj.dir, atol=1e-9)
        np.testing.assert_allclose(tip, entry, atol=1e-12)  # not yet inserted


def test_ik_from_entry_not_on_stage_plane(geom):
    # the entry may be quoted anywhere along the line
    d = geometry.normalize([0.1, -0.05, 1.0])
    entry_mid = np.array([3.0, 2.0, -20.0])
    js = ik(geom, Trajectory(entry_mid, d, 50.0, "Horizontal"))
    front, dd, _ = forward_kinematics(geom, js)
    _, lateral = geometry.axis_decompose(entry_mid, d, front)
    assert lateral < 1e-9
    np.testing.assert_allclose(dd, d, atol=1e-9)


def test_ik_rejects_steep_direction(geom):
    steep = geometry.normalize([1.0, 0.0, 1.0])  # 45 degrees
    with pytest.raises(OutOfReach) as exc:
        ik(geom, Trajectory([0, 0, -60], steep, 50.0, "Angled"))
    assert any("angulation" in v for v in exc.value.violations)


def test_ik_rejects_backward_direction(geom):
    with pytest.raises(OutOfReach):
        ik(geom, Trajectory([0, 0, -60], [0, 0, -1], 50.0, "Horizontal"))


def test_ik_collects_all_violations(geom):
    # a steep direction far off axis violates angulation and both stages
    d = geometry.normalize([-0.3, 0.0, 1.0])
    with pytest.raises(OutOfReach) as exc:
        ik(geom, Trajectory([70.0, 0.0, geom.front_plane_z], d, 50.0, "Angled"))
    text = "; ".join(exc.value.violations)
    assert "angulation" in text
    assert "front_x" in text
    assert "back_x" in text


def test_ik_travel_violation_lists_axis(geom):
    d = np.array([0.0, 0.0, 1.0])
    with pytest.raises(OutOfReach) as exc:
        ik(geom, Trajectory([0.0, 41.0, geom.front_plane_z], d, 50.0, "Horizontal"))
    assert any("front_y" in v for v in exc.value.violations)
    assert any("back_y" in v for v in exc.value.violations)


def test_fk_tip_and_z_offset(geom):
    js = JointState(1.0, 2.0, 1.0, 2.0, z_offset=5.0, insertion_depth=30.0)
    entry, d, tip = forward_kinematics(geom, js)
    np.testing.assert_allclose(entry, [1.0, 2.0, geom.front_plane_z + 5.0])
    np.testing.assert_allclose(d, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(tip, entry + 30.0 * d)


def test_insertion_duration_arithmetic(geom):
    assert insertion_duration(geom, 25.0) == pytest.approx(5.0)
    assert insertion_duration(geom, -25.0) == pytest.approx(5.0)


def test_advance_accumulates_rotation(geom):
    depth, angle, seconds = advance_insertion(geom, np.zeros(1), np.zeros(1), np.array([25.0]))
    assert seconds[0] == pytest.approx(5.0)
    assert depth[0] == pytest.approx(25.0)
    # 5 s at 8 rev/s
    assert angle[0] == pytest.approx(5.0 * 8.0 * 360.0)
    # a retraction takes time too, and the needle keeps turning through it
    depth2, angle2, seconds2 = advance_insertion(geom, depth, angle, np.array([-5.0]))
    assert seconds2[0] == pytest.approx(1.0)
    assert depth2[0] == pytest.approx(20.0)
    assert angle2[0] == pytest.approx(angle[0] + 1.0 * 8.0 * 360.0)


def test_advance_clamps_at_zero(geom):
    depth, _, _ = advance_insertion(geom, np.array([3.0, 3.0]), np.zeros(2), np.array([-10.0, 1.0]))
    np.testing.assert_array_equal(depth, [0.0, 4.0])


def _probe_feasible(geom, entry3, target):
    """Independent feasibility check by explicit line-plane crossings."""
    d = target - entry3
    if d[2] <= 0:
        return False
    ang = np.degrees(np.arctan2(np.hypot(d[0], d[1]), d[2]))
    if ang > geom.max_angulation + 1e-9:
        return False
    for plane_z in (geom.front_plane_z, geom.front_plane_z - geom.stage_separation):
        s = (plane_z - entry3[2]) / d[2]
        hit = entry3 + s * d
        if abs(hit[0]) > geom.stage_travel + 1e-9 or abs(hit[1]) > geom.stage_travel + 1e-9:
            return False
    return True


def test_feasibility_matches_grid_probe(geom):
    # 0.5 mm entry grid against an independent classifier; IK must agree
    # everywhere (boundary values are generic so no knife edges)
    target = np.array([7.3, -4.1, 11.7])
    xs = np.arange(-46.0, 46.0 + 0.25, 2.0)
    ys = np.arange(-46.0, 46.0 + 0.25, 0.5)
    disagreements = 0
    for x in xs:
        for y in ys:
            entry3 = np.array([x, y, geom.front_plane_z])
            d = geometry.normalize(target - entry3)
            traj = Trajectory(entry3, d, 60.0, "Horizontal")
            try:
                ik(geom, traj)
                got = True
            except OutOfReach:
                got = False
            if got != _probe_feasible(geom, entry3, target):
                disagreements += 1
    assert disagreements == 0
