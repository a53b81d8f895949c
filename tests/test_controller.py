from dataclasses import fields

import numpy as np
import pytest

from prostasim.controller import ConvergenceParams, open_loop_insertion, run_insertion
from prostasim.geometry import Segment
from prostasim.kinematics import RobotGeometry
from prostasim.phantom import LEFT, MotionParams, PhantomSpec, generate_phantom, gland_entry_depth
from prostasim.planning import PubicArchModel
from prostasim.rng import InsertionStreams
from prostasim.sensing import NoiseModel


GEOM = RobotGeometry()


def far_arch():
    seg = Segment(np.array([0.0, 80.0, -32.0]), np.array([30.0, 80.0, -32.0]))
    return PubicArchModel([(seg, 4.0)])


def blocking_arch(target, z=-30.0):
    # bar crossing the straight path, by default halfway down the shaft
    y = float(target[1])
    seg = Segment(np.array([-60.0, y, z]), np.array([60.0, y, z]))
    return PubicArchModel([(seg, 6.0)])


def make_phantom(motion=None, left_bias=0.0, seed=4):
    motion = motion or MotionParams(0.0, 0.0, 0.0, 0.0)
    return generate_phantom(PhantomSpec(motion=motion, left_bias=left_bias), seed)


def quiet_noise():
    return NoiseModel(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)


def streams(target_id, seed=31):
    return InsertionStreams(seed, phantom=0, target=target_id, replicate=0)


def non_left_target(phantom):
    for t in phantom.targets:
        if t.zone.lateral_zone != LEFT:
            return t
    raise AssertionError("phantom has no non-left target")


def run_quiet(phantom, tid, arch=None, conv=None, mode=run_insertion, noise=None):
    return mode(
        phantom,
        GEOM,
        arch or far_arch(),
        noise or quiet_noise(),
        conv or ConvergenceParams(),
        tid,
        streams(tid),
    )


def drag_motion(gain=0.05, offset=2.0):
    return MotionParams(axial_gain=gain, axial_base_offset=offset, rotation_gain=0.0, noise_sd_motion=0.0)


def expected_drag(phantom, target, gain, offset):
    entry = np.array([target.position_rest[0], target.position_rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    planned = float(np.linalg.norm(target.position_rest - entry))
    t0 = gland_entry_depth(phantom, entry, d)
    return planned, offset + gain * (planned - t0)


def test_static_gland_hits_exactly():
    p = make_phantom()
    t = non_left_target(p)
    rec = run_quiet(p, t.id)
    assert not rec.disengaged
    assert rec.n_corrections == 0
    assert rec.distance_error < 1e-9
    assert rec.axial_motion == 0.0
    np.testing.assert_allclose(rec.bead_rest_position, t.position_rest, atol=1e-9)
    np.testing.assert_allclose(rec.residual_motion, 0.0, atol=1e-9)


def test_pure_drag_needs_exactly_one_correction():
    gain, offset = 0.05, 2.0
    p = make_phantom(motion=drag_motion(gain, offset))
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id)
    assert rec.n_corrections == 1
    assert rec.axial_motion == pytest.approx(drag, abs=1e-9)
    assert rec.distance_error < 1e-9
    # second verification sees the frozen transform: proposed change ~ 0
    assert abs(rec.corrections[-1][0]) < 1e-9
    np.testing.assert_allclose(rec.residual_motion, 0.0, atol=1e-9)
    assert rec.trajectory.planned_depth == pytest.approx(planned)


def test_open_loop_misses_by_the_drag():
    gain, offset = 0.05, 2.0
    p = make_phantom(motion=drag_motion(gain, offset))
    t = non_left_target(p)
    _, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id, mode=open_loop_insertion)
    assert rec.n_corrections == 0
    assert rec.distance_error == pytest.approx(drag, abs=1e-9)
    assert rec.axial_motion == pytest.approx(drag, abs=1e-9)
    # the uncompensated displacement is purely the modeled drag
    np.testing.assert_allclose(rec.residual_motion, 0.0, atol=1e-9)


def test_paired_runs_share_noise():
    p = make_phantom(motion=MotionParams(0.05, 2.0, 0.01, 0.8))
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    a = run_quiet(p, t.id, noise=noise)
    b = run_quiet(p, t.id, noise=noise)
    assert a.distance_error == b.distance_error
    np.testing.assert_array_equal(a.bead_rest_position, b.bead_rest_position)
    assert len(a.corrections) == len(b.corrections)
    for (da, pa), (db, pb) in zip(a.corrections, b.corrections):
        assert da == db
        np.testing.assert_array_equal(pa, pb)
    # open loop plans from the same reference draws
    o = run_quiet(p, t.id, mode=open_loop_insertion, noise=noise)
    np.testing.assert_array_equal(o.trajectory.entry, a.trajectory.entry)
    assert o.trajectory.planned_depth == a.trajectory.planned_depth
    # the closed record's baseline is that open-loop run, field by field
    assert o.axial_motion != 0.0 and np.any(o.residual_motion != 0.0)
    for f in fields(o):
        x, y = getattr(a.open_loop, f.name), getattr(o, f.name)
        if f.name == "trajectory":
            x, y = vars(x), vars(y)
        np.testing.assert_equal(x, y, err_msg=f.name)


def test_blocked_path_replans_angled():
    p = make_phantom()
    t = non_left_target(p)
    arch = blocking_arch(t.position_rest)
    rec = run_quiet(p, t.id, arch=arch)
    assert not rec.disengaged
    assert rec.trajectory.approach == "Angled"
    assert rec.distance_error < 1e-9


def test_stale_plan_triggers_safety_stop(monkeypatch):
    # plan made against an outdated arch model: force the direct path and
    # let the in-run obstruction check catch the collision
    from prostasim import kinematics, planning

    p = make_phantom()
    t = non_left_target(p)
    arch = blocking_arch(t.position_rest)

    def plan_ignoring_arch(arch_, target, region, geom, needle_radius=planning.DEFAULT_NEEDLE_RADIUS):
        entry = np.array([target[0], target[1], geom.front_plane_z])
        d = (target - entry) / np.linalg.norm(target - entry)
        return kinematics.Trajectory(entry, d, float(np.linalg.norm(target - entry)), "Horizontal")

    monkeypatch.setattr(planning, "replan_angled", plan_ignoring_arch)
    rec = run_quiet(p, t.id, arch=arch)
    assert rec.disengaged
    assert rec.corrections == []
    assert rec.n_corrections == 0
    assert rec.axial_motion == 0.0
    assert rec.distance_error > 1.0
    # the bar axis sits at z=-30: the tip must stop short of it
    stop_z = rec.trajectory.entry[2] + rec.trajectory.planned_depth * rec.trajectory.dir[2]
    assert rec.bead_rest_position[2] < -30.0 < stop_z
    o = run_quiet(p, t.id, arch=arch, mode=open_loop_insertion)
    assert o.disengaged
    assert o.axial_motion == 0.0
    assert rec.open_loop.disengaged
    # a bar just short of the target stops the tip inside a moving gland:
    # the closed record is its baseline without the residual motion
    moving = make_phantom(motion=MotionParams(0.05, 2.0, 0.01, 0.8))
    t = non_left_target(moving)
    rec = run_quiet(moving, t.id, arch=blocking_arch(t.position_rest, z=t.position_rest[2] - 2.0))
    assert rec.disengaged and rec.open_loop.disengaged
    assert np.any(rec.open_loop.residual_motion != 0.0)
    np.testing.assert_array_equal(rec.residual_motion, np.zeros(3))
    np.testing.assert_array_equal(rec.bead_rest_position, rec.open_loop.bead_rest_position)


def test_left_bias_deflects_left_zone_beads():
    bias = 1.5
    p = make_phantom(left_bias=bias)
    left = next(t for t in p.targets if t.zone.lateral_zone == LEFT)
    other = non_left_target(p)
    rec_left = run_quiet(p, left.id)
    rec_other = run_quiet(p, other.id)
    assert rec_left.distance_error == pytest.approx(bias, abs=1e-9)
    assert rec_other.distance_error < 1e-9


def test_correction_budget_flagged_not_raised():
    p = make_phantom()
    t = non_left_target(p)
    noisy = NoiseModel(sigma0=5.0, depth_gain=0.0, degradation_per_needle=1.0)
    conv = ConvergenceParams(depth_epsilon=1e-4, max_corrections=3)
    rec = run_quiet(p, t.id, conv=conv, noise=noisy)
    assert rec.max_corrections_exceeded
    assert rec.n_corrections == 3
    assert len(rec.corrections) == 4  # initial verification plus the budget


def test_durations_and_rotation():
    gain, offset = 0.05, 2.0
    p = make_phantom(motion=drag_motion(gain, offset))
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id)
    # rotation only during the initial pass
    assert rec.duration_s == pytest.approx((planned + drag) / GEOM.insertion_speed, abs=1e-9)
    assert rec.rotation_angle_deg == pytest.approx(
        GEOM.rotation_speed * (planned / GEOM.insertion_speed) * 360.0
    )


def test_convergence_params_validate():
    with pytest.raises(ValueError):
        ConvergenceParams(depth_epsilon=0.0).validate()
    with pytest.raises(ValueError):
        ConvergenceParams(max_corrections=0).validate()
