from collections import Counter, defaultdict
from dataclasses import fields

import numpy as np
import pytest

from conftest import tiny_config
from prostasim import controller, geometry, sensing, study
from prostasim import phantom as ph
from prostasim.controller import (
    ConvergenceParams,
    correct_insertions,
    open_loop_insertion,
    plan_insertion,
    run_insertion,
)
from prostasim.geometry import Segment
from prostasim.kinematics import RobotGeometry
from prostasim.phantom import (
    LEFT,
    MotionParams,
    NeedleState,
    PhantomSpec,
    generate_phantom,
    gland_entry_depth,
    prostate_transform,
    world_to_material,
)
from prostasim.planning import PubicArchModel
from prostasim.rng import InsertionStreams
from prostasim.sensing import NoiseModel


GEOM = RobotGeometry()


def far_arch():
    seg = Segment(np.array([0.0, 80.0, -32.0]), np.array([30.0, 80.0, -32.0]))
    return PubicArchModel([(seg, 4.0)])


def blocking_arch(target):
    # bar crossing the straight path halfway down the shaft
    y = float(target[1])
    seg = Segment(np.array([-60.0, y, -30.0]), np.array([60.0, y, -30.0]))
    return PubicArchModel([(seg, 6.0)])


def make_phantom(left_bias=0.0, seed=4):
    return generate_phantom(PhantomSpec(left_bias=left_bias), seed)


STILL = MotionParams(0.0, 0.0, 0.0, 0.0)


def quiet_noise():
    return NoiseModel(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)


def streams(target_id, seed=31):
    return InsertionStreams(seed, phantom=0, target=target_id, replicate=0)


def non_left_target(phantom):
    for t in phantom.targets:
        if t.zone.lateral_zone != LEFT:
            return t
    raise AssertionError("phantom has no non-left target")


def plan_quiet(phantom, tid, arch=None, noise=None, track=True):
    return plan_insertion(
        phantom, GEOM, arch or far_arch(), noise or quiet_noise(), tid, streams(tid), track=track
    )


def run_quiet(phantom, tid, arch=None, conv=None, mode=run_insertion, noise=None, motion=STILL):
    """Plan, then insert from the plan: the two steps of a study slot."""
    plan = plan_quiet(phantom, tid, arch, noise, track=mode is run_insertion)
    if mode is run_insertion:
        return run_insertion(
            phantom, motion, noise or quiet_noise(), GEOM, conv or ConvergenceParams(), plan,
            streams(tid),
        )
    return open_loop_insertion(phantom, motion, plan, streams(tid))


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
    p = make_phantom()
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id, motion=drag_motion(gain, offset))
    assert rec.n_corrections == 1
    assert rec.axial_motion == pytest.approx(drag, abs=1e-9)
    assert rec.distance_error < 1e-9
    # second verification sees the frozen transform: proposed change ~ 0
    assert abs(rec.corrections[-1][0]) < 1e-9
    np.testing.assert_allclose(rec.residual_motion, 0.0, atol=1e-9)
    assert rec.trajectory.planned_depth == pytest.approx(planned)


def test_open_loop_misses_by_the_drag():
    gain, offset = 0.05, 2.0
    p = make_phantom()
    t = non_left_target(p)
    _, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id, mode=open_loop_insertion, motion=drag_motion(gain, offset))
    assert rec.n_corrections == 0
    assert rec.distance_error == pytest.approx(drag, abs=1e-9)
    assert rec.axial_motion == pytest.approx(drag, abs=1e-9)
    # the uncompensated displacement is purely the modeled drag
    np.testing.assert_allclose(rec.residual_motion, 0.0, atol=1e-9)


def test_paired_runs_share_noise():
    p = make_phantom()
    motion = MotionParams(0.05, 2.0, 0.01, 0.8)
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    a = run_quiet(p, t.id, noise=noise, motion=motion)
    b = run_quiet(p, t.id, noise=noise, motion=motion)
    assert a.distance_error == b.distance_error
    np.testing.assert_array_equal(a.bead_rest_position, b.bead_rest_position)
    assert len(a.corrections) == len(b.corrections)
    for (da, pa), (db, pb) in zip(a.corrections, b.corrections):
        assert da == db
        np.testing.assert_array_equal(pa, pb)
    # open loop plans from the same reference draws
    o = run_quiet(p, t.id, mode=open_loop_insertion, noise=noise, motion=motion)
    np.testing.assert_array_equal(o.trajectory.entry, a.trajectory.entry)
    assert o.trajectory.planned_depth == a.trajectory.planned_depth
    # the closed record's baseline is that open-loop run, field by field
    assert o.axial_motion != 0.0 and np.any(o.residual_motion != 0.0)
    for f in fields(o):
        x, y = getattr(a.open_loop, f.name), getattr(o, f.name)
        if f.name in ("trajectory", "gland_transform"):
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
    p = make_phantom()
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id, motion=drag_motion(gain, offset))
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


def counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapped


def test_closed_loop_evaluates_invariants_once_per_insertion(monkeypatch):
    # a slot is its plan plus its insertion; a call is counted for the slot
    # whose needle entry point it is given
    per_slot = defaultdict(Counter)

    def slot(entry):
        return tuple(np.asarray(entry).tolist())

    def transform(phantom, motion, needle, noise):
        per_slot[slot(needle.entry)]["transform"] += 1
        return prostate_transform(phantom, motion, needle, noise)

    def entry(phantom, entry, dir):
        per_slot[slot(entry)]["entry"] += 1
        return gland_entry_depth(phantom, entry, dir)

    lines = []
    line = counting(lines, "line", geometry.max_line_deviation)

    def planning(*args, **kwargs):
        lines.clear()
        plan = plan_insertion(*args, **kwargs)
        per_slot[slot(plan.trajectory.entry)]["line"] += len(lines)
        return plan

    blocks = []

    def correcting(*args, **kwargs):
        records = correct_insertions(*args, **kwargs)
        blocks.append(len(records))
        for rec in records:
            per_slot[slot(rec.trajectory.entry)]["corrections"] = rec.n_corrections
        return records

    monkeypatch.setattr(controller, "prostate_transform", transform)
    monkeypatch.setattr(geometry, "max_line_deviation", line)
    # the entry depth is looked up through both modules' bindings
    monkeypatch.setattr(controller, "gland_entry_depth", entry)
    monkeypatch.setattr(ph, "gland_entry_depth", entry)
    monkeypatch.setattr(study, "plan_insertion", planning)
    monkeypatch.setattr(study, "correct_insertions", correcting)
    study.run_study(tiny_config(mode="closed_loop"))
    assert blocks == [16] and len(per_slot) == 16
    # insertions that verify three or more times, so a per-step evaluation shows
    assert max(c["corrections"] for c in per_slot.values()) >= 2
    for c in per_slot.values():
        assert c["transform"] <= 2
        assert c["line"] == 1
        # one per transform, one for the first-pass penetration (the drag of
        # both records) and one for the correction loop's entry depth
        assert c["entry"] == c["transform"] + 2


def test_retracting_out_of_the_gland_re_evaluates_the_transform(monkeypatch):
    p = make_phantom()
    motion = drag_motion()
    t = non_left_target(p)
    entry = np.array([t.position_rest[0], t.position_rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    shallow = entry + (gland_entry_depth(p, entry, d) - 3.0) * d
    # the tracker reports the target short of the gland: the tip retracts there
    monkeypatch.setattr(
        sensing, "track_target", lambda rot, trans, targets: np.broadcast_to(shallow, targets.shape).copy()
    )
    calls = []
    monkeypatch.setattr(controller, "prostate_transform", counting(calls, "transform", prostate_transform))
    rec = run_quiet(p, t.id, motion=motion)
    assert rec.n_corrections == 1 and len(calls) == 2
    traj = rec.trajectory
    planned = traj.planned_depth
    depth_to_shallow, _ = geometry.axis_decompose(traj.entry, traj.dir, shallow)
    tip = max(0.0, planned + (depth_to_shallow - planned))
    retracted = NeedleState(traj.entry, traj.dir, tip, pass_depth=planned)
    fresh = prostate_transform(p, motion, retracted, np.zeros(3))
    bead = world_to_material(p, fresh, traj.entry + tip * traj.dir)
    np.testing.assert_array_equal(rec.bead_rest_position, bead)
    assert rec.distance_error == float(np.linalg.norm(bead - t.position_rest))
    # the first pass's transform, which the retracted tip must not reuse
    first = prostate_transform(p, motion, NeedleState(traj.entry, traj.dir, planned), np.zeros(3))
    assert np.linalg.norm(first.translation - fresh.translation) > 1.0


def assert_same_record(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("trajectory", "gland_transform"):
            x, y = vars(x), vars(y)
        if f.name != "open_loop":
            np.testing.assert_equal(x, y, err_msg=f.name)


def test_a_given_plan_gives_the_same_records():
    p = make_phantom()
    motion = MotionParams(0.05, 2.0, 0.01, 0.8)
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    plan = plan_quiet(p, t.id, noise=noise)
    fresh = run_quiet(p, t.id, noise=noise, motion=motion)
    assert fresh.n_corrections >= 1
    for _ in range(2):  # a plan is not consumed by its use
        given = run_insertion(p, motion, noise, GEOM, ConvergenceParams(), plan, streams(t.id))
        assert_same_record(fresh, given)
        assert_same_record(fresh.open_loop, given.open_loop)
    # one plan serves any motion: a still gland leaves the first pass on target
    still = run_insertion(p, STILL, noise, GEOM, ConvergenceParams(), plan, streams(t.id))
    assert still.open_loop.axial_motion == 0.0
    assert still.open_loop.distance_error < fresh.open_loop.distance_error
    # an untracked plan carries no registration reference
    untracked = plan_quiet(p, t.id, noise=noise, track=False)
    assert untracked.reference is None and untracked.entry_depth is None
    opened = open_loop_insertion(p, motion, untracked, streams(t.id))
    assert_same_record(fresh.open_loop, opened)
    with pytest.raises(ValueError, match="tracked plan"):
        run_insertion(p, motion, noise, GEOM, ConvergenceParams(), untracked, streams(t.id))
