from collections import Counter, defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    TEN_TARGET_QUOTAS,
    gland_transform_at,
    gland_transform_oracle,
    open_loop_oracle,
    replan_angled_oracle,
    segment_distance_oracle,
    tiny_config,
)
from prostasim import controller, geometry, planning, rng, sensing, study
from prostasim import phantom as ph
from prostasim.config import default_config
from prostasim.controller import (
    ConvergenceParams,
    Plans,
    correct_insertions,
    open_loop_insertion,
    open_loop_records,
    plan_insertions,
    run_insertion,
)
from prostasim.geometry import DegenerateConfiguration
from prostasim.kinematics import JointState, RobotGeometry, Trajectory, inverse_kinematics
from prostasim.phantom import (
    LEFT,
    MotionParams,
    PhantomConfig,
    Phantoms,
    generate_phantom,
    gland_entry_depth,
    prostate_transform,
    world_to_material,
)
from prostasim.planning import EntryRegion, NoFeasiblePath, PubicArchModel
from prostasim.rng import Streams, draw_insertions, substream
from prostasim.sensing import NoiseModel


GEOM = RobotGeometry()


def far_arch():
    return PubicArchModel([[0.0, 80.0, -32.0]], [[30.0, 80.0, -32.0]], [4.0])


def blocking_arch(target):
    # bar crossing the straight path halfway down the shaft
    y = float(target[1])
    return PubicArchModel([[-60.0, y, -30.0]], [[60.0, y, -30.0]], [6.0])


def make_phantom(left_bias=0.0, seed=4):
    """One phantom: a ``Phantoms`` of one row, the study table of the slots of phantom 0."""
    config = PhantomConfig(left_bias_mm=left_bias, left_bias_enabled=True)
    return generate_phantom(config, 10, seed, TEN_TARGET_QUOTAS)


STILL = MotionParams(0.0, 0.0, 0.0, 0.0)
# every term of the motion model on, the rotation strong enough to show
LEVERED = MotionParams(0.12, 2.4, 0.05, 1.0)


def quiet_noise():
    return NoiseModel(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)


N_FIDUCIALS = make_phantom().fiducial_points.shape[1]


def streams(target_id, seed=31, needle_count=0, volumes=ConvergenceParams().max_corrections + 1, phantom=0):
    """The streams of one insertion, slot (phantom, target_id, 0), drawn as a block of one."""
    return draw_insertions(seed, [(phantom, target_id, 0)], [needle_count], N_FIDUCIALS, volumes)


def non_left_target(phantom):
    """The id of the first target of the one-row ``phantom`` outside the left zone."""
    for tid, zone in enumerate(phantom.zone_lateral[0].tolist()):
        if zone != LEFT:
            return tid
    raise AssertionError("phantom has no non-left target")


def plan_quiet(phantom, tid, arch=None, noise=None, track=True):
    """The plan of one insertion: a block of one."""
    return plan_insertions(
        phantom, GEOM, arch or far_arch(), noise or quiet_noise(), streams(tid), track=track
    )


def stacked(firsts):
    """The rotations and translations of first passes, stacked as the loops take them."""
    return np.array([f.rotation for f in firsts]), np.array([f.translation for f in firsts])


def open_loop_block(phantom, motion, plan, tid):
    """A slot's first pass and its open-loop records, scored as a block of one."""
    first = open_loop_insertion(motion, plan, 0, streams(tid).rows(0))
    return first, open_loop_records(motion, plan, streams(tid), *stacked([first]))


def only_row(records):
    """The values of the one row of ``records``, column by column."""
    assert len(records) == 1
    return records.rows(0)


def run_quiet(phantom, tid, arch=None, conv=None, mode=run_insertion, noise=None, motion=STILL):
    """Plan, then insert from the plan: the two steps of a study slot.

    Either loop gives the slot's one row of records.
    """
    plan = plan_quiet(phantom, tid, arch, noise, track=mode is run_insertion)
    if mode is run_insertion:
        return only_row(run_insertion(
            motion, noise or quiet_noise(), GEOM, conv or ConvergenceParams(), plan, streams(tid),
        ))
    _, records = open_loop_block(phantom, motion, plan, tid)
    return only_row(records)


def drag_motion(gain=0.05, offset=2.0):
    return MotionParams(axial_gain=gain, axial_base_offset=offset, rotation_gain=0.0, noise_sd_motion=0.0)


def expected_drag(phantom, tid, gain, offset):
    rest = phantom.target_rest[0, tid]
    entry = np.array([rest[0], rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    planned = float(np.linalg.norm(rest - entry))
    t0 = gland_entry_depth(phantom, [entry], [d])[0]
    return planned, offset + gain * (planned - t0)


def test_static_gland_hits_exactly():
    p = make_phantom()
    t = non_left_target(p)
    rec = run_quiet(p, t)
    assert not rec.disengaged
    assert rec.n_corrections == 0
    # the bead is deposited on the target
    assert rec.error_mm < 1e-9
    assert rec.depth_correction_mm == 0.0
    np.testing.assert_allclose(rec.motion_mm, 0.0, atol=1e-9)


def test_pure_drag_needs_exactly_one_correction():
    gain, offset = 0.05, 2.0
    p = make_phantom()
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    # second verification sees the frozen transform: it proposes a change ~ 0,
    # so even a 1e-9 mm depth resolution stops the loop there
    rec = run_quiet(p, t, motion=drag_motion(gain, offset), conv=ConvergenceParams(depth_epsilon=1e-9))
    assert rec.n_corrections == 1
    assert rec.depth_correction_mm == pytest.approx(drag, abs=1e-9)
    assert rec.error_mm < 1e-9
    np.testing.assert_allclose(rec.motion_mm, 0.0, atol=1e-9)
    assert plan_quiet(p, t).depth[0] == pytest.approx(planned)


def test_open_loop_misses_by_the_drag():
    gain, offset = 0.05, 2.0
    p = make_phantom()
    t = non_left_target(p)
    _, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t, mode=open_loop_records, motion=drag_motion(gain, offset))
    assert rec.n_corrections == 0
    assert rec.error_mm == pytest.approx(drag, abs=1e-9)
    assert rec.depth_correction_mm == pytest.approx(drag, abs=1e-9)
    # the uncompensated displacement is purely the modeled drag
    np.testing.assert_allclose(rec.motion_mm, 0.0, atol=1e-9)


def test_paired_runs_share_noise():
    p = make_phantom()
    motion = MotionParams(0.05, 2.0, 0.01, 0.8)
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    a = run_quiet(p, t, noise=noise, motion=motion)
    b = run_quiet(p, t, noise=noise, motion=motion)
    assert a.n_corrections >= 1
    np.testing.assert_equal(vars(a), vars(b))
    # open loop plans from the same reference draws
    tracked, untracked = (plan_quiet(p, t, noise=noise, track=track) for track in (True, False))
    assert untracked == replace(tracked, reference=None)
    # the slot's open-loop record is its first pass alone, in the row its closed record has
    o = run_quiet(p, t, mode=open_loop_records, noise=noise, motion=motion)
    assert o.depth_correction_mm != 0.0 and np.any(o.motion_mm != 0.0)
    first, opened = open_loop_block(p, motion, tracked, t)
    assert_same_first_pass(first, open_loop_insertion(motion, untracked, 0, streams(t).rows(0)))
    (closed,) = correct_insertions([motion], noise, GEOM, ConvergenceParams(), tracked, streams(t), *stacked([first]))
    row = only_row(opened)
    assert (row.n_corrections, row.error_mm, row.depth_correction_mm) == (0, o.error_mm, o.depth_correction_mm)
    np.testing.assert_array_equal(row.motion_mm, o.motion_mm)
    assert not row.max_corrections_exceeded and row.duration_s == tracked.duration_s[0]
    for name in ("phantom_id", "target_id", "replicate", "zone_depth", "zone_lateral", "zone_ap", "approach",
                 "disengaged", "rotation_angle_deg"):
        np.testing.assert_array_equal(getattr(opened, name), getattr(closed, name), err_msg=name)
    np.testing.assert_equal(vars(only_row(closed)), vars(a))


def test_blocked_path_replans_angled():
    p = make_phantom()
    t = non_left_target(p)
    arch = blocking_arch(p.target_rest[0, t])
    rec = run_quiet(p, t, arch=arch)
    assert not rec.disengaged
    assert rec.approach == "Angled"
    assert rec.error_mm < 1e-9


def test_left_bias_deflects_left_zone_beads():
    bias = 1.5
    p = make_phantom(left_bias=bias)
    left = p.zone_lateral[0].tolist().index(LEFT)
    other = non_left_target(p)
    rec_left = run_quiet(p, left)
    rec_other = run_quiet(p, other)
    assert rec_left.error_mm == pytest.approx(bias, abs=1e-9)
    assert rec_other.error_mm < 1e-9


def test_correction_budget_flagged_not_raised():
    p = make_phantom()
    t = non_left_target(p)
    noisy = NoiseModel(sigma0=5.0, depth_gain=0.0, degradation_per_needle=1.0)
    conv = ConvergenceParams(depth_epsilon=1e-4, max_corrections=3)
    rec = run_quiet(p, t, conv=conv, noise=noisy)
    assert rec.max_corrections_exceeded
    assert rec.n_corrections == 3
    # the streams must hold a volume for every verification the budget
    # allows: the initial one plus the budget
    plan = plan_quiet(p, t, noise=noisy)
    short = streams(t, volumes=3)
    with pytest.raises(ValueError, match="3 observation volumes"):
        run_insertion(STILL, noisy, GEOM, conv, plan, short)
    exact = run_insertion(STILL, noisy, GEOM, conv, plan, streams(t, volumes=4))
    assert exact == run_insertion(STILL, noisy, GEOM, conv, plan, streams(t))


def test_durations_and_rotation():
    gain, offset = 0.05, 2.0
    p = make_phantom()
    t = non_left_target(p)
    planned, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t, motion=drag_motion(gain, offset))
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
    # whose needle entry point it is given, or whose row of the levers
    per_slot = defaultdict(Counter)
    # (levers, row) of each first pass -> its slot; the closed loop reads
    # the levers its first passes did
    lever_slots = {}

    def slot(entry):
        return tuple(np.asarray(entry).tolist())

    def transform(levers, k, motion, noise):
        per_slot[lever_slots[id(levers), k]]["transform"] += 1
        return prostate_transform(levers, k, motion, noise)

    def first_pass(motion, plans, k, streams):
        lever_slots[id(plans.levers), k] = slot(plans.entry[k])
        return open_loop_insertion(motion, plans, k, streams=streams)

    # the rows of each entry depth solve, one entry per call
    solved = []

    def entry(phantoms, entries, dirs):
        solved.append(len(phantoms))
        return gland_entry_depth(phantoms, entries, dirs)

    # the reference sets each collinearity check covers, one list per call
    checked = []
    deviation = geometry.max_line_deviation

    def line(centered):
        checked.append(list(centered))
        return deviation(centered)

    def planning(*args, **kwargs):
        checked.clear()
        solves = len(solved)
        plans = plan_insertions(*args, **kwargs)
        assert len(checked) == 1  # one check for the whole block
        # one solve for the whole block: along each planned and each normalized direction
        assert solved[solves:] == [2 * len(plans)]
        for entry, centered in zip(plans.entry, plans.reference.centered):
            per_slot[slot(entry)]["line"] += sum(np.array_equal(c, centered) for c in checked[0])
        return plans

    blocks = []

    def correcting(motions, noise, geom, conv, plans, *rest):
        points = correct_insertions(motions, noise, geom, conv, plans, *rest)
        (records,) = points
        blocks.append(len(records))
        for entry, corrections in zip(plans.entry, records.n_corrections.tolist()):
            per_slot[slot(entry)]["corrections"] = corrections
        return points

    scores = []
    monkeypatch.setattr(controller, "_score", counting(scores, "score", controller._score))
    monkeypatch.setattr(controller, "prostate_transform", transform)
    monkeypatch.setattr(geometry, "max_line_deviation", line)
    # the entry depth is looked up through both modules' bindings
    monkeypatch.setattr(controller, "gland_entry_depth", entry)
    monkeypatch.setattr(ph, "gland_entry_depth", entry)
    monkeypatch.setattr(study, "plan_insertions", planning)
    monkeypatch.setattr(study, "correct_insertions", correcting)
    monkeypatch.setattr(study, "open_loop_insertion", first_pass)
    study.run_study(tiny_config(mode="closed_loop"))
    assert blocks == [16] and len(per_slot) == 16
    # insertions that verify three or more times, so a per-step evaluation shows
    assert max(c["corrections"] for c in per_slot.values()) >= 2
    for c in per_slot.values():
        # the first pass makes the slot's one gland transform, the closed loop none
        assert c["transform"] == 1
        assert c["line"] == 1
    # neither the first pass nor the correction loop solves an entry depth
    assert solved == [32]
    # one scoring for the block, and none for a first pass a closed-only study does not report
    assert len(scores) == 1


def test_retracting_out_of_the_gland_re_evaluates_the_transform(monkeypatch):
    p = make_phantom()
    motion = drag_motion()
    t = non_left_target(p)
    entry = np.array([p.target_rest[0, t][0], p.target_rest[0, t][1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    shallow = entry + (gland_entry_depth(p, [entry], [d])[0] - 3.0) * d
    # the tracker reports the target short of the gland: the tip retracts there
    monkeypatch.setattr(
        sensing, "track_target", lambda rot, trans, targets: np.broadcast_to(shallow, targets.shape).copy()
    )
    calls = []
    monkeypatch.setattr(controller, "prostate_transform", counting(calls, "transform", prostate_transform))
    rec = run_quiet(p, t, motion=motion)
    # the first pass's transform serves both sides of the entry depth
    assert rec.n_corrections == 1 and len(calls) == 1
    plan = plan_quiet(p, t)
    entry, d, planned = plan.entry[0], plan.dir[0], float(plan.depth[0])
    depth_to_shallow, _ = geometry.axis_decompose(entry, d, shallow)
    tip = max(0.0, planned + (depth_to_shallow - planned))
    entry_depth = gland_entry_depth(p, [entry], [geometry.normalize(d)])[0]
    fresh = gland_transform_oracle(p.rows(0), motion, entry, d, tip, planned, np.zeros(3), entry_depth)
    tip_world = (entry + tip * d)[None]
    bead = world_to_material(fresh.rotation[None], fresh.translation[None], tip_world)[0]
    assert rec.error_mm == float(np.linalg.norm(bead - p.target_rest[0, t]))
    # the first pass's transform, which the retracted tip must not reuse
    first = gland_transform_oracle(p.rows(0), motion, entry, d, planned, planned, np.zeros(3), entry_depth)
    assert np.linalg.norm(first.translation - fresh.translation) > 1.0


def short_of_the_gland(p, t):
    """The one-row ``p`` with target ``t`` moved 3 mm short of the gland along its direct line."""
    rest = p.target_rest[0, t]
    entry = np.array([rest[0], rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    target_rest = p.target_rest.copy()
    target_rest[0, t] = entry + (gland_entry_depth(p, [entry], [d])[0] - 3.0) * d
    return replace(p, target_rest=target_rest)


def test_a_first_pass_short_of_the_gland_is_corrected_into_it(monkeypatch):
    motion = drag_motion()
    inside = make_phantom()
    t = non_left_target(inside)
    p = short_of_the_gland(inside, t)
    # the observed target lies before the gland surface: the first pass stops there
    plan = plan_quiet(p, t)
    entry, d, planned = plan.entry[0], plan.dir[0], float(plan.depth[0])
    entry_depth = gland_entry_depth(p, [entry], [geometry.normalize(d)])[0]
    assert planned < entry_depth
    # the tracker reports the target where it lies in the gland: the tip advances there
    deep = inside.target_rest[0, t]
    monkeypatch.setattr(
        sensing, "track_target", lambda rot, trans, targets: np.broadcast_to(deep, targets.shape).copy()
    )
    calls = []
    monkeypatch.setattr(controller, "prostate_transform", counting(calls, "transform", prostate_transform))
    rec = run_quiet(p, t, motion=motion)
    # the first pass made the transform of the gland the tip is corrected into
    assert rec.n_corrections == 1 and len(calls) == 1
    depth_to_deep, _ = geometry.axis_decompose(entry, d, deep)
    tip = max(0.0, planned + (depth_to_deep - planned))
    assert tip > entry_depth
    moved = gland_transform_oracle(p.rows(0), motion, entry, d, tip, planned, np.zeros(3), entry_depth)
    tip_world = (entry + tip * d)[None]
    bead = world_to_material(moved.rotation[None], moved.translation[None], tip_world)[0]
    assert rec.error_mm == float(np.linalg.norm(bead - p.target_rest[0, t]))
    # the bead is not left in the gland at rest, where the first pass stopped
    assert np.linalg.norm(moved.translation) > 1.0


def test_transform_identity_before_gland():
    # a first pass short of the gland leaves its bead in the gland at rest,
    # though the transform it makes, that of a tip past the entry depth, moves
    motion = MotionParams(axial_gain=0.0, axial_base_offset=3.0, rotation_gain=0.0, noise_sd_motion=0.0)
    inside = make_phantom()
    t = non_left_target(inside)
    p = short_of_the_gland(inside, t)
    plan = plan_quiet(p, t)
    first, records = open_loop_block(p, motion, plan, t)
    np.testing.assert_array_equal(first.translation, 3.0 * plan.levers.dir[0])
    rot, trans = controller._gland_states(plan.depth > plan.levers.entry_depth, *stacked([first]))
    np.testing.assert_array_equal(rot[0], np.eye(3))
    np.testing.assert_array_equal(trans[0], np.zeros(3))
    opened = only_row(records)
    assert opened.error_mm < 1e-9 and opened.depth_correction_mm == pytest.approx(0.0, abs=1e-9)
    # the closed loop sees the gland at rest too: nothing to correct
    closed = run_quiet(p, t, motion=motion)
    assert closed.n_corrections == 0 and closed.error_mm < 1e-9


def assert_same_first_pass(a, b):
    for f in fields(a):
        np.testing.assert_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def test_a_given_plan_gives_the_same_records():
    p = make_phantom()
    motion = MotionParams(0.05, 2.0, 0.01, 0.8)
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    plan = plan_quiet(p, t, noise=noise)
    fresh = run_insertion(motion, noise, GEOM, ConvergenceParams(), plan_quiet(p, t, noise=noise), streams(t))
    fresh_first, fresh_open = open_loop_block(p, motion, plan_quiet(p, t, noise=noise), t)
    assert fresh.n_corrections[0] >= 1
    for _ in range(2):  # a plan is not consumed by its use
        assert run_insertion(motion, noise, GEOM, ConvergenceParams(), plan, streams(t)) == fresh
        first, opened = open_loop_block(p, motion, plan, t)
        assert_same_first_pass(first, fresh_first)
        assert opened == fresh_open
    # one plan serves any motion: a still gland leaves the first pass on target
    _, opened = open_loop_block(p, STILL, plan, t)
    still = only_row(opened)
    assert still.depth_correction_mm == 0.0
    assert still.error_mm < fresh_open.error_mm[0]
    # an untracked plan carries no registration reference
    untracked = plan_quiet(p, t, noise=noise, track=False)
    assert untracked.reference is None and untracked.levers == plan.levers
    first, opened = open_loop_block(p, motion, untracked, t)
    assert_same_first_pass(first, fresh_first)
    assert opened == fresh_open
    with pytest.raises(ValueError, match="tracked plan"):
        run_insertion(motion, noise, GEOM, ConvergenceParams(), untracked, streams(t))


# two phantoms of different shape, so the slots of one block differ in their
# fiducials, and the first again with its last target, target 9, outside the
# gland, whose direct line misses it: rows 0, 1 and 2 of TABLE
SHAPES = Phantoms.concat([
    generate_phantom(PhantomConfig(), 10, 5, TEN_TARGET_QUOTAS),
    generate_phantom(PhantomConfig(gland_semiaxes=(21.0, 17.0, 26.0)), 10, 6, TEN_TARGET_QUOTAS),
])


def off_gland():
    p = SHAPES.rows([0])
    p.target_rest[0, 9] = (30.0, 4.0, 6.0)
    p.zone_depth[0, 9], p.zone_lateral[0, 9], p.zone_ap[0, 9] = ph.BASE, LEFT, ph.ANTERIOR
    return p


TABLE = Phantoms.concat([SHAPES, off_gland()])
OFF_GLAND = 2


def wide_arch():
    """The robot and arch of the default config with 11 mm arch capsules.

    They block the direct path to about a third of the SHAPES targets (and
    leave a few with no feasible path), so blocks mix angled and
    horizontal plans; the far arch blocks none.
    """
    cfg = default_config()
    for cap in cfg.arch.capsules:
        cap["radius"] = 11.0
    cfg.robot.max_angulation = 22.0
    return cfg.robot, cfg.arch.build()


WIDE_ROBOT, WIDE_ARCH = wide_arch()
ARCHES = (far_arch(), WIDE_ARCH)
# target 7 of SHAPES[0] (x = 15.38 mm) has its direct entry one ulp beyond
# this robot's stage travel, target 9 (14.70 mm) within it
EDGE_ROBOT = replace(WIDE_ROBOT, stage_travel=float(np.nextafter(SHAPES.target_rest[0, 7, 0], 0.0)))
# the entry plane cuts through the gland: an entry on or inside its surface
INSIDE_ROBOT = replace(WIDE_ROBOT, front_plane_z=-10.0)


# A per-slot planner on Python floats, an independent oracle for the
# stacked kernels: direct path, clearance, inverse kinematics, first pass,
# penetration and gland entry depth, one slot at a time.


def oracle_normalize(v):
    return v / float(np.linalg.norm(v))


def oracle_entry_depth(phantom, entry, dir):
    """The gland entry depth of one line into ``phantom``, one row's values of ``Phantoms``."""
    semi = np.asarray(phantom.gland_semiaxes, dtype=np.float64)
    w, v = entry / semi, dir / semi
    aa, bb, cc = float(v @ v), float(w @ v), float(w @ w) - 1.0
    disc = bb * bb - aa * cc
    if disc < 0.0:
        return None
    t0, t1 = (-bb - disc**0.5) / aa, (-bb + disc**0.5) / aa
    if t1 < 0.0:
        return None
    return t0 if t0 >= 0.0 else 0.0


def oracle_trajectory(arch, target, region, geom):
    entry = np.array([target[0], target[1], geom.front_plane_z])
    if region.x_min <= target[0] <= region.x_max and region.y_min <= target[1] <= region.y_max:
        # no direct path reaches a target on or behind the entry plane
        if max(abs(target[0]), abs(target[1])) <= geom.stage_travel and target[2] > geom.front_plane_z:
            d, depth = oracle_normalize(target - entry), float(np.linalg.norm(target - entry))
            tip = entry + (depth + planning.DEPTH_MARGIN) * d
            clearance = min(
                (segment_distance_oracle(entry, tip, a, b) - radius - planning.DEFAULT_NEEDLE_RADIUS
                 for a, b, radius in zip(arch.a, arch.b, arch.radius)),
                default=np.inf,
            )
            if clearance > 0.0:
                return Trajectory(entry, d, depth, "Horizontal")
    return replan_angled_oracle(arch, target, region, geom)


def oracle_first_pass(phantom, traj, geom):
    """(joints, duration, penetration, entry depth) of the first pass along ``traj``."""
    d, e = oracle_normalize(traj.dir), traj.entry
    front = e + (geom.front_plane_z - e[2]) / d[2] * d
    back = e + (geom.front_plane_z - geom.stage_separation - e[2]) / d[2] * d
    duration = abs(traj.planned_depth) / geom.insertion_speed
    angle = 0.0 + geom.rotation_speed * duration * 360.0
    joints = JointState(
        float(front[0]), float(front[1]), float(back[0]), float(back[1]), 0.0, 0.0 + traj.planned_depth, angle
    )
    t0 = oracle_entry_depth(phantom, traj.entry, traj.dir)
    pen = 0.0 if t0 is None else max(0.0, traj.planned_depth - t0)
    entry_depth = oracle_entry_depth(phantom, traj.entry, oracle_normalize(traj.dir))
    return joints, duration, pen, np.nan if entry_depth is None else entry_depth


def oracle_reference(slot, noise):
    """The reference volume and observed target of a slot, each fiducial and
    then the target observed with ``normal`` from its reference stream."""
    row, target_id, seed, count = slot
    phantom = TABLE.rows(row)
    stream = substream(seed, rng.REFERENCE, row, target_id, 0)
    base = noise.sigma0 * noise.degradation_per_needle**count
    c = phantom.gland_semiaxes[2]

    def seen(point):
        return point + stream.normal(0.0, base + noise.depth_gain * max(0.0, float(point[2]) + c), 3)

    volume = np.array([seen(point) for point in phantom.fiducial_points])
    return volume, seen(phantom.target_rest[target_id])


@st.composite
def block_slots(draw):
    """One slot of a block: phantom (a row of TABLE), target id, reference stream seed, needle count."""
    row = draw(st.integers(0, len(TABLE) - 1))
    target_id = draw(st.integers(0, TABLE.target_rest.shape[1] - 1))
    return row, target_id, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(
    slots=st.lists(block_slots(), min_size=1, max_size=6),
    arch=st.sampled_from(ARCHES),
    robot=st.just(WIDE_ROBOT),
    sigma0=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
    depth_gain=st.floats(0.0, 0.05),
    degradation=st.floats(1.0, 1.3),
    track=st.booleans(),
)
# slots that differ in phantom and needle count, under a noise that reads both
@example(
    slots=[(0, 1, 7, 0), (1, 3, 8, 2), (0, 6, 9, 4)],
    arch=WIDE_ARCH, robot=WIDE_ROBOT, sigma0=0.3, depth_gain=0.01, degradation=1.2, track=True,
)
# the second slot's observed target has no path clear of the wide arch
@example(
    slots=[(1, 2, 5, 1), (0, 9, 6, 4), (0, 0, 3, 0)],
    arch=WIDE_ARCH, robot=WIDE_ROBOT, sigma0=0.5, depth_gain=0.05, degradation=1.3, track=True,
)
# a direct line that misses the gland: no entry depth, no penetration
@example(
    slots=[(OFF_GLAND, 9, 1, 0), (0, 2, 2, 1)],
    arch=ARCHES[0], robot=WIDE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=True,
)
# entries on or inside the gland surface: the entry depth clamps to 0
@example(
    slots=[(0, 0, 1, 0), (0, 3, 2, 0), (0, 7, 3, 0)],
    arch=ARCHES[0], robot=INSIDE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=False,
)
# a direct entry one ulp beyond the stage travel, beside one within it
@example(
    slots=[(0, 7, 1, 0), (0, 9, 2, 0)],
    arch=ARCHES[0], robot=EDGE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=True,
)
def test_a_block_plans_each_slot_as_it_would_alone(
    slots, arch, robot, sigma0, depth_gain, degradation, track
):
    noise = NoiseModel(sigma0=sigma0, depth_gain=depth_gain, degradation_per_needle=degradation)

    def plan(block_streams):
        return plan_insertions(TABLE, robot, arch, noise, block_streams, track=track)

    each = [streams(target_id, seed, count, volumes=0, phantom=row) for row, target_id, seed, count in slots]
    block_streams = Streams.concat(each)
    alone = []
    for slot_streams in each:
        try:
            alone.append(plan(slot_streams))
        except NoFeasiblePath:
            alone.append(None)
    if None in alone:
        with pytest.raises(NoFeasiblePath):
            plan(block_streams)
        return
    block = plan(block_streams)
    assert block == Plans.concat(alone)
    stages = inverse_kinematics(robot, block.entry, block.dir)
    for k, slot in enumerate(slots):
        phantom, target_id = TABLE.rows(slot[0]), slot[1]
        np.testing.assert_array_equal(block.target_rest[k], phantom.target_rest[target_id])
        zone = (block.zone_depth[k], block.zone_lateral[k], block.zone_ap[k])
        assert zone == (phantom.zone_depth[target_id], phantom.zone_lateral[target_id], phantom.zone_ap[target_id])
        # the reference volume and the observed target are those of the
        # slot's reference stream, drawn point by point
        volume, target_obs = oracle_reference(slot, noise)
        np.testing.assert_array_equal(block.target_obs[k], target_obs)
        if track:
            np.testing.assert_array_equal(block.reference.points[k], volume)
        else:
            assert block.reference is None
        # and the plan is the one the per-slot oracle makes from the observed target
        traj = oracle_trajectory(arch, block.target_obs[k], EntryRegion(), robot)
        joints, duration, pen, entry_depth = oracle_first_pass(phantom, traj, robot)
        for name, got, want in (
            ("entry", block.entry[k], traj.entry), ("dir", block.dir[k], traj.dir),
            ("depth", block.depth[k], traj.planned_depth), ("approach", block.approach[k], traj.approach),
            ("stages", stages[k], [joints.front_x, joints.front_y, joints.back_x, joints.back_y]),
            ("insertion_depth", block.depth[k], joints.insertion_depth),
            ("rotation_angle_deg", block.rotation_angle_deg[k], joints.rotation_angle),
            ("duration_s", block.duration_s[k], duration), ("penetration", block.penetration[k], pen),
        ):
            np.testing.assert_array_equal(got, want, err_msg=name)
        # the lever gives the bits of the gland transform evaluated whole on the line
        np.testing.assert_array_equal(block.levers.entry_depth[k], entry_depth)
        noise3 = np.array([0.4, -1.1, 0.7])
        for tip in (traj.planned_depth, 0.5 * traj.planned_depth):
            got = gland_transform_at(block.levers, k, LEVERED, tip, noise3)
            want = gland_transform_oracle(
                phantom, LEVERED, traj.entry, traj.dir, tip, traj.planned_depth, noise3, entry_depth
            )
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


def test_a_block_scores_its_first_passes_as_each_slot_alone():
    # a biased and an unbiased phantom, left-zone and other targets, the
    # wide arch blocking some direct paths: every slot that has a path
    noise = NoiseModel(sigma0=0.3, depth_gain=0.01, degradation_per_needle=1.1)
    phantoms = replace(SHAPES, left_bias=np.array([1.5, 0.0]))
    each, alone = [], []
    for index in range(len(phantoms)):
        for target in range(phantoms.target_rest.shape[1]):
            slot_streams = draw_insertions(5, [(index, target, 0)], [target], N_FIDUCIALS, 0)
            try:
                alone.append(plan_insertions(phantoms, WIDE_ROBOT, WIDE_ARCH, noise, slot_streams, track=False))
            except NoFeasiblePath:
                continue
            each.append(slot_streams)
    plans = Plans.concat(alone)
    block_streams = Streams.concat(each)
    block_phantoms = [phantoms.rows(index) for index in block_streams.phantom.tolist()]
    assert set(plans.approach.tolist()) == {"Horizontal", "Angled"}
    deflected = [p.left_bias != 0.0 and zone == LEFT for p, zone in zip(block_phantoms, plans.zone_lateral)]
    assert any(deflected) and not all(deflected)
    assert any(p.left_bias == 0.0 for p in block_phantoms)

    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    for motion in (STILL, LEVERED):
        firsts = [open_loop_insertion(motion, plans, k, block_streams.rows(k)) for k in range(len(plans))]
        records = open_loop_records(motion, plans, block_streams, *stacked(firsts))
        for k, (phantom, first) in enumerate(zip(block_phantoms, firsts)):
            axial, error, residual = open_loop_oracle(phantom, motion, plans, k, first)
            assert bits(records.depth_correction_mm[k]) == bits(axial), k
            assert bits(records.error_mm[k]) == bits(error), k
            assert bits(records.motion_mm[k]) == bits(residual), k
        if motion is STILL:
            # a still gland moves no target, and the records see it
            np.testing.assert_allclose(records.depth_correction_mm, 0.0, atol=1e-9)


def feasible_slots(noise):
    """The streams of every SHAPES target with a path clear of the wide arch,
    each slot's needle count its target id, and each slot's tracked plans as a
    block of one."""
    slots, alone = [], []
    for index in range(len(SHAPES)):
        for target in range(SHAPES.target_rest.shape[1]):
            slot_streams = draw_insertions(8, [(index, target, 0)], [target], N_FIDUCIALS, 0)
            try:
                alone.append(plan_insertions(SHAPES, WIDE_ROBOT, WIDE_ARCH, noise, slot_streams))
            except NoFeasiblePath:
                continue
            slots.append(slot_streams)
    return slots, alone


def plan_slots(slots, noise):
    """The tracked plans of the slots of the streams ``slots`` as one block, under the wide arch."""
    return plan_insertions(SHAPES, WIDE_ROBOT, WIDE_ARCH, noise, Streams.concat(slots))


def test_a_blocks_plans_are_those_of_its_slots_planned_alone():
    noise = NoiseModel(sigma0=0.3, depth_gain=0.01, degradation_per_needle=1.1)
    slots, alone = feasible_slots(noise)
    plans = plan_slots(slots, noise)
    assert set(plans.approach.tolist()) == {"Horizontal", "Angled"} and len(plans) == len(slots)
    together = Plans.concat(alone)
    # column by column, nested columns included, each with its dtype, shape and bits
    for f in fields(Plans):
        a, b = getattr(plans, f.name), getattr(together, f.name)
        if isinstance(a, geometry.Columns):
            assert a == b, f.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
    assert plans == together


def test_rows_of_a_blocks_plans_are_the_plans_of_those_slots():
    # Plans.rows (geometry.Columns.rows) with repeated indices: the block's
    # slots three times over, taken 7 rows at a time, are the plans of those
    # slots planned as a block of their own (each take holds every label,
    # so its label columns have the block's dtypes)
    noise = NoiseModel(sigma0=0.2, depth_gain=0.01, degradation_per_needle=1.0)
    slots, _ = feasible_slots(noise)
    slots = slots[:9]
    plans = plan_slots(slots, noise)
    n = len(slots)
    rows = [r % n for r in range(3 * n)]
    for lo in range(0, len(rows), 7):
        take = rows[lo:lo + 7]
        assert plans.rows(take) == plan_slots([slots[k] for k in take], noise), lo


def test_a_collinear_reference_volume_anywhere_in_a_block_raises():
    p = make_phantom()
    t = non_left_target(p)
    # noiseless, the reference volume is the fiducials, here all on one line
    line = np.linspace(-8.0, 8.0, N_FIDUCIALS)[:, None] * np.array([[1.0, 0.5, 0.2]])
    # the third slot's phantom, row 1, has them
    phantoms = Phantoms.concat([p, replace(p, fiducial_points=line[None])])
    block_streams = Streams.concat([streams(t), streams(t), streams(t, phantom=1), streams(t)])
    with pytest.raises(DegenerateConfiguration, match="collinear"):
        plan_insertions(phantoms, GEOM, far_arch(), quiet_noise(), block_streams)
    # an untracked plan prepares no registration reference, so nothing checks it
    plans = plan_insertions(phantoms, GEOM, far_arch(), quiet_noise(), block_streams, track=False)
    assert len(plans) == 4 and plans.reference is None


def three_points(cfg):
    """Three calibration points, two of one sigma0, and each one's own study."""
    points = [
        (cfg.motion, cfg.noise.sigma0),
        (replace(cfg.motion, axial_gain=2.0 * cfg.motion.axial_gain), 2.0 * cfg.noise.sigma0),
        (replace(cfg.motion, rotation_gain=0.0, noise_sd_motion=0.5), cfg.noise.sigma0),
    ]
    alone = [study.run_study(replace(cfg, motion=motion, noise=replace(cfg.noise, sigma0=sigma0)))
             for motion, sigma0 in points]
    return points, alone


def assert_records_of_their_own_studies(batched, alone, size):
    for (rows_closed, rows_open), report in zip(batched, alone, strict=True):
        assert rows_closed == report.rows_closed, size
        assert rows_open == report.rows_open, size


def test_a_study_draws_and_plans_only_the_blocks_its_shared_work_lacks(monkeypatch):
    # the points of one run_points call share each block's streams, and the
    # points of one sigma0 share its plans: a block is drawn once and planned
    # once per sigma0, and each point's records are those of its own study
    cfg = tiny_config()
    points, alone = three_points(cfg)
    calls = Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(study, "plan_insertions", counted("plan", study.plan_insertions))
    monkeypatch.setattr(study, "draw_insertions", counted("draw", study.draw_insertions))
    # 16 slots: blocks of 5, 5, 5 and 1
    monkeypatch.setattr(study, "BLOCK_SLOTS", 5)
    batched = study.run_points(cfg, points)
    assert calls == {"draw": 4, "plan": 8}
    assert_records_of_their_own_studies(batched, alone, 5)


def test_shared_work_keeps_blocks_of_another_size_apart(monkeypatch):
    # blocks of 5 (5, 5, 5 and 1 of the 16 slots) and of 7 (7, 7 and 2)
    # share their streams and plans differently, and give the same records
    cfg = tiny_config()
    points, alone = three_points(cfg)
    for size in (5, 7):
        monkeypatch.setattr(study, "BLOCK_SLOTS", size)
        assert_records_of_their_own_studies(study.run_points(cfg, points), alone, size)
