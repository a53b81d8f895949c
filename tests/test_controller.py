from collections import Counter, defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
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
    correct_insertions,
    open_loop_insertion,
    open_loop_records,
    plan_insertions,
    run_insertion,
)
from prostasim.geometry import DegenerateConfiguration, Segment
from prostasim.kinematics import JointState, RobotGeometry, Trajectory
from prostasim.phantom import (
    LEFT,
    MotionParams,
    PhantomSpec,
    generate_phantom,
    gland_entry_depth,
    prostate_transform,
    world_to_material,
)
from prostasim.planning import EntryRegion, NoFeasiblePath, PubicArchModel
from prostasim.rng import draw_insertions, substream
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
# every term of the motion model on, the rotation strong enough to show
LEVERED = MotionParams(0.12, 2.4, 0.05, 1.0)


def quiet_noise():
    return NoiseModel(sigma0=0.0, depth_gain=0.0, degradation_per_needle=1.0)


N_FIDUCIALS = len(make_phantom().fiducial_points)


def streams(target_id, seed=31, needle_count=0, volumes=ConvergenceParams().max_corrections + 1):
    """The streams of one insertion, slot (0, target_id, 0), drawn as a block of one."""
    return draw_insertions(seed, [(0, target_id, 0)], [needle_count], N_FIDUCIALS, volumes)[0]


def non_left_target(phantom):
    for t in phantom.targets:
        if t.zone.lateral_zone != LEFT:
            return t
    raise AssertionError("phantom has no non-left target")


def plan_quiet(phantom, tid, arch=None, noise=None, track=True):
    """The plan of one insertion: a block of one."""
    return plan_insertions(
        [phantom], GEOM, arch or far_arch(), noise or quiet_noise(), [tid], [streams(tid)], track=track
    )[0]


def open_loop_block(phantom, motion, plan, tid):
    """A slot's first pass and its open-loop records, scored as a block of one."""
    first = open_loop_insertion(motion, plan, streams(tid))
    return first, open_loop_records([phantom], [plan], [streams(tid)], [first])


def run_quiet(phantom, tid, arch=None, conv=None, mode=run_insertion, noise=None, motion=STILL):
    """Plan, then insert from the plan: the two steps of a study slot.

    Either loop gives the slot's one row of records.
    """
    plan = plan_quiet(phantom, tid, arch, noise, track=mode is run_insertion)
    if mode is run_insertion:
        (row,) = run_insertion(
            phantom, motion, noise or quiet_noise(), GEOM, conv or ConvergenceParams(), plan,
            streams(tid),
        )
        return row
    _, (row,) = open_loop_block(phantom, motion, plan, tid)
    return row


def drag_motion(gain=0.05, offset=2.0):
    return MotionParams(axial_gain=gain, axial_base_offset=offset, rotation_gain=0.0, noise_sd_motion=0.0)


def expected_drag(phantom, target, gain, offset):
    entry = np.array([target.position_rest[0], target.position_rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    planned = float(np.linalg.norm(target.position_rest - entry))
    t0 = gland_entry_depth([phantom], [entry], [d])[0]
    return planned, offset + gain * (planned - t0)


def test_static_gland_hits_exactly():
    p = make_phantom()
    t = non_left_target(p)
    rec = run_quiet(p, t.id)
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
    rec = run_quiet(p, t.id, motion=drag_motion(gain, offset), conv=ConvergenceParams(depth_epsilon=1e-9))
    assert rec.n_corrections == 1
    assert rec.depth_correction_mm == pytest.approx(drag, abs=1e-9)
    assert rec.error_mm < 1e-9
    np.testing.assert_allclose(rec.motion_mm, 0.0, atol=1e-9)
    assert plan_quiet(p, t.id).trajectory.planned_depth == pytest.approx(planned)


def test_open_loop_misses_by_the_drag():
    gain, offset = 0.05, 2.0
    p = make_phantom()
    t = non_left_target(p)
    _, drag = expected_drag(p, t, gain, offset)
    rec = run_quiet(p, t.id, mode=open_loop_records, motion=drag_motion(gain, offset))
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
    a = run_quiet(p, t.id, noise=noise, motion=motion)
    b = run_quiet(p, t.id, noise=noise, motion=motion)
    assert a.n_corrections >= 1
    np.testing.assert_equal(vars(a), vars(b))
    # open loop plans from the same reference draws
    tracked, untracked = (plan_quiet(p, t.id, noise=noise, track=track) for track in (True, False))
    np.testing.assert_equal(vars(untracked.trajectory), vars(tracked.trajectory))
    # the slot's open-loop record is its first pass alone, in the row its closed record has
    o = run_quiet(p, t.id, mode=open_loop_records, noise=noise, motion=motion)
    assert o.depth_correction_mm != 0.0 and np.any(o.motion_mm != 0.0)
    first, opened = open_loop_block(p, motion, tracked, t.id)
    assert_same_first_pass(first, open_loop_insertion(motion, untracked, streams(t.id)))
    closed = correct_insertions([p], noise, GEOM, ConvergenceParams(), [tracked], [streams(t.id)], [first])
    (row,) = opened
    assert (row.n_corrections, row.error_mm, row.depth_correction_mm) == (0, o.error_mm, o.depth_correction_mm)
    np.testing.assert_array_equal(row.motion_mm, o.motion_mm)
    assert not row.max_corrections_exceeded and row.duration_s == tracked.duration_s
    for name in ("phantom_id", "target_id", "replicate", "zone_depth", "zone_lateral", "zone_ap", "approach",
                 "disengaged", "rotation_angle_deg"):
        np.testing.assert_array_equal(getattr(opened, name), getattr(closed, name), err_msg=name)
    np.testing.assert_equal(vars(next(iter(closed))), vars(a))


def test_blocked_path_replans_angled():
    p = make_phantom()
    t = non_left_target(p)
    arch = blocking_arch(t.position_rest)
    rec = run_quiet(p, t.id, arch=arch)
    assert not rec.disengaged
    assert rec.approach == "Angled"
    assert rec.error_mm < 1e-9


def test_left_bias_deflects_left_zone_beads():
    bias = 1.5
    p = make_phantom(left_bias=bias)
    left = next(t for t in p.targets if t.zone.lateral_zone == LEFT)
    other = non_left_target(p)
    rec_left = run_quiet(p, left.id)
    rec_other = run_quiet(p, other.id)
    assert rec_left.error_mm == pytest.approx(bias, abs=1e-9)
    assert rec_other.error_mm < 1e-9


def test_correction_budget_flagged_not_raised():
    p = make_phantom()
    t = non_left_target(p)
    noisy = NoiseModel(sigma0=5.0, depth_gain=0.0, degradation_per_needle=1.0)
    conv = ConvergenceParams(depth_epsilon=1e-4, max_corrections=3)
    rec = run_quiet(p, t.id, conv=conv, noise=noisy)
    assert rec.max_corrections_exceeded
    assert rec.n_corrections == 3
    # the streams must hold a volume for every verification the budget
    # allows: the initial one plus the budget
    plan = plan_quiet(p, t.id, noise=noisy)
    short = streams(t.id, volumes=3)
    with pytest.raises(ValueError, match="3 observation volumes"):
        run_insertion(p, STILL, noisy, GEOM, conv, plan, short)
    exact = run_insertion(p, STILL, noisy, GEOM, conv, plan, streams(t.id, volumes=4))
    assert exact == run_insertion(p, STILL, noisy, GEOM, conv, plan, streams(t.id))


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
    # whose needle entry point it is given, or whose plan's lever
    per_slot = defaultdict(Counter)
    lever_slots = {}

    def slot(entry):
        return tuple(np.asarray(entry).tolist())

    def transform(lever, motion, tip_depth, noise):
        per_slot[lever_slots[id(lever)]]["transform"] += 1
        return prostate_transform(lever, motion, tip_depth, noise)

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
        for plan in plans:
            lever_slots[id(plan.lever)] = slot(plan.trajectory.entry)
            per_slot[slot(plan.trajectory.entry)]["line"] += sum(
                np.array_equal(c, plan.reference.centered[0]) for c in checked[0]
            )
        return plans

    blocks = []

    def correcting(phantoms, noise, geom, conv, plans, *rest):
        records = correct_insertions(phantoms, noise, geom, conv, plans, *rest)
        blocks.append(len(records))
        for plan, corrections in zip(plans, records.n_corrections.tolist()):
            per_slot[slot(plan.trajectory.entry)]["corrections"] = corrections
        return records

    deposits = []
    monkeypatch.setattr(controller, "_deposit", counting(deposits, "deposit", controller._deposit))
    monkeypatch.setattr(controller, "prostate_transform", transform)
    monkeypatch.setattr(geometry, "max_line_deviation", line)
    # the entry depth is looked up through both modules' bindings
    monkeypatch.setattr(controller, "gland_entry_depth", entry)
    monkeypatch.setattr(ph, "gland_entry_depth", entry)
    monkeypatch.setattr(study, "plan_insertions", planning)
    monkeypatch.setattr(study, "correct_insertions", correcting)
    study.run_study(tiny_config(mode="closed_loop"))
    assert blocks == [16] and len(per_slot) == 16
    # insertions that verify three or more times, so a per-step evaluation shows
    assert max(c["corrections"] for c in per_slot.values()) >= 2
    for c in per_slot.values():
        assert c["transform"] <= 2
        assert c["line"] == 1
    # neither the first pass nor the correction loop solves an entry depth
    assert solved == [32]
    # one deposit for the block, and none for a first pass a closed-only study does not report
    assert len(deposits) == 1


def test_retracting_out_of_the_gland_re_evaluates_the_transform(monkeypatch):
    p = make_phantom()
    motion = drag_motion()
    t = non_left_target(p)
    entry = np.array([t.position_rest[0], t.position_rest[1], GEOM.front_plane_z])
    d = np.array([0.0, 0.0, 1.0])
    shallow = entry + (gland_entry_depth([p], [entry], [d])[0] - 3.0) * d
    # the tracker reports the target short of the gland: the tip retracts there
    monkeypatch.setattr(
        sensing, "track_target", lambda rot, trans, targets: np.broadcast_to(shallow, targets.shape).copy()
    )
    calls = []
    monkeypatch.setattr(controller, "prostate_transform", counting(calls, "transform", prostate_transform))
    rec = run_quiet(p, t.id, motion=motion)
    assert rec.n_corrections == 1 and len(calls) == 2
    traj = plan_quiet(p, t.id).trajectory
    planned = traj.planned_depth
    depth_to_shallow, _ = geometry.axis_decompose(traj.entry, traj.dir, shallow)
    tip = max(0.0, planned + (depth_to_shallow - planned))
    entry_depth = gland_entry_depth([p], [traj.entry], [geometry.normalize(traj.dir)])[0]
    fresh = gland_transform_oracle(p, motion, traj.entry, traj.dir, tip, planned, np.zeros(3), entry_depth)
    tip_world = (traj.entry + tip * traj.dir)[None]
    bead = world_to_material(fresh.rotation[None], fresh.translation[None], tip_world)[0]
    assert rec.error_mm == float(np.linalg.norm(bead - t.position_rest))
    # the first pass's transform, which the retracted tip must not reuse
    first = gland_transform_oracle(
        p, motion, traj.entry, traj.dir, planned, planned, np.zeros(3), entry_depth
    )
    assert np.linalg.norm(first.translation - fresh.translation) > 1.0


def assert_same_first_pass(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "gland_transform":
            x, y = vars(x), vars(y)
        np.testing.assert_equal(x, y, err_msg=f.name)


def test_a_given_plan_gives_the_same_records():
    p = make_phantom()
    motion = MotionParams(0.05, 2.0, 0.01, 0.8)
    t = non_left_target(p)
    noise = NoiseModel(sigma0=0.3, depth_gain=0.002, degradation_per_needle=1.0)
    plan = plan_quiet(p, t.id, noise=noise)
    fresh = run_insertion(p, motion, noise, GEOM, ConvergenceParams(), plan_quiet(p, t.id, noise=noise), streams(t.id))
    fresh_first, fresh_open = open_loop_block(p, motion, plan_quiet(p, t.id, noise=noise), t.id)
    assert fresh.n_corrections[0] >= 1
    for _ in range(2):  # a plan is not consumed by its use
        assert run_insertion(p, motion, noise, GEOM, ConvergenceParams(), plan, streams(t.id)) == fresh
        first, opened = open_loop_block(p, motion, plan, t.id)
        assert_same_first_pass(first, fresh_first)
        assert opened == fresh_open
    # one plan serves any motion: a still gland leaves the first pass on target
    _, (still,) = open_loop_block(p, STILL, plan, t.id)
    assert still.depth_correction_mm == 0.0
    assert still.error_mm < fresh_open.error_mm[0]
    # an untracked plan carries no registration reference
    untracked = plan_quiet(p, t.id, noise=noise, track=False)
    assert untracked.reference is None and untracked.lever.entry_depth == plan.lever.entry_depth
    first, opened = open_loop_block(p, motion, untracked, t.id)
    assert_same_first_pass(first, fresh_first)
    assert opened == fresh_open
    with pytest.raises(ValueError, match="tracked plan"):
        run_insertion(p, motion, noise, GEOM, ConvergenceParams(), untracked, streams(t.id))


def assert_same_plan(a, b):
    assert a.target is b.target
    for name in ("target_obs", "duration_s", "penetration"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    for name in ("trajectory", "joints", "lever"):
        for key, value in vars(getattr(a, name)).items():
            np.testing.assert_array_equal(value, vars(getattr(b, name))[key], err_msg=f"{name}.{key}")
    if a.reference is None:
        assert b.reference is None
    else:
        for name in ("points", "mean", "centered"):
            np.testing.assert_array_equal(getattr(a.reference, name), getattr(b.reference, name), err_msg=name)


# two phantoms of different shape, so the slots of one block differ in their
# fiducials, and the first again with an eleventh target outside the gland,
# whose direct line misses it
SHAPES = (
    generate_phantom(PhantomSpec(), seed=5),
    generate_phantom(PhantomSpec(gland_semiaxes=(21.0, 17.0, 26.0)), seed=6),
)
OUTSIDE = ph.Target(10, (30.0, 4.0, 6.0), ph.ZoneLabels(ph.BASE, LEFT, ph.ANTERIOR))
OFF_GLAND = replace(SHAPES[0], targets=[*SHAPES[0].targets, OUTSIDE])


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
EDGE_ROBOT = replace(WIDE_ROBOT, stage_travel=float(np.nextafter(SHAPES[0].targets[7].position_rest[0], 0.0)))
# the entry plane cuts through the gland: an entry on or inside its surface
INSIDE_ROBOT = replace(WIDE_ROBOT, front_plane_z=-10.0)


# A per-slot planner on Python floats, an independent oracle for the
# stacked kernels: direct path, clearance, inverse kinematics, first pass,
# penetration and gland entry depth, one slot at a time.


def oracle_normalize(v):
    return v / float(np.linalg.norm(v))


def oracle_entry_depth(phantom, entry, dir):
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
        if max(abs(target[0]), abs(target[1])) <= geom.stage_travel:
            d, depth = oracle_normalize(target - entry), float(np.linalg.norm(target - entry))
            tip = entry + (depth + planning.DEPTH_MARGIN) * d
            clearance = min(
                (segment_distance_oracle(entry, tip, seg.a, seg.b) - radius - planning.DEFAULT_NEEDLE_RADIUS
                 for seg, radius in arch.arch_segments),
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
    phantom, target_id, seed, count = slot
    stream = substream(seed, rng.REFERENCE, 0, target_id, 0)
    base = noise.sigma0 * noise.degradation_per_needle**count
    c = phantom.gland_semiaxes[2]

    def seen(point):
        return point + stream.normal(0.0, base + noise.depth_gain * max(0.0, float(point[2]) + c), 3)

    volume = np.array([seen(point) for point in phantom.fiducial_points])
    return volume, seen(phantom.target_by_id(target_id).position_rest)


@st.composite
def block_slots(draw):
    """One slot of a block: phantom, target id, reference stream seed, needle count."""
    phantom = draw(st.sampled_from(SHAPES + (OFF_GLAND,)))
    target_id = draw(st.integers(0, len(phantom.targets) - 1))
    return phantom, target_id, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 4))


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
    slots=[(SHAPES[0], 1, 7, 0), (SHAPES[1], 3, 8, 2), (SHAPES[0], 6, 9, 4)],
    arch=WIDE_ARCH, robot=WIDE_ROBOT, sigma0=0.3, depth_gain=0.01, degradation=1.2, track=True,
)
# the second slot's observed target has no path clear of the wide arch
@example(
    slots=[(SHAPES[1], 2, 5, 1), (SHAPES[0], 9, 6, 4), (SHAPES[0], 0, 3, 0)],
    arch=WIDE_ARCH, robot=WIDE_ROBOT, sigma0=0.5, depth_gain=0.05, degradation=1.3, track=True,
)
# a direct line that misses the gland: no entry depth, no penetration
@example(
    slots=[(OFF_GLAND, 10, 1, 0), (SHAPES[0], 2, 2, 1)],
    arch=ARCHES[0], robot=WIDE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=True,
)
# entries on or inside the gland surface: the entry depth clamps to 0
@example(
    slots=[(SHAPES[0], 0, 1, 0), (SHAPES[0], 3, 2, 0), (SHAPES[0], 7, 3, 0)],
    arch=ARCHES[0], robot=INSIDE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=False,
)
# a direct entry one ulp beyond the stage travel, beside one within it
@example(
    slots=[(SHAPES[0], 7, 1, 0), (SHAPES[0], 9, 2, 0)],
    arch=ARCHES[0], robot=EDGE_ROBOT, sigma0=0.0, depth_gain=0.0, degradation=1.0, track=True,
)
def test_a_block_plans_each_slot_as_it_would_alone(
    slots, arch, robot, sigma0, depth_gain, degradation, track
):
    noise = NoiseModel(sigma0=sigma0, depth_gain=depth_gain, degradation_per_needle=degradation)

    def plan(block, block_streams):
        return plan_insertions(
            [slot[0] for slot in block], robot, arch, noise, [slot[1] for slot in block],
            block_streams, track=track,
        )

    block_streams = [streams(target_id, seed, count, volumes=0) for _, target_id, seed, count in slots]
    alone = []
    for slot, slot_streams in zip(slots, block_streams):
        try:
            alone.append(plan([slot], [slot_streams])[0])
        except NoFeasiblePath:
            alone.append(None)
    if None in alone:
        with pytest.raises(NoFeasiblePath):
            plan(slots, block_streams)
        return
    for a, b, slot in zip(alone, plan(slots, block_streams), slots):
        assert_same_plan(a, b)
        # the reference volume and the observed target are those of the
        # slot's reference stream, drawn point by point
        volume, target_obs = oracle_reference(slot, noise)
        np.testing.assert_array_equal(b.target_obs, target_obs)
        if track:
            np.testing.assert_array_equal(b.reference.points[0], volume)
        # and the plan is the one the per-slot oracle makes from the observed target
        traj = oracle_trajectory(arch, b.target_obs, EntryRegion(), robot)
        joints, duration, pen, entry_depth = oracle_first_pass(slot[0], traj, robot)
        oracle = replace(b, trajectory=traj, joints=joints, duration_s=duration, penetration=pen)
        assert_same_plan(oracle, b)
        # the lever gives the bits of the gland transform evaluated whole on the line
        np.testing.assert_array_equal(b.lever.entry_depth, entry_depth)
        noise3 = np.array([0.4, -1.1, 0.7])
        for tip in (traj.planned_depth, 0.5 * traj.planned_depth):
            got = prostate_transform(b.lever, LEVERED, tip, noise3)
            want = gland_transform_oracle(
                slot[0], LEVERED, traj.entry, traj.dir, tip, traj.planned_depth, noise3, entry_depth
            )
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


def test_a_block_scores_its_first_passes_as_each_slot_alone():
    # a biased and an unbiased phantom, left-zone and other targets, the
    # wide arch blocking some direct paths: every slot that has a path
    noise = NoiseModel(sigma0=0.3, depth_gain=0.01, degradation_per_needle=1.1)
    phantoms = (replace(SHAPES[0], left_bias=1.5), SHAPES[1])
    slots, plans = [], []
    for index, phantom in enumerate(phantoms):
        for target in phantom.targets:
            slot_streams = draw_insertions(5, [(index, target.id, 0)], [target.id], N_FIDUCIALS, 0)
            try:
                (plan,) = plan_insertions(
                    [phantom], WIDE_ROBOT, WIDE_ARCH, noise, [target.id], slot_streams, track=False
                )
            except NoFeasiblePath:
                continue
            slots.append((phantom, slot_streams[0]))
            plans.append(plan)
    block_phantoms, block_streams = (list(column) for column in zip(*slots))
    assert {plan.trajectory.approach for plan in plans} == {"Horizontal", "Angled"}
    deflected = [
        p.left_bias != 0.0 and plan.target.zone.lateral_zone == LEFT for p, plan in zip(block_phantoms, plans)
    ]
    assert any(deflected) and not all(deflected)
    assert any(p.left_bias == 0.0 for p in block_phantoms)

    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    for motion in (STILL, LEVERED):
        firsts = [open_loop_insertion(motion, plan, s) for plan, s in zip(plans, block_streams)]
        records = open_loop_records(block_phantoms, plans, block_streams, firsts)
        for k, (phantom, plan, first) in enumerate(zip(block_phantoms, plans, firsts)):
            axial, error, residual = open_loop_oracle(phantom, motion, plan, first)
            assert bits(records.depth_correction_mm[k]) == bits(axial), k
            assert bits(records.error_mm[k]) == bits(error), k
            assert bits(records.motion_mm[k]) == bits(residual), k
        if motion is STILL:
            # a still gland moves no target, and the records see it
            np.testing.assert_allclose(records.depth_correction_mm, 0.0, atol=1e-9)


def test_a_collinear_reference_volume_anywhere_in_a_block_raises():
    p = make_phantom()
    t = non_left_target(p)
    # noiseless, the reference volume is the fiducials, here all on one line
    line = np.linspace(-8.0, 8.0, len(p.fiducial_points))[:, None] * np.array([[1.0, 0.5, 0.2]])
    flat = replace(p, fiducial_points=line)
    phantoms, tids = [p, p, flat, p], [t.id] * 4
    with pytest.raises(DegenerateConfiguration, match="collinear"):
        plan_insertions(phantoms, GEOM, far_arch(), quiet_noise(), tids, [streams(tid) for tid in tids])
    # an untracked plan prepares no registration reference, so nothing checks it
    plans = plan_insertions(
        phantoms, GEOM, far_arch(), quiet_noise(), tids, [streams(tid) for tid in tids], track=False
    )
    assert [plan.reference for plan in plans] == [None] * 4


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
