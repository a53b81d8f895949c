"""Closed-loop insertion procedure and its open-loop baseline.

One insertion: acquire a reference volume at rest, plan a trajectory to
the observed target (re-planning around the pubic arch if needed), drive
the needle in, then alternately observe / register / correct the depth
toward the tracked target until the proposed change drops below the
depth resolution.  The bead is deposited at the final tip position and
scored in the material (rest) frame, the analog of a post-procedure CT.

An insertion is three steps, the first and last taken by a block of
insertions together.  ``plan_insertions`` is the motion-free half, in
arrays over the block: one stacked observation and collinearity check
of the reference volumes, the observed targets, the trajectories (one
clearance check of every direct path, the grid search only where that
path is out of reach or blocked) and the first pass: joint limits,
duration and rotation, one gland entry depth solve that gives both the
penetration setting the modeled drag and the entry depth the gland
transform reads, and the lever of each gland transform
(``phantom.gland_levers``): the unit direction, the pass-depth
penetration, the lateral offset of the gland centroid and the rotation
axis's Rodrigues matrices, none of which reads a motion parameter.
``open_loop_insertion`` scales one insertion's motion normals into its
motion noise and evaluates only the motion terms of the gland transform
at the pass depth (drag, rotation angle, the rotation about the pivot)
from the plan's lever; ``open_loop_records`` scores a block of them.
``correct_insertions`` runs the closed loop of a block together, each
step one stacked ``sensing`` call per kernel over the insertions still
correcting, continues each one from its baseline's transform and motion
noise, and deposits and scores the block in arrays.  The insertions
take the plan and none of the planning inputs, so insertions that
differ only in motion can share one plan.  ``run_insertion`` is the
closed loop of a single insertion.

A block's records are one ``Records``, a column per quantity and a row
per slot: the closed loop's come from ``correct_insertions``, the open
loop's from ``open_loop_records``, run only when it is reported.  A
slot's two records are the same row of the two.

Per-insertion invariants are computed once: the reference volume is
prepared for registration once, the gland entry depth and the lever are
computed once, in the plan, and the gland transform, which depends on
the tip only through whether it is past the gland entry depth (the
motion model reads penetration from the fixed pass depth), is evaluated
at most once for each side of that depth.  The planner returns only
trajectories clear of the arch, so the needle never stops short: the
records' ``disengaged`` column is always 0.  The paired comparison of a
slot's closed and open-loop records quantifies what the loop buys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import geometry, kinematics, planning, sensing
from .phantom import (
    LEFT,
    GlandLever,
    MotionParams,
    ProstatePhantom,
    Target,
    gland_entry_depth,
    gland_levers,
    penetration,
    prostate_transform,
    world_to_material,
)
from .planning import EntryRegion, PubicArchModel
from .rng import InsertionStreams
from .sensing import NoiseModel


@dataclass
class ConvergenceParams:
    depth_epsilon: float = 0.1
    max_corrections: int = 10

    def validate(self):
        if self.depth_epsilon <= 0:
            raise ValueError("depth_epsilon must be positive")
        if self.max_corrections < 1:
            raise ValueError("max_corrections must be >= 1")


@dataclass
class InsertionRecord:
    """One insertion's first pass, unscored: ``open_loop_records`` scores a block of them.

    The gland transform the bead is left in at the pass depth, and the
    frozen motion noise, which every later transform includes; the closed
    loop starts from both.  A first pass corrects nothing and never stops
    short: the last three fields are constant Python scalars.
    """

    gland_transform: geometry.RigidTransform
    motion_noise: np.ndarray
    n_corrections: int = 0
    max_corrections_exceeded: bool = False
    disengaged: bool = False


@dataclass(eq=False)
class Records:
    """The records of a block of insertions, or of a study, as columns: row k is slot k.

    The first three columns name the slot, the labels are its zones and
    approach.  ``depth_correction_mm`` is the depth the closed loop
    applied, or the open loop's axial displacement of the observed target;
    ``error_mm`` is the bead's rest-frame distance from the target;
    ``motion_mm`` is the target displacement seen at the first verification
    (open loop: after the first pass) beyond the modeled drag.  The CSV
    holds no column after ``disengaged``: records read from it hold None
    there.  Records are equal when each column has the same dtype and bits.
    """

    phantom_id: np.ndarray  # (K,) int64
    target_id: np.ndarray
    replicate: np.ndarray
    zone_depth: np.ndarray  # (K,) str
    zone_lateral: np.ndarray
    zone_ap: np.ndarray
    approach: np.ndarray
    n_corrections: np.ndarray  # (K,) int64
    depth_correction_mm: np.ndarray  # (K,) float64
    error_mm: np.ndarray
    motion_mm: np.ndarray  # (K, 3) float64
    disengaged: np.ndarray  # (K,) int64
    max_corrections_exceeded: np.ndarray | None = None  # (K,) bool
    registration_rms: np.ndarray | None = None  # (K,) float64, 0 in the open loop
    duration_s: np.ndarray | None = None
    rotation_angle_deg: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.error_mm)

    def __iter__(self):
        """Each row, as a namespace of its values by column name (the motion a (3,) array)."""
        names = [f.name for f in fields(self) if getattr(self, f.name) is not None]
        for values in zip(*(getattr(self, name) for name in names)):
            yield SimpleNamespace(**dict(zip(names, values)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(a is b or a is not None and b is not None
                   and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()) for a, b in pairs)

    @classmethod
    def concat(cls, blocks: list[Records]) -> Records:
        """The rows of ``blocks`` in order, in one columns object; ``blocks`` is not empty."""
        columns = [[getattr(block, f.name) for block in blocks] for f in fields(cls)]
        return cls(*(None if col[0] is None else np.concatenate(col) for col in columns))


def _records(plans, streams, **columns) -> Records:
    """A block's records: the slots of ``streams``, the zones, approach and
    first-pass rotation of ``plans``, and ``columns``."""
    slots = np.array([(s.phantom, s.target, s.replicate) for s in streams], dtype=np.int64).T
    zones = [(plan.target.zone, plan.trajectory.approach) for plan in plans]
    labels = [(zone.depth_zone, zone.lateral_zone, zone.ap_zone, approach) for zone, approach in zones]
    return Records(
        *slots, *map(np.array, zip(*labels)), disengaged=np.zeros(len(plans), dtype=np.int64),
        rotation_angle_deg=np.array([plan.joints.rotation_angle for plan in plans]), **columns,
    )


@dataclass
class InsertionPlan:
    """The motion-free half of one insertion: everything up to the end of
    the first pass.

    None of it reads the motion parameters: the reference volume is taken
    at rest, so it, the observed target and the trajectory depend only on
    the phantom, the noise model, the robot and the arch.  A plan can
    therefore be shared by insertions that differ only in motion.
    ``lever`` is the motion-free part of the insertion's gland transform
    (see ``phantom.GlandLever``), its row of the block's arrays:
    ``prostate_transform`` adds only the motion terms to it.
    ``reference`` serves the correction loop and is
    prepared only for a tracked plan, as a view of one set of its block's
    stack; it is None otherwise.
    """

    target: Target
    target_obs: np.ndarray
    trajectory: kinematics.Trajectory
    # joint state and elapsed time after the first pass
    joints: kinematics.JointState
    duration_s: float
    # first-pass penetration beyond the gland entry point (drives the drag
    # the residual motion subtracts), measured along the planned direction
    # as given; the lever's is along the normalized one and can differ from
    # it in the last ulp
    penetration: float
    lever: GlandLever
    reference: geometry.RegistrationReference | None = None


def plan_insertions(
    phantoms: list[ProstatePhantom],
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    target_ids: list[int],
    streams: list[InsertionStreams],
    entry_region: EntryRegion | None = None,
    needle_radius: float = planning.DEFAULT_NEEDLE_RADIUS,
    track: bool = True,
) -> list[InsertionPlan]:
    """Observe a block of insertions at rest, plan each trajectory and make each first pass.

    Slot k plans target ``target_ids[k]`` of ``phantoms[k]`` from the
    reference normals of ``streams[k]`` (the reference volume's N x 3, then
    the observed target's 3) and gets the plan it would get alone.  Only a
    ``track`` plan can drive the closed loop; an untracked plan skips the
    registration reference and serves ``open_loop_insertion``.  Raises
    geometry.DegenerateConfiguration for a collinear reference volume of a
    tracked block, before planning, and planning.NoFeasiblePath when no
    trajectory clears the arch.
    """
    region = entry_region if entry_region is not None else EntryRegion()
    counts = [s.needle_count for s in streams]
    n = len(phantoms)
    normals = np.array([s.reference_normals for s in streams])
    volume = normals[:, :-3].reshape(n, -1, 3)
    rest = np.broadcast_to(np.eye(3), (n, 3, 3))
    ref_obs = sensing.observe(phantoms, rest, np.zeros((n, 3)), noise, volume, counts)
    reference = geometry.prepare_reference(ref_obs) if track else None
    targets = [phantom.target_by_id(tid) for phantom, tid in zip(phantoms, target_ids)]
    # the observed target takes the 3 normals after the reference volume's
    targets_obs = np.array([
        sensing.observe_point(phantom, target.position_rest, noise, z, count)
        for phantom, target, z, count in zip(phantoms, targets, normals[:, -3:], counts)
    ])
    trajs = planning.plan_trajectories(arch, targets_obs, region, geom, needle_radius)
    entries = np.array([traj.entry for traj in trajs])
    dirs = np.array([traj.dir for traj in trajs])
    depths = np.array([traj.planned_depth for traj in trajs])
    stages = kinematics.inverse_kinematics(geom, entries, dirs).tolist()
    _, angles, durations = kinematics.advance_insertion(geom, np.zeros(n), np.zeros(n), depths)
    # the penetration reads the entry depth along the direction as planned,
    # the gland transform along the normalized one: both in one call
    units = geometry.normalize(dirs)
    entry = gland_entry_depth(
        phantoms + phantoms, np.concatenate([entries, entries]), np.concatenate([dirs, units])
    )
    pens = penetration(entry[:n], depths)
    levers = gland_levers(phantoms, entries, units, entry[n:], depths)
    return [
        InsertionPlan(
            target, target_obs, traj, kinematics.JointState(*stage, 0.0, depth, angle), duration, pen, lever,
            reference.rows(slice(k, k + 1)) if track else None,
        )
        for k, (target, target_obs, traj, stage, depth, angle, duration, pen, lever) in enumerate(zip(
            targets, targets_obs, trajs, stages, depths.tolist(), angles.tolist(), durations.tolist(),
            pens.tolist(), levers,
        ))
    ]


def _deposit(phantoms, targets, tips_world, rotations, translations):
    """The errors (K,) of beads deposited at the tips (K, 3) in their gland transforms, in the rest frame.

    A left-zone bead of a phantom with a left bias is deflected by it along
    -x before it is mapped to the rest frame.
    """
    bias = [p.left_bias if target.zone.lateral_zone == LEFT else 0.0 for p, target in zip(phantoms, targets)]
    bead_world = tips_world.copy()
    bead_world[:, 0] -= bias
    bead_rest = world_to_material(rotations, translations, bead_world)
    miss = bead_rest - np.array([target.position_rest for target in targets])
    return np.sqrt(geometry.row_dot(miss, miss))


def _residual_motion(motion: MotionParams, moved_targets, targets_obs, penetrations, dirs):
    """Per-axis displacements (K, 3) of the targets beyond the modeled axial drag."""
    return moved_targets - targets_obs - motion.drag(penetrations)[:, None] * dirs


def open_loop_insertion(
    motion: MotionParams, plan: InsertionPlan, streams: InsertionStreams
) -> InsertionRecord:
    """The first pass of ``plan``: the gland transform the bead is left in.

    Scales the insertion's motion normals into its frozen motion noise and
    evaluates the motion terms of the gland transform on the plan's lever
    at the planned depth.  ``open_loop_records`` scores a block of them,
    and the closed loop (``correct_insertions``) starts from them.
    """
    # frozen per-insertion motion noise: every gland transform sees it
    sd = motion.noise_sd_motion
    motion_noise = 0.0 + sd * streams.motion_normals if sd > 0 else np.zeros(3)
    return InsertionRecord(
        prostate_transform(plan.lever, motion, plan.trajectory.planned_depth, motion_noise), motion_noise
    )


def open_loop_records(
    phantoms: list[ProstatePhantom], motion: MotionParams, plans: list[InsertionPlan],
    streams: list[InsertionStreams], baselines: list[InsertionRecord],
) -> Records:
    """A block's open-loop records, scored in arrays: row k is ``plans[k]``'s first pass ``baselines[k]``.

    Slot k's bead is left at the pass depth in its first pass's gland
    transform and scored in ``phantoms[k]``'s rest frame; the observed
    target moved by that transform gives the depth correction and motion
    columns.  Each row has the bits of scoring its slot alone.
    """
    n = len(plans)
    trajs = [plan.trajectory for plan in plans]
    entries = np.array([traj.entry for traj in trajs])
    dirs = np.array([traj.dir for traj in trajs])
    depths = np.array([traj.planned_depth for traj in trajs])
    targets_obs = np.array([plan.target_obs for plan in plans])
    rot = np.array([base.gland_transform.rotation for base in baselines])
    trans = np.array([base.gland_transform.translation for base in baselines])
    # the observed targets where the first passes' gland transforms moved them
    moved = sensing.track_target(rot, trans, targets_obs)
    error = _deposit(phantoms, [plan.target for plan in plans], entries + depths[:, None] * dirs, rot, trans)
    pens = np.array([plan.penetration for plan in plans])
    return _records(
        plans, streams, n_corrections=np.zeros(n, dtype=np.int64),
        depth_correction_mm=geometry.row_dot(moved - entries, dirs) - depths, error_mm=error,
        motion_mm=_residual_motion(motion, moved, targets_obs, pens, dirs),
        max_corrections_exceeded=np.zeros(n, dtype=bool), registration_rms=np.zeros(n),
        duration_s=np.array([plan.duration_s for plan in plans]),
    )


def correct_insertions(
    phantoms: list[ProstatePhantom],
    motion: MotionParams,
    noise: NoiseModel,
    geom: kinematics.RobotGeometry,
    conv: ConvergenceParams,
    plans: list[InsertionPlan],
    streams: list[InsertionStreams],
    baselines: list[InsertionRecord],
) -> Records:
    """Run the closed loop of a block of insertions together.

    Slot k is insertion k: ``phantoms[k]``, its tracked ``plans[k]``, its
    ``streams[k]`` and its first pass ``baselines[k]``, whose gland
    transform is the slot's first verification state and whose motion
    noise every later transform reuses.  Each step observes, registers,
    tracks and decides for every slot still correcting, as one stacked
    call per kernel; a slot leaves the loop when its proposed change drops
    below ``depth_epsilon`` or its budget runs out.  Row k of the returned
    records is slot k, the record it would get alone; its open-loop record
    is row k of the block's ``open_loop_records``.
    Verification v of slot k observes with the standard normals
    ``streams[k].observation_normals[v]``.  Raises ValueError for an
    untracked plan, or for streams holding fewer than
    ``max_corrections + 1`` volumes.  A correction budget overrun does not
    raise: the record is flagged.
    """
    conv.validate()
    if any(plan.reference is None for plan in plans):
        raise ValueError("a closed-loop insertion needs a tracked plan")
    trajs = [plan.trajectory for plan in plans]
    entries = np.array([traj.entry for traj in trajs])
    dirs = np.array([traj.dir for traj in trajs])
    targets_obs = np.array([plan.target_obs for plan in plans])
    reference = geometry.stack_references([plan.reference for plan in plans])
    # verification v of slot k observes with budget[k][v]; each step gathers
    # only the volumes it takes, not a restacked copy of every budget
    budget = [s.observation_normals for s in streams]
    volumes = min(len(b) for b in budget)
    if volumes <= conv.max_corrections:
        raise ValueError(f"the streams hold {volumes} observation volumes, "
                         f"{conv.max_corrections} corrections need {conv.max_corrections + 1}")
    needle_counts = [s.needle_count for s in streams]
    # penetration is read from the fixed pass depth, so the gland transform
    # depends on the tip only through "is it past the gland entry depth"
    # (NaN where the line misses the gland: never past it)
    entry_depth = np.array([plan.lever.entry_depth for plan in plans])
    pass_depth = np.array([traj.planned_depth for traj in trajs])
    inside = pass_depth > entry_depth
    # each slot's gland transform on each side of its entry depth, made on first need
    transforms = [{bool(side): base.gland_transform} for side, base in zip(inside, baselines)]
    rot = np.array([base.gland_transform.rotation for base in baselines])
    trans = np.array([base.gland_transform.translation for base in baselines])

    tip = pass_depth.copy()  # corrections move the tip; the pass depth stays
    applied = np.zeros(len(plans))
    duration = np.array([plan.duration_s for plan in plans])
    rms = np.zeros(len(plans))
    # the last verification of each slot, which is its correction count
    n_corrections = np.zeros(len(plans), dtype=np.int64)
    exceeded = np.zeros(len(plans), dtype=bool)
    active = np.arange(len(plans))

    for step in range(conv.max_corrections + 1):
        obs = sensing.observe(
            [phantoms[k] for k in active], rot[active], trans[active], noise,
            np.array([budget[k][step] for k in active]), [needle_counts[k] for k in active],
        )
        reg_rot, reg_trans, rms[active] = sensing.rigid_register(reference.rows(active), obs)
        tracked = sensing.track_target(reg_rot, reg_trans, targets_obs[active])
        if not step:
            # every slot verifies first: the residual motion is measured here
            first_tracked = tracked
        n_corrections[active] = step
        # depth of the tracked target along each needle line
        delta = geometry.row_dot(tracked - entries[active], dirs[active]) - tip[active]
        moving = ~(np.abs(delta) < conv.depth_epsilon)
        if step == conv.max_corrections:
            exceeded[active[moving]] = True
            break
        active, delta = active[moving], delta[moving]
        if not active.size:
            break
        tip[active] = np.maximum(0.0, tip[active] + delta)
        applied[active] += delta
        # corrections move without rotating, so only the time adds up
        duration[active] += kinematics.insertion_duration(geom, delta)
        now = tip[active] > entry_depth[active]
        for k in active[now != inside[active]]:
            inside[k] = side = not inside[k]
            if side not in transforms[k]:
                transforms[k][side] = prostate_transform(
                    plans[k].lever, motion, tip[k], baselines[k].motion_noise
                )
            rot[k], trans[k] = transforms[k][side].rotation, transforms[k][side].translation

    # every exit leaves the tip where the last verification saw it, in the
    # transform of its side of the entry depth, which rot and trans hold
    error = _deposit(phantoms, [plan.target for plan in plans], entries + tip[:, None] * dirs, rot, trans)
    residual = _residual_motion(
        motion, first_tracked, targets_obs, np.array([plan.penetration for plan in plans]), dirs
    )
    return _records(
        plans, streams, n_corrections=n_corrections, depth_correction_mm=applied, error_mm=error,
        motion_mm=residual, max_corrections_exceeded=exceeded, registration_rms=rms, duration_s=duration,
    )


def run_insertion(
    phantom: ProstatePhantom,
    motion: MotionParams,
    noise: NoiseModel,
    geom: kinematics.RobotGeometry,
    conv: ConvergenceParams,
    plan: InsertionPlan,
    streams: InsertionStreams,
) -> Records:
    """One closed-loop insertion from its tracked ``plan``: the block of one.

    ``open_loop_insertion``, then ``correct_insertions`` on that slot
    alone; returns the slot's one-row records.
    """
    baseline = open_loop_insertion(motion, plan, streams)
    return correct_insertions([phantom], motion, noise, geom, conv, [plan], [streams], [baseline])
