"""Closed-loop insertion procedure and its open-loop baseline.

One insertion: acquire a reference volume at rest, plan a trajectory to
the observed target (re-planning around the pubic arch if needed), drive
the needle in, then alternately observe / register / correct the depth
toward the tracked target until the proposed change drops below the
depth resolution.  The bead is deposited at the final tip position and
scored in the material (rest) frame, the analog of a post-procedure CT.

An insertion is three steps, the first and last taken by a block of
insertions together.  A block's random streams are one ``rng.Streams``,
a column per draw and a row per slot, and every step reads its columns;
slot k's target is target ``streams.target[k]`` of row
``streams.phantom[k]`` of the study's ``phantom.Phantoms``, a row per
phantom, which only planning is given, and its needle count, the
observations' degradation state, is that target id.  Every slot has the
study's one gland, the config's ``phantom.PhantomConfig``, which the
planner and the closed loop read as it is.
``plan_insertions`` is the motion-free half, in arrays over the block:
one stacked observation and collinearity check of the reference volumes
(of a tracked block only: the open loop registers nothing), the observed
targets, the trajectories (one ``kinematics.Trajectory``:
one clearance check of every direct path, the grid search only where
that path is out of reach or blocked; the planner keeps every entry
within the stages' reach) and the first pass: duration and rotation,
and the lever of each gland transform (``phantom.gland_levers``), made
along the trajectory's own direction: that direction, the gland entry
depth along it, the pass-depth penetration that sets the modeled drag,
the lateral offset of the gland centroid and the rotation axis's
Rodrigues matrices, none of which reads a motion parameter.  It returns
one ``Plans``, a column per quantity and a row per slot, which also
carries what the loops read of the phantoms: each slot's target and each
bead's left-zone bias.  ``open_loop_insertion``
scales one insertion's motion normals (its row of the streams) into its
motion noise and evaluates only the motion terms of the gland transform
(drag, rotation angle, the rotation about the pivot) from its row's
lever, under one motion or under each of a stack of them in one call.
Both loops read a block's first passes stacked, as (K, 3, 3)
rotations and (K, 3) translations: ``open_loop_records`` scores them
under the motion they were made under.  The insertions take the plans
and none of the planning inputs, so blocks that differ only in motion
share one ``Plans``, and ``correct_insertions`` runs the closed loops of
P such points of one block together, P = 1 included: its rows are
(point, slot) pairs, slot = row mod K, the first passes come stacked
(P, K, 3, 3) and (P, K, 3), and each point's motion enters only through
its drag.  Each step is one stacked ``sensing`` call per kernel over the
rows still correcting, which read the block's tables at their slots,
never copied per point; each row continues from its first pass's gland
transform, motion noise included.  Both loops deposit and score their
rows in arrays, with one helper.  ``run_insertion`` is the closed loop
of a single insertion.

A block's records are built the same way as its plans: the closed
loop's come from ``correct_insertions``, one ``Records`` per point that
shares the block's slot columns, the open loop's from
``open_loop_records``, run only when it is reported.  A slot's two
records at a point are the same row of the two.

Per-insertion invariants are computed once: the reference volume is
prepared for registration once, the lever (gland entry depth included)
once, in the plans, and the gland transform once, by the first
pass, stacked once for both loops.  The motion model reads penetration
from the fixed pass depth, so a tip past the gland entry depth sees that
transform wherever it is and a tip short of it the gland at rest: both
loops pick one of the two per row with the mask ``depth > entry_depth``.  The planner returns only
trajectories clear of the arch, so the needle never stops short: the
records' ``disengaged`` column is always 0.  The paired comparison of a
slot's closed and open-loop records quantifies what the loop buys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, kinematics, planning, sensing
from .phantom import (
    LEFT,
    GlandLevers,
    MotionParams,
    PhantomConfig,
    Phantoms,
    gland_levers,
    prostate_transform,
    world_to_material,
)
from .planning import EntryRegion, PubicArchModel
from .rng import Streams
from .sensing import NoiseModel


# a block draws its whole observation budget up front, K slots x
# (max_corrections + 1) volumes of N x 3 normals: at this cap 8.7 MB of
# float64 for a block of 300 slots (study.BLOCK_SLOTS) of 12 fiducials,
# 3.7 MB for one of 128
MAX_CORRECTIONS = 100


@dataclass
class ConvergenceParams:
    depth_epsilon: float = 0.1
    max_corrections: int = 10

    def validate(self):
        if self.depth_epsilon <= 0:
            raise ValueError("depth_epsilon must be positive")
        if not 1 <= self.max_corrections <= MAX_CORRECTIONS:
            raise ValueError(f"max_corrections must be in [1, {MAX_CORRECTIONS}]")


@dataclass
class InsertionRecord:
    """One insertion's first pass, unscored, at one motion or at each of a stack of P.

    The rotation (3, 3) and translation (3,) of the gland transform of a
    tip past the gland entry depth, which the first pass makes whichever
    side of that depth its tip stops, frozen motion noise included; for a
    stack of motions (P, 3, 3) and (P, 3), row p at motion p.  A first
    pass corrects nothing and never stops short: the last three fields
    are constant Python scalars.
    """

    rotation: np.ndarray
    translation: np.ndarray
    n_corrections: int = 0
    max_corrections_exceeded: bool = False
    disengaged: bool = False


@dataclass(eq=False)
class Records(geometry.Columns):
    """The records of a block of insertions, or of a study, as columns: row k is slot k.

    The first three columns name the slot, the labels are its zones and
    approach.  ``depth_correction_mm`` is the depth the closed loop
    applied, or the open loop's axial displacement of the observed target;
    ``error_mm`` is the bead's rest-frame distance from the target;
    ``motion_mm`` is the target displacement seen at the first verification
    (open loop: after the first pass) beyond the modeled drag.  The CSV
    holds no column after ``disengaged``: records read from it hold None
    there.
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


@dataclass(eq=False)
class Plans(geometry.Columns):
    """The motion-free half of a block of insertions, up to the end of the first pass, as columns: row k is slot k.

    None of it reads the motion parameters: the reference volume is taken
    at rest, so it, the observed target and the trajectory depend only on
    the phantom, the noise model, the robot and the arch.  A plan can
    therefore be shared by insertions that differ only in motion.  The
    target is given by its rest position and zones, the trajectory by its
    entry, unit direction, pass depth and approach; the first pass by its
    rotation angle and duration.  ``levers`` are the motion-free part of
    each slot's gland transform, along the trajectory's direction: their
    penetration beyond the gland entry point drives the drag the residual
    motion subtracts, and ``prostate_transform`` adds only the motion
    terms to a row.  ``bias`` is the deflection of each slot's bead along
    -x: the gland's left bias for a left-zone target, 0 otherwise.
    ``reference`` serves the correction loop and is prepared only for a
    tracked block; it is None otherwise.
    """

    target_rest: np.ndarray  # (K, 3)
    zone_depth: np.ndarray  # (K,) str
    zone_lateral: np.ndarray
    zone_ap: np.ndarray
    target_obs: np.ndarray  # (K, 3)
    entry: np.ndarray  # (K, 3)
    dir: np.ndarray  # (K, 3)
    depth: np.ndarray  # (K,)
    approach: np.ndarray  # (K,) str
    rotation_angle_deg: np.ndarray  # (K,)
    duration_s: np.ndarray
    levers: GlandLevers
    bias: np.ndarray  # (K,)
    reference: geometry.RegistrationReference | None = None


def _records(plans: Plans, streams: Streams, **columns) -> Records:
    """The records of a block's slots: the slot of ``streams``; the zones,
    approach and first-pass rotation of ``plans``; then ``columns``."""
    return Records(
        phantom_id=streams.phantom, target_id=streams.target, replicate=streams.replicate,
        zone_depth=plans.zone_depth, zone_lateral=plans.zone_lateral, zone_ap=plans.zone_ap,
        approach=plans.approach, rotation_angle_deg=plans.rotation_angle_deg,
        disengaged=np.zeros(len(plans), dtype=np.int64), **columns,
    )


def plan_insertions(
    gland: PhantomConfig,
    phantoms: Phantoms,
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    streams: Streams,
    entry_region: EntryRegion | None = None,
    needle_radius: float = planning.DEFAULT_NEEDLE_RADIUS,
    track: bool = True,
) -> Plans:
    """Observe a block of insertions at rest, plan each trajectory and make each first pass.

    Slot k plans target ``streams.target[k]`` of phantom
    ``streams.phantom[k]``, a row of the study's ``phantoms``, in
    ``gland``, after ``streams.target[k]`` needles, from its row of
    ``streams.reference_normals`` (the reference volume) and of
    ``streams.target_normals`` (the observed target), and gets the row it
    would get alone.  The plans keep the slots' targets and their beads'
    biases, so the loops that follow read no phantom table.  Only a
    ``track`` block can drive the closed loop; an untracked block neither
    observes nor prepares the reference volume and serves
    ``open_loop_insertion``.  Raises
    geometry.DegenerateConfiguration for a collinear reference volume of a
    tracked block, before planning, and planning.NoFeasiblePath when no
    trajectory clears the arch.
    """
    region = entry_region if entry_region is not None else EntryRegion()
    n = len(streams)
    # a slot's needle count is its target id, its target's place in the session
    reference = None
    if track:
        rest = np.broadcast_to(geometry.IDENTITY, (n, 3, 3))
        ref_obs = sensing.observe(gland, rest, np.zeros((n, 3)), noise, streams.reference_normals, streams.target)
        reference = geometry.prepare_reference(ref_obs)
    target = (streams.phantom, streams.target)
    target_rest = phantoms.target_rest[target]
    targets_obs = sensing.observe_point(gland, target_rest, noise, streams.target_normals, streams.target)
    trajs = planning.plan_trajectories(arch, targets_obs, region, geom, needle_radius)
    entries, dirs, depths = trajs.entry, trajs.dir, trajs.planned_depth
    _, angles, durations = kinematics.advance_insertion(geom, np.zeros(n), np.zeros(n), depths)
    zone_lateral = phantoms.zone_lateral[target]
    return Plans(
        target_rest, phantoms.zone_depth[target], zone_lateral, phantoms.zone_ap[target],
        targets_obs, entries, dirs, depths, trajs.approach, angles, durations,
        gland_levers(gland, entries, dirs, depths),
        np.where((zone_lateral == LEFT) & gland.left_bias_enabled, gland.left_bias_mm, 0.0), reference,
    )


def _score(plans: Plans, motions: list[MotionParams], slots, tips, rotations, translations, seen):
    """The errors (R,) and residual motions (R, 3) of rows of (point, slot) pairs, row r of slot ``slots[r]``.

    Row r's bead is left at depth ``tips[r]`` along its slot's line of
    ``plans``, deflected by its slot's bias along -x, and mapped to the rest
    frame by the gland transform ``rotations[r]``, ``translations[r]``; its
    residual motion is its target as observed, ``seen[r]``, beyond the drag
    of its point's motion, ``motions[r // K]``.
    """
    dirs = plans.dir[slots]
    bead_world = plans.entry[slots] + tips[:, None] * dirs
    bead_world[:, 0] -= plans.bias[slots]
    miss = world_to_material(rotations, translations, bead_world) - plans.target_rest[slots]
    drags = np.concatenate([motion.drag(plans.levers.penetration) for motion in motions])
    return np.sqrt(geometry.row_dot(miss, miss)), seen - plans.target_obs[slots] - drags[:, None] * dirs


def open_loop_insertion(motion: MotionParams, plans: Plans, k: int, streams: Streams) -> InsertionRecord:
    """The first pass of row k of ``plans``: the gland transform of a tip past the gland entry depth.

    Scales the insertion's motion normals (``streams``, the values of row
    k's streams, as ``Streams.rows(k)`` gives them) into its
    frozen motion noise and evaluates the motion terms of the gland
    transform on the row's lever, whichever side of the entry depth its
    pass depth is.  ``motion`` is one motion or a stack of P
    (``MotionParams.stack``), whose first passes of the slot come in one
    record, row p under ``motion``'s row p with the bits of its own call.
    ``open_loop_records`` scores a block of them, and the closed loop
    (``correct_insertions``) starts from them.
    """
    # frozen per-insertion motion noise: every gland transform sees it
    sd = motion.noise_sd_motion
    motion_noise = 0.0 + (sd[:, None] if isinstance(sd, np.ndarray) else sd) * streams.motion_normals
    return InsertionRecord(*prostate_transform(plans.levers, k, motion, motion_noise))


def _gland_states(inside, rotations, translations):
    """Each row's gland transform: the moved one (``rotations[k]``, ``translations[k]``)
    where its tip is past the gland entry depth (``inside[k]``), the identity elsewhere."""
    return np.where(inside[:, None, None], rotations, geometry.IDENTITY), np.where(inside[:, None], translations, 0.0)


def open_loop_records(
    motion: MotionParams, plans: Plans, streams: Streams, rotations: np.ndarray, translations: np.ndarray,
) -> Records:
    """A block's open-loop records, scored in arrays: row k is the first pass of plan row k.

    Slot k's first pass made the gland transform ``rotations[k]``,
    ``translations[k]``; its bead is left at the pass depth, in that
    transform if that depth is past the gland entry depth and in the gland
    at rest if not, and scored in the rest frame; the observed target
    moved by that transform gives the depth correction and, beyond the
    drag of ``motion`` (that of the first passes), the motion columns.
    Each row has the bits of scoring its slot alone.
    """
    n = len(plans)
    rot, trans = _gland_states(plans.depth > plans.levers.entry_depth, rotations, translations)
    # the observed targets where the first passes' gland transforms moved them
    moved = sensing.track_target(rot, trans, plans.target_obs)
    error, motion_mm = _score(plans, [motion], np.arange(n), plans.depth, rot, trans, moved)
    return _records(
        plans, streams, n_corrections=np.zeros(n, dtype=np.int64),
        depth_correction_mm=geometry.row_dot(moved - plans.entry, plans.dir) - plans.depth, error_mm=error,
        motion_mm=motion_mm, max_corrections_exceeded=np.zeros(n, dtype=bool),
        registration_rms=np.zeros(n), duration_s=plans.duration_s,
    )


def correct_insertions(
    motions: list[MotionParams],
    gland: PhantomConfig,
    noise: NoiseModel,
    geom: kinematics.RobotGeometry,
    conv: ConvergenceParams,
    plans: Plans,
    streams: Streams,
    rotations: np.ndarray,
    translations: np.ndarray,
) -> list[Records]:
    """Run the closed loop of a block of K insertions together, at each of P points.

    The points share the block's plans and streams and differ only in
    motion: point p's first passes were made under ``motions[p]``.  Row
    r = p * K + k is slot k at point p: row k of the tracked ``plans`` and
    of ``streams``, and its first pass's gland transform
    ``rotations[p, k]``, ``translations[p, k]`` of the stacks (P, K, 3, 3)
    and (P, K, 3).  A tip past the gland entry depth sees the first pass's
    gland transform, a tip short of it the gland at rest.  Each step
    observes ``gland``, registers, tracks and decides for every row still
    correcting, as one stacked call per kernel, on the slots' rows of the
    block's tables, gathered by each row's slot (never a copy per point).
    A row leaves the loop when its proposed change drops below
    ``depth_epsilon`` or its budget runs out.  The motion enters only the
    residual motion, through its drag.

    Returns each point's records of the block: the block's own slot
    columns, one array shared by every point, and views of the point's
    rows of the others.  Row k of point p's is the record slot k would get
    alone at point p; its open-loop record is row k of the block's
    ``open_loop_records`` at that point.  Verification v of slot k
    observes with the standard normals ``streams.observation_normals[k,
    v]``.  Raises ValueError for untracked plans, or for streams holding
    fewer than ``max_corrections + 1`` volumes.  A correction budget
    overrun does not raise: the record is flagged.
    """
    conv.validate()
    if plans.reference is None:
        raise ValueError("a closed-loop insertion needs a tracked plan")
    volumes = streams.observation_normals.shape[1]
    if volumes <= conv.max_corrections:
        raise ValueError(f"the streams hold {volumes} observation volumes, "
                         f"{conv.max_corrections} corrections need {conv.max_corrections + 1}")
    k = len(plans)
    rows = len(motions) * k
    rotations, translations = rotations.reshape(rows, 3, 3), translations.reshape(rows, 3)
    # each row's slot, by which it reads the block's tables
    slots = np.tile(np.arange(k), len(motions))
    entries, dirs = plans.entry, plans.dir
    # penetration is read from the fixed pass depth, so the gland transform
    # depends on the tip only through "is it past the gland entry depth"
    # (NaN where the line misses the gland: never past it)
    entry_depth = plans.levers.entry_depth

    tip = plans.depth[slots]  # corrections move the tip; the pass depth stays
    applied = np.zeros(rows)
    duration = plans.duration_s[slots]
    rms = np.zeros(rows)
    # the last verification of each row, which is its correction count
    n_corrections = np.zeros(rows, dtype=np.int64)
    exceeded = np.zeros(rows, dtype=bool)
    active = np.arange(rows)

    for step in range(conv.max_corrections + 1):
        slot = slots[active]
        rot, trans = _gland_states(tip[active] > entry_depth[slot], rotations[active], translations[active])
        obs = sensing.observe(
            gland, rot, trans, noise, streams.observation_normals[slot, step], streams.target[slot],
        )
        reg_rot, reg_trans, rms[active] = sensing.rigid_register(plans.reference.rows(slot), obs)
        tracked = sensing.track_target(reg_rot, reg_trans, plans.target_obs[slot])
        if not step:
            # every row verifies first: the residual motion is measured here
            first_tracked = tracked
        n_corrections[active] = step
        # depth of the tracked target along each needle line
        delta = geometry.row_dot(tracked - entries[slot], dirs[slot]) - tip[active]
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

    # every exit leaves the tip where the last verification saw it, in the
    # transform of its side of the entry depth
    error, motion_mm = _score(
        plans, motions, slots, tip, *_gland_states(tip > entry_depth[slots], rotations, translations), first_tracked,
    )
    columns = dict(
        n_corrections=n_corrections, depth_correction_mm=applied, error_mm=error, motion_mm=motion_mm,
        max_corrections_exceeded=exceeded, registration_rms=rms, duration_s=duration,
    )
    return [
        _records(plans, streams, **{name: col[lo:lo + k] for name, col in columns.items()})
        for lo in range(0, rows, k)
    ]


def run_insertion(
    motion: MotionParams,
    gland: PhantomConfig,
    noise: NoiseModel,
    geom: kinematics.RobotGeometry,
    conv: ConvergenceParams,
    plan: Plans,
    streams: Streams,
) -> Records:
    """One closed-loop insertion from its tracked one-row ``plan`` and one-row ``streams``: the block of one.

    ``open_loop_insertion``, then ``correct_insertions`` on that slot
    alone, given its first pass as a stack of one; returns the slot's
    one-row records.
    """
    first = open_loop_insertion(motion, plan, 0, streams.rows(0))
    return correct_insertions(
        [motion], gland, noise, geom, conv, plan, streams, first.rotation[None, None], first.translation[None, None],
    )[0]
