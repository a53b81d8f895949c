"""Closed-loop insertion procedure and its open-loop baseline.

One insertion: acquire a reference volume at rest, plan a trajectory to
the observed target (re-planning around the pubic arch if needed), drive
the needle in, then alternately observe / register / correct the depth
toward the tracked target until the proposed change drops below the
depth resolution.  The bead is deposited at the final tip position and
scored in the material (rest) frame, the analog of a post-procedure CT.

Per-insertion invariants are computed once: the reference volume is
prepared for registration once, and the gland transform, which depends
on the tip only through whether it is past the gland entry depth (the
motion model reads penetration from the fixed pass depth), is evaluated
at most once for each side of that depth.  The planner returns only
trajectories clear of the arch, so the needle never stops short: the
records' ``disengaged`` flag is always false.

An insertion is two explicit steps.  ``plan_insertion`` is the
motion-free half: reference volume, observed target, trajectory, first
pass, and the first-pass penetration that sets the modeled drag.
``run_insertion`` and ``open_loop_insertion`` are the half that reads the
motion model, which the caller passes in: motion noise, gland transforms,
correction loop, scoring.  They take the plan and none of the planning
inputs, so insertions that differ only in motion can share one plan.

The open-loop baseline scores the bead where the first pass left it.
The closed loop continues from that state, whose gland transform is its
first verification, and ``run_insertion`` returns the closed record with
the baseline attached; the paired comparison of the two quantifies what
the loop buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, kinematics, planning, sensing
from .phantom import (
    LEFT,
    MotionParams,
    NeedleState,
    ProstatePhantom,
    Target,
    ZoneLabels,
    gland_entry_depth,
    penetration,
    prostate_transform,
    with_approach,
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
    target_id: int
    trajectory: kinematics.Trajectory
    corrections: list[tuple[float, np.ndarray]]
    n_corrections: int
    bead_rest_position: np.ndarray
    distance_error: float
    axial_motion: float
    zone: ZoneLabels
    # no in-run stop exists (every plan is clear of the arch); kept false for the records CSV
    disengaged: bool = False
    max_corrections_exceeded: bool = False
    # target displacement measured at the first verification, minus the
    # modeled axial drag: the residual motion per axis (signed, mm)
    residual_motion: np.ndarray = field(default_factory=lambda: np.zeros(3))
    registration_rms: float = 0.0
    duration_s: float = 0.0
    rotation_angle_deg: float = 0.0
    # the open-loop baseline of the same plan (closed-loop records only)
    open_loop: InsertionRecord | None = None


@dataclass
class InsertionPlan:
    """The motion-free half of one insertion: everything up to the end of
    the first pass.

    None of it reads the motion parameters: the reference volume is taken
    at rest, so it, the observed target and the trajectory depend only on
    the phantom, the noise model, the robot and the arch.  A plan can
    therefore be shared by insertions that differ only in motion.
    ``reference`` and ``entry_depth`` serve the correction loop and are
    prepared only for a tracked plan; ``reference`` is None otherwise.
    """

    target: Target
    target_obs: np.ndarray
    trajectory: kinematics.Trajectory
    # joint state and elapsed time after the first pass
    joints: kinematics.JointState
    duration_s: float
    # first-pass penetration beyond the gland entry point (drives the drag),
    # measured along the planned direction as given
    penetration: float
    reference: geometry.RegistrationReference | None = None
    # gland entry depth along the normalized direction, as the gland
    # transform measures it (None: the line misses the gland); it can
    # differ from the one behind ``penetration`` in the last ulp
    entry_depth: float | None = None


def plan_insertion(
    phantom: ProstatePhantom,
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    target_id: int,
    streams: InsertionStreams,
    entry_region: EntryRegion | None = None,
    needle_radius: float = planning.DEFAULT_NEEDLE_RADIUS,
    track: bool = True,
) -> InsertionPlan:
    """Observe at rest, plan the trajectory and make the first pass.

    Only a ``track`` plan can drive ``run_insertion``; an untracked plan
    skips the registration reference and serves ``open_loop_insertion``.
    Raises planning.NoFeasiblePath when no trajectory clears the arch.
    """
    region = entry_region if entry_region is not None else EntryRegion()
    target = phantom.target_by_id(target_id)
    ref_stream = streams.reference()
    ref_obs = sensing.observe(phantom, geometry.identity(), noise, ref_stream, streams.needle_count)
    target_obs = sensing.observe_point(
        phantom, target.position_rest, noise, ref_stream, streams.needle_count
    )
    traj = planning.replan_angled(arch, target_obs, region, geom, needle_radius)
    js = kinematics.inverse_kinematics(geom, traj)
    js, duration = kinematics.advance_insertion(geom, js, traj.planned_depth, rotating=True)
    pen = penetration(phantom, NeedleState(traj.entry, traj.dir, traj.planned_depth))
    plan = InsertionPlan(target, target_obs, traj, js, duration, pen)
    if track:
        plan.reference = geometry.prepare_reference(ref_obs)
        plan.entry_depth = gland_entry_depth(phantom, traj.entry, geometry.normalize(traj.dir))
    return plan


def _deposit(phantom: ProstatePhantom, target, tip_world, transform):
    """Bead world position (with any left-side deflection) mapped to rest frame."""
    bead_world = np.asarray(tip_world, dtype=np.float64)
    if phantom.left_bias != 0.0 and target.zone.lateral_zone == LEFT:
        bead_world = bead_world + np.array([-phantom.left_bias, 0.0, 0.0])
    bead_rest = world_to_material(phantom, transform, bead_world)
    error = float(np.linalg.norm(bead_rest - target.position_rest))
    return bead_rest, error


def _residual_motion(motion: MotionParams, plan: InsertionPlan, moved_target):
    """Per-axis target displacement beyond the modeled axial drag."""
    disp = np.asarray(moved_target, dtype=np.float64) - plan.target_obs
    return disp - motion.drag(plan.penetration) * plan.trajectory.dir


def _first_pass(phantom, motion, plan, streams):
    """Score the bead where the first pass left it: the open-loop baseline.

    Returns the baseline record, the insertion's frozen motion noise and
    the gland transform at the planned depth, which is also the closed
    loop's first verification state.
    """
    traj, depth = plan.trajectory, plan.trajectory.planned_depth
    # frozen per-insertion motion noise: every gland transform sees it
    sd = motion.noise_sd_motion
    motion_noise = streams.motion().normal(0.0, sd, 3) if sd > 0 else np.zeros(3)
    needle = NeedleState(traj.entry, traj.dir, depth, pass_depth=depth)
    t_true = prostate_transform(phantom, motion, needle, motion_noise)
    moved_target = geometry.apply(t_true, plan.target_obs)
    depth_of_target, _ = geometry.axis_decompose(traj.entry, traj.dir, moved_target)
    bead_rest, error = _deposit(phantom, plan.target, traj.entry + depth * traj.dir, t_true)
    baseline = InsertionRecord(
        target_id=plan.target.id, trajectory=traj, corrections=[], n_corrections=0,
        bead_rest_position=bead_rest, distance_error=error,
        # the induced-but-uncorrected axial displacement of the observed target
        axial_motion=float(depth_of_target - depth),
        zone=with_approach(plan.target.zone, traj.approach),
        residual_motion=_residual_motion(motion, plan, moved_target),
        duration_s=plan.duration_s, rotation_angle_deg=plan.joints.rotation_angle,
    )
    return baseline, motion_noise, t_true


def open_loop_insertion(
    phantom: ProstatePhantom,
    motion: MotionParams,
    plan: InsertionPlan,
    streams: InsertionStreams,
) -> InsertionRecord:
    """The open-loop baseline alone: run_insertion's ``open_loop`` record."""
    return _first_pass(phantom, motion, plan, streams)[0]


def run_insertion(
    phantom: ProstatePhantom,
    motion: MotionParams,
    noise: NoiseModel,
    geom: kinematics.RobotGeometry,
    conv: ConvergenceParams,
    plan: InsertionPlan,
    streams: InsertionStreams,
) -> InsertionRecord:
    """Execute the closed loop of one insertion from its tracked ``plan``.

    The loop continues from the open-loop baseline's state, and the
    returned record carries that baseline in ``open_loop``.  Raises
    ValueError for an untracked plan.  A correction budget overrun does
    not raise: the record is flagged.
    """
    conv.validate()
    if plan.reference is None:
        raise ValueError("a closed-loop insertion needs a tracked plan")
    baseline, motion_noise, t_true = _first_pass(phantom, motion, plan, streams)
    target, target_obs, traj = plan.target, plan.target_obs, plan.trajectory
    js, duration, depth = plan.joints, plan.duration_s, traj.planned_depth

    obs_stream = streams.observation()
    # penetration is read from the fixed pass depth, so the gland transform
    # depends on the tip only through "is it past the gland entry depth"
    entry_depth = plan.entry_depth

    def past_entry(tip):
        return entry_depth is not None and tip > entry_depth

    transforms = {past_entry(depth): t_true}
    tip_depth = depth  # corrections move the tip; the pass depth stays
    corrections: list[tuple[float, np.ndarray]] = []
    applied = 0.0
    exceeded = False

    for _ in range(conv.max_corrections + 1):
        obs = sensing.observe(phantom, t_true, noise, obs_stream, streams.needle_count)
        reg, last_rms = sensing.rigid_register(plan.reference, obs)
        tracked = sensing.track_target(reg, target_obs)
        depth_to_target, _ = geometry.axis_decompose(traj.entry, traj.dir, tracked)
        delta = depth_to_target - tip_depth
        corrections.append((float(delta), tracked))
        if abs(delta) < conv.depth_epsilon:
            break
        if len(corrections) - 1 >= conv.max_corrections:
            exceeded = True
            break
        tip_depth = max(0.0, tip_depth + delta)
        applied += delta
        js, move_s = kinematics.advance_insertion(geom, js, delta, rotating=False)
        duration += move_s
        inside = past_entry(tip_depth)
        if inside not in transforms:
            moved = NeedleState(traj.entry, traj.dir, tip_depth, pass_depth=depth)
            transforms[inside] = prostate_transform(phantom, motion, moved, motion_noise)
        t_true = transforms[inside]

    # every exit leaves the tip where the last verification saw it
    bead_rest, error = _deposit(phantom, target, traj.entry + tip_depth * traj.dir, t_true)
    return replace(
        baseline, corrections=corrections, n_corrections=len(corrections) - 1,
        bead_rest_position=bead_rest, distance_error=error, axial_motion=float(applied),
        max_corrections_exceeded=exceeded,
        # measured at the first verification, from the tracked target
        residual_motion=_residual_motion(motion, plan, corrections[0][1]),
        registration_rms=last_rms, duration_s=duration, rotation_angle_deg=js.rotation_angle,
        open_loop=baseline,
    )
