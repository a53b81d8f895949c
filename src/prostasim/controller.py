"""Closed-loop insertion procedure and its open-loop baseline.

One insertion: acquire a reference volume at rest, plan a trajectory to
the observed target (re-planning around the pubic arch if needed), drive
the needle in, then alternately observe / register / correct the depth
toward the tracked target until the proposed change drops below the
depth resolution.  The bead is deposited at the final tip position and
scored in the material (rest) frame, the analog of a post-procedure CT.

The open-loop baseline is the same insertion with tracking switched off:
one routine plans and inserts once, scores the bead where the first pass
left it (the baseline), and the closed loop continues from that state,
whose gland transform is its first verification.  ``run_insertion``
returns the closed record with the baseline attached; the paired
comparison of the two quantifies what the loop buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, kinematics, planning, sensing
from .phantom import (
    LEFT,
    NeedleState,
    ProstatePhantom,
    ZoneLabels,
    axial_drag,
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
    disengaged: bool
    max_corrections_exceeded: bool = False
    # target displacement measured at the first verification, minus the
    # modeled axial drag: the residual motion per axis (signed, mm)
    residual_motion: np.ndarray = field(default_factory=lambda: np.zeros(3))
    registration_rms: float = 0.0
    duration_s: float = 0.0
    rotation_angle_deg: float = 0.0
    # the open-loop baseline of the same plan (closed-loop records only)
    open_loop: InsertionRecord | None = None


def _plan(
    phantom: ProstatePhantom,
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    target,
    streams: InsertionStreams,
    entry_region: EntryRegion,
    needle_radius: float,
):
    """Reference observation and trajectory planning, shared by both modes."""
    ref_stream = streams.reference()
    ref_obs = sensing.observe(
        phantom, geometry.identity(), noise, ref_stream,
        volume_index=0, needle_count=streams.needle_count,
    )
    target_obs = sensing.observe_point(
        phantom, target.position_rest, noise, ref_stream, streams.needle_count
    )
    traj = planning.replan_angled(arch, target_obs, entry_region, geom, needle_radius)
    js = kinematics.inverse_kinematics(geom, traj)
    return ref_obs, target_obs, traj, js


def _deposit(phantom: ProstatePhantom, target, tip_world, transform):
    """Bead world position (with any left-side deflection) mapped to rest frame."""
    bead_world = np.asarray(tip_world, dtype=np.float64)
    if phantom.left_bias != 0.0 and target.zone.lateral_zone == LEFT:
        bead_world = bead_world + np.array([-phantom.left_bias, 0.0, 0.0])
    bead_rest = world_to_material(phantom, transform, bead_world)
    error = float(np.linalg.norm(bead_rest - target.position_rest))
    return bead_rest, error


def _residual_motion(phantom, needle, moved_target, target_obs):
    """Per-axis target displacement beyond the modeled axial drag."""
    disp = np.asarray(moved_target, dtype=np.float64) - target_obs
    return disp - axial_drag(phantom, needle) * needle.dir


def run_insertion(
    phantom: ProstatePhantom,
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    conv: ConvergenceParams,
    target_id: int,
    streams: InsertionStreams,
    entry_region: EntryRegion | None = None,
    needle_radius: float = planning.DEFAULT_NEEDLE_RADIUS,
) -> InsertionRecord:
    """Execute one closed-loop insertion; see the module docstring.

    The returned record carries the open-loop baseline of the same plan
    in ``open_loop``.  Raises planning.NoFeasiblePath when no trajectory
    clears the arch.  A correction budget overrun does not raise: the
    record is flagged.
    """
    return _insert(
        phantom, geom, arch, noise, conv, target_id, streams, entry_region, needle_radius,
        track=True,
    )


def open_loop_insertion(
    phantom: ProstatePhantom,
    geom: kinematics.RobotGeometry,
    arch: PubicArchModel,
    noise: NoiseModel,
    conv: ConvergenceParams,
    target_id: int,
    streams: InsertionStreams,
    entry_region: EntryRegion | None = None,
    needle_radius: float = planning.DEFAULT_NEEDLE_RADIUS,
) -> InsertionRecord:
    """The open-loop baseline alone: run_insertion's ``open_loop`` record."""
    return _insert(
        phantom, geom, arch, noise, conv, target_id, streams, entry_region, needle_radius,
        track=False,
    )


def _insert(phantom, geom, arch, noise, conv, target_id, streams, entry_region, needle_radius, *, track):
    """Plan and insert once and score the open-loop baseline.

    With ``track`` the closed loop continues from the baseline's state and
    its record carries the baseline; without it the baseline is returned.
    """
    conv.validate()
    region = entry_region if entry_region is not None else EntryRegion()
    target = phantom.target_by_id(target_id)
    ref_obs, target_obs, traj, js = _plan(
        phantom, geom, arch, noise, target, streams, region, needle_radius
    )
    js, duration = kinematics.advance_insertion(geom, js, traj.planned_depth, rotating=True)

    obstruction = _obstruction_depth(arch, traj, needle_radius)
    disengaged = obstruction is not None and obstruction < traj.planned_depth
    depth = traj.planned_depth
    if disengaged:
        js = kinematics.safety_stop(js, obstruction)
        depth = js.insertion_depth

    # frozen per-insertion motion noise: every gland transform sees it
    sd = phantom.motion.noise_sd_motion
    motion_noise = streams.motion().normal(0.0, sd, 3) if sd > 0 else np.zeros(3)

    # open loop: score the bead where the first pass left it.  Without a
    # safety stop this is also the closed loop's first verification state.
    needle = NeedleState(traj.entry, traj.dir, depth, pass_depth=depth)
    t_true = prostate_transform(phantom, needle, motion_noise)
    moved_target = geometry.apply(t_true, target_obs)
    depth_of_target, _ = geometry.axis_decompose(traj.entry, traj.dir, moved_target)
    bead_rest, error = _deposit(phantom, target, traj.entry + depth * traj.dir, t_true)
    baseline = InsertionRecord(
        target_id=target_id, trajectory=traj, corrections=[], n_corrections=0,
        bead_rest_position=bead_rest, distance_error=error,
        # the induced-but-uncorrected axial displacement of the observed target
        axial_motion=0.0 if disengaged else float(depth_of_target - traj.planned_depth),
        zone=with_approach(target.zone, traj.approach), disengaged=disengaged,
        residual_motion=_residual_motion(phantom, needle, moved_target, target_obs),
        duration_s=duration, rotation_angle_deg=js.rotation_angle,
    )
    if not track:
        return baseline
    if disengaged:
        return replace(baseline, corrections=[], residual_motion=np.zeros(3), open_loop=baseline)

    obs_stream = streams.observation()
    tip_depth = depth  # corrections move the tip; the pass depth stays
    corrections: list[tuple[float, np.ndarray]] = []
    applied = 0.0
    exceeded = False

    for step in range(1, conv.max_corrections + 2):
        obs = sensing.observe(
            phantom, t_true, noise, obs_stream,
            volume_index=step, needle_count=streams.needle_count,
        )
        reg, last_rms = sensing.rigid_register(ref_obs.fiducials_observed, obs.fiducials_observed)
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
        moved = NeedleState(traj.entry, traj.dir, tip_depth, pass_depth=depth)
        t_true = prostate_transform(phantom, moved, motion_noise)

    # every exit leaves the tip where the last verification saw it
    bead_rest, error = _deposit(phantom, target, traj.entry + tip_depth * traj.dir, t_true)
    return replace(
        baseline, corrections=corrections, n_corrections=len(corrections) - 1,
        bead_rest_position=bead_rest, distance_error=error, axial_motion=float(applied),
        max_corrections_exceeded=exceeded,
        # measured at the first verification, from the tracked target
        residual_motion=_residual_motion(phantom, needle, corrections[0][1], target_obs),
        registration_rms=last_rms, duration_s=duration, rotation_angle_deg=js.rotation_angle,
        open_loop=baseline,
    )


def _obstruction_depth(arch, traj, needle_radius):
    rep = planning.collision_check(arch, traj, needle_radius)
    if rep.clearance >= 0:
        return None
    return planning.first_blocked_depth(
        arch, traj.entry, traj.dir, traj.planned_depth + planning.DEPTH_MARGIN, needle_radius
    )
