"""Pubic-arch interference checks and angled re-planning.

The arch is approximated by capsules; a candidate needle shaft is the
segment from an entry point on the perineal plane through the target,
extended a little past it so later depth corrections stay covered.  When
the straight horizontal path is blocked, entries on a 2 mm grid around
it are scanned and the collision-free candidate with the smallest
angulation (1-degree bins, ties broken by clearance) wins.

A block of targets is planned together (``plan_trajectories``): the
direct paths of all of them are checked in one ``collision_check`` call,
and only the targets whose direct path is out of reach or blocked go
through the grid search (``replan_angled``), one target at a time.
Every clearance is measured with the stacked
``geometry.segment_segment_distance``, and only its sign is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, kinematics

# 18-gauge needle
DEFAULT_NEEDLE_RADIUS = 0.635

# shaft is checked this many mm beyond the target
DEPTH_MARGIN = 10.0

ENTRY_GRID_STEP = 2.0
ANGLE_BIN_DEG = 1.0


@dataclass
class PubicArchModel:
    arch_segments: list[tuple[geometry.Segment, float]]
    enabled: bool = True

    def __post_init__(self):
        for _, radius in self.arch_segments:
            if radius <= 0:
                raise ValueError("arch capsule radii must be positive")


@dataclass
class EntryRegion:
    """Axis-aligned rectangle on the perineal (front stage) plane."""

    x_min: float = -30.0
    x_max: float = 30.0
    y_min: float = -30.0
    y_max: float = 30.0

    def contains(self, x, y):
        """Whether each entry (x, y) lies in the rectangle; takes floats or arrays."""
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)


class NoFeasiblePath(RuntimeError):
    """Every candidate trajectory within limits collides with the arch.

    ``best_clearance`` is -inf when no candidate entry is within the limits.
    """

    def __init__(self, best_clearance: float):
        self.best_clearance = best_clearance
        if best_clearance == -math.inf:
            msg = "no candidate entry within the entry region, stage travel and angulation limits"
        else:
            msg = f"no collision-free trajectory; best clearance {best_clearance:.3f} mm"
        super().__init__(msg)


def _capsule_arrays(arch: PubicArchModel):
    a = np.array([seg.a for seg, _ in arch.arch_segments], dtype=np.float64)
    b = np.array([seg.b for seg, _ in arch.arch_segments], dtype=np.float64)
    r = np.array([rad for _, rad in arch.arch_segments], dtype=np.float64)
    return a, b, r


def collision_check(
    arch: PubicArchModel, entries, dirs, depths, needle_radius: float = DEFAULT_NEEDLE_RADIUS
) -> np.ndarray:
    """Minimum signed clearance of K planned shafts against the arch: (K,).

    Shaft k runs from ``entries[k]`` along the unit ``dirs[k]`` to
    ``DEPTH_MARGIN`` mm past its planned depth ``depths[k]``.  Negative
    clearance means collision; with the arch disabled (or empty) every
    clearance is unbounded (+inf) and nothing blocks.
    """
    if needle_radius <= 0:
        raise ValueError("needle_radius must be positive")
    entries = np.asarray(entries, dtype=np.float64)
    if not arch.enabled or not arch.arch_segments:
        return np.full(entries.shape[0], math.inf)
    ends = entries + (np.asarray(depths, dtype=np.float64) + DEPTH_MARGIN)[:, None] * np.asarray(dirs)
    cap_a, cap_b, cap_r = _capsule_arrays(arch)
    dist = geometry.segment_segment_distance(entries, ends, cap_a, cap_b) - cap_r
    return np.min(dist, axis=1) - needle_radius


def first_blocked_depth(
    arch: PubicArchModel,
    entry,
    dir,
    max_depth: float,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
    step: float = 0.1,
) -> float | None:
    """Depth at which the advancing tip first touches the arch, if ever."""
    if not arch.enabled or not arch.arch_segments:
        return None
    depths = np.arange(0.0, max_depth + step, step)
    tips = np.asarray(entry, dtype=np.float64) + depths[:, None] * geometry.normalize(dir)
    cap_a, cap_b, cap_r = _capsule_arrays(arch)
    dist = geometry.segment_segment_distance(tips, tips, cap_a, cap_b) - cap_r
    blocked = np.flatnonzero(np.min(dist, axis=1) - needle_radius < 0)
    return float(depths[blocked[0]]) if blocked.size else None


def clearance_grid(entries, entry_z, target, overshoot, cap_a, cap_b, cap_r, needle_r):
    """Min clearance of each candidate needle shaft against all capsules.

    entries: (n, 2) candidate entry x/y on the entry plane at z=entry_z.
    target: (3,) point every candidate passes through; the shaft runs from
    the entry to ``overshoot`` mm past the target.
    cap_a/cap_b: (m, 3) capsule axis endpoints, cap_r: (m,) radii.
    Returns (n,) of min_j(segdist - cap_r[j]) - needle_r, the segment
    distances from :func:`geometry.segment_segment_distance`.
    """
    entries = np.asarray(entries, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = entries.shape[0]
    p0 = np.empty((n, 3), dtype=np.float64)
    p0[:, 0] = entries[:, 0]
    p0[:, 1] = entries[:, 1]
    p0[:, 2] = float(entry_z)
    d = target[None, :] - p0
    norm = np.sqrt(np.sum(d * d, axis=1))
    p1 = p0 + d * ((norm + float(overshoot)) / norm)[:, None]
    dist = geometry.segment_segment_distance(p0, p1, cap_a, cap_b) - np.asarray(cap_r, dtype=np.float64)
    return np.min(dist, axis=1) - float(needle_r)


def candidate_entries(target, entry_region: EntryRegion, geom: kinematics.RobotGeometry):
    """Entry-grid candidates for a target: (entries (n,2), angles_deg (n,)).

    The grid is centered on the direct horizontal entry (the target's x/y)
    so the unobstructed case contains an exactly-axial candidate, and it is
    pruned to entries that stay inside the region, within max angulation,
    and within stage travel.  Order is row-major in (dy, dx), which fixes
    the deterministic tie-break order of the planner.
    """
    target = np.asarray(target, dtype=np.float64)
    tx, ty, tz = float(target[0]), float(target[1]), float(target[2])
    dz = tz - geom.front_plane_z
    if dz <= 0:
        raise ValueError("target must lie beyond the entry plane")
    max_off = math.tan(math.radians(geom.max_angulation)) * dz
    steps = int(math.floor(max_off / ENTRY_GRID_STEP))
    offsets = np.arange(-steps, steps + 1) * ENTRY_GRID_STEP
    ey, ex = (g.ravel() for g in np.meshgrid(ty + offsets, tx + offsets, indexing="ij"))
    # stage feasibility: front stage carries the entry itself, the back
    # stage sits stage_separation behind along the line
    scale = geom.stage_separation / dz
    bx = ex - (tx - ex) * scale
    by = ey - (ty - ey) * scale
    reach = np.max(np.abs(np.stack([ex, ey, bx, by])), axis=0)
    keep = (
        (entry_region.x_min <= ex) & (ex <= entry_region.x_max)
        & (entry_region.y_min <= ey) & (ey <= entry_region.y_max)
        & (reach <= geom.stage_travel)
    )
    ex, ey = ex[keep], ey[keep]
    # math (not numpy) hypot/atan2: numpy's differ in the last ulp, and the
    # angle bins break the planner's ties
    angles = np.array(
        [math.degrees(math.atan2(math.hypot(x - tx, y - ty), dz)) for x, y in zip(ex.tolist(), ey.tolist())],
        dtype=np.float64,
    )
    ok = angles <= geom.max_angulation + 1e-12
    return np.stack([ex[ok], ey[ok]], axis=1), angles[ok]


def _trajectory_to(entry3: np.ndarray, target: np.ndarray, angle_deg: float) -> kinematics.Trajectory:
    d = geometry.normalize(target - entry3)
    depth = float(np.linalg.norm(target - entry3))
    approach = "Angled" if angle_deg > ANGLE_BIN_DEG else "Horizontal"
    return kinematics.Trajectory(entry3, d, depth, approach)


def replan_angled(
    arch: PubicArchModel,
    target_world,
    entry_region: EntryRegion,
    geom: kinematics.RobotGeometry,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
) -> kinematics.Trajectory:
    """Smallest-angulation collision-free trajectory through the target, from the entry grid.

    All grid candidates are scored and the winner minimizes the 1-degree
    angulation bin, then maximizes clearance, then falls back to grid
    order.  A clear direct horizontal path sits alone in bin 0 (for any
    target less than 229 mm past the entry plane), so it wins.  Raises
    NoFeasiblePath (with the best clearance seen) when everything collides
    or no candidate is in reach.
    """
    target = np.asarray(target_world, dtype=np.float64)
    entries, angles = candidate_entries(target, entry_region, geom)
    if entries.shape[0] == 0:
        raise NoFeasiblePath(-math.inf)
    if not arch.enabled or not arch.arch_segments:
        clearances = np.full(entries.shape[0], math.inf)
    else:
        cap_a, cap_b, cap_r = _capsule_arrays(arch)
        clearances = clearance_grid(
            entries, geom.front_plane_z, target, DEPTH_MARGIN, cap_a, cap_b, cap_r, needle_radius
        )

    clear = np.flatnonzero(clearances > 0.0)
    if not clear.size:
        raise NoFeasiblePath(float(np.max(clearances)))
    bins = np.round(angles[clear] / ANGLE_BIN_DEG).astype(np.int64)
    idx = clear[np.lexsort((clear, -clearances[clear], bins))[0]]
    entry3 = np.array([entries[idx, 0], entries[idx, 1], geom.front_plane_z])
    return _trajectory_to(entry3, target, float(angles[idx]))


def plan_trajectories(
    arch: PubicArchModel,
    targets,
    entry_region: EntryRegion,
    geom: kinematics.RobotGeometry,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
) -> list[kinematics.Trajectory]:
    """The smallest-angulation collision-free trajectory through each of K targets (K, 3).

    The direct horizontal paths are tried first, all in one
    ``collision_check``: a target whose direct entry is in the region and
    within stage travel (both stages sit at the entry), and whose shaft
    clears the arch, gets it.  Every other target takes the grid search of
    ``replan_angled``.  Raises NoFeasiblePath for the first target with no
    collision-free trajectory.
    """
    targets = np.asarray(targets, dtype=np.float64)
    entries = targets.copy()
    entries[:, 2] = geom.front_plane_z
    rel = targets - entries
    depths = np.sqrt(geometry.row_dot(rel, rel))
    dirs = rel / depths[:, None]
    x, y = targets[:, 0], targets[:, 1]
    direct = entry_region.contains(x, y) & (np.maximum(np.abs(x), np.abs(y)) <= geom.stage_travel)
    clearance = collision_check(arch, entries[direct], dirs[direct], depths[direct], needle_radius)
    direct[direct] = clearance > 0.0
    return [
        kinematics.Trajectory(entries[k], dirs[k], depth, "Horizontal") if ok
        else replan_angled(arch, targets[k], entry_region, geom, needle_radius)
        for k, (ok, depth) in enumerate(zip(direct.tolist(), depths.tolist()))
    ]
