"""Pubic-arch interference checks and angled re-planning.

The arch is approximated by capsules; a candidate needle shaft is the
segment from an entry point on the perineal plane through the target,
extended a little past it so later depth corrections stay covered.  When
the straight horizontal path is blocked, entries on a 2 mm grid around
it are scanned and the collision-free candidate with the smallest
angulation (1-degree bins, ties broken by clearance) wins.
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
class ClearanceReport:
    clearance: float
    blocking_index: int | None


@dataclass
class EntryRegion:
    """Axis-aligned rectangle on the perineal (front stage) plane."""

    x_min: float = -30.0
    x_max: float = 30.0
    y_min: float = -30.0
    y_max: float = 30.0

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


class NoFeasiblePath(RuntimeError):
    """Every candidate trajectory within limits collides with the arch."""

    def __init__(self, best_clearance: float):
        self.best_clearance = best_clearance
        super().__init__(
            f"no collision-free trajectory; best clearance {best_clearance:.3f} mm"
        )


def _capsule_arrays(arch: PubicArchModel):
    a = np.array([seg.a for seg, _ in arch.arch_segments], dtype=np.float64)
    b = np.array([seg.b for seg, _ in arch.arch_segments], dtype=np.float64)
    r = np.array([rad for _, rad in arch.arch_segments], dtype=np.float64)
    return a, b, r


def collision_check(
    arch: PubicArchModel, traj: kinematics.Trajectory, needle_radius: float = DEFAULT_NEEDLE_RADIUS
) -> ClearanceReport:
    """Minimum signed clearance of the planned shaft against the arch.

    Negative clearance means collision; with the arch disabled (or empty)
    the clearance is unbounded (+inf) and nothing blocks.
    """
    if needle_radius <= 0:
        raise ValueError("needle_radius must be positive")
    if not arch.enabled or not arch.arch_segments:
        return ClearanceReport(math.inf, None)
    p0 = traj.entry
    p1 = traj.entry + (traj.planned_depth + DEPTH_MARGIN) * traj.dir
    best = math.inf
    best_idx = None
    for idx, (seg, radius) in enumerate(arch.arch_segments):
        c = geometry.segment_segment_distance(p0, p1, seg.a, seg.b) - radius - needle_radius
        if c < best:
            best = c
            best_idx = idx
    return ClearanceReport(best, best_idx if best < 0 else None)


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
    entry = np.asarray(entry, dtype=np.float64)
    d = geometry.normalize(dir)
    depths = np.arange(0.0, max_depth + step, step)
    for depth in depths:
        tip = entry + depth * d
        for seg, radius in arch.arch_segments:
            if geometry.segment_segment_distance(tip, tip, seg.a, seg.b) - radius - needle_radius < 0:
                return float(depth)
    return None


def clearance_grid(entries, entry_z, target, overshoot, cap_a, cap_b, cap_r, needle_r):
    """Min clearance of each candidate needle shaft against all capsules.

    entries: (n, 2) candidate entry x/y on the entry plane at z=entry_z.
    target: (3,) point every candidate passes through; the shaft runs from
    the entry to ``overshoot`` mm past the target.
    cap_a/cap_b: (m, 3) capsule axis endpoints, cap_r: (m,) radii.
    Returns (n,) of min_j(segdist - cap_r[j]) - needle_r.  The segment
    distance is the clamped closest-point algorithm of
    :func:`geometry.segment_segment_distance`, broadcast over all n x m
    pairs at once.  A point capsule (zero-length axis) takes the clamped
    ``t < 0`` branch, which is that function's point case; summation
    order differs, so the two may disagree in the last ulp.
    """
    entries = np.asarray(entries, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    cap_a = np.asarray(cap_a, dtype=np.float64)
    cap_b = np.asarray(cap_b, dtype=np.float64)
    cap_r = np.asarray(cap_r, dtype=np.float64)
    n = entries.shape[0]
    p0 = np.empty((n, 3), dtype=np.float64)
    p0[:, 0] = entries[:, 0]
    p0[:, 1] = entries[:, 1]
    p0[:, 2] = float(entry_z)
    d = target[None, :] - p0
    norm = np.sqrt(np.sum(d * d, axis=1))
    p1 = p0 + d * ((norm + float(overshoot)) / norm)[:, None]

    # pairwise quantities, shape (n, m)
    d1 = (p1 - p0)[:, None, :]
    d2 = (cap_b - cap_a)[None, :, :]
    r = p0[:, None, :] - cap_a[None, :, :]
    a = np.sum(d1 * d1, axis=2)
    e = np.sum(d2 * d2, axis=2)
    b = np.sum(d1 * d2, axis=2)
    c = np.sum(d1 * r, axis=2)
    f = np.sum(d2 * r, axis=2)

    denom = a * e - b * b
    safe = denom > 1e-30
    s = np.where(safe, np.clip((b * f - c * e) / np.where(safe, denom, 1.0), 0.0, 1.0), 0.0)
    point = e <= 1e-30
    t = np.where(point, -1.0, (b * s + f) / np.where(point, 1.0, e))
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    diff = (p0[:, None, :] + s[..., None] * d1) - (cap_a[None, :, :] + t[..., None] * d2)
    dist = np.sqrt(np.sum(diff * diff, axis=2)) - cap_r[None, :]
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
    entries = []
    angles = []
    for j in range(-steps, steps + 1):
        ey = ty + j * ENTRY_GRID_STEP
        for i in range(-steps, steps + 1):
            ex = tx + i * ENTRY_GRID_STEP
            if not entry_region.contains(ex, ey):
                continue
            off = math.hypot(ex - tx, ey - ty)
            ang = math.degrees(math.atan2(off, dz))
            if ang > geom.max_angulation + 1e-12:
                continue
            # stage feasibility: front stage carries the entry itself, the
            # back stage sits stage_separation behind along the line
            scale = geom.stage_separation / dz
            bx = ex - (tx - ex) * scale
            by = ey - (ty - ey) * scale
            if max(abs(ex), abs(ey), abs(bx), abs(by)) > geom.stage_travel:
                continue
            entries.append((ex, ey))
            angles.append(ang)
    return np.array(entries, dtype=np.float64).reshape(-1, 2), np.array(angles, dtype=np.float64)


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
    """Smallest-angulation collision-free trajectory through the target.

    The direct horizontal path is tried first; if it collides, all grid
    candidates are scored and the winner minimizes the 1-degree angulation
    bin, then maximizes clearance, then falls back to grid order.  Raises
    NoFeasiblePath (with the best clearance seen) when everything collides.
    """
    target = np.asarray(target_world, dtype=np.float64)
    direct = np.array([target[0], target[1], geom.front_plane_z])
    if entry_region.contains(target[0], target[1]):
        traj = _trajectory_to(direct, target, 0.0)
        rep = collision_check(arch, traj, needle_radius)
        if rep.clearance > 0.0:
            return traj

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

    clear = clearances > 0.0
    if not np.any(clear):
        raise NoFeasiblePath(float(np.max(clearances)))
    bins = np.round(angles / ANGLE_BIN_DEG).astype(np.int64)
    best = None
    for idx in np.nonzero(clear)[0]:
        key = (bins[idx], -clearances[idx], idx)
        if best is None or key < best[0]:
            best = (key, idx)
    idx = best[1]
    entry3 = np.array([entries[idx, 0], entries[idx, 1], geom.front_plane_z])
    return _trajectory_to(entry3, target, float(angles[idx]))
