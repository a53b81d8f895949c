"""Pubic-arch interference checks and angled re-planning.

The arch is approximated by capsules; a candidate needle shaft is the
segment from an entry point on the perineal plane through the target,
extended a little past it so later depth corrections stay covered.  When
the straight horizontal path is blocked, entries on a 2 mm grid around
it are scanned and the collision-free candidate with the smallest
angulation (1-degree bins, ties broken by clearance) wins.

A block of targets is planned together (``plan_trajectories``), into one
``kinematics.Trajectory``: the direct paths of all of them are checked in
one ``collision_check`` call, and the targets whose direct path is out of
reach or blocked, or that lie on or behind the entry plane, go through
one grid search together (``replan_angled``).  Each target's entry and
approach label, the direct one or the search's, stay in target order, and
one ``_through`` builds the block's lines from them.  The search builds
every target's candidates in one ``candidate_entries`` call and checks
their clearance in rounds of rising angulation, stopping for each target
at the first round that finds it a clear candidate.  Every clearance, of
a direct path, a grid candidate or an advancing tip, comes from one
chunked kernel over the stacked ``geometry.segment_segment_distance``,
+inf against an arch of no capsules, and only its sign is read.

A candidate's angulation is taken in numpy, with ``np.hypot``,
``np.arctan2`` and ``np.degrees`` over all candidates at once.  The
planner compares an angle with three thresholds: its 1-degree bin's edges
(k + 0.5), the angulation limit (``max_angulation + 1e-12``) and the
approach label's ``ANGLE_BIN_DEG``.  numpy's ``hypot`` and ``arctan2``
differ from ``math``'s in the last few ulp on some candidates (at most 3
measured), so every angle within ``ANGLE_GUARD`` of a threshold, ~10^5
times that error, is taken again with ``math.hypot`` and ``math.atan2``.
Every other angle is on the same side of each threshold as ``math``'s, so
every bin, limit and label is the one ``math``'s angles give.
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

# the approach labels: a plan angled past ANGLE_BIN_DEG is angled
HORIZONTAL = "Horizontal"
ANGLED = "Angled"

# the grid search checks clearance for angulation bins up to each limit in
# turn, then for the rest
ROUND_BIN_LIMITS = (2, 4, 8, 16)

# an angle this close (in degrees) to a threshold the planner compares it
# with is taken again with math: see the module docstring
ANGLE_GUARD = 1e-9

# A block's grid search holds every candidate of its targets.  This bounds
# what is alive at once on top of that: the rows of shafts the clearance
# kernel takes at once (its temporaries are component planes of capsules x
# rows).
KERNEL_ROWS = 1024


@dataclass
class PubicArchModel:
    """The arch as m capsules: capsule j has the axis from ``a[j]`` to ``b[j]`` and radius ``radius[j]``.

    An arch of no capsules (a disabled one) blocks nothing.
    """

    a: np.ndarray  # (m, 3)
    b: np.ndarray  # (m, 3)
    radius: np.ndarray  # (m,)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64).reshape(-1, 3)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1, 3)
        self.radius = np.asarray(self.radius, dtype=np.float64).reshape(-1)
        if np.any(self.radius <= 0):
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
    """Every candidate trajectory within limits to ``target`` collides with the arch.

    ``target`` is the (observed) target position the search was for, and
    ``best_clearance`` is -inf when no candidate entry is within the limits.
    """

    def __init__(self, best_clearance: float, target):
        self.best_clearance = best_clearance
        self.target = np.array(target, dtype=np.float64)
        x, y, z = self.target.tolist()
        where = f"the target at ({x:.3f}, {y:.3f}, {z:.3f}) mm"
        if best_clearance == -math.inf:
            msg = f"no candidate entry within the entry region, stage travel and angulation limits for {where}"
        else:
            msg = f"no collision-free trajectory to {where}; best clearance {best_clearance:.3f} mm"
        super().__init__(msg)


def collision_check(
    arch: PubicArchModel, entries, dirs, depths, needle_radius: float = DEFAULT_NEEDLE_RADIUS
) -> np.ndarray:
    """Minimum signed clearance of K planned shafts against the arch: (K,).

    Shaft k runs from ``entries[k]`` along the unit ``dirs[k]`` (or one
    unit direction (3,) for every shaft) to ``DEPTH_MARGIN`` mm past its
    planned depth ``depths[k]``.  Negative clearance means collision;
    against an arch of no capsules every clearance is unbounded (+inf)
    and nothing blocks.
    """
    if needle_radius <= 0:
        raise ValueError("needle_radius must be positive")
    entries = np.asarray(entries, dtype=np.float64)
    ends = entries + (np.asarray(depths, dtype=np.float64) + DEPTH_MARGIN)[:, None] * np.asarray(dirs)
    return _clearance(entries, ends, arch.a, arch.b, arch.radius, needle_radius)


def first_blocked_depth(
    arch: PubicArchModel,
    entry,
    dir,
    max_depth: float,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
    step: float = 0.1,
) -> float | None:
    """Depth at which the advancing tip first touches the arch, if ever."""
    depths = np.arange(0.0, max_depth + step, step)
    tips = np.asarray(entry, dtype=np.float64) + depths[:, None] * geometry.normalize(dir)
    blocked = np.flatnonzero(_clearance(tips, tips, arch.a, arch.b, arch.radius, needle_radius) < 0)
    return float(depths[blocked[0]]) if blocked.size else None


def clearance_grid(entries, entry_z, targets, overshoot, cap_a, cap_b, cap_r, needle_r):
    """Min clearance of each candidate needle shaft against all capsules.

    entries: (n, 2) candidate entry x/y on the entry plane at z=entry_z.
    targets: (n, 3), the point candidate i passes through; its shaft runs
    from the entry to ``overshoot`` mm past ``targets[i]``.
    cap_a/cap_b: (m, 3) capsule axis endpoints, cap_r: (m,) radii.
    Returns (n,) of min_j(segdist - cap_r[j]) - needle_r, +inf with no
    capsules.
    """
    p0 = _on_entry_plane(entries, entry_z)
    d = np.asarray(targets, dtype=np.float64) - p0
    norm = np.sqrt(np.sum(d * d, axis=1))
    p1 = p0 + d * ((norm + float(overshoot)) / norm)[:, None]
    return _clearance(p0, p1, cap_a, cap_b, cap_r, needle_r)


def _on_entry_plane(xy, entry_z) -> np.ndarray:
    """The points (n, 3) at the rows (x, y) of ``xy`` (n, 2) on the entry plane z = ``entry_z``."""
    points = np.empty((len(xy), 3), dtype=np.float64)
    points[:, :2] = xy
    points[:, 2] = entry_z
    return points


def _clearance(p0, p1, cap_a, cap_b, cap_r, needle_r) -> np.ndarray:
    """Min signed clearance (n,) of the shafts ``[p0[i], p1[i]]`` (n, 3) against the capsules.

    Capsule j has the axis from ``cap_a[j]`` to ``cap_b[j]`` and radius
    ``cap_r[j]``.  Row i is min_j(segdist - cap_r[j]) - needle_r, the
    segment distances from :func:`geometry.segment_segment_distance`, taken
    ``KERNEL_ROWS`` rows at a time; +inf when there are no capsules.  Every
    row is computed on its own, so a subset of rows gets the same bits.
    """
    cap_r = np.asarray(cap_r, dtype=np.float64)
    out = np.full(len(p0), math.inf)
    if not cap_r.size:
        return out
    for lo in range(0, len(p0), KERNEL_ROWS):
        part = slice(lo, lo + KERNEL_ROWS)
        dist = geometry.segment_segment_distance(p0[part], p1[part], cap_a, cap_b) - cap_r
        out[part] = np.min(dist, axis=1) - float(needle_r)
    return out


def _entry_grid(targets, entry_region: EntryRegion, geom: kinematics.RobotGeometry):
    """Every target's grid entries in the region and within stage travel: (ex, ey, owner).

    Target k's grid is centered on its direct entry, with offsets up to
    ``floor(tan(max_angulation) * dz / ENTRY_GRID_STEP)`` steps on each
    axis.  The region and both stages' travel bound x and y separately, so
    each axis is pruned on its own, with the exact per-entry test, before
    the grid is built: the grid never outgrows the region, whatever the
    angulation limit.  Rows are row-major in (dy, dx) per target.  A
    target on or behind the entry plane, which no entry reaches, owns no
    row.
    """
    dz = targets[:, 2] - geom.front_plane_z
    ahead = np.flatnonzero(dz > 0)
    tx, ty, dz = targets[ahead, 0], targets[ahead, 1], dz[ahead]
    steps = np.floor(math.tan(math.radians(geom.max_angulation)) * dz / ENTRY_GRID_STEP)
    scale = geom.stage_separation / dz
    travel = geom.stage_travel

    def axis(t, lo, hi):
        """First offset (K,) and number of offsets (K,) kept on one axis."""
        # the back stage sits at e * (1 + scale) - t * scale; these bounds,
        # widened by a step against rounding, only limit what is tested
        e_lo = np.maximum(max(lo, -travel), (t * scale - travel) / (1.0 + scale))
        e_hi = np.minimum(min(hi, travel), (t * scale + travel) / (1.0 + scale))
        first = np.maximum(-steps, np.ceil((e_lo - t) / ENTRY_GRID_STEP) - 1.0).astype(np.int64)
        last = np.minimum(steps, np.floor((e_hi - t) / ENTRY_GRID_STEP) + 1.0).astype(np.int64)
        i = first[:, None] + np.arange(np.max(last - first + 1, initial=1))
        e = t[:, None] + i * ENTRY_GRID_STEP
        back = e - (t[:, None] - e) * scale[:, None]
        # entry and back stage move monotonically with the offset, so the
        # offsets kept form one run
        kept = (i <= last[:, None]) & (lo <= e) & (e <= hi) & (np.abs(e) <= travel) & (np.abs(back) <= travel)
        return first + np.argmax(kept, axis=1), np.count_nonzero(kept, axis=1)

    x0, nx = axis(tx, entry_region.x_min, entry_region.x_max)
    y0, ny = axis(ty, entry_region.y_min, entry_region.y_max)
    size = nx * ny
    # each row's target among those ahead of the plane
    owner = np.repeat(np.arange(ahead.size), size)
    local = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    row, col = np.divmod(local, nx[owner])
    ex = tx[owner] + (x0[owner] + col) * ENTRY_GRID_STEP
    ey = ty[owner] + (y0[owner] + row) * ENTRY_GRID_STEP
    return ex, ey, ahead[owner]


def candidate_entries(targets, entry_region: EntryRegion, geom: kinematics.RobotGeometry):
    """Entry-grid candidates of K targets (K, 3): (entries (n,2), angles_deg (n,), owner (n,)).

    Each target's grid is centered on its direct horizontal entry (the
    target's x/y), so the unobstructed case contains an exactly-axial
    candidate, and it is pruned to entries that stay inside the region,
    within max angulation, and within stage travel (the front stage carries
    the entry itself, the back stage sits stage_separation behind along the
    line).  The targets' candidates are concatenated in target order, and
    ``owner`` gives each row's target; a target on or behind the entry
    plane has none.  Within a target the order is
    row-major in (dy, dx), which fixes the deterministic tie-break order of
    the planner.  The angles are taken in numpy, and the few within
    ``ANGLE_GUARD`` of a bin edge, the angulation limit or ``ANGLE_BIN_DEG``
    again with ``math.hypot`` and ``math.atan2``, so every decision the
    planner takes from them is the one ``math``'s angles give.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    ex, ey, owner = _entry_grid(targets, entry_region, geom)
    dx = ex - targets[owner, 0]
    dy = ey - targets[owner, 1]
    dz = targets[owner, 2] - geom.front_plane_z
    angles = np.hypot(dx, dy)
    np.degrees(np.arctan2(angles, dz, out=angles), out=angles)
    limit = geom.max_angulation + 1e-12
    # each angle's distance to its nearest bin edge, then to the approach
    # label's threshold and to the limit, in one reused buffer
    near = np.divide(angles, ANGLE_BIN_DEG)
    near -= np.floor(near)
    near -= 0.5
    guarded = np.abs(near, out=near) * ANGLE_BIN_DEG <= ANGLE_GUARD
    for threshold in (ANGLE_BIN_DEG, limit):
        guarded |= np.abs(np.subtract(angles, threshold, out=near), out=near) <= ANGLE_GUARD
    rows = np.flatnonzero(guarded)
    offaxis = map(math.hypot, dx[rows].tolist(), dy[rows].tolist())
    angles[rows] = np.degrees(list(map(math.atan2, offaxis, dz[rows].tolist())))
    ok = angles <= limit
    return np.stack([ex[ok], ey[ok]], axis=1), angles[ok], owner[ok]


def replan_angled(
    arch: PubicArchModel,
    targets,
    entry_region: EntryRegion,
    geom: kinematics.RobotGeometry,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
) -> kinematics.Trajectory:
    """Smallest-angulation collision-free trajectory through each of K targets (K, 3), from the entry grid.

    Each target's winner minimizes the 1-degree angulation bin among its
    clear candidates, then maximizes clearance, then falls back to grid
    order.  A clear direct horizontal path sits alone in bin 0 (for any
    target less than 229 mm past the entry plane), so it wins.

    Clearance is checked in rounds of rising angulation: bins up to 2, then
    up to 4, 8 and 16, then the rest.  Each round makes one
    ``clearance_grid`` call on the candidates of the targets that have no
    clear candidate yet.  Every bin up to a target's winning bin is then
    checked, so the winner is the one a check of every candidate gives.
    Raises NoFeasiblePath for the first target, in order, whose candidates
    all collide (with the best clearance among them) or that has none in
    reach (-inf), a target on or behind the entry plane among them, so the
    target named does not depend on which targets share the block.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    entries, angles, owner = candidate_entries(targets, entry_region, geom)
    bins = np.round(angles / ANGLE_BIN_DEG).astype(np.int64)
    # a row left unchecked never wins and is never a best clearance
    clearances = np.full(entries.shape[0], -math.inf)
    unresolved = np.ones(targets.shape[0], dtype=bool)
    below = -1
    for limit in ROUND_BIN_LIMITS + (math.inf,):
        rows = np.flatnonzero(unresolved[owner] & (bins > below) & (bins <= limit))
        below = limit
        if rows.size:
            clearances[rows] = clearance_grid(
                entries[rows], geom.front_plane_z, targets[owner[rows]], DEPTH_MARGIN,
                arch.a, arch.b, arch.radius, needle_radius,
            )
            unresolved[owner[rows[clearances[rows] > 0.0]]] = False

    clear = np.flatnonzero(clearances > 0.0)
    ranked = clear[np.lexsort((clear, -clearances[clear], bins[clear], owner[clear]))]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = owner[ranked[1:]] != owner[ranked[:-1]]
    winner = np.full(targets.shape[0], -1)
    winner[owner[ranked[first]]] = ranked[first]
    missing = np.flatnonzero(winner < 0)
    if missing.size:
        own = clearances[owner == missing[0]]
        raise NoFeasiblePath(float(np.max(own)) if own.size else -math.inf, targets[missing[0]])
    entry3 = _on_entry_plane(entries[winner], geom.front_plane_z)
    return _through(entry3, targets, np.where(angles[winner] > ANGLE_BIN_DEG, ANGLED, HORIZONTAL))


def _through(entries, targets, approach) -> kinematics.Trajectory:
    """The lines from ``entries`` (K, 3) through ``targets`` (K, 3), each planned to its target."""
    rel = targets - entries
    depths = np.sqrt(geometry.row_dot(rel, rel))
    return kinematics.Trajectory(entries, rel / depths[:, None], depths, approach)


def plan_trajectories(
    arch: PubicArchModel,
    targets,
    entry_region: EntryRegion,
    geom: kinematics.RobotGeometry,
    needle_radius: float = DEFAULT_NEEDLE_RADIUS,
) -> kinematics.Trajectory:
    """The smallest-angulation collision-free trajectory through each of K targets (K, 3), row k for target k.

    The direct horizontal paths are tried first, all in one
    ``collision_check``: a target in front of the entry plane whose direct
    entry is in the region and within stage travel (both stages sit at the
    entry), and whose shaft clears the arch, gets it.  Every other target
    goes into one grid search, ``replan_angled`` on the stack of them, and
    takes its entry and approach label.  One ``_through`` then builds
    every line from the entries and labels, row k for target k.
    Raises NoFeasiblePath for the first target with no collision-free
    trajectory; a target on or behind the entry plane has none in reach.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    x, y, z = targets.T
    entries = _on_entry_plane(targets[:, :2], geom.front_plane_z)
    approach = np.full(len(targets), HORIZONTAL)
    direct = (
        (z > geom.front_plane_z) & entry_region.contains(x, y)
        & (np.maximum(np.abs(x), np.abs(y)) <= geom.stage_travel)
    )
    # a direct path runs along +z, planned to its target's depth past the plane
    depths = z[direct] - geom.front_plane_z
    direct[direct] = collision_check(arch, entries[direct], (0.0, 0.0, 1.0), depths, needle_radius) > 0.0
    if not direct.all():
        angled = replan_angled(arch, targets[~direct], entry_region, geom, needle_radius)
        entries[~direct] = angled.entry
        approach[~direct] = angled.approach
    return _through(entries, targets, approach)
