import math

import numpy as np
import pytest

from prostasim import geometry, planning, study
from prostasim.config import default_config
from prostasim.kinematics import Trajectory
from prostasim.phantom import ANTERIOR, APEX, BASE, CENTER, LEFT, POSTERIOR, RIGHT, prostate_transform


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def tiny_config(seed=777, mode="both", replicates=2):
    """A 2-phantom, 4-target config that runs in well under a second."""
    cfg = default_config()
    cfg.seed = seed
    cfg.n_phantoms = 2
    cfg.targets_per_phantom = 4
    cfg.n_seed_replicates = replicates
    cfg.mode = mode
    cfg.zone_quotas = {
        "apex": 4,
        "base": 4,
        "left": 3,
        "center": 2,
        "right": 3,
        "anterior": 4,
        "posterior": 4,
    }
    return cfg


# one 10-target phantom's share of the default study's zone mix, by label:
# the quotas a test phantom of 10 targets is placed under
TEN_TARGET_QUOTAS = {APEX: 6, BASE: 4, LEFT: 4, CENTER: 3, RIGHT: 3, ANTERIOR: 6, POSTERIOR: 4}


# quotas of the default 9-phantom, 10-target study that sum to 90 in every
# dimension, but whose left and center overflow a phantom's 10 targets:
# the even split gives phantom 0 six left and five center targets
UNSPLITTABLE_QUOTAS = {"apex": 50, "base": 40, "left": 46, "center": 44, "right": 0, "anterior": 52, "posterior": 38}


def segment_distance_oracle(p0, p1, q0, q1) -> float:
    """Minimum distance between segments ``[p0, p1]`` and ``[q0, q1]``, one pair on floats.

    The scalar clamped closest-point algorithm (Ericson, Real-Time Collision
    Detection, 5.1.9) that ``geometry.segment_segment_distance`` broadcasts,
    kept as its oracle; either segment may be degenerate (a point).
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    d1x = p1[0] - p0[0]
    d1y = p1[1] - p0[1]
    d1z = p1[2] - p0[2]
    d2x = q1[0] - q0[0]
    d2y = q1[1] - q0[1]
    d2z = q1[2] - q0[2]
    rx = p0[0] - q0[0]
    ry = p0[1] - q0[1]
    rz = p0[2] - q0[2]
    a = d1x * d1x + d1y * d1y + d1z * d1z
    e = d2x * d2x + d2y * d2y + d2z * d2z
    b = d1x * d2x + d1y * d2y + d1z * d2z
    c = d1x * rx + d1y * ry + d1z * rz
    f = d2x * rx + d2y * ry + d2z * rz

    if a <= 1e-30 and e <= 1e-30:
        return float((rx * rx + ry * ry + rz * rz) ** 0.5)
    if a <= 1e-30:
        s = 0.0
        t = min(1.0, max(0.0, f / e))
    elif e <= 1e-30:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    else:
        denom = a * e - b * b
        if denom > 1e-30:
            s = min(1.0, max(0.0, (b * f - c * e) / denom))
        else:
            s = 0.0
        t = (b * s + f) / e
        if t < 0.0:
            t = 0.0
            s = min(1.0, max(0.0, -c / a))
        elif t > 1.0:
            t = 1.0
            s = min(1.0, max(0.0, (b - c) / a))

    cx = p0[0] + s * d1x - (q0[0] + t * d2x)
    cy = p0[1] + s * d1y - (q0[1] + t * d2y)
    cz = p0[2] + s * d1z - (q0[2] + t * d2z)
    return float((cx * cx + cy * cy + cz * cz) ** 0.5)


def segment_distance_pairs(p0, p1, q0, q1) -> np.ndarray:
    """The distances (n, m) of ``geometry.segment_segment_distance``, on (n, m, 3) pair arrays.

    The same formula with each dot product an ``np.sum`` over the 3-wide
    axis, as the kernel computed it before it moved to component planes;
    kept as the reference for the kernel's bits.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    d1 = (np.asarray(p1, dtype=np.float64) - p0)[:, None, :]
    d2 = (np.asarray(q1, dtype=np.float64) - q0)[None, :, :]
    r = p0[:, None, :] - q0[None, :, :]
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
    a = np.where(a > 1e-30, a, 1.0)
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)
    diff = (p0[:, None, :] + s[..., None] * d1) - (q0[None, :, :] + t[..., None] * d2)
    return np.sqrt(np.sum(diff * diff, axis=2))


def candidate_entries_oracle(target, region, geom):
    """One target's grid candidates, (entries (n,2), angles (n,)), as a scalar loop over the (dy, dx) grid."""
    tx, ty, tz = (float(v) for v in target)
    dz = tz - geom.front_plane_z
    step = planning.ENTRY_GRID_STEP
    steps = int(math.floor(math.tan(math.radians(geom.max_angulation)) * dz / step))
    entries, angles = [], []
    for j in range(-steps, steps + 1):
        ey = ty + j * step
        for i in range(-steps, steps + 1):
            ex = tx + i * step
            ang = math.degrees(math.atan2(math.hypot(ex - tx, ey - ty), dz))
            scale = geom.stage_separation / dz
            bx, by = ex - (tx - ex) * scale, ey - (ty - ey) * scale
            if (region.contains(ex, ey) and ang <= geom.max_angulation + 1e-12
                    and max(abs(ex), abs(ey), abs(bx), abs(by)) <= geom.stage_travel):
                entries.append((ex, ey))
                angles.append(ang)
    return np.array(entries, dtype=np.float64).reshape(-1, 2), np.array(angles, dtype=np.float64)


def replan_angled_oracle(arch, target, region, geom, needle_radius=planning.DEFAULT_NEEDLE_RADIUS):
    """One target's angled plan, checking every candidate: the planner's search on a single target.

    The clearance of every candidate comes from ``planning.clearance_grid``,
    and the winner has the lowest clear angulation bin, then the largest
    clearance, then the first grid position.  Raises NoFeasiblePath with the
    best clearance of all candidates, or -inf when there are none.
    """
    target = np.asarray(target, dtype=np.float64)
    entries, angles = candidate_entries_oracle(target, region, geom)
    if entries.shape[0] == 0:
        raise planning.NoFeasiblePath(-math.inf, target)
    # +inf against an arch of no capsules
    clearances = planning.clearance_grid(
        entries, geom.front_plane_z, np.broadcast_to(target, (entries.shape[0], 3)),
        planning.DEPTH_MARGIN, arch.a, arch.b, arch.radius, needle_radius,
    )
    clear = np.flatnonzero(clearances > 0.0)
    if not clear.size:
        raise planning.NoFeasiblePath(float(np.max(clearances)), target)
    bins = np.round(angles[clear] / planning.ANGLE_BIN_DEG).astype(np.int64)
    idx = clear[np.lexsort((clear, -clearances[clear], bins))[0]]
    entry3 = np.array([entries[idx, 0], entries[idx, 1], geom.front_plane_z])
    rel = target - entry3
    depth = float(np.linalg.norm(rel))
    approach = "Angled" if angles[idx] > planning.ANGLE_BIN_DEG else "Horizontal"
    return Trajectory(entry3, rel / depth, depth, approach)


def gland_transform_oracle(phantom, motion, entry, dir, tip_depth, pass_depth, motion_noise, entry_depth):
    """The gland transform of one needle line, evaluated whole on that line alone.

    The per-line formula that ``phantom.gland_levers`` and
    ``phantom.prostate_transform`` split into a motion-free and a motion
    half, and the loops into a side of the entry depth and the transform
    of that side, kept as their oracle: the tip at ``tip_depth`` after a
    first pass to ``pass_depth`` along the unit direction ``dir``, taken as
    given, and ``entry_depth`` the line's gland entry depth along it (NaN:
    the line misses).  ``phantom`` is one row's values of
    ``phantom.Phantoms``.
    """
    entry = np.asarray(entry, dtype=np.float64)
    d = np.asarray(dir, dtype=np.float64)
    if not tip_depth > entry_depth:
        return geometry.identity()
    pen = max(0.0, pass_depth - entry_depth)

    drag = motion.axial_base_offset + motion.axial_gain * pen

    rel = -entry  # the gland centroid, the origin, relative to the entry
    along = float(rel @ d)
    offset_vec = rel - along * d
    lateral = float(np.linalg.norm(offset_vec))
    if lateral > 1e-12 and motion.rotation_gain > 0.0:
        d0, d1, d2 = d.tolist()
        u0, u1, u2 = (offset_vec / lateral).tolist()
        axis = (d1 * u2 - d2 * u1, d2 * u0 - d0 * u2, d0 * u1 - d1 * u0)
        angle = motion.rotation_gain * lateral * pen
        rot = geometry.rotation_about_axis(axis, angle, phantom.pivot)
    else:
        rot = geometry.identity()

    return geometry.compose(geometry.translation(drag * d + motion_noise), rot)


def gland_transform_at(levers, k, motion, tip_depth, motion_noise):
    """The gland transform of line k of ``levers`` with its tip at ``tip_depth``, as the loops pick it.

    ``phantom.prostate_transform`` where the tip is past the line's gland
    entry depth, the gland at rest (the identity) where it is not.
    """
    if tip_depth > levers.entry_depth[k]:
        return geometry.RigidTransform(*prostate_transform(levers, k, motion, motion_noise))
    return geometry.identity()


def open_loop_oracle(phantom, motion, plans, k, first):
    """Row k's open-loop score, made alone: (axial motion, error, residual motion).

    The per-slot formulas that ``controller.open_loop_records`` stacks over
    a block, kept as its oracle: the observed target moved by the gland
    transform of the first pass ``first``, its depth along the needle line past
    the pass depth, the rest-frame miss of the bead left at the pass depth
    (a left-zone bead of a phantom with a left bias deflected along -x),
    and the target's displacement beyond the modeled drag.  ``phantom`` is
    the slot's phantom, one row's values of ``phantom.Phantoms``.
    """
    entry, d, depth = plans.entry[k], plans.dir[k], float(plans.depth[k])
    # a bead left short of the gland is left in it at rest
    moved_gland = geometry.RigidTransform(first.rotation, first.translation)
    t = moved_gland if depth > plans.levers.entry_depth[k] else geometry.identity()
    moved = geometry.apply(t, plans.target_obs[k])
    axial = float((moved - entry) @ d) - depth
    bead = entry + depth * d
    if phantom.left_bias != 0.0 and plans.zone_lateral[k] == LEFT:
        bead[0] -= phantom.left_bias
    error = float(np.linalg.norm(geometry.apply(geometry.inverse(t), bead) - plans.target_rest[k]))
    pen = float(plans.levers.penetration[k])
    drag = motion.axial_base_offset + motion.axial_gain * pen if pen > 0.0 else 0.0
    return axial, error, moved - plans.target_obs[k] - drag * d


def records_csv_oracle(records) -> str:
    """The records CSV of ``records``, written a row at a time.

    The row-wise writer that ``study.rows_to_csv`` replaced, kept as its
    oracle: the header, then one line per row holding the row's value of
    each of ``study.CSV_COLUMNS`` in order (the motion columns are the
    axes of ``motion_mm``), a float as its ``repr`` and any other value as
    its ``str``.
    """
    axes = {"motion_x_mm": 0, "motion_y_mm": 1, "motion_z_mm": 2}
    lines = [",".join(study.CSV_COLUMNS)]
    for k in range(len(records)):
        values = [
            records.motion_mm[k, axes[name]] if name in axes else getattr(records, name)[k]
            for name in study.CSV_COLUMNS
        ]
        lines.append(",".join(repr(float(v)) if isinstance(v, np.floating) else str(v) for v in values))
    return "\n".join(lines) + "\n"
