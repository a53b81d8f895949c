"""Synthetic deformable prostate phantom.

The gland is an ellipsoid centered at the origin of the working frame
(+z insertion direction, +x patient left, +y anterior).  Targets are
sampled inside it under zone quotas, in chunks of candidates tested as
masks; a parametric motion model displaces the gland while a needle is
inserted: axial drag along the needle, a rotation about a fixed
anterior-apical pivot driven by the needle's lateral offset, and a
frozen per-insertion random translation.

Phantoms are the columns of one ``Phantoms``, a row per phantom (gland,
pivot, left bias, fiducials, targets and their zones), and hold no motion
parameters.  The gland transform of one needle line splits in two: its
lever (direction, entry depth, penetration, lateral offset and rotation
axis) reads no motion parameter and is made for a block of lines at once
by ``gland_levers``, as the columns of one ``GlandLevers``;
``prostate_transform`` takes a row of those columns and the motion
parameters and evaluates only the motion terms, the transform of a tip
past the gland entry depth.  Short of it the gland is at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, rng

APEX = "Apex"
BASE = "Base"
LEFT = "Left"
CENTER = "Center"
RIGHT = "Right"
ANTERIOR = "Anterior"
POSTERIOR = "Posterior"
HORIZONTAL = "Horizontal"
ANGLED = "Angled"

# Fraction of each semiaxis within which targets are placed, keeping beads
# off the gland surface.
DEFAULT_TARGET_MARGIN = 0.92

_PLACEMENT_ATTEMPTS = 20000
# placement candidates drawn at once
_PLACEMENT_CHUNK = 256

# registration fiducials sit on a shrunken copy of the gland surface
_FIDUCIAL_SCALE = 0.85


def _icosahedron_directions() -> np.ndarray:
    phi = (1.0 + 5.0**0.5) / 2.0
    raw = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            raw.append((0.0, s1, s2 * phi))
            raw.append((s1, s2 * phi, 0.0))
            raw.append((s1 * phi, 0.0, s2))
    dirs = np.array(raw, dtype=np.float64)
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


_FIDUCIAL_DIRS = _icosahedron_directions()


@dataclass
class MotionParams:
    """Parameters of the gland motion model.

    axial_gain is mm of extra drag per mm of first-pass penetration beyond
    the gland entry point; rotation_gain is degrees per (mm lateral offset
    x mm penetration).  noise_sd_motion perturbs the translation once per
    insertion.
    """

    axial_gain: float = 0.118
    axial_base_offset: float = 2.45
    rotation_gain: float = 0.016
    noise_sd_motion: float = 1.85
    rng_seed: int = 0

    def drag(self, pen):
        """Modeled axial drag, in mm, for each first-pass penetration of ``pen``."""
        return np.where(pen <= 0.0, 0.0, self.axial_base_offset + self.axial_gain * pen)

    def validate(self):
        for name in ("axial_gain", "axial_base_offset", "rotation_gain", "noise_sd_motion"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class PhantomSpec:
    n_targets: int = 10
    gland_semiaxes: tuple[float, float, float] = (25.0, 20.0, 22.0)
    zone_quotas: dict[str, int] | None = None
    min_spacing: float = 4.0
    margin: float = DEFAULT_TARGET_MARGIN
    pivot: tuple[float, float, float] = (0.0, 16.0, -14.0)
    left_bias: float = 0.0
    index: int = 0


@dataclass(eq=False)
class Phantoms(geometry.Columns):
    """Phantoms as columns: row p is phantom p.

    A row holds the gland's semiaxes, the pivot of its rotation, the left
    bias that deflects its left-zone beads, its (N, 3) registration
    fiducials, and its targets in id order: their (T, 3) rest positions and
    (T,) zone labels.  ``generate_phantom`` makes one row; a study's
    phantoms are their ``concat``, and a slot reads its phantom's row.
    ``glands`` gives the same phantoms with no target or zone column.
    """

    gland_semiaxes: np.ndarray  # (P, 3)
    pivot: np.ndarray  # (P, 3)
    left_bias: np.ndarray  # (P,)
    fiducial_points: np.ndarray  # (P, N, 3)
    target_rest: np.ndarray | None  # (P, T, 3)
    zone_depth: np.ndarray | None  # (P, T) str
    zone_lateral: np.ndarray | None
    zone_ap: np.ndarray | None

    def glands(self) -> Phantoms:
        """These phantoms without their targets, whose ``rows`` copy only the
        gland, bias and fiducial columns the sensing and gland kernels read."""
        return replace(self, target_rest=None, zone_depth=None, zone_lateral=None, zone_ap=None)


def default_quotas(n_targets: int) -> dict[str, int]:
    """Zone quotas for one phantom, split near-evenly (largest remainder)."""
    quotas = {}
    for labels, fracs in (
        ((APEX, BASE), (5 / 9, 4 / 9)),
        ((LEFT, CENTER, RIGHT), (32 / 90, 28 / 90, 30 / 90)),
        ((ANTERIOR, POSTERIOR), (52 / 90, 38 / 90)),
    ):
        quotas.update(dict(zip(labels, largest_remainder(n_targets, fracs))))
    return quotas


def largest_remainder(total: int, fractions) -> list[int]:
    """Integer split of ``total`` proportional to ``fractions``."""
    raw = [total * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    short = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in order[:short]:
        counts[i] += 1
    return counts


def phantom_quota_split(zone_quotas: dict[str, int], n_phantoms: int, per: int) -> list[dict[str, int]]:
    """Per-phantom zone quotas from the study-level ``zone_quotas`` (a config's lower-case keys).

    Each label's study count is spread across the ``n_phantoms`` phantoms
    by largest remainder; the last label of each dimension absorbs the
    rest so each dimension sums to ``per`` targets on every phantom.
    Raises ValueError when that leaves a phantom a negative count.
    """
    even = [1.0 / n_phantoms] * n_phantoms
    split = {key: largest_remainder(zone_quotas[key], even) for key in ("apex", "left", "center", "anterior")}
    out = []
    for i in range(n_phantoms):
        apex, left, center, anterior = (split[key][i] for key in ("apex", "left", "center", "anterior"))
        quotas = {APEX: apex, BASE: per - apex, LEFT: left, CENTER: center, RIGHT: per - left - center,
                  ANTERIOR: anterior, POSTERIOR: per - anterior}
        bad = [k for k, v in quotas.items() if v < 0]
        if bad:
            raise ValueError(f"zone quotas leave phantom {i} with negative {bad[0]} count")
        out.append(quotas)
    return out


def _zone_mask(p: np.ndarray, a: float, labels: tuple[str, str, str]) -> np.ndarray:
    """Which candidates of ``p`` (M, 3) lie in the zone of ``labels``."""
    depth, lat, ap = labels
    x, y, z = p.T
    third = a / 3.0
    ok = np.ones(len(p), dtype=bool)
    if depth == APEX:
        ok &= z < 0
    elif depth == BASE:
        ok &= z > 0
    if lat == LEFT:
        ok &= x > third
    elif lat == RIGHT:
        ok &= x < -third
    elif lat == CENTER:
        ok &= np.abs(x) <= third
    if ap == ANTERIOR:
        ok &= y > 0
    elif ap == POSTERIOR:
        ok &= y < 0
    return ok


def generate_phantom(spec: PhantomSpec, seed: int) -> Phantoms:
    """Deterministically sample a phantom from ``spec``: one row of ``Phantoms``.

    Targets are rejection-sampled inside the margin-scaled gland so each
    zone-label combination and the minimum pairwise spacing are honored.
    Raises ValueError naming the failed constraint when placement is
    impossible within the attempt budget.
    """
    if not 1 <= spec.n_targets <= 64:
        raise ValueError(f"n_targets must be in [1, 64], got {spec.n_targets}")
    a, b, c = spec.gland_semiaxes
    if min(a, b, c) <= 0:
        raise ValueError("gland semiaxes must be positive")

    quotas = spec.zone_quotas if spec.zone_quotas is not None else default_quotas(spec.n_targets)
    for group in ((APEX, BASE), (LEFT, CENTER, RIGHT), (ANTERIOR, POSTERIOR)):
        got = sum(quotas.get(k, 0) for k in group)
        if got != spec.n_targets:
            raise ValueError(
                f"zone quotas {'/'.join(group)} sum to {got}, expected {spec.n_targets}"
            )

    stream = rng.substream(seed, rng.PHANTOM_BUILD, phantom=spec.index)
    depth_seq = _shuffled_labels(stream, [(APEX, quotas[APEX]), (BASE, quotas[BASE])])
    lat_seq = _shuffled_labels(
        stream, [(LEFT, quotas[LEFT]), (CENTER, quotas[CENTER]), (RIGHT, quotas[RIGHT])]
    )
    ap_seq = _shuffled_labels(
        stream, [(ANTERIOR, quotas[ANTERIOR]), (POSTERIOR, quotas[POSTERIOR])]
    )

    semi = np.array([a, b, c]) * spec.margin
    placed = np.empty((spec.n_targets, 3))
    # the candidates, drawn a chunk at a time in the order of one draw per
    # attempt, and which of them lie inside the gland; what one target
    # leaves over are the next one's first attempts
    cands, inside = np.empty((0, 3)), np.empty(0, dtype=bool)
    for i in range(spec.n_targets):
        labels = (depth_seq[i], lat_seq[i], ap_seq[i])
        pos = None
        tried = 0
        while pos is None and tried < _PLACEMENT_ATTEMPTS:
            if not len(cands):
                cands = stream.uniform(-1.0, 1.0, (_PLACEMENT_CHUNK, 3)) * semi
                inside = ~(np.sum((cands / semi) ** 2, axis=1) > 1.0)
            used = min(len(cands), _PLACEMENT_ATTEMPTS - tried)
            # only the candidates in the gland and the zone meet the spacing check, in order
            for j in np.flatnonzero(inside[:used] & _zone_mask(cands[:used], a, labels)).tolist():
                cand = cands[j]
                # its distance to every placed target, each with the bits of np.linalg.norm
                gap = cand - placed[:i]
                if i and np.sqrt(geometry.row_dot(gap, gap)).min() < spec.min_spacing:
                    continue
                # a copy: the chunk is let go once placement ends
                pos, used = cand.copy(), j + 1
                break
            cands, inside = cands[used:], inside[used:]
            tried += used
        if pos is None:
            raise ValueError(
                f"could not place target {i} in zone {labels} with min spacing "
                f"{spec.min_spacing} mm after {_PLACEMENT_ATTEMPTS} attempts"
            )
        placed[i] = pos

    return Phantoms(
        np.array([[a, b, c]], dtype=np.float64), np.array([spec.pivot], dtype=np.float64),
        np.array([spec.left_bias], dtype=np.float64),
        (_FIDUCIAL_DIRS * (np.array([a, b, c]) * _FIDUCIAL_SCALE))[None], placed[None],
        *(np.array([seq]) for seq in (depth_seq, lat_seq, ap_seq)),
    )


def _shuffled_labels(stream, counts) -> list[str]:
    seq = []
    for label, n in counts:
        seq.extend([label] * n)
    idx = stream.permutation(len(seq))
    return [seq[i] for i in idx]


def gland_entry_depth(phantoms: Phantoms, entries, dirs) -> np.ndarray:
    """Depth along each needle line where it first meets its gland's surface.

    Line k runs from ``entries[k]`` along ``dirs[k]`` into the phantom of
    row k of ``phantoms``.
    Returns (K,) depths, 0 for an entry on or inside the surface and NaN
    where the line misses the gland or the gland lies behind the entry.
    Each row has the bits of solving its quadratic alone on Python floats.
    """
    semi = phantoms.gland_semiaxes
    # the gland centroid is the frame's origin
    w = np.asarray(entries, dtype=np.float64) / semi
    v = np.asarray(dirs, dtype=np.float64) / semi
    aa, bb = geometry.row_dot(v, v), geometry.row_dot(w, v)
    disc = bb * bb - aa * (geometry.row_dot(w, w) - 1.0)
    # Python's float power, not numpy's sqrt: the two differ in the last ulp
    root = np.array([x**0.5 if x >= 0.0 else np.nan for x in disc.tolist()])
    t0 = (-bb - root) / aa
    t1 = (-bb + root) / aa
    return np.where(t1 >= 0.0, np.where(t0 >= 0.0, t0, 0.0), np.nan)


def penetration(entry_depth, pass_depth) -> np.ndarray:
    """First-pass penetration beyond each gland entry depth (0 where it is NaN)."""
    pen = pass_depth - entry_depth
    return np.where(pen > 0.0, pen, 0.0)


@dataclass(eq=False)
class GlandLevers(geometry.Columns):
    """The motion-free part of the gland transform of a block of needle lines and first passes: row k is line k.

    Everything ``prostate_transform`` reads that no motion parameter
    changes: the unit direction ``dir`` of the line, its gland entry depth
    along it (NaN: the line misses the gland), the first pass's
    penetration beyond that depth, the lateral offset of the gland
    centroid from the line, the phantom's pivot, and the cross-product
    matrix ``kx`` of the unit rotation axis (perpendicular to the plane of
    the needle and the centroid offset) with its square ``kx2``; both are
    zero when the centroid lies on the line, which rotates nothing.
    """

    dir: np.ndarray  # (K, 3)
    entry_depth: np.ndarray  # (K,)
    penetration: np.ndarray
    lateral: np.ndarray
    pivot: np.ndarray  # (K, 3)
    kx: np.ndarray  # (K, 3, 3)
    kx2: np.ndarray


def gland_levers(phantoms: Phantoms, entries, dirs, entry_depths, pass_depths) -> GlandLevers:
    """The levers of a block of needle lines, computed in arrays over the block.

    Line k enters the phantom of row k of ``phantoms`` at ``entries[k]`` along the unit
    direction ``dirs[k]``, meets its gland at ``entry_depths[k]`` along it
    (``gland_entry_depth``) and is first inserted to ``pass_depths[k]``.
    Each row has the bits the per-line formula gives alone: the stacked
    dot products, norms and matrix products keep those of one line's.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    entry_depths = np.asarray(entry_depths, dtype=np.float64)
    pens = penetration(entry_depths, np.asarray(pass_depths, dtype=np.float64))
    rel = -np.asarray(entries, dtype=np.float64)  # the gland centroid, the origin, relative to each entry
    offset = rel - geometry.row_dot(rel, dirs)[:, None] * dirs
    lateral = np.sqrt(geometry.row_dot(offset, offset))
    kx = np.zeros((len(dirs), 3, 3))
    turns = np.flatnonzero(lateral > 1e-12)
    # the unit axis d x (offset / lateral), the float cross product as columns
    d0, d1, d2 = dirs[turns].T
    u0, u1, u2 = (offset[turns] / lateral[turns, None]).T
    axes = np.stack([d1 * u2 - d2 * u1, d2 * u0 - d0 * u2, d0 * u1 - d1 * u0], axis=1)
    k0, k1, k2 = geometry.normalize(axes).T
    kx[turns, 0, 1], kx[turns, 0, 2] = -k2, k1
    kx[turns, 1, 0], kx[turns, 1, 2] = k2, -k0
    kx[turns, 2, 0], kx[turns, 2, 1] = -k1, k0
    return GlandLevers(dirs, entry_depths, pens, lateral, phantoms.pivot, kx, kx @ kx)


def prostate_transform(levers: GlandLevers, k: int, motion: MotionParams, motion_noise) -> geometry.RigidTransform:
    """Rigid displacement of the gland of line k under ``motion`` once its needle tip is in it.

    Row k of ``levers`` gives the needle line's motion-free terms; the
    motion parameters come from the study, so one lever serves any motion
    model.  The transform is a translation of ``axial_base_offset +
    axial_gain * penetration`` along the needle direction, a rotation of
    ``rotation_gain * lateral_offset * penetration`` degrees about the
    pivot, and the translation ``motion_noise``: the insertion's (3,) draw
    of sd ``noise_sd_motion``, made once per insertion so that every
    evaluation during it sees the same noise.  The penetration is the
    first pass's, so a tip past the gland entry depth sees this transform
    wherever it is, and a tip short of it (or on a line that misses the
    gland) the gland at rest; the caller picks by the tip's side.  The
    scalars are Python floats, the identity the shared ``geometry.IDENTITY``
    and the sums in place: the bits of the same formula in arrays.
    """
    pen = float(levers.penetration[k])
    drag = motion.axial_base_offset + motion.axial_gain * pen
    shift = drag * levers.dir[k] + motion_noise
    if not motion.rotation_gain > 0.0:
        return geometry.RigidTransform(geometry.IDENTITY, shift)
    # Rodrigues' formula about the pivot (geometry.rotation_about_axis), then
    # the shift; a zero axis matrix leaves the identity, bit for bit
    theta = math.radians(motion.rotation_gain * float(levers.lateral[k]) * pen)
    rot = np.sin(theta) * levers.kx[k]
    rot += geometry.IDENTITY  # I + s kx, as + commutes
    rot += (1.0 - np.cos(theta)) * levers.kx2[k]
    pivot = levers.pivot[k]
    return geometry.RigidTransform(rot, pivot - rot @ pivot + shift)


def world_to_material(rotations: np.ndarray, translations: np.ndarray, points_world: np.ndarray):
    """Rest-frame positions (K, 3) of world points under the inverses of K gland transforms.

    The stacked matrix-vector products keep the bits of
    ``geometry.apply(geometry.inverse(t), p)`` per row.
    """
    rot_t = rotations.transpose(0, 2, 1)
    # x - y has the bits of x + (-y), the form of apply(inverse(t), p)
    return (rot_t @ points_world[:, :, None] - rot_t @ translations[:, :, None])[:, :, 0]
