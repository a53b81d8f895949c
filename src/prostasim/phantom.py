"""Synthetic deformable prostate phantom.

The gland is an ellipsoid centered at the origin of the working frame
(+z insertion direction, +x patient left, +y anterior).  Targets are
sampled inside it under zone quotas, in chunks of candidates tested as
masks; a parametric motion model displaces the gland while a needle is
inserted: axial drag along the needle, a rotation about a fixed
anterior-apical pivot driven by the needle's lateral offset, and a
frozen per-insertion random translation.

One zone table, ``ZONE_GROUPS``, names each dimension's labels in draw
order; the config's quota keys, the study's quota split, target
placement and the summary's strata all read it.  A study spreads each
label's count over its phantoms by integer division, the remainder going
one each to the first phantoms, and a dimension's last label takes what
its other labels leave of a phantom's targets.

A study's phantoms share one gland, the config's ``phantom`` section, a
``PhantomConfig``: its semiaxes, the pivot of its rotation, the left bias
of its left-zone beads and its registration fiducials
(``PhantomConfig.fiducial_points``).  The gland kernels read it as it is,
one value for every row of a block.  ``generate_phantom`` samples a
phantom's targets in it; phantoms are the columns of one ``Phantoms``, a
row per phantom holding only its targets and their zones, and hold no
motion parameters.  The gland transform of one needle line splits in
two: its lever (direction, entry depth, penetration, lateral offset and
rotation axis) reads no motion parameter and is made for a block of lines
at once by ``gland_levers``, as the columns of one ``GlandLevers``;
``prostate_transform`` takes a row of those columns and the motion
parameters, of one motion or of a stack of them (``MotionParams.stack``),
and evaluates only the motion terms, the rotation and translation of a
tip past the gland entry depth.  Short of it the gland is at rest.
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

# the zone table: each dimension's labels, in the order a phantom draws
# them; a label's quota key is its lower case
ZONE_GROUPS = {"depth": (APEX, BASE), "lateral": (LEFT, CENTER, RIGHT), "ap": (ANTERIOR, POSTERIOR)}

# zone counts for the default 9x10 study, keyed by lower-case label; the
# three groups each sum to 90, and their shares are every phantom's default mix
DEFAULT_ZONE_QUOTAS = {
    "apex": 50,
    "base": 40,
    "left": 32,
    "center": 28,
    "right": 30,
    "anterior": 52,
    "posterior": 38,
}

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


# the motion model's parameters, all but its noise stream's seed
_MODEL_TERMS = ("axial_gain", "axial_base_offset", "rotation_gain", "noise_sd_motion")


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

    @staticmethod
    def stack(motions: list[MotionParams]) -> MotionParams:
        """The motions as one: the motion itself if there is one, else each of
        the four model parameters as a (P,) array, row p of ``motions[p]``,
        and the first motion's ``rng_seed``."""
        if len(motions) == 1:
            return motions[0]
        return replace(motions[0], **{name: np.array([getattr(m, name) for m in motions]) for name in _MODEL_TERMS})

    def validate(self):
        for name in _MODEL_TERMS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class PhantomConfig:
    """A phantom's parameters, the config's ``phantom`` section.

    Targets keep ``min_target_spacing`` mm apart inside the gland scaled by
    ``target_margin``; left-zone beads deflect by ``left_bias_mm`` only if
    ``left_bias_enabled``.  ``perineum_peak_force_n`` is only reported.
    """

    gland_semiaxes: tuple[float, float, float] = (25.0, 20.0, 22.0)
    min_target_spacing: float = 4.0
    target_margin: float = 0.92
    pivot: tuple[float, float, float] = (0.0, 16.0, -14.0)
    left_bias_mm: float = 1.5
    left_bias_enabled: bool = False
    perineum_peak_force_n: float = 1.8

    @property
    def fiducial_points(self) -> np.ndarray:
        """The gland's (N, 3) registration fiducials, on its surface shrunk by ``_FIDUCIAL_SCALE``."""
        return _FIDUCIAL_DIRS * (np.array(self.gland_semiaxes) * _FIDUCIAL_SCALE)


@dataclass(eq=False)
class Phantoms(geometry.Columns):
    """A study's phantoms as columns: row p is phantom p.

    A row holds the phantom's targets in id order: their (T, 3) rest
    positions and (T,) zone labels.  Every phantom of a study has the one
    gland of its ``PhantomConfig``, which no row repeats.
    ``generate_phantom`` makes one row; a study's phantoms are their
    ``concat``, and a slot reads its phantom's row.
    """

    target_rest: np.ndarray  # (P, T, 3)
    zone_depth: np.ndarray  # (P, T) str
    zone_lateral: np.ndarray
    zone_ap: np.ndarray


def phantom_quota_split(zone_quotas: dict[str, int], n_phantoms: int, per: int) -> list[dict[str, int]]:
    """Per-phantom zone quotas from the study-level ``zone_quotas`` (a config's lower-case keys).

    Each label but a dimension's last spreads its study count evenly
    across the ``n_phantoms`` phantoms, ``divmod(count, n_phantoms)``: a
    share each, and one more for each of the first ``extra`` phantoms.  The
    dimension's last label takes the rest, so each dimension sums to
    ``per`` targets on every phantom.  Raises ValueError when that leaves
    a phantom a negative count.
    """
    shares = {label: divmod(zone_quotas[label.lower()], n_phantoms)
              for labels in ZONE_GROUPS.values() for label in labels[:-1]}
    out = []
    for i in range(n_phantoms):
        quotas = {}
        for *labels, last in ZONE_GROUPS.values():
            for label in labels:
                share, extra = shares[label]
                quotas[label] = share + (i < extra)
            quotas[last] = per - sum(quotas[label] for label in labels)
        bad = [k for k, v in quotas.items() if v < 0]
        if bad:
            raise ValueError(f"zone quotas leave phantom {i} with negative {bad[0]} count")
        out.append(quotas)
    return out


# each zone label's test of candidate points (M, 3), given a third of the
# gland's lateral semiaxis
_IN_ZONE = {
    APEX: lambda p, third: p[:, 2] < 0,
    BASE: lambda p, third: p[:, 2] > 0,
    LEFT: lambda p, third: p[:, 0] > third,
    CENTER: lambda p, third: np.abs(p[:, 0]) <= third,
    RIGHT: lambda p, third: p[:, 0] < -third,
    ANTERIOR: lambda p, third: p[:, 1] > 0,
    POSTERIOR: lambda p, third: p[:, 1] < 0,
}


def _zone_mask(p: np.ndarray, a: float, labels: tuple[str, str, str]) -> np.ndarray:
    """Which candidates of ``p`` (M, 3) lie in the zone of ``labels``, in a gland of lateral semiaxis ``a``."""
    depth, lat, ap = (_IN_ZONE[label](p, a / 3.0) for label in labels)
    return depth & lat & ap


def generate_phantom(phantom: PhantomConfig, n_targets: int, seed: int, zone_quotas: dict[str, int],
                     index: int = 0) -> Phantoms:
    """Deterministically sample phantom ``index`` of ``phantom``'s shape: one row of ``Phantoms``.

    Its ``n_targets`` targets fill ``zone_quotas`` (by label) and are
    rejection-sampled inside the margin-scaled gland so each zone-label
    combination and the minimum pairwise spacing are honored.  Raises ValueError naming the failed constraint when
    placement is impossible within the attempt budget.
    """
    if not 1 <= n_targets <= 64:
        raise ValueError(f"n_targets must be in [1, 64], got {n_targets}")
    a, b, c = phantom.gland_semiaxes
    if min(a, b, c) <= 0:
        raise ValueError("gland semiaxes must be positive")

    for group in ZONE_GROUPS.values():
        got = sum(zone_quotas.get(k, 0) for k in group)
        if got != n_targets:
            raise ValueError(f"zone quotas {'/'.join(group)} sum to {got}, expected {n_targets}")

    stream = rng.substream(seed, rng.PHANTOM_BUILD, phantom=index)
    depth_seq, lat_seq, ap_seq = (
        _shuffled_labels(stream, [(label, zone_quotas[label]) for label in group]) for group in ZONE_GROUPS.values()
    )

    semi = np.array([a, b, c]) * phantom.target_margin
    placed = np.empty((n_targets, 3))
    # the candidates, drawn a chunk at a time in the order of one draw per
    # attempt, and which of them lie inside the gland; what one target
    # leaves over are the next one's first attempts
    cands, inside = np.empty((0, 3)), np.empty(0, dtype=bool)
    for i in range(n_targets):
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
                # its distance to every placed target, each the square root of a row_dot
                gap = cand - placed[:i]
                if i and np.sqrt(geometry.row_dot(gap, gap)).min() < phantom.min_target_spacing:
                    continue
                # a copy: the chunk is let go once placement ends
                pos, used = cand.copy(), j + 1
                break
            cands, inside = cands[used:], inside[used:]
            tried += used
        if pos is None:
            raise ValueError(
                f"could not place target {i} in zone {labels} with min spacing "
                f"{phantom.min_target_spacing} mm after {_PLACEMENT_ATTEMPTS} attempts"
            )
        placed[i] = pos

    return Phantoms(placed[None], *(np.array([seq]) for seq in (depth_seq, lat_seq, ap_seq)))


def _shuffled_labels(stream, counts) -> list[str]:
    seq = []
    for label, n in counts:
        seq.extend([label] * n)
    idx = stream.permutation(len(seq))
    return [seq[i] for i in idx]


def gland_entry_depth(gland: PhantomConfig, entries, dirs) -> np.ndarray:
    """Depth along each needle line where it first meets the surface of ``gland``.

    Line k runs from ``entries[k]`` along ``dirs[k]``.
    Returns (K,) depths, 0 for an entry on or inside the surface and NaN
    where the line misses the gland or the gland lies behind the entry.
    Each row has the bits of solving its quadratic alone on Python floats.
    """
    semi = np.array(gland.gland_semiaxes, dtype=np.float64)
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
    centroid from the line, and the Rodrigues levers of the rotation about
    the gland's pivot (``geometry.rodrigues_levers``): the cross-product
    matrix ``kx`` of the unit rotation axis (perpendicular to the plane of
    the needle and the centroid offset) and its square ``kx2``, each with
    minus its product with the pivot as a fourth column.  Both are zero
    when the centroid lies on the line, which rotates nothing.
    """

    dir: np.ndarray  # (K, 3)
    entry_depth: np.ndarray  # (K,)
    penetration: np.ndarray
    lateral: np.ndarray
    kx: np.ndarray  # (K, 3, 4)
    kx2: np.ndarray


def gland_levers(gland: PhantomConfig, entries, dirs, pass_depths) -> GlandLevers:
    """The levers of a block of needle lines into ``gland``, computed in arrays over the block.

    Line k enters at ``entries[k]`` along the unit direction ``dirs[k]``,
    taken as given, meets the gland along it (``gland_entry_depth``) and is
    first inserted to ``pass_depths[k]``.
    Each row has the bits the per-line formula gives alone: the dot
    products, norms and matrix products are ``geometry``'s component
    arithmetic, on a stack as on one line.
    """
    entries = np.asarray(entries, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    entry_depths = gland_entry_depth(gland, entries, dirs)
    pens = penetration(entry_depths, np.asarray(pass_depths, dtype=np.float64))
    rel = -entries  # the gland centroid, the origin, relative to each entry
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
    return GlandLevers(dirs, entry_depths, pens, lateral, *geometry.rodrigues_levers(kx, np.array(gland.pivot)))


def prostate_transform(levers: GlandLevers, k: int, motion: MotionParams, motion_noise):
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
    gland) the gland at rest; the caller picks by the tip's side.

    ``motion`` is one motion or a stack of P (``MotionParams.stack``),
    with ``motion_noise`` (P, 3).  Returns the rotation (3, 3) and the
    translation (3,), or for a stack (P, 3, 3) and (P, 3), row p that of
    ``motion``'s row p.  A motion's terms are Python floats, a stack's
    (P,) arrays given trailing axes, and the sums are in place: every
    element has the bits of one motion's call.
    """
    pen = float(levers.penetration[k])
    drag = motion.axial_base_offset + motion.axial_gain * pen
    # x * (pi / 180) is math.radians(x), bit for bit, on floats and arrays alike
    theta = motion.rotation_gain * float(levers.lateral[k]) * pen * (math.pi / 180.0)
    sin, cos1 = np.sin(theta), 1.0 - np.cos(theta)
    if isinstance(drag, np.ndarray):
        drag, sin, cos1 = drag[:, None], sin[:, None, None], cos1[:, None, None]
    # Rodrigues' formula about the pivot (geometry.rotation_about_axis), then
    # the shift; a zero angle or axis matrix leaves the identity, bit for bit
    aff = geometry.rodrigues(sin, cos1, levers.kx[k], levers.kx2[k])
    return aff[..., :3], aff[..., 3] + (drag * levers.dir[k] + motion_noise)


def world_to_material(rotations: np.ndarray, translations: np.ndarray, points_world: np.ndarray):
    """Rest-frame positions (K, 3) of world points under the inverses of K gland transforms.

    Each row has the bits of ``geometry.apply(geometry.inverse(t), p)``.
    """
    rot_t = rotations.transpose(0, 2, 1)
    # x - y has the bits of x + (-y), the form of apply(inverse(t), p)
    return geometry.matvec(rot_t, points_world) - geometry.matvec(rot_t, translations)
