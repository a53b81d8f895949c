"""Synthetic deformable prostate phantom.

The gland is an ellipsoid centered at the origin of the working frame
(+z insertion direction, +x patient left, +y anterior).  Targets are
sampled inside it under zone quotas; a parametric motion model displaces
the gland while a needle is inserted: axial drag along the needle, a
rotation about a fixed anterior-apical pivot driven by the needle's
lateral offset, and a frozen per-insertion random translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
class ZoneLabels:
    depth_zone: str
    lateral_zone: str
    ap_zone: str
    approach: str | None = None


@dataclass
class Target:
    id: int
    position_rest: np.ndarray
    zone: ZoneLabels

    def __post_init__(self):
        self.position_rest = np.asarray(self.position_rest, dtype=np.float64).reshape(3)


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

    def validate(self):
        for name in ("axial_gain", "axial_base_offset", "rotation_gain", "noise_sd_motion"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class NeedleState:
    """Pose of the needle: entry point, unit direction, tip depth along dir.

    ``pass_depth`` is the depth reached on the initial insertion pass; depth
    corrections move the tip but the tissue keeps reacting to the initial
    pass, so the motion model reads penetration from ``pass_depth``.  It
    defaults to ``tip_depth`` (a single uncorrected pass).
    """

    entry: np.ndarray
    dir: np.ndarray
    tip_depth: float
    rotating: bool = False
    pass_depth: float | None = None

    def __post_init__(self):
        self.entry = np.asarray(self.entry, dtype=np.float64).reshape(3)
        self.dir = np.asarray(self.dir, dtype=np.float64).reshape(3)
        if self.tip_depth < 0:
            raise ValueError("tip_depth must be >= 0")


@dataclass
class PhantomSpec:
    n_targets: int = 10
    gland_semiaxes: tuple[float, float, float] = (25.0, 20.0, 22.0)
    zone_quotas: dict[str, int] | None = None
    min_spacing: float = 4.0
    margin: float = DEFAULT_TARGET_MARGIN
    pivot: tuple[float, float, float] = (0.0, 16.0, -14.0)
    left_bias: float = 0.0
    motion: MotionParams = field(default_factory=MotionParams)
    index: int = 0


@dataclass
class ProstatePhantom:
    gland_semiaxes: tuple[float, float, float]
    centroid_rest: np.ndarray
    targets: list[Target]
    pivot: np.ndarray
    motion: MotionParams
    left_bias: float
    fiducials: list[tuple[int, np.ndarray]]

    def __post_init__(self):
        self.centroid_rest = np.asarray(self.centroid_rest, dtype=np.float64).reshape(3)
        self.pivot = np.asarray(self.pivot, dtype=np.float64).reshape(3)

    def target_by_id(self, target_id: int) -> Target:
        for t in self.targets:
            if t.id == target_id:
                return t
        raise KeyError(f"no target with id {target_id}")


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


def _zone_ok(p: np.ndarray, a: float, labels: tuple[str, str, str]) -> bool:
    depth, lat, ap = labels
    if depth == APEX and not p[2] < 0:
        return False
    if depth == BASE and not p[2] > 0:
        return False
    third = a / 3.0
    if lat == LEFT and not p[0] > third:
        return False
    if lat == RIGHT and not p[0] < -third:
        return False
    if lat == CENTER and not abs(p[0]) <= third:
        return False
    if ap == ANTERIOR and not p[1] > 0:
        return False
    if ap == POSTERIOR and not p[1] < 0:
        return False
    return True


def generate_phantom(spec: PhantomSpec, seed: int) -> ProstatePhantom:
    """Deterministically sample a phantom from ``spec``.

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
    spec.motion.validate()

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
    placed: list[np.ndarray] = []
    targets: list[Target] = []
    for i in range(spec.n_targets):
        labels = (depth_seq[i], lat_seq[i], ap_seq[i])
        pos = None
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = (stream.uniform(-1.0, 1.0, 3)) * semi
            if np.sum((cand / semi) ** 2) > 1.0:
                continue
            if not _zone_ok(cand, a, labels):
                continue
            if placed and min(np.linalg.norm(cand - q) for q in placed) < spec.min_spacing:
                continue
            pos = cand
            break
        if pos is None:
            raise ValueError(
                f"could not place target {i} in zone {labels} with min spacing "
                f"{spec.min_spacing} mm after {_PLACEMENT_ATTEMPTS} attempts"
            )
        placed.append(pos)
        targets.append(Target(i, pos, ZoneLabels(*labels)))

    fid_pts = _FIDUCIAL_DIRS * (np.array([a, b, c]) * _FIDUCIAL_SCALE)
    fiducials = [(i, fid_pts[i].copy()) for i in range(len(fid_pts))]
    return ProstatePhantom(
        gland_semiaxes=(a, b, c),
        centroid_rest=np.zeros(3),
        targets=targets,
        pivot=np.array(spec.pivot, dtype=np.float64),
        motion=spec.motion,
        left_bias=spec.left_bias,
        fiducials=fiducials,
    )


def _shuffled_labels(stream, counts) -> list[str]:
    seq = []
    for label, n in counts:
        seq.extend([label] * n)
    idx = stream.permutation(len(seq))
    return [seq[i] for i in idx]


def gland_entry_depth(phantom: ProstatePhantom, entry, dir) -> float | None:
    """Depth along the needle line where it first meets the gland surface.

    Returns None when the line misses the gland entirely or the gland lies
    behind the entry point.
    """
    semi = np.asarray(phantom.gland_semiaxes, dtype=np.float64)
    w = (np.asarray(entry, dtype=np.float64) - phantom.centroid_rest) / semi
    v = np.asarray(dir, dtype=np.float64) / semi
    aa = float(v @ v)
    bb = float(w @ v)
    cc = float(w @ w) - 1.0
    disc = bb * bb - aa * cc
    if disc < 0.0:
        return None
    root = disc**0.5
    t0 = (-bb - root) / aa
    t1 = (-bb + root) / aa
    if t1 < 0.0:
        return None
    return t0 if t0 >= 0.0 else 0.0


def penetration(phantom: ProstatePhantom, needle: NeedleState) -> float:
    """First-pass penetration of the needle beyond the gland entry point."""
    t0 = gland_entry_depth(phantom, needle.entry, needle.dir)
    if t0 is None:
        return 0.0
    pass_depth = needle.pass_depth if needle.pass_depth is not None else needle.tip_depth
    return max(0.0, pass_depth - t0)


def axial_drag(phantom: ProstatePhantom, needle: NeedleState) -> float:
    """Magnitude of the modeled axial drag for this needle state, in mm."""
    pen = penetration(phantom, needle)
    if pen <= 0.0:
        return 0.0
    return phantom.motion.axial_base_offset + phantom.motion.axial_gain * pen


def prostate_transform(phantom: ProstatePhantom, needle: NeedleState, motion_noise) -> geometry.RigidTransform:
    """Rigid displacement of the gland induced by the needle.

    Identity until the tip reaches the gland.  Afterwards: translation of
    ``axial_base_offset + axial_gain * penetration`` along the needle
    direction, a rotation of ``rotation_gain * lateral_offset *
    penetration`` degrees about the pivot (axis perpendicular to the plane
    of the needle and the centroid offset), and the translation
    ``motion_noise``: the insertion's (3,) draw of sd ``noise_sd_motion``,
    made once per insertion so that every evaluation during it sees the
    same noise.
    """
    d = geometry.normalize(needle.dir)
    t0 = gland_entry_depth(phantom, needle.entry, d)
    if t0 is None or needle.tip_depth <= t0:
        return geometry.identity()
    pass_depth = needle.pass_depth if needle.pass_depth is not None else needle.tip_depth
    pen = max(0.0, pass_depth - t0)

    mp = phantom.motion
    drag = mp.axial_base_offset + mp.axial_gain * pen

    rel = phantom.centroid_rest - needle.entry
    along = float(rel @ d)
    offset_vec = rel - along * d
    lateral = float(np.linalg.norm(offset_vec))
    if lateral > 1e-12 and mp.rotation_gain > 0.0:
        axis = np.cross(d, offset_vec / lateral)
        angle = mp.rotation_gain * lateral * pen
        rot = geometry.rotation_about_axis(axis, angle, phantom.pivot)
    else:
        rot = geometry.identity()

    return geometry.compose(geometry.translation(drag * d + motion_noise), rot)


def material_to_world(phantom: ProstatePhantom, t: geometry.RigidTransform, p_rest) -> np.ndarray:
    return geometry.apply(t, p_rest)


def world_to_material(phantom: ProstatePhantom, t: geometry.RigidTransform, p_world) -> np.ndarray:
    return geometry.apply(geometry.inverse(t), p_world)


def with_approach(zone: ZoneLabels, approach: str) -> ZoneLabels:
    return replace(zone, approach=approach)
