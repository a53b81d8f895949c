"""Rigid 3D transforms, needle-line decomposition, and segment distances.

Conventions: rotations are 3x3 orthonormal matrices acting on column
vectors, translations are applied after rotation, angles at the API
boundary are in degrees, lengths in millimetres.  The working frame has
+z along the needle insertion direction, +x toward patient left, +y
anterior, with the origin at the gland centroid in the rest pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COLLINEARITY_TOL = 1e-9
IDENTITY = np.eye(3)  # shared: read-only
IDENTITY.flags.writeable = False
# the six terms of the Leibniz formula of a flat 3x3 matrix's determinant, and their signs
_LEIBNIZ = np.array([[0, 4, 8], [1, 5, 6], [2, 3, 7], [2, 4, 6], [0, 5, 7], [1, 3, 8]])
_LEIBNIZ_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


class DegenerateConfiguration(ValueError):
    """Raised when a point set cannot pin down a rigid transform."""


class Columns:
    """A dataclass of columns: row k of each field, an array or columns of its own, belongs to item k.

    A field of None holds no column.  Two are equal when each column has
    the same dtype, shape and bits.
    """

    def _columns(self) -> list:
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def __len__(self) -> int:
        return len(self._columns()[0])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_same_column(a, b) for a, b in zip(self._columns(), other._columns()))

    def rows(self, index):
        """The rows ``index`` selects, in one columns object: a copy for an
        index array, views for a slice, one row's values for an integer."""
        return type(self)(*(
            None if col is None else col.rows(index) if isinstance(col, Columns) else col[index]
            for col in self._columns()
        ))

    @classmethod
    def concat(cls, blocks):
        """The rows of the blocks, in order, in one columns object: the block itself if only one."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(*(_join_column(parts) for parts in zip(*(block._columns() for block in blocks))))


def _same_column(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, Columns):
        return a == b
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _join_column(parts):
    """One column holding the rows of ``parts``, the same column of each block, in order."""
    if parts[0] is None:
        return None
    if isinstance(parts[0], Columns):
        return type(parts[0]).concat(parts)
    return np.concatenate(parts)


@dataclass
class RigidTransform:
    """A rotation (3, 3), then a translation (3,), each held as a float64 array of that shape."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def translation(v) -> RigidTransform:
    """Pure translation by ``v``."""
    return RigidTransform(np.eye(3), np.asarray(v, dtype=np.float64))


def apply(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Transform a point (3,) or a stack of points (N, 3)."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1:
        return t.rotation @ p + t.translation
    return p @ t.rotation.T + t.translation


def compose(t1: RigidTransform, t2: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``t2`` first, then ``t1``."""
    rot = t1.rotation @ t2.rotation
    trans = t1.rotation @ t2.translation + t1.translation
    return RigidTransform(rot, trans)


def inverse(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform(rot, -(rot @ t.translation))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two stacks (K, 3): (K,).

    The stacked matrix product keeps the bits of one ``float(a[k] @ b[k])``
    per row.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def normalize(v: np.ndarray) -> np.ndarray:
    """``v`` (3,) over its length, or each row of a stack (K, 3) over its own.

    A stack takes its norms from one ``row_dot`` call, each with the bits
    of ``np.linalg.norm`` of its row; a zero row gives NaN there, where a
    zero vector raises ValueError.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2:
        return v / np.sqrt(row_dot(v, v))[:, None]
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def rotation_about_axis(axis: np.ndarray, angle_deg: float, center: np.ndarray) -> RigidTransform:
    """Rotation by ``angle_deg`` about the line through ``center`` along ``axis``.

    Rodrigues formula; the returned transform leaves ``center`` fixed up to
    floating point.
    """
    k = normalize(axis)
    theta = np.deg2rad(float(angle_deg))
    kx = np.array(
        [
            [0.0, -k[2], k[1]],
            [k[2], 0.0, -k[0]],
            [-k[1], k[0], 0.0],
        ]
    )
    rot = np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * (kx @ kx)
    center = np.asarray(center, dtype=np.float64)
    return RigidTransform(rot, center - rot @ center)


def rotation_angle_deg(t: RigidTransform) -> float:
    """Magnitude of the rotation of ``t`` in degrees."""
    c = (float(np.trace(t.rotation)) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def axis_decompose(entry, dir, target) -> tuple[float, float]:
    """Depth and lateral miss of ``target`` relative to the needle line.

    Returns ``(depth, lateral)`` where ``depth = (target - entry) . dir``
    and ``lateral`` is the distance of the target from the line; the point
    ``entry + depth * dir`` is the closest point on the line to the target.
    """
    entry = np.asarray(entry, dtype=np.float64)
    d = np.asarray(dir, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    rel = target - entry
    depth = float(rel @ d)
    return depth, float(np.linalg.norm(rel - depth * d))


def segment_segment_distance(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distances (n, m) between the segments ``[p0[i], p1[i]]`` and ``[q0[j], q1[j]]``.

    ``p0``/``p1`` are (n, 3) and ``q0``/``q1`` (m, 3).  Clamped closest
    points (Ericson, Real-Time Collision Detection, 5.1.9), broadcast over
    all n x m pairs at once; either segment may be degenerate (a point).

    The work is laid out as component planes: a vector quantity is (3, m, n),
    one (m, n) plane per axis, with the p segments along the last axis, so
    every operation runs on rows of n.  Each dot product is
    ``u[0]*v[0] + u[1]*v[1] + u[2]*v[2]``, summed left to right as
    ``np.sum`` sums a length-3 axis, so each distance has the bits of the
    same formula on (n, m, 3) pair arrays, and each row of p the bits it
    gets alone.  (A sum of negative zeros is -0.0 here and 0.0 in
    ``np.sum``; no zero's sign reaches a distance, as no divisor can be 0.)
    """
    # the p segments along the last axis, the q segments down the middle one
    p0 = np.asarray(p0, dtype=np.float64).T[:, None, :]
    d1 = np.asarray(p1, dtype=np.float64).T[:, None, :] - p0
    q0 = np.asarray(q0, dtype=np.float64).T[:, :, None]
    d2 = np.asarray(q1, dtype=np.float64).T[:, :, None] - q0
    r = p0 - q0

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    # (1, n), (m, 1), then (m, n)
    a = dot(d1, d1)
    e = dot(d2, d2)
    b = dot(d1, d2)
    c = dot(d1, r)
    f = dot(d2, r)

    denom = a * e - b * b
    safe = denom > 1e-30
    s = np.where(safe, np.clip((b * f - c * e) / np.where(safe, denom, 1.0), 0.0, 1.0), 0.0)
    # a point q segment takes the clamped t < 0 branch; a point p segment
    # (a == 0, so b == c == 0) keeps s = 0 there
    point = e <= 1e-30
    t = np.where(point, -1.0, (b * s + f) / np.where(point, 1.0, e))
    a = np.where(a > 1e-30, a, 1.0)
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    diff = (p0 + s * d1) - (q0 + t * d2)
    return np.sqrt(dot(diff, diff)).T


@dataclass(eq=False)
class RegistrationReference(Columns):
    """Reference point sets checked and centred once, for many solves.

    A stack of K sets of N points: row k of each field belongs to set k.
    """

    points: np.ndarray  # (K, N, 3)
    mean: np.ndarray  # (K, 3)
    centered: np.ndarray  # (K, N, 3)


def prepare_reference(ref_points: np.ndarray) -> RegistrationReference:
    """Centre each set of ``ref_points`` (K, N, 3) and check that it can pin a transform.

    Raises DegenerateConfiguration if fewer than 3 points are given or a
    set lies on a line (within 1e-9 mm).
    """
    ref = np.asarray(ref_points, dtype=np.float64)
    n = ref.shape[1]
    if n < 3:
        raise DegenerateConfiguration(f"need at least 3 point pairs, got {n}")
    ref_mean = ref.mean(axis=1)
    ref_c = ref - ref_mean[:, None]
    if np.any(max_line_deviation(ref_c) < COLLINEARITY_TOL):
        raise DegenerateConfiguration("reference points are collinear")
    return RegistrationReference(ref, ref_mean, ref_c)


def register_to(reference: RegistrationReference, obs_points: np.ndarray):
    """Least-squares rigid transforms taking each reference set onto its observed set.

    Closed form (Kabsch; Arun, Huang & Blostein 1987): centroid alignment
    plus the optimal-rotation SVD of the cross-covariance with a
    determinant correction, so every result is a proper rotation.  All K
    sets are solved together, with one stacked SVD, the one LAPACK call;
    the correction ``V diag(1, 1, d) U^T`` takes ``d = sign det(V U^T)`` as
    the sign of ``det U det V^T`` in closed form, exact as both are +-1 to
    rounding, and flips V's third column by it, the bits of that product.
    Each set gives the bits that solving it alone would.  ``obs_points``
    (K, N, 3) pairs row by row with the reference.  Returns ``(rotations,
    translations, rms)`` of shapes (K, 3, 3), (K, 3) and (K,): transform k
    maps ``reference.points[k]`` best onto ``obs_points[k]``, with
    root-mean-square residual ``rms[k]`` in mm.
    """
    obs = np.asarray(obs_points, dtype=np.float64)
    if reference.points.shape != obs.shape:
        raise ValueError("point sets must have matching shapes")
    obs_mean = np.add.reduce(obs, axis=1) / obs.shape[1]  # np.mean's arithmetic, as is the rms's
    h = np.swapaxes(reference.centered, 1, 2) @ (obs - obs_mean[:, None])
    u, _, vt = np.linalg.svd(h)
    dets = np.multiply.reduce(np.concatenate((u, vt)).reshape(-1, 9)[:, _LEIBNIZ], axis=2) @ _LEIBNIZ_SIGNS
    v = np.swapaxes(vt, 1, 2).copy()
    v[:, :, 2] *= np.sign(dets[:len(u)] * dets[len(u):])[:, None]
    rot = v @ np.swapaxes(u, 1, 2)
    trans = obs_mean - (rot @ reference.mean[:, :, None])[:, :, 0]
    resid = reference.points @ np.swapaxes(rot, 1, 2) + trans[:, None] - obs
    rms = np.sqrt(np.add.reduce(np.add.reduce(resid * resid, axis=2), axis=1) / obs.shape[1])
    return rot, trans, rms


def register_points(ref_points: np.ndarray, obs_points: np.ndarray) -> tuple[RigidTransform, float]:
    """Least-squares rigid transform taking paired ``ref_points`` onto ``obs_points``.

    One set, both (N, 3): ``prepare_reference`` then ``register_to`` on a
    stack of one.  Raises DegenerateConfiguration for fewer than 3 pairs or
    collinear reference points and ValueError for mismatched shapes.
    """
    ref = np.asarray(ref_points, dtype=np.float64).reshape(1, -1, 3)
    obs = np.asarray(obs_points, dtype=np.float64).reshape(1, -1, 3)
    rot, trans, rms = register_to(prepare_reference(ref), obs)
    return RigidTransform(rot[0], trans[0]), float(rms[0])


def max_line_deviation(centered: np.ndarray) -> np.ndarray:
    """Largest distance of each set of mean-centered points (K, N, 3) from its best-fit line.

    One stacked SVD for all K sets; returns the (K,) distances.
    """
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[:, 0]
    off = centered - (centered @ axis[:, :, None]) * axis[:, None]
    return np.max(np.linalg.norm(off, axis=2), axis=1)
