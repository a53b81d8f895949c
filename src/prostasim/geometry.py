"""Rigid 3D transforms, needle-line decomposition, and segment distances.

Conventions: rotations are 3x3 orthonormal matrices acting on column
vectors, translations are applied after rotation, angles at the API
boundary are in degrees, lengths in millimetres.  The working frame has
+z along the needle insertion direction, +x toward patient left, +y
anterior, with the origin at the gland centroid in the rest pose.

Products of 3-vectors and 3x3 matrices are component arithmetic in a
fixed order (``matvec``, ``matmul``, ``row_dot``): each element is a sum
of three products taken left to right, and a sum over points adds them
in index order.  No BLAS or LAPACK call is on the output path
(``max_line_deviation``'s SVD only gates), so a row's bits depend
neither on the rows stacked beside it nor on the kernel numpy's BLAS
picks for the machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COLLINEARITY_TOL = 1e-9
IDENTITY = np.eye(3)  # shared: read-only
IDENTITY.flags.writeable = False
# cofactor (i, j) of a flat 3x3 matrix x is x[A] * x[B] - x[C] * x[D], the
# rows of this table at flat index 3i + j: the 2x2 minor of the next two rows
# and columns taken cyclically, which carries the cofactor's sign
_COFACTOR = np.array([
    [(i + di) % 3 * 3 + (j + dj) % 3 for i in range(3) for j in range(3)]
    for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))
])
# the polar iteration: every row takes POLAR_MIN_STEPS steps, the first one
# scaled; after that a row is done after the step that moves no element of its
# iterate by more than POLAR_STEP_TOL (the next error is about the square of
# that step), and one still moving after POLAR_MAX_STEPS has no fit
POLAR_MIN_STEPS = 5
POLAR_STEP_TOL = 1e-8
POLAR_MAX_STEPS = 60


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products ``m @ v`` of 3x3 matrices (..., 3, 3) and 3-vectors (..., 3), broadcast: (..., 3).

    Element a is ``m[a, 0] * v[0] + m[a, 1] * v[1] + m[a, 2] * v[2]``,
    summed left to right, whatever the stack around it.
    """
    p = m * v[..., None, :]
    return p[..., 0] + p[..., 1] + p[..., 2]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a @ b`` of 3x3 matrices (..., 3, 3), broadcast, each element summed as in ``matvec``."""
    p = a[..., :, :, None] * b[..., None, :, :]
    return p[..., 0, :] + p[..., 1, :] + p[..., 2, :]


def _sum_points(planes: np.ndarray, out=None) -> np.ndarray:
    """Sums over the points of C-contiguous planes (N, 3, K): 0.0 plus point 0, then plus point 1, and so on.

    numpy reduces a contiguous array's first axis one slab at a time,
    elementwise, while the slab holds more than one element: it does here,
    3 planes of K.
    """
    return np.add.reduce(planes, axis=0, out=out)


def component_planes(points: np.ndarray) -> np.ndarray:
    """K sets of N points (K, N, 3) as C-contiguous component planes (N, 3, K)."""
    return np.ascontiguousarray(np.asarray(points, dtype=np.float64).transpose(1, 2, 0))


def rotate_planes(rot: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Set k's points of ``planes`` (N, 3, K) under its rotation of ``rot``, held as planes (3, 3, K): (N, 3, K).

    ``planes`` may hold one set (N, 3, 1) for every rotation.  Each element
    is summed as in ``matvec``.
    """
    shape = np.broadcast_shapes(planes.shape, rot.shape[1:])
    out, term = np.empty(shape), np.empty(shape)
    np.multiply(rot[:, 0], planes[:, 0, None], out=out)
    for b in (1, 2):
        out += np.multiply(rot[:, b], planes[:, b, None], out=term)
    return out


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
    return matvec(t.rotation, np.asarray(points, dtype=np.float64)) + t.translation


def compose(t1: RigidTransform, t2: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``t2`` first, then ``t1``."""
    return RigidTransform(matmul(t1.rotation, t2.rotation), matvec(t1.rotation, t2.translation) + t1.translation)


def inverse(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform(rot, -matvec(rot, t.translation))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of two stacks (..., 3): (...,), each ``a0*b0 + a1*b1 + a2*b2`` left to right."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2]


def normalize(v: np.ndarray) -> np.ndarray:
    """``v`` (3,) over its length, or each row of a stack (K, 3) over its own.

    Each norm is the square root of the vector's ``row_dot`` with itself,
    on a row of a stack as on one vector; a zero row gives NaN there,
    where a zero vector raises ValueError.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(row_dot(v, v))
    if v.ndim == 2:
        return v / n[:, None]
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


# the identity of a rigid transform held as a 3x4 matrix [rotation | translation]
_AFFINE_IDENTITY = np.eye(3, 4)
_AFFINE_IDENTITY.flags.writeable = False


def rodrigues_levers(kx: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angle-free terms of rotations about lines through ``center`` (..., 3).

    ``kx`` (..., 3, 3) is the cross-product matrix of each line's unit
    axis.  Returns ``kx`` and its square, each as a 3x4 matrix (..., 3, 4)
    whose last column is minus its product with the center, so that
    ``rodrigues`` of them is the rotation about the line as
    ``[rotation | translation]``.
    """
    kx2 = matmul(kx, kx)
    return tuple(np.concatenate([m, -matvec(m, center)[..., None]], axis=-1) for m in (kx, kx2))


def rodrigues(sin, cos1, kx: np.ndarray, kx2: np.ndarray) -> np.ndarray:
    """Rodrigues' formula on the levers of ``rodrigues_levers``: ``[I | 0] + sin kx + cos1 kx2``, (..., 3, 4).

    ``sin`` and ``cos1`` are the sine of the angle and one minus its
    cosine, scalars or arrays that broadcast against the levers.  The
    translation column is ``c - R c`` in the form ``-(sin kx c) - cos1 kx^2 c``.
    """
    aff = sin * kx
    aff += _AFFINE_IDENTITY  # I + s kx, as + commutes
    aff += cos1 * kx2
    return aff


def rotation_about_axis(axis: np.ndarray, angle_deg: float, center: np.ndarray) -> RigidTransform:
    """Rotation by ``angle_deg`` about the line through ``center`` along ``axis``.

    Rodrigues formula (``rodrigues``); the returned transform leaves
    ``center`` fixed up to floating point.
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
    aff = rodrigues(np.sin(theta), 1.0 - np.cos(theta), *rodrigues_levers(kx, np.asarray(center, dtype=np.float64)))
    return RigidTransform(aff[:, :3], aff[:, 3])


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
    depth = float(row_dot(rel, d))
    off = rel - depth * d
    return depth, float(np.sqrt(row_dot(off, off)))


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

    A stack of K sets of N points, each held as its mean and its points
    less that mean: row k of each field belongs to set k.
    """

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
    ref_mean = (_sum_points(component_planes(ref)) / n).T
    ref_c = ref - ref_mean[:, None]
    if np.any(max_line_deviation(ref_c) < COLLINEARITY_TOL):
        raise DegenerateConfiguration("reference points are collinear")
    return RegistrationReference(ref_mean, ref_c)


def register_to(reference: RegistrationReference, obs_points: np.ndarray):
    """Least-squares rigid transforms taking each reference set onto its observed set.

    Closed form (Kabsch; Arun, Huang & Blostein 1987): centroid alignment,
    then the proper rotation nearest the cross-covariance ``M = sum_i
    (o_i - o_mean) (r_i - r_mean)^T`` of each set, ``V diag(1, 1, d) U^T``
    for ``M = V S U^T`` and ``d = sign det M``, so every result is a
    rotation.  It is found in elementwise arithmetic over the stack
    (``_rotation_fits``): the orthogonal polar factor of M by a scaled
    Newton iteration (Higham 1986), and for a row with ``det M <= 0``
    that of a matrix with M's two leading singular pairs and a positive
    third.  Every sum has a fixed order, and each row stops iterating on
    its own test, so each set gives the bits that solving it alone would,
    on any BLAS.  ``obs_points`` (K, N, 3) pairs row by row with the
    reference.  Returns ``(rotations, translations, rms)`` of shapes
    (K, 3, 3), (K, 3) and (K,): transform k maps reference set k best
    onto ``obs_points[k]``, with root-mean-square residual ``rms[k]`` in
    mm.  Raises DegenerateConfiguration for a set whose best rotation
    is not unique where the iteration cannot settle on one: M zero (every
    observed point at one place), or ``det M <= 0`` with M's two smallest
    singular values equal.
    """
    obs = np.asarray(obs_points, dtype=np.float64)
    if reference.centered.shape != obs.shape:
        raise ValueError("point sets must have matching shapes")
    n = obs.shape[1]
    # component planes (N, 3, K), so every loop runs over the K sets
    o = component_planes(obs)
    obs_mean = _sum_points(o) / n
    rc = component_planes(reference.centered)
    # M a row at a time: (N, 3, K) temporaries, never (N, 3, 3, K)
    cov = np.empty((3, 3, o.shape[2]))
    for a in range(3):
        _sum_points((o[:, a] - obs_mean[a])[:, None] * rc, out=cov[a])
    rot = _rotation_fits(cov.reshape(9, -1))
    trans = obs_mean - rotate_planes(rot, reference.mean.T[None])[0]
    # each residual R (r_i - r_mean) + o_mean - o_i is R r_i + t - o_i
    resid = rotate_planes(rot, rc)
    resid += obs_mean
    resid -= o
    resid *= resid
    sq = _sum_points(resid)
    rms = np.sqrt((sq[0] + sq[1] + sq[2]) / n)
    return rot.transpose(2, 0, 1), trans.T, rms


def _cofactors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cofactor matrices and determinants of 3x3 matrices held as nine planes (9, K): (9, K) and (K,).

    The determinant is the first row's expansion, left to right.
    """
    t = x[_COFACTOR]
    c = t[0] * t[1] - t[2] * t[3]
    p = x[:3] * c[:3]
    return c, p[0] + p[1] + p[2]


def _rotation_fits(m: np.ndarray) -> np.ndarray:
    """The proper rotations nearest 3x3 matrices held as nine planes (9, K): (3, 3, K) planes.

    Where ``det m > 0`` that is m's orthogonal polar factor.  Elsewhere
    (``det m <= 0`` or NaN) m is first replaced by ``_proper_input(m)``,
    whose polar factor is the Kabsch-corrected rotation.  The polar factor
    comes from Newton's iteration ``X <- (X + X^-T) / 2``, ``X^-T`` being
    the cofactors over the determinant (Higham 1986).  The first step
    scales X by ``z``, the square root of the ratio of the largest
    elements of ``X^-1`` and ``X``, so the singular values start near 1.
    Every row takes ``POLAR_MIN_STEPS`` steps; after that a row is frozen
    after the step that moves none of its elements by more than
    ``POLAR_STEP_TOL``, and the iteration ends when every row is.  Raises
    DegenerateConfiguration if a row is still moving after
    ``POLAR_MAX_STEPS`` steps.
    """
    c, det = _cofactors(m)
    flip = np.flatnonzero(~(det > 0.0))
    if flip.size:
        m = m.copy()
        m[:, flip] = _proper_input(m[:, flip])
        c[:, flip], det[flip] = _cofactors(m[:, flip])
    z = np.sqrt(np.abs(c).max(axis=0) / (det * np.abs(m).max(axis=0)))
    x = (z * m + c / (z * det)) * 0.5
    done = np.zeros(x.shape[1], dtype=bool)
    for step in range(1, POLAR_MAX_STEPS):
        # det stays positive: X and X^-T share their singular vectors
        c, det = _cofactors(x)
        nxt = (x + c / det) * 0.5
        if step < POLAR_MIN_STEPS - 1:
            x = nxt
            continue
        moved = np.abs(nxt - x).max(axis=0)
        x = np.where(done, x, nxt)
        done |= moved <= POLAR_STEP_TOL
        if done.all():
            return x.reshape(3, 3, -1)
    raise DegenerateConfiguration("the rotation fit did not converge")


def _proper_input(m: np.ndarray) -> np.ndarray:
    """A matrix whose polar factor is the Kabsch rotation of m, for each of J matrices (9, J) with ``det m <= 0``.

    For ``m = s1 v1 u1^T + s2 v2 u2^T + s3 v3 u3^T`` (singular values in
    decreasing order) the Kabsch rotation is ``v1 u1^T + v2 u2^T + (v1 x
    v2)(u1 x u2)^T``.  ``W = u3 u3^T`` is the limit of the trace-normalised
    adjugate of ``m^T m``, whose eigenvalues are ``(s_i s_j)^2``, squared
    until it is of rank one (trace of its square within ``POLAR_STEP_TOL``
    of 1, once more after that).  Then ``m2 = m - m W`` holds the two
    leading pairs, its cofactor matrix is ``s1 s2 (v1 x v2)(u1 x u2)^T``,
    and ``m2 + cof(m2) / max|m2|`` has the Kabsch rotation as its polar
    factor and a positive determinant.  Raises DegenerateConfiguration
    where W does not converge, ``s2 == s3`` (m zero among them): no
    rotation is then the unique best.
    """
    rows = m.T.reshape(-1, 3, 3)
    adj, _ = _cofactors(matmul(rows.transpose(0, 2, 1), rows).reshape(-1, 9).T)
    with np.errstate(divide="ignore", invalid="ignore"):  # m of rank 1 or 0: a zero adjugate, NaN, no convergence
        w = (adj / (adj[0] + adj[4] + adj[8])).T.reshape(-1, 3, 3)
    done = np.zeros(len(w), dtype=bool)
    for _ in range(POLAR_MAX_STEPS):
        sq = matmul(w, w)
        trace = sq[:, 0, 0] + sq[:, 1, 1] + sq[:, 2, 2]
        w = np.where(done[:, None, None], w, sq / trace[:, None, None])
        done |= 1.0 - trace <= POLAR_STEP_TOL
        if done.all():
            break
    else:
        raise DegenerateConfiguration("no unique best rotation: the cross-covariance has a repeated "
                                      "smallest singular value")
    m2 = (rows - matmul(rows, w)).reshape(-1, 9)
    cof, _ = _cofactors(m2.T)
    return (m2 + cof.T / np.abs(m2).max(axis=1)[:, None]).T


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
