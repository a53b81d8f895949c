import numpy as np
import pytest

from prostasim.config import default_config


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
