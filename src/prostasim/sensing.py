"""Synthetic ultrasound observation and fiducial-based motion tracking.

Observing replaces image acquisition: each phantom fiducial is moved by
the current gland transform and perturbed by isotropic noise whose sd
grows with tissue depth and with the number of needles already placed
(image degradation).  An observed volume is a plain (N, 3) array, row i
being fiducial i, and always consumes N x 3 normals of its stream, so a
stream's layout does not depend on the noise parameters (see ``rng``).
Registration of an observed volume against the reference volume,
prepared once per insertion, recovers the gland transform, which tracks
the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .phantom import ProstatePhantom


@dataclass
class NoiseModel:
    """Fiducial noise: sd = sigma0 * degradation^k + depth_gain * depth.

    ``k`` counts completed insertions in the session; depth is mm from the
    gland entry plane.  Defaults are the calibration fit shipped with the
    package (chosen jointly with the motion parameters so the default
    study reproduces the published summary statistics).
    """

    sigma0: float = 0.08
    depth_gain: float = 0.001
    degradation_per_needle: float = 1.0
    rng_seed: int = 0

    def validate(self):
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be >= 0")
        if self.depth_gain < 0:
            raise ValueError("depth_gain must be >= 0")
        if self.degradation_per_needle < 1.0:
            raise ValueError("degradation_per_needle must be >= 1")


def observe(
    phantom: ProstatePhantom,
    current_transform: geometry.RigidTransform,
    noise: NoiseModel,
    rng_stream,
    needle_count: int = 0,
) -> np.ndarray:
    """One synthetic volume: every fiducial's noisy world position, in id order.

    ``needle_count`` is the number of needles already completed in this
    session and drives the degradation multiplier.  Deterministic given
    the stream position: every row draws its noise from one
    ``standard_normal((N, 3))`` block, three values per row in row order,
    whatever its sd.
    """
    base = noise.sigma0 * noise.degradation_per_needle**needle_count
    rot = current_transform.rotation
    # the stacked matrix-vector form keeps the bits of one ``rot @ p`` per point
    world = (rot[None] @ phantom.fiducial_points[:, :, None])[:, :, 0] + current_transform.translation
    # depth past the gland entry plane z = -c
    sigma = base + noise.depth_gain * np.maximum(0.0, world[:, 2] + phantom.gland_semiaxes[2])
    return world + sigma[:, None] * rng_stream.standard_normal(world.shape)


def observe_point(
    phantom: ProstatePhantom,
    point_world,
    noise: NoiseModel,
    rng_stream,
    needle_count: int = 0,
) -> np.ndarray:
    """Noisy observation of a single world point (e.g. the target bead): 3 normals."""
    base = noise.sigma0 * noise.degradation_per_needle**needle_count
    p = np.asarray(point_world, dtype=np.float64)
    sigma = base + noise.depth_gain * max(0.0, float(p[2]) + phantom.gland_semiaxes[2])
    return p + rng_stream.normal(0.0, sigma, 3)


def rigid_register(reference: geometry.RegistrationReference, observed) -> tuple[geometry.RigidTransform, float]:
    """Least-squares rigid registration of an observed volume.

    ``reference`` is the reference volume's fiducials prepared once per
    insertion (``geometry.prepare_reference``); ``observed`` is a volume's
    (N, 3) fiducial array in the same id order.  Returns (transform,
    rms_residual).
    """
    return geometry.register_to(reference, observed)


def track_target(reg: geometry.RigidTransform, target_rest) -> np.ndarray:
    """Predicted current position of a rest-frame target under ``reg``."""
    return geometry.apply(reg, target_rest)
