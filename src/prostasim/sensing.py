"""Synthetic ultrasound observation and fiducial-based motion tracking.

Observing replaces image acquisition: each fiducial of the study's one
gland (``PhantomConfig.fiducial_points``) is moved by the current gland
transform and perturbed by isotropic noise whose sd grows with tissue
depth and with the number of needles already placed (image degradation); ``NoiseModel.sd`` is that sd, and both ``observe``
and ``observe_point`` take it from there.  An observed volume is an
(N, 3) array, row i being fiducial i, made from N x 3 standard normals
that the caller draws (see ``rng``) and the sd only scales, so a
stream's layout does not depend on the noise parameters.
Registration of an observed volume against the reference volume,
prepared once per insertion, recovers the gland transform, which tracks
the target.

``observe``, ``observe_point``, ``rigid_register`` and ``track_target``
work on stacks: K insertions at once, row k of every argument and result
belonging to insertion k, so one call serves a whole block of
insertions.  The gland is one for every row.  Each row has the bits it
would have alone; a single insertion passes a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .phantom import PhantomConfig


@dataclass
class NoiseModel:
    """Fiducial noise: sd = sigma0 * degradation^k + depth_gain * depth, as ``sd`` computes it.

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

    def sd(self, needle_counts, depth) -> np.ndarray:
        """The sd after each of K needle counts (>= 0) at the depths (..., K), mm past the gland entry plane.

        ``sigma0 * degradation**k + depth_gain * depth``, shaped as
        ``depth``; column k has the bits it has alone.  One power per count
        up to the largest, each with a Python int exponent (a numpy int64
        one is many times slower and can differ in the last bit), is looked
        up by the counts.
        """
        counts = np.asarray(needle_counts, dtype=np.intp)
        powers = [self.sigma0 * self.degradation_per_needle**k for k in range(counts.max(initial=0) + 1)]
        return np.array(powers)[counts] + self.depth_gain * np.asarray(depth)


def observe(
    gland: PhantomConfig,
    rotations: np.ndarray,
    translations: np.ndarray,
    noise: NoiseModel,
    normals: np.ndarray,
    needle_counts,
) -> np.ndarray:
    """One synthetic volume for each of K insertions, stacked (K, N, 3).

    Row k is every fiducial of ``gland`` moved by the gland transform
    (``rotations[k]``, ``translations[k]``) and perturbed, in id order, by
    its sd times the standard normals ``normals[k]`` (N, 3): the draw of
    ``standard_normal((N, 3))``, whatever the sd.  ``needle_counts[k]`` is
    the number of needles already completed in that session and drives the
    degradation multiplier.  Each volume has the bits it would have if
    observed alone.
    """
    # component planes (N, 3, K), the fiducials' (N, 3, 1) broadcast over the
    # rows: each point moved as ``geometry.apply`` moves it
    world = geometry.rotate_planes(np.asarray(rotations).transpose(1, 2, 0), gland.fiducial_points[..., None])
    world += np.asarray(translations).T
    # depth past the gland entry plane z = -c
    sigma = noise.sd(needle_counts, np.maximum(0.0, world[:, 2] + gland.gland_semiaxes[2]))
    world += sigma[:, None] * normals.transpose(1, 2, 0)
    # rows of the planes, which geometry.register_to takes back without a copy
    return world.transpose(2, 0, 1)


def observe_point(gland: PhantomConfig, points_world: np.ndarray, noise: NoiseModel, normals: np.ndarray, needle_counts) -> np.ndarray:
    """Noisy observations (K, 3) of one world point per insertion (e.g. the target bead), stacked.

    Row k observes ``points_world[k]`` in ``gland`` after
    ``needle_counts[k]`` needles from the 3 standard normals
    ``normals[k]``: its noise is ``0.0 + sigma * normals[k]``, numpy's
    ``normal(0.0, sigma, 3)`` on those draws, bit for bit, and each row has
    the bits it would have alone.
    """
    p = np.asarray(points_world, dtype=np.float64)
    sigma = noise.sd(needle_counts, np.maximum(0.0, p[:, 2] + gland.gland_semiaxes[2]))
    return p + (0.0 + sigma[:, None] * normals)


def rigid_register(reference: geometry.RegistrationReference, observed: np.ndarray):
    """Least-squares rigid registration of K observed volumes at once.

    ``reference`` is the stack of reference volumes, each prepared once per
    insertion (``geometry.prepare_reference``); ``observed`` (K, N, 3)
    holds one volume per reference set, fiducials in the same id order.
    Returns the (K, 3, 3) rotations, (K, 3) translations and (K,) rms
    residuals of ``geometry.register_to``.
    """
    return geometry.register_to(reference, observed)


def track_target(rotations: np.ndarray, translations: np.ndarray, targets_rest: np.ndarray) -> np.ndarray:
    """Predicted current positions (K, 3) of rest-frame targets under the registrations, each as ``geometry.apply``."""
    return geometry.matvec(rotations, targets_rest) + translations
