"""Synthetic ultrasound observation and fiducial-based motion tracking.

Observing replaces image acquisition: each phantom fiducial is moved by
the current gland transform and perturbed by isotropic noise whose sd
grows with tissue depth and with the number of needles already placed
(image degradation).  An observed volume is an (N, 3) array, row i
being fiducial i, made from N x 3 standard normals that the caller
draws (see ``rng``) and the sd only scales, so a stream's layout does
not depend on the noise parameters.
Registration of an observed volume against the reference volume,
prepared once per insertion, recovers the gland transform, which tracks
the target.

``observe``, ``observe_point``, ``rigid_register`` and ``track_target``
work on stacks: K insertions at once, row k of every argument and result
belonging to insertion k, so one call serves a whole block of
insertions.  Each row has the bits it would have alone; a single
insertion passes a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .phantom import Phantoms


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


def _base_sd(noise: NoiseModel, needle_counts) -> np.ndarray:
    """The depth-free sd (K,) after each of K needle counts (>= 0), each with the bits of its own power.

    One power per count up to the largest, a Python int exponent (a numpy
    int64 one is many times slower and can differ in the last bit), looked up by the counts.
    """
    counts = np.asarray(needle_counts, dtype=np.intp)
    return np.array([noise.sigma0 * noise.degradation_per_needle**k for k in range(counts.max(initial=0) + 1)])[counts]


def observe(
    phantoms: Phantoms,
    rotations: np.ndarray,
    translations: np.ndarray,
    noise: NoiseModel,
    normals: np.ndarray,
    needle_counts,
) -> np.ndarray:
    """One synthetic volume for each of K insertions, stacked (K, N, 3).

    Row k is every fiducial of row k of ``phantoms`` moved by the gland
    transform (``rotations[k]``, ``translations[k]``) and perturbed, in id order, by
    its sd times the standard normals ``normals[k]`` (N, 3): the draw of
    ``standard_normal((N, 3))``, whatever the sd.  ``needle_counts[k]`` is
    the number of needles already completed in that session and drives the
    degradation multiplier.  Each volume has the bits it would have if
    observed alone.
    """
    points, entry_plane = phantoms.fiducial_points, phantoms.gland_semiaxes[:, 2]
    base = _base_sd(noise, needle_counts)
    # the stacked matrix-vector form keeps the bits of one ``rot @ p`` per point
    world = (rotations[:, None] @ points[:, :, :, None])[..., 0] + translations[:, None]
    # depth past the gland entry plane z = -c
    sigma = base[:, None] + noise.depth_gain * np.maximum(0.0, world[:, :, 2] + entry_plane[:, None])
    return world + sigma[:, :, None] * normals


def observe_point(phantoms: Phantoms, points_world: np.ndarray, noise: NoiseModel, normals: np.ndarray, needle_counts) -> np.ndarray:
    """Noisy observations (K, 3) of one world point per insertion (e.g. the target bead), stacked.

    Row k observes ``points_world[k]`` in row k of ``phantoms`` after
    ``needle_counts[k]`` needles from the 3 standard normals
    ``normals[k]``: its noise is ``0.0 + sigma * normals[k]``, numpy's
    ``normal(0.0, sigma, 3)`` on those draws, bit for bit, and each row has
    the bits it would have alone.
    """
    base = _base_sd(noise, needle_counts)
    p = np.asarray(points_world, dtype=np.float64)
    sigma = base + noise.depth_gain * np.maximum(0.0, p[:, 2] + phantoms.gland_semiaxes[:, 2])
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
    """Predicted current positions (K, 3) of rest-frame targets under the registrations."""
    return (rotations @ targets_rest[:, :, None])[:, :, 0] + translations
