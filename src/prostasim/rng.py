"""Counter-based random streams keyed by structural indices.

Every stochastic draw in a study comes from a Philox generator whose key
encodes (master seed, purpose, phantom, target, replicate).  Outputs
therefore do not depend on execution order, and paired closed/open-loop
runs see identical noise by construction (the loop mode is deliberately
not part of the key).

Recreating a stream yields the same draw sequence.  A sample that must
stay fixed through an insertion (the motion noise) is drawn once from its
stream and passed along; the closed loop and its open-loop baseline share
that one draw.

Each insertion stream has a fixed layout of standard normals, whatever
the noise parameters (N fiducials): reference, N x 3 for the reference
volume then 3 for the observed target; observation, N x 3 per
verification volume; motion, 3 once per insertion when
``noise_sd_motion`` > 0.  So a stream's whole budget could be drawn up
front in one call, each consumer taking its slice.  It is not: a block's
reference streams are drawn row by row inside one stacked observe, each
then giving its slot's observed target, and the closed loop draws each
slot's observation stream one volume per step, so no stream holds draws
it may never use.
"""

from __future__ import annotations

import numpy as np

# purpose codes (kept stable; new purposes append)
PHANTOM_BUILD = 1
MOTION = 2
OBSERVE = 3
REFERENCE = 4
CALIBRATE = 5

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def substream(
    master_seed: int,
    purpose: int,
    phantom: int = 0,
    target: int = 0,
    replicate: int = 0,
    salt: int = 0,
) -> np.random.Generator:
    """Generator for one (purpose, phantom, target, replicate) slot.

    ``salt`` mixes in a component-level seed (see the ``rng_seed`` fields on
    the parameter dataclasses) without disturbing the structural packing.
    """
    for name, v in (("purpose", purpose), ("phantom", phantom), ("target", target), ("replicate", replicate)):
        if not 0 <= v <= _FIELD_MASK:
            raise ValueError(f"{name} index {v} outside [0, {_FIELD_MASK}]")
    packed = (
        (purpose << (3 * _FIELD_BITS))
        | (phantom << (2 * _FIELD_BITS))
        | (target << _FIELD_BITS)
        | replicate
    )
    key = (((master_seed ^ (salt * 0x9E3779B97F4A7C15)) & (2**64 - 1)) << 64) | packed
    return np.random.Generator(np.random.Philox(key=key))


class InsertionStreams:
    """Bundle of the independent streams one insertion consumes.

    ``motion()`` returns a fresh generator at the same key every call;
    the insertion draws its motion noise from it once, and every gland
    transform of the insertion uses that draw.  The observation stream is
    created once and advances across verification volumes.
    ``needle_count`` carries the session degradation state.
    """

    def __init__(
        self,
        master_seed: int,
        phantom: int,
        target: int,
        replicate: int,
        motion_salt: int = 0,
        noise_salt: int = 0,
        needle_count: int = 0,
    ):
        self.master_seed = master_seed
        self.phantom = phantom
        self.target = target
        self.replicate = replicate
        self.motion_salt = motion_salt
        self.noise_salt = noise_salt
        self.needle_count = needle_count

    def reference(self) -> np.random.Generator:
        return substream(
            self.master_seed, REFERENCE, self.phantom, self.target, self.replicate, self.noise_salt
        )

    def motion(self) -> np.random.Generator:
        return substream(
            self.master_seed, MOTION, self.phantom, self.target, self.replicate, self.motion_salt
        )

    def observation(self) -> np.random.Generator:
        return substream(
            self.master_seed, OBSERVE, self.phantom, self.target, self.replicate, self.noise_salt
        )
