"""Counter-based random streams keyed by structural indices.

Every stochastic draw in a study comes from a Philox generator whose key
encodes (master seed, purpose, phantom, target, replicate).  Outputs
therefore do not depend on execution order, and paired closed/open-loop
runs see identical noise by construction (the loop mode is deliberately
not part of the key).

There is one key layout.  A stream's 128-bit Philox key holds the master
seed, with a component salt mixed in, as its high word, and the 16-bit
purpose, phantom, target and replicate fields, in that order from the
top, as its low word.  ``_slot_fields`` packs and checks a block's slot
indices as one array, once per block, and ``_low_words`` makes the low
words from them; ``substream`` is a block of one.

Recreating a stream yields the same draw sequence.  A sample that must
stay fixed through an insertion (the motion noise) is drawn once from its
stream and passed along; the closed loop and its open-loop baseline share
that one draw.

Each insertion stream has a fixed layout of standard normals, whatever
the noise parameters (N fiducials): reference, N x 3 for the reference
volume then 3 for the observed target; motion, 3; observation, N x 3 per
verification volume, up to the correction budget of
``max_corrections + 1`` volumes.  The draws do not depend on any noise or
motion parameter, which only scale them.  So each stream is drawn whole,
up front, for a block of insertions at once (``draw_insertions``), and
handed out already split by that layout, as the columns of one
``Streams``: this module is the one that knows it.  A slot's session
degradation state, the number of needles placed before it, is its target
id, which ``Streams.target`` holds.  The observation
budget holds volumes that an insertion which converges early never
uses.  A block draw re-keys one module-level Philox per row instead
of building a generator per stream; its rows are the draws of
``substream``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

# purpose codes (kept stable; new purposes append)
PHANTOM_BUILD = 1
MOTION = 2
OBSERVE = 3
REFERENCE = 4
CALIBRATE = 5

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_WORD_MASK = (1 << 64) - 1


def _check_fields(purpose: int, phantom: int, target: int, replicate: int):
    """Raise ValueError naming the first of the fields outside 16 bits, if any."""
    for name, v in (("purpose", purpose), ("phantom", phantom), ("target", target), ("replicate", replicate)):
        if not 0 <= v <= _FIELD_MASK:
            raise ValueError(f"{name} index {v} outside [0, {_FIELD_MASK}]")


def _high_word(master_seed: int, salt: int) -> int:
    """The high 64 bits of a key: the master seed with the salt mixed in."""
    return (master_seed ^ (salt * 0x9E3779B97F4A7C15)) & _WORD_MASK


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
    Raises ValueError for an index outside 16 bits.
    """
    low = _low_words(purpose, [(phantom, target, replicate)])
    key = (_high_word(master_seed, salt) << 64) | int(low[0])
    return np.random.Generator(np.random.Philox(key=key))


def _slot_fields(slots, purpose: int = 0) -> np.ndarray:
    """``slots``, (phantom, target, replicate) indices, as one (K, 3) int64 array.

    A packed array is read as it is.  Raises ValueError for ``purpose`` or
    an index outside 16 bits, naming the first slot and field that is.
    """
    fields = np.asarray(slots).reshape(len(slots), 3)
    # numpy holds an index past 64 bits as an object, which compares too
    bad = (fields < 0) | (fields > _FIELD_MASK) | (not 0 <= purpose <= _FIELD_MASK)
    if bad.any():
        _check_fields(purpose, *fields[int(np.argmax(bad.any(axis=1)))].tolist())
    return fields.astype(np.int64, copy=False)


def _low_words(purpose: int, slots) -> np.ndarray:
    """The low 64 bits of the keys of ``slots``, (phantom, target, replicate) indices: (K,) uint64.

    Raises ValueError for an index outside 16 bits, naming the first slot
    and field that is.
    """
    # unsigned: a purpose past 15 bits fills the top bit of the word
    fields = _slot_fields(slots, purpose).astype(np.uint64)
    return (
        (np.uint64(purpose) << (3 * _FIELD_BITS))
        | (fields[:, 0] << (2 * _FIELD_BITS))
        | (fields[:, 1] << _FIELD_BITS)
        | fields[:, 2]
    )


# One bit generator for every block draw, set to a fresh stream's state
# before each row: counter 0 and an empty buffer, as ``Philox(key=...)``
# starts, so nothing a previous row left behind reaches the next.  Two
# threads drawing at once would interleave their rows; the study is serial.
_PHILOX = np.random.Philox()
_NORMALS = np.random.Generator(_PHILOX)
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def standard_normals(master_seed: int, purpose: int, slots, salt: int, size: int) -> np.ndarray:
    """The first ``size`` standard normals of each slot's stream, (K, size).

    ``slots`` lists (phantom, target, replicate) indices, or holds them
    packed (K, 3) as ``draw_insertions`` passes them; row k equals
    ``substream(master_seed, purpose, *slots[k], salt).standard_normal(size)``.
    Raises ValueError for an index outside 16 bits, as ``substream`` does,
    naming the first slot and field that ``substream`` would refuse.  The
    rows' keys share one high word.
    """
    low = _low_words(purpose, slots)
    out = np.empty((len(slots), size))
    inner = _STATE["state"]
    high = _high_word(master_seed, salt)
    for row, word in zip(out, low.tolist()):
        inner["key"] = [word, high]
        _PHILOX.state = _STATE
        _NORMALS.standard_normal(out=row)
    return out


@dataclass(eq=False)
class Streams(geometry.Columns):
    """The standard normals a block of insertions consumes, drawn up front: row k is slot k.

    ``phantom``, ``target`` and ``replicate`` name the slot; the target id
    is also its needle count, its session degradation state.  The draws
    follow the streams' fixed layout (see the module docstring), split by
    it: the reference stream's one draw is the reference volume
    (``reference_normals``) and the observed target (``target_normals``),
    two views of it.  An insertion scales its motion normals once; the
    closed loop takes one observation volume per verification, in order.
    """

    phantom: np.ndarray  # (K,) int64
    target: np.ndarray
    replicate: np.ndarray
    reference_normals: np.ndarray  # (K, N, 3)
    target_normals: np.ndarray  # (K, 3)
    motion_normals: np.ndarray  # (K, 3)
    observation_normals: np.ndarray  # (K, volumes, N, 3)


def draw_insertions(
    master_seed: int,
    slots,
    n_fiducials: int,
    volumes: int,
    motion_salt: int = 0,
    noise_salt: int = 0,
) -> Streams:
    """The streams of a block of insertions, one row per (phantom, target, replicate) slot.

    Each slot's reference, motion and observation streams are drawn whole
    (``volumes`` verification volumes of ``n_fiducials`` points; an
    open-loop study, which observes none, passes 0), three block draws in
    all, and split into the columns of the streams' layout.
    """
    n = len(slots)
    # packed once, for every draw and the slot columns
    fields = _slot_fields(slots)
    reference = standard_normals(master_seed, REFERENCE, fields, noise_salt, n_fiducials * 3 + 3)
    motion = standard_normals(master_seed, MOTION, fields, motion_salt, 3)
    if volumes:
        observation = standard_normals(master_seed, OBSERVE, fields, noise_salt, volumes * n_fiducials * 3)
    else:
        observation = np.empty((n, 0))
    return Streams(
        *fields.T, reference[:, :-3].reshape(n, n_fiducials, 3), reference[:, -3:],
        motion, observation.reshape(n, volumes, n_fiducials, 3),
    )
