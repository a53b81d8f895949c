import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prostasim import rng
from prostasim.rng import draw_insertions, standard_normals, substream

N_FIDUCIALS = 12


def drawn(seed=7, slot=(0, 1, 2), volumes=3, **salts):
    """The streams of one insertion, drawn as a block of one."""
    return draw_insertions(seed, [slot], [0], N_FIDUCIALS, volumes, **salts).rows(0)


def test_same_key_same_sequence():
    a = substream(42, rng.MOTION, 1, 2, 3).normal(size=8)
    b = substream(42, rng.MOTION, 1, 2, 3).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_any_index_change_changes_stream():
    base = substream(42, rng.MOTION, 1, 2, 3, salt=0).normal(size=4)
    variants = [
        substream(43, rng.MOTION, 1, 2, 3, salt=0),
        substream(42, rng.OBSERVE, 1, 2, 3, salt=0),
        substream(42, rng.MOTION, 2, 2, 3, salt=0),
        substream(42, rng.MOTION, 1, 3, 3, salt=0),
        substream(42, rng.MOTION, 1, 2, 4, salt=0),
        substream(42, rng.MOTION, 1, 2, 3, salt=9),
    ]
    for v in variants:
        assert not np.array_equal(base, v.normal(size=4))


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        substream(1, rng.MOTION, phantom=1 << 16)
    with pytest.raises(ValueError):
        substream(1, rng.MOTION, target=-1)


INDEX = st.integers(0, 0xFFFF)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    purpose=st.sampled_from([rng.MOTION, rng.OBSERVE, rng.REFERENCE]),
    slots=st.lists(st.tuples(INDEX, INDEX, INDEX), min_size=1, max_size=5),
    salt=st.integers(1, 2**64 - 1),
    size=st.integers(1, 500),
    lead=st.integers(0, 40).map(lambda n: 2 * n + 1),
    bad=st.tuples(st.integers(0, 2), st.sampled_from([-1, 1 << 16])),
)
@example(
    seed=2**64 - 1, purpose=rng.OBSERVE, slots=[(0xFFFF, 0xFFFF, 0xFFFF), (0, 0, 0)],
    salt=2**64 - 1, size=1, lead=1, bad=(0, 1 << 16),
)
def test_a_block_draw_is_each_streams_own_draw(seed, purpose, slots, salt, size, lead, bad):
    # an odd-length draw leaves the shared generator mid-buffer, and an odd
    # size leaves it so after every row of the block
    standard_normals(seed ^ 1, purpose, slots[:1], salt, lead)
    got = standard_normals(seed, purpose, slots, salt, size)
    assert got.shape == (len(slots), size)
    for row, slot in zip(got, slots):
        np.testing.assert_array_equal(row, substream(seed, purpose, *slot, salt).standard_normal(size))
    # an index outside 16 bits is refused by both paths
    field, value = bad
    slot = list(slots[0])
    slot[field] = value
    with pytest.raises(ValueError, match="outside"):
        substream(seed, purpose, *slot, salt)
    with pytest.raises(ValueError, match="outside"):
        standard_normals(seed, purpose, [slots[0], tuple(slot)], salt, size)


@pytest.mark.parametrize("slots, message", [
    # the first slot with an index outside 16 bits, and its first such field
    ([(0, 1, 2), (3, 4, 5), (6, 1 << 16, -1), (-1, 0, 0)], "target index 65536 outside"),
    ([(0, 1, 2), (3, 4, -1), (1 << 16, 0, 0)], "replicate index -1 outside"),
    ([(0, 1, 2), (3, 4, 5), (2**70, 0, 0)], f"phantom index {2**70} outside"),
])
def test_a_bad_index_later_in_a_block_is_named_as_substream_names_it(slots, message):
    with pytest.raises(ValueError, match=message):
        standard_normals(7, rng.OBSERVE, slots, 0, 3)
    bad = next(slot for slot in slots if not all(0 <= v <= 0xFFFF for v in slot))
    with pytest.raises(ValueError, match=message):
        substream(7, rng.OBSERVE, *bad)


def test_a_block_of_streams_holds_each_slots_own_draw():
    # row k of a block's columns is slot k's draw, as a block of one
    slots, counts = [(0, 1, 2), (3, 0, 1), (2, 5, 0)], [4, 0, 7]
    block = draw_insertions(7, slots, counts, N_FIDUCIALS, 3, motion_salt=5, noise_salt=2)
    assert len(block) == len(slots)
    np.testing.assert_array_equal(np.stack([block.phantom, block.target, block.replicate], axis=1), slots)
    np.testing.assert_array_equal(block.needle_count, counts)
    for k, (slot, count) in enumerate(zip(slots, counts)):
        alone = draw_insertions(7, [slot], [count], N_FIDUCIALS, 3, motion_salt=5, noise_salt=2)
        assert block.rows([k]) == alone, k


def test_motion_stream_is_frozen():
    # every draw of an insertion's streams gives it the same motion normals
    first = drawn().motion_normals
    np.testing.assert_array_equal(first, drawn().motion_normals)
    np.testing.assert_array_equal(first, substream(7, rng.MOTION, 0, 1, 2).standard_normal(3))


def test_observation_stream_advances_but_replays():
    volumes = drawn().observation_normals
    assert volumes.shape == (3, N_FIDUCIALS, 3)
    assert not np.array_equal(volumes[0], volumes[1])
    # volume v is the stream's v-th draw of N x 3
    replay = substream(7, rng.OBSERVE, 0, 1, 2)
    for volume in volumes:
        np.testing.assert_array_equal(replay.standard_normal((N_FIDUCIALS, 3)), volume)


def test_streams_disjoint_within_insertion():
    s = drawn()
    assert not np.array_equal(s.motion_normals, s.observation_normals[0, 0])
    assert not np.array_equal(s.motion_normals, s.reference_normals[0])
    # the reference stream is the reference volume's N x 3, then the observed target's 3
    assert s.reference_normals.shape == (N_FIDUCIALS, 3) and s.target_normals.shape == (3,)
    np.testing.assert_array_equal(
        np.concatenate([s.reference_normals.ravel(), s.target_normals]),
        substream(7, rng.REFERENCE, 0, 1, 2).standard_normal(N_FIDUCIALS * 3 + 3),
    )


def test_salts_separate_model_components():
    plain, motion, noise = drawn(), drawn(motion_salt=5), drawn(noise_salt=5)
    assert not np.array_equal(plain.motion_normals, motion.motion_normals)
    np.testing.assert_array_equal(plain.reference_normals, motion.reference_normals)
    np.testing.assert_array_equal(plain.motion_normals, noise.motion_normals)
    assert not np.array_equal(plain.reference_normals, noise.reference_normals)
    assert not np.array_equal(plain.observation_normals, noise.observation_normals)


def test_an_open_loop_block_draws_no_observation_budget():
    s = drawn(volumes=0)
    assert s.observation_normals.shape == (0, N_FIDUCIALS, 3)
    np.testing.assert_array_equal(s.motion_normals, drawn().motion_normals)
