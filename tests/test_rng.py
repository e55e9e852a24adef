import numpy as np
import pytest

from cspdec.rng import derive_seed, substream

# Keys at and around the 32-bit word boundaries, where each key's word count changes.
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**100]


def key_tuples(count=600):
    rng = np.random.default_rng(20261020)
    tuples = [(k,) for k in EDGE_KEYS] + [tuple(EDGE_KEYS), ()]
    while len(tuples) < count:
        keys = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.3:
                keys.append(EDGE_KEYS[int(rng.integers(len(EDGE_KEYS)))])
            else:
                keys.append(int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63)))
        tuples.append(tuple(keys))
    return tuples


def numpy_stream(keys):
    """The stream numpy seeds from the list of keys as Python ints."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def numpy_seed(keys):
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def test_substream_is_numpys_stream_of_the_key_list():
    for keys in key_tuples():
        ours, ref = substream(*keys), numpy_stream(keys)
        assert ours.bit_generator.state == ref.bit_generator.state, keys
        assert np.array_equal(ours.random(3), ref.random(3))
        assert np.array_equal(ours.standard_normal(3), ref.standard_normal(3))


def test_derive_seed_is_unchanged():
    for keys in key_tuples():
        assert derive_seed(*keys) == numpy_seed(keys), keys


def test_numpy_integer_keys_read_as_their_values():
    keys = (np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1))
    assert substream(*keys).bit_generator.state == numpy_stream(keys).bit_generator.state
    assert derive_seed(*keys) == numpy_seed(keys)


@pytest.mark.parametrize("keys", [(-1,), (3, -1), (0, -(2**40))])
def test_negative_key_rejected(keys):
    with pytest.raises(ValueError, match="non-negative"):
        substream(*keys)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(*keys)
