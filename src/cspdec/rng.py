"""Deterministic random-stream derivation.

Every source of randomness in a run is a child stream of one master seed,
keyed by role and position, so results are reproducible regardless of how
replicates are scheduled.
"""

from __future__ import annotations

import numpy as np

# Fixed namespace tags keeping unrelated stream families disjoint.
_POSITION_TAG = 101
_REPLICATE_TAG = 211


_WORD_MASK = 0xFFFFFFFF


def _entropy_words(keys) -> np.ndarray:
    """The ``uint32`` entropy words ``SeedSequence`` derives from a list of integer keys.

    numpy turns each non-negative integer of an entropy list into its
    little-endian 32-bit words, at least one per integer (0 is one zero
    word), and concatenates them; a ``uint32`` array it takes as these words
    directly.  So ``SeedSequence(_entropy_words(keys))`` has the same pool,
    and seeds the same streams, as ``SeedSequence([int(k) for k in keys])``,
    without numpy's per-integer coercion.
    """
    words = []
    for key in keys:
        key = int(key)
        if key < 0:
            raise ValueError(f"expected non-negative integer keys, got {key}")
        words.append(key & _WORD_MASK)
        key >>= 32
        while key:
            words.append(key & _WORD_MASK)
            key >>= 32
    return np.array(words, dtype=np.uint32)


def substream(*keys: int) -> np.random.Generator:
    """Generator seeded from an ordered tuple of non-negative integer keys."""
    return np.random.default_rng(np.random.SeedSequence(_entropy_words(keys)))


def derive_seed(*keys: int) -> int:
    """A uint64 seed deterministically derived from integer keys."""
    state = np.random.SeedSequence(_entropy_words(keys)).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def replicate_seed(master_seed: int, tag: int, replicate: int) -> int:
    """Per-replicate run seed, independent across (tag, replicate) pairs."""
    return derive_seed(master_seed, _REPLICATE_TAG, tag, replicate)


class PositionStreams:
    """Per-position random streams for one generation run.

    Each sequence position owns a single stream; all draws tied to that
    position (noise records, verification uniforms, resample trials) consume
    it in event order.  Streams are created lazily and cached for the life of
    the run.
    """

    def __init__(self, master_seed: int):
        # bool passes isinstance(value, int), so it is turned away first.
        if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
            raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
        self.master_seed = int(master_seed)
        self._streams: dict[int, np.random.Generator] = {}

    def stream(self, position: int) -> np.random.Generator:
        gen = self._streams.get(position)
        if gen is None:
            gen = substream(self.master_seed, _POSITION_TAG, position)
            self._streams[position] = gen
        return gen
