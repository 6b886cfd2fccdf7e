"""Deterministic seeded randomness.

Every stochastic component owns an `Rng` derived from the run seed plus a
path of labels (round index, client id, purpose tag, ...). Streams are
backed by Philox, a counter-based generator, so the same seed and the same
call sequence give the same numbers on every platform, and sibling streams
are statistically independent regardless of scheduling order.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np


def _key_to_int(part) -> int:
    """A key part, an int >= 0 or a string, as SeedSequence entropy."""
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return int(part)


@functools.lru_cache(maxsize=16)
def _last_kept_word(keep: float) -> np.uint64:
    """Raw words up to this one are kept. `random` maps a word w to
    (w >> 11) * 2**-53, and for an integer k, k * 2**-53 < keep exactly when
    k < ceil(keep * 2**53). At keep 1.0 every word is kept."""
    return np.uint64((math.ceil(keep * 2**53) << 11) - 1)


class Rng:
    """Seeded random stream with hierarchical derivation."""

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(key)
        entropy = [self.seed] + [_key_to_int(p) for p in self.key]
        self.gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def derive(self, *key_parts) -> "Rng":
        """Child stream at `key + key_parts`; independent of calls made on self."""
        return Rng(self.seed, self.key + key_parts)

    # Thin pass-throughs for the draws the simulator actually uses.
    def random(self, size=None):
        return self.gen.random(size)

    def keep_mask(self, shape, keep: float) -> np.ndarray:
        """The bool mask `random(shape) < keep`, made from the same raw
        words without converting them to floats; the stream ends in the
        same state."""
        return self.gen.bit_generator.random_raw(shape) <= _last_kept_word(keep)

    def uniform(self, low, high, size=None):
        return self.gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def permutation(self, n):
        return self.gen.permutation(n)

    def choice(self, a, size=None, replace=True):
        return self.gen.choice(a, size=size, replace=replace)
