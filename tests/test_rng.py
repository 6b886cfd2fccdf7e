"""Dropout keep-masks from raw Philox words."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from feduaf.rng import Rng


class Words:
    """A bit generator stand-in whose raw draw is a given word array."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, shape):
        return self.words.reshape(shape)


def same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("keep", [0.9, 0.5, 0.45, 0.3, 0.1, 1.0 - 2.0**-53])
def test_keep_threshold_is_exact_at_the_boundary(keep):
    # `random` maps a word w to (w >> 11) * 2**-53, exactly in float64; the
    # last kept and the first dropped 53-bit values sit either side of
    # keep * 2**53, which is not an integer for keep 0.45, 0.3 and 0.1
    thr = int(-(-Fraction(keep) * 2**53 // 1))  # ceil, in exact arithmetic
    low = 0x7FF  # the 11 bits `random` drops
    words = [(thr - 1) << 11, ((thr - 1) << 11) | low, thr << 11, (thr << 11) | low]
    expected = np.array([(w >> 11) * 2.0**-53 < keep for w in words])
    assert expected.tolist() == [True, True, False, False]
    rng = Rng(0)
    rng.gen = SimpleNamespace(bit_generator=Words(words))
    assert np.array_equal(rng.keep_mask((2, 2), keep), expected.reshape(2, 2))


# a dropout rate below 2**-54, valid in a config, makes keep exactly 1.0
@pytest.mark.parametrize("keep", [0.9, 0.3, 1.0 - 1e-17])
def test_keep_mask_matches_random_and_leaves_the_same_state(keep):
    masks, ref = Rng(7), Rng(7)
    for shape in [(170, 128), (40, 32), (0, 32), (3, 5), (1, 1)]:
        mask = masks.keep_mask(shape, keep)
        assert mask.dtype == bool and mask.shape == shape
        assert np.array_equal(mask, ref.random(shape) < keep)
    assert same_state(masks.gen.bit_generator.state, ref.gen.bit_generator.state)
    assert masks.random() == ref.random()
