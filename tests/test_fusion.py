"""Masked-softmax fusion weights and convex representation fusion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feduaf.exceptions import NumericError
from feduaf.fusion import (
    MODALITIES,
    fuse_batch,
    fusion_weights_batch,
    uniform_fusion_weights_batch,
    weighted_rows,
)

from oracles import masked_softmax_ref

finite_u = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def one_row(u: dict):
    """A one-row batch: u over the available modalities, NaN elsewhere,
    and the (1, 3) mask of the modalities u names."""
    row = np.array([[u.get(m, np.nan) for m in MODALITIES]])
    mask = np.array([[m in u for m in MODALITIES]])
    return row, mask


def weights(u: dict) -> dict:
    w = fusion_weights_batch(*one_row(u))
    return dict(zip(MODALITIES, w[0]))


def mask_of(*modalities) -> np.ndarray:
    return np.array([[m in modalities for m in MODALITIES]])


class TestFusionWeights:
    def test_equal_uncertainties_give_equal_weights(self):
        w = weights({"v": 0.3, "a": 0.3, "t": 0.3})
        for m in MODALITIES:
            assert w[m] == pytest.approx(1 / 3)

    def test_two_modalities_analytic(self):
        # exp(0) / (exp(0) + exp(-ln 3)) = 1 / (1 + 1/3) = 0.75
        w = weights({"v": 0.0, "a": math.log(3)})
        assert w["v"] == pytest.approx(0.75)
        assert w["a"] == pytest.approx(0.25)
        assert w["t"] == 0.0

    def test_single_modality_gets_weight_one(self):
        w = weights({"t": 1.7})
        assert w == {"v": 0.0, "a": 0.0, "t": 1.0}

    def test_all_masked_raises(self):
        with pytest.raises(NumericError):
            fusion_weights_batch(*one_row({}))

    def test_nonfinite_uncertainty_is_fail_soft(self):
        w = weights({"v": np.nan, "a": 0.5, "t": 0.5})
        assert w["v"] == 0.0
        assert w["a"] == pytest.approx(0.5)

    def test_huge_uncertainties_stay_finite(self):
        w = weights({"v": 1e308, "a": 1e308, "t": 0.0})
        assert math.isfinite(w["v"]) and w["t"] == pytest.approx(1.0)

    @given(uv=finite_u, ua=finite_u, ut=finite_u)
    def test_weights_sum_to_one(self, uv, ua, ut):
        w = weights({"v": uv, "a": ua, "t": ut})
        assert abs(sum(w.values()) - 1.0) <= 1e-9

    @given(uv=finite_u, ua=finite_u, ut=finite_u,
           c=st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_shift_invariance(self, uv, ua, ut, c):
        base = weights({"v": uv, "a": ua, "t": ut})
        shifted = weights({"v": uv + c, "a": ua + c, "t": ut + c})
        for m in MODALITIES:
            assert abs(base[m] - shifted[m]) <= 1e-12

    # strictness is only representable while the softmax is unsaturated
    # (u gaps beyond ~37 round both weights to exactly 0 and 1 in float64)
    @given(uv=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
           ua=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
           bump=st.floats(min_value=1e-3, max_value=10, allow_nan=False))
    def test_monotonicity(self, uv, ua, bump):
        before = weights({"v": uv, "a": ua})
        after = weights({"v": uv + bump, "a": ua})
        assert after["v"] < before["v"]

    @given(uv=finite_u, ua=finite_u)
    def test_masked_weight_is_exactly_zero(self, uv, ua):
        assert weights({"v": uv, "a": ua})["t"] == 0.0


class TestUniformWeights:
    @pytest.mark.parametrize("mods,expected", [
        (("v", "a", "t"), 1 / 3),
        (("v", "a"), 0.5),
        (("t",), 1.0),
    ])
    def test_equal_split(self, mods, expected):
        w = uniform_fusion_weights_batch(mask_of(*mods))[0]
        for mi, m in enumerate(MODALITIES):
            assert w[mi] == (pytest.approx(expected) if m in mods else 0.0)


def fuse_one(reps: dict, alpha: dict) -> list:
    """fuse_batch on one row; reps[m] is given for the weighted modalities
    and is a zero-row block for the others."""
    batch = np.array([[alpha.get(m, 0.0) for m in MODALITIES]])
    rows, weights = weighted_rows(batch)
    width = len(next(iter(reps.values())))
    gathered = {m: np.array([reps[m]]) if len(rows[m]) else np.zeros((0, width))
                for m in MODALITIES}
    return fuse_batch(gathered, weights, rows, 1)[0].tolist()


class TestFuse:
    def test_single_modality_identity(self):
        assert fuse_one({"v": [1.0, 1.0]}, {"v": 1.0}) == [1.0, 1.0]

    def test_symmetric_average(self):
        out = fuse_one({"v": [0.0, 2.0], "a": [2.0, 0.0]}, {"v": 0.5, "a": 0.5})
        assert out == [1.0, 1.0]

    def test_weighted_sum(self):
        assert fuse_one({"v": [4.0], "a": [0.0]}, {"v": 0.75, "a": 0.25}) == [3.0]

    def test_zero_weight_rep_may_be_absent(self):
        assert fuse_one({"t": [2.0]}, {"t": 1.0}) == [2.0]


class TestBatchedVariants:
    @given(st.lists(
        st.tuples(finite_u, finite_u, finite_u,
                  st.integers(min_value=1, max_value=7)),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=50)
    def test_batch_matches_per_sample_exactly(self, rows):
        u = np.array([[r[0], r[1], r[2]] for r in rows])
        # bits 1..7 encode at least one available modality
        mask = np.array([[(r[3] >> i) & 1 for i in range(3)] for r in rows], dtype=bool)
        u_masked = np.where(mask, u, np.nan)
        batch = fusion_weights_batch(u_masked, mask)
        for i in range(len(rows)):
            alone = fusion_weights_batch(u_masked[i:i + 1], mask[i:i + 1])
            assert batch[i].tolist() == alone[0].tolist()

    @given(st.lists(
        st.tuples(*[st.one_of(finite_u, st.sampled_from([np.nan, np.inf, -np.inf]))] * 3,
                  st.integers(min_value=1, max_value=7)),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=100)
    def test_batch_matches_plain_python_softmax(self, rows):
        u = np.array([r[:3] for r in rows], dtype=np.float64)
        mask = np.array([[(r[3] >> i) & 1 for i in range(3)] for r in rows], dtype=bool)
        for i in range(len(rows)):
            # non-finite available entries are masked; keep one usable per row
            if not (mask[i] & np.isfinite(u[i])).any():
                u[i, np.argmax(mask[i])] = 0.5
        batch = fusion_weights_batch(u, mask)
        for i in range(len(rows)):
            ref = masked_softmax_ref(u[i].tolist(), mask[i].tolist())
            assert np.abs(batch[i] - ref).max() <= 1e-12

    def test_uniform_batch_matches_per_sample(self):
        mask = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 1]], dtype=bool)
        batch = uniform_fusion_weights_batch(mask)
        for i in range(3):
            alone = uniform_fusion_weights_batch(mask[i:i + 1])
            assert batch[i].tolist() == alone[0].tolist()

    def test_all_masked_row_raises(self):
        with pytest.raises(NumericError):
            fusion_weights_batch(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))
