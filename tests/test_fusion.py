"""Masked-softmax fusion weights and convex representation fusion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feduaf.exceptions import DegenerateInputError, ShapeError, StateError
from feduaf.fusion import (
    MODALITIES,
    FusionWeights,
    ModalityMask,
    fuse,
    fusion_weights,
    fusion_weights_batch,
    uniform_fusion_weights,
    uniform_fusion_weights_batch,
)

from oracles import masked_softmax_ref

finite_u = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestFusionWeights:
    def test_equal_uncertainties_give_equal_weights(self):
        w = fusion_weights({"v": 0.3, "a": 0.3, "t": 0.3}, ModalityMask.full())
        for m in MODALITIES:
            assert w.alpha[m] == pytest.approx(1 / 3)

    def test_two_modalities_analytic(self):
        # exp(0) / (exp(0) + exp(-ln 3)) = 1 / (1 + 1/3) = 0.75
        w = fusion_weights({"v": 0.0, "a": math.log(3)}, ModalityMask.of("v", "a"))
        assert w.alpha["v"] == pytest.approx(0.75)
        assert w.alpha["a"] == pytest.approx(0.25)
        assert w.alpha["t"] == 0.0

    def test_single_modality_gets_weight_one(self):
        w = fusion_weights({"t": 1.7}, ModalityMask.of("t"))
        assert w.alpha == {"v": 0.0, "a": 0.0, "t": 1.0}

    def test_missing_uncertainty_raises(self):
        with pytest.raises(StateError):
            fusion_weights({"v": 0.1}, ModalityMask.of("v", "a"))

    def test_all_masked_raises(self):
        with pytest.raises(ShapeError):
            ModalityMask({})
        mask = ModalityMask({m: False for m in MODALITIES})
        with pytest.raises(DegenerateInputError):
            fusion_weights({}, mask)

    def test_nonfinite_uncertainty_is_fail_soft(self):
        w = fusion_weights({"v": np.nan, "a": 0.5, "t": 0.5}, ModalityMask.full())
        assert w.alpha["v"] == 0.0
        assert w.alpha["a"] == pytest.approx(0.5)

    def test_huge_uncertainties_stay_finite(self):
        w = fusion_weights({"v": 1e308, "a": 1e308, "t": 0.0}, ModalityMask.full())
        assert math.isfinite(w.alpha["v"]) and w.alpha["t"] == pytest.approx(1.0)

    @given(uv=finite_u, ua=finite_u, ut=finite_u)
    def test_weights_sum_to_one(self, uv, ua, ut):
        w = fusion_weights({"v": uv, "a": ua, "t": ut}, ModalityMask.full())
        assert abs(sum(w.alpha.values()) - 1.0) <= 1e-9
        w.validate(ModalityMask.full())

    @given(uv=finite_u, ua=finite_u, ut=finite_u,
           c=st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_shift_invariance(self, uv, ua, ut, c):
        mask = ModalityMask.full()
        base = fusion_weights({"v": uv, "a": ua, "t": ut}, mask)
        shifted = fusion_weights({"v": uv + c, "a": ua + c, "t": ut + c}, mask)
        for m in MODALITIES:
            assert abs(base.alpha[m] - shifted.alpha[m]) <= 1e-12

    # strictness is only representable while the softmax is unsaturated
    # (u gaps beyond ~37 round both weights to exactly 0 and 1 in float64)
    @given(uv=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
           ua=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
           bump=st.floats(min_value=1e-3, max_value=10, allow_nan=False))
    def test_monotonicity(self, uv, ua, bump):
        mask = ModalityMask.of("v", "a")
        before = fusion_weights({"v": uv, "a": ua}, mask)
        after = fusion_weights({"v": uv + bump, "a": ua}, mask)
        assert after.alpha["v"] < before.alpha["v"]

    @given(uv=finite_u, ua=finite_u)
    def test_masked_weight_is_exactly_zero(self, uv, ua):
        w = fusion_weights({"v": uv, "a": ua}, ModalityMask.of("v", "a"))
        assert w.alpha["t"] == 0.0


class TestUniformWeights:
    @pytest.mark.parametrize("mods,expected", [
        (("v", "a", "t"), 1 / 3),
        (("v", "a"), 0.5),
        (("t",), 1.0),
    ])
    def test_equal_split(self, mods, expected):
        w = uniform_fusion_weights(ModalityMask.of(*mods))
        for m in MODALITIES:
            assert w.alpha[m] == (pytest.approx(expected) if m in mods else 0.0)

    def test_all_masked_raises(self):
        mask = ModalityMask({m: False for m in MODALITIES})
        with pytest.raises(DegenerateInputError):
            uniform_fusion_weights(mask)


class TestFuse:
    def test_single_modality_identity(self):
        out = fuse({"v": np.array([1.0, 1.0])}, FusionWeights({"v": 1.0}))
        assert out.tolist() == [1.0, 1.0]

    def test_symmetric_average(self):
        out = fuse({"v": np.array([0.0, 2.0]), "a": np.array([2.0, 0.0])},
                   FusionWeights({"v": 0.5, "a": 0.5}))
        assert out.tolist() == [1.0, 1.0]

    def test_weighted_sum(self):
        out = fuse({"v": np.array([4.0]), "a": np.array([0.0])},
                   FusionWeights({"v": 0.75, "a": 0.25}))
        assert out.tolist() == [3.0]

    def test_zero_weight_rep_may_be_absent(self):
        out = fuse({"t": np.array([2.0])}, FusionWeights({"t": 1.0}))
        assert out.tolist() == [2.0]

    def test_dim_mismatch_raises(self):
        with pytest.raises(ShapeError):
            fuse({"v": np.zeros(2), "a": np.zeros(3)},
                 FusionWeights({"v": 0.5, "a": 0.5}))


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
        for i, r in enumerate(rows):
            mask_i = ModalityMask({m: bool(mask[i, mi])
                                   for mi, m in enumerate(MODALITIES)})
            u_i = {m: u[i, mi] for mi, m in enumerate(MODALITIES) if mask[i, mi]}
            expected = fusion_weights(u_i, mask_i)
            assert batch[i].tolist() == expected.as_array().tolist()

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
            mask_i = ModalityMask({m: bool(mask[i, mi])
                                   for mi, m in enumerate(MODALITIES)})
            assert batch[i].tolist() == uniform_fusion_weights(mask_i).as_array().tolist()

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateInputError):
            fusion_weights_batch(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))
