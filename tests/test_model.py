"""Fused multimodal pipeline: forward, stop-gradient fusion, shared block."""

import numpy as np
import pytest

from feduaf.exceptions import ShapeError
from feduaf.fusion import MODALITIES
from feduaf.model import (
    ModelParams,
    assign_shared,
    backward_fused,
    extract_shared,
    forward_fused,
    fused_mc_predictions,
    init_model_params,
    predict_eval,
    probe_predictions,
)
from feduaf.nn import EVAL, IDENTITY, RELU, TRAIN, DenseLayer, Mlp, mse_loss_batch
from feduaf.rng import Rng

from oracles import assert_grads_close, finite_difference_grads

DIMS = {"v": 4, "a": 3, "t": 5}


def tiny_model(dropout=0.0, seed=0):
    return init_model_params(DIMS, hidden_dim=6, fusion_dim=5,
                             dropout_rate=dropout, rng=Rng(seed))


def tensor(model, flat, name):
    """The named tensor's view into a vector laid out like `model.theta`."""
    (off, shape), = [(o, s) for n, o, s in model.layout if n == name]
    return flat[off:off + int(np.prod(shape))].reshape(shape)


def expected_names(model, share_encoders):
    """Tensor names in upload order, spelled out from the components."""
    comps = [f"encoder.{m}" for m in MODALITIES] if share_encoders else []
    comps.append("shared_head")
    mlps = dict(model.components())
    return [f"{c}.layers.{i}.{attr}" for c in comps
            for i in range(len(mlps[c].layers)) for attr in ("weight", "bias")]


def random_batch(b=4, seed=1):
    rng = Rng(seed)
    feats = {m: rng.normal(size=(b, DIMS[m])) for m in MODALITIES}
    alpha = np.abs(rng.normal(size=(b, 3))) + 0.1
    alpha /= alpha.sum(axis=1, keepdims=True)
    labels = rng.normal(size=b)
    return feats, alpha, labels


class TestForwardFused:
    def test_output_shape(self):
        model = tiny_model()
        feats, alpha, _ = random_batch()
        preds, tape = forward_fused(model, feats, alpha, EVAL)
        assert preds.shape == (4,)
        assert tape.alpha.shape == (4, 3)

    def test_zero_weight_modality_does_not_contribute(self):
        model = tiny_model()
        feats, _, _ = random_batch()
        alpha = np.array([[0.5, 0.5, 0.0]] * 4)
        base = predict_eval(model, feats, alpha)
        scrambled = dict(feats)
        scrambled["t"] = feats["t"] + 100.0
        assert np.array_equal(base, predict_eval(model, scrambled, alpha))

    def test_single_modality_weight_one_matches_probe_path(self):
        model = tiny_model(dropout=0.0)
        feats, _, _ = random_batch()
        alpha = np.array([[0.0, 0.0, 1.0]] * 4)
        fused = predict_eval(model, feats, alpha)
        probe = probe_predictions(model, feats, np.ones((4, 3), dtype=bool), 2, Rng(0))
        np.testing.assert_allclose(fused, probe["t"][0], rtol=1e-12)


class TestBackwardFused:
    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        model = tiny_model(seed=seed)
        feats, alpha, labels = random_batch(seed=seed + 10)

        def loss_fn():
            preds, _ = forward_fused(model, feats, alpha, EVAL)
            return mse_loss_batch(preds, labels)[0]

        preds, tape = forward_fused(model, feats, alpha, EVAL)
        _, dpreds = mse_loss_batch(preds, labels)
        analytic = backward_fused(model, tape, dpreds)
        numeric = finite_difference_grads(loss_fn, [model.theta])
        assert_grads_close([analytic], numeric)

    def test_reused_buffer_is_fully_overwritten(self):
        model = tiny_model()
        feats, alpha, labels = random_batch()
        preds, tape = forward_fused(model, feats, alpha, EVAL)
        _, dpreds = mse_loss_batch(preds, labels)
        grad = np.full_like(model.theta, np.nan)
        out = backward_fused(model, tape, dpreds, out=(grad, model.layer_views(grad)))
        assert out is grad
        assert np.array_equal(grad, backward_fused(model, tape, dpreds))

    def test_representation_gradient_scales_with_alpha(self):
        # d(loss)/d(h_m) = alpha_m * d(loss)/d(h): doubling a modality's
        # weight doubles its encoder's gradient for a linear path
        model = tiny_model()
        feats, _, labels = random_batch()
        grads_by_alpha = []
        for w_v in (0.25, 0.5):
            alpha = np.zeros((4, 3))
            alpha[:, 0] = w_v
            alpha[:, 2] = 1.0 - w_v
            preds, tape = forward_fused(model, feats, alpha, EVAL)
            g = backward_fused(model, tape, np.ones(4))
            grads_by_alpha.append(tensor(model, g, "encoder.v.layers.0.bias"))
        np.testing.assert_allclose(2.0 * grads_by_alpha[0], grads_by_alpha[1],
                                   rtol=1e-9)

    def test_train_mode_gradcheck_with_frozen_masks(self):
        # dropout masks recorded on the tape define the differentiated
        # function; finite differences replay through the same masks
        model = tiny_model(dropout=0.4, seed=2)
        feats, alpha, labels = random_batch(seed=5)
        preds, tape = forward_fused(model, feats, alpha, TRAIN, Rng(77))
        _, dpreds = mse_loss_batch(preds, labels)
        analytic = backward_fused(model, tape, dpreds)

        def loss_fn():
            out = None
            for mi, m in enumerate(MODALITIES):
                a = feats[m]
                mlp = model.encoders[m]
                t = tape.encoder_tapes[m]
                for li, layer in enumerate(mlp.layers):
                    z = a @ layer.weights.T + layer.bias
                    if layer.activation == "relu":
                        a = np.where(z > 0, z, 0.0)
                        if t.masks[li] is not None:
                            a = np.where(t.masks[li], a / t.keep, 0.0)
                    else:
                        a = z
                contrib = alpha[:, mi:mi + 1] * a
                out = contrib if out is None else out + contrib
            for mlp, t in ((model.shared_head, tape.shared_tape),
                           (model.prediction_head, tape.pred_tape)):
                for li, layer in enumerate(mlp.layers):
                    z = out @ layer.weights.T + layer.bias
                    if layer.activation == "relu":
                        out = np.where(z > 0, z, 0.0)
                        if t.masks[li] is not None:
                            out = np.where(t.masks[li], out / t.keep, 0.0)
                    else:
                        out = z
            return mse_loss_batch(out[:, 0], labels)[0]

        numeric = finite_difference_grads(loss_fn, [model.theta])
        assert_grads_close([analytic], numeric)


class TestSharedBlock:
    def test_upload_contains_only_shared_head_by_default(self):
        model = tiny_model()
        names = [name for name, _ in extract_shared(model)]
        assert names and all(n.startswith("shared_head.") for n in names)

    def test_share_encoders_flag_widens_block(self):
        model = tiny_model()
        names = [name for name, _ in extract_shared(model, share_encoders=True)]
        assert any(n.startswith("encoder.v.") for n in names)
        assert all(not n.startswith("prediction_head.") for n in names)

    def test_assign_round_trip(self):
        src, dst = tiny_model(seed=1), tiny_model(seed=2)
        assign_shared(dst, extract_shared(src))
        for a, b in zip(src.shared_head.layers, dst.shared_head.layers):
            assert np.array_equal(a.weights, b.weights)
        # encoders untouched
        assert not np.array_equal(src.encoders["v"].layers[0].weights,
                                  dst.encoders["v"].layers[0].weights)

    def test_layers_are_views_into_theta(self):
        model = tiny_model()
        mlps = [mlp for _, mlp in model.components()]
        arrays = [a for mlp in mlps for layer in mlp.layers
                  for a in (layer.weights, layer.bias)]
        assert all(np.shares_memory(a, model.theta) for a in arrays)
        assert model.theta.size == sum(a.size for a in arrays)
        model.theta[:] = 0.0
        assert all(not a.any() for a in arrays)

    @pytest.mark.parametrize("share_encoders", [False, True])
    def test_layout_names_and_shared_slice(self, share_encoders):
        model = tiny_model()
        names = [name for name, _ in extract_shared(model, share_encoders)]
        assert names == expected_names(model, share_encoders)
        block = model.shared_slice(share_encoders)
        flat = np.concatenate([arr.ravel() for _, arr in
                               extract_shared(model, share_encoders)])
        assert np.array_equal(flat, model.theta[block])
        assert model.layout[-1][0] == "prediction_head.layers.0.bias"
        assert block.stop == model.layout[-2][1]

    @pytest.mark.parametrize("share_encoders", [False, True])
    def test_extract_assign_round_trips(self, share_encoders):
        src, dst = tiny_model(seed=1), tiny_model(seed=2)
        before = dst.theta.copy()
        block = src.shared_slice(share_encoders)
        assign_shared(dst, extract_shared(src, share_encoders), share_encoders)
        assert np.array_equal(dst.theta[block], src.theta[block])
        rest = np.ones(dst.theta.size, dtype=bool)
        rest[block] = False
        assert np.array_equal(dst.theta[rest], before[rest])

    def test_hand_built_model_is_packed(self):
        def linear(w):
            return Mlp([DenseLayer(np.array(w, dtype=float), np.zeros(len(w)), IDENTITY)])

        weights = {m: [[1.0 + i, 2.0], [3.0, 4.0 + i]] for i, m in enumerate(MODALITIES)}
        model = ModelParams(
            encoders={m: linear(w) for m, w in weights.items()},
            shared_head=Mlp([DenseLayer(np.eye(2), np.ones(2), RELU)]),
            prediction_head=linear([[0.5, -0.5]]),
        )
        assert model.theta.size == 3 * 6 + 6 + 3
        for m in MODALITIES:
            layer = model.encoders[m].layers[0]
            assert np.shares_memory(layer.weights, model.theta)
            assert layer.weights.tolist() == weights[m]
        assert [n for n, _, _ in model.layout][:2] == [
            "encoder.v.layers.0.weight", "encoder.v.layers.0.bias"]

    def test_invariant_validation(self):
        model = tiny_model()
        model.prediction_head.layers[-1].weights = np.zeros((2, 6))
        model.prediction_head.layers[-1].bias = np.zeros(2)
        with pytest.raises(ShapeError):
            model.validate()


class TestMcPaths:
    def test_probe_shape_and_determinism(self):
        model = tiny_model(dropout=0.3)
        feats = {m: Rng(1).normal(size=(6, DIMS[m])) for m in MODALITIES}
        mask = np.zeros((6, 3), dtype=bool)
        mask[:, 1] = True
        a = probe_predictions(model, feats, mask, 5, Rng(9))
        b = probe_predictions(model, feats, mask, 5, Rng(9))
        assert a["a"].shape == (5, 6)
        assert all(np.array_equal(a[m], b[m]) for m in MODALITIES)

    def test_probe_rows_match_single_modality_eval(self):
        # the heads run once over all modalities' rows; splitting the
        # output back must hand each modality exactly its own rows
        model = tiny_model(dropout=0.0)
        feats, _, _ = random_batch(b=6)
        mask = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 0],
                         [0, 0, 1], [1, 0, 0], [1, 1, 0]], dtype=bool)
        probe = probe_predictions(model, feats, mask, 3, Rng(0))
        for mi, m in enumerate(MODALITIES):
            alpha = np.zeros((6, 3))
            alpha[:, mi] = 1.0
            expected = predict_eval(model, feats, alpha)[mask[:, mi]]
            assert probe[m].shape == (3, int(mask[:, mi].sum()))
            for row in probe[m]:
                np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_fused_mc_zero_dropout_collapses(self):
        model = tiny_model(dropout=0.0)
        feats, alpha, _ = random_batch()
        preds = fused_mc_predictions(model, feats, alpha, 4, Rng(3))
        assert np.ptp(preds, axis=0).max() == 0.0
