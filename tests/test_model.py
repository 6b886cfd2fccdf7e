"""Fused multimodal pipeline: forward, stop-gradient fusion, shared block."""

import numpy as np
import pytest

import feduaf.model
from feduaf.exceptions import NumericError
from feduaf.fusion import MODALITIES
from feduaf.model import (
    ModelParams,
    assign_shared,
    backward_fused,
    extract_shared,
    forward_fused,
    fused_mc_predictions,
    init_model_params,
    probe_predictions,
)
from feduaf.nn import Mlp, mse_loss_batch
from feduaf.rng import Rng

from oracles import assert_grads_close, finite_difference_grads

DIMS = {"v": 4, "a": 3, "t": 5}


def tiny_model(dropout=0.0, seed=0):
    return init_model_params(DIMS, hidden_dim=6, fusion_dim=5,
                             dropout_rate=dropout, rng=Rng(seed))


def grad_buffer(model, fill=np.nan):
    """A gradient vector laid out like `model.theta`, with the layer views
    backward_fused writes through; NaN-filled, so an unwritten slot shows."""
    grad = np.full_like(model.theta, fill)
    return grad, model.layer_views(grad)


def tensor(model, flat, name):
    """The named tensor's view into a vector laid out like `model.theta`."""
    (off, shape), = [(o, s) for n, o, s in model.layout if n == name]
    return flat[off:off + int(np.prod(shape))].reshape(shape)


# tiny_model's layout: the v1 checkpoint name, offset and shape of every
# tensor of theta; the exchanged block is the shared head, after the
# encoders when they are shared too
TINY_LAYOUT = [
    ("encoder.v.layers.0.weight", 0, (6, 4)),
    ("encoder.v.layers.0.bias", 24, (6,)),
    ("encoder.v.layers.1.weight", 30, (5, 6)),
    ("encoder.v.layers.1.bias", 60, (5,)),
    ("encoder.a.layers.0.weight", 65, (6, 3)),
    ("encoder.a.layers.0.bias", 83, (6,)),
    ("encoder.a.layers.1.weight", 89, (5, 6)),
    ("encoder.a.layers.1.bias", 119, (5,)),
    ("encoder.t.layers.0.weight", 124, (6, 5)),
    ("encoder.t.layers.0.bias", 154, (6,)),
    ("encoder.t.layers.1.weight", 160, (5, 6)),
    ("encoder.t.layers.1.bias", 190, (5,)),
    ("shared_head.layers.0.weight", 195, (6, 5)),
    ("shared_head.layers.0.bias", 225, (6,)),
    ("prediction_head.layers.0.weight", 231, (1, 6)),
    ("prediction_head.layers.0.bias", 237, (1,)),
]
UPLOAD_NAMES = {
    False: ["shared_head.layers.0.weight", "shared_head.layers.0.bias"],
    True: ["encoder.v.layers.0.weight", "encoder.v.layers.0.bias",
           "encoder.v.layers.1.weight", "encoder.v.layers.1.bias",
           "encoder.a.layers.0.weight", "encoder.a.layers.0.bias",
           "encoder.a.layers.1.weight", "encoder.a.layers.1.bias",
           "encoder.t.layers.0.weight", "encoder.t.layers.0.bias",
           "encoder.t.layers.1.weight", "encoder.t.layers.1.bias",
           "shared_head.layers.0.weight", "shared_head.layers.0.bias"],
}

# the layout of test_deeper_hand_built_model_is_packed: encoders
# (v, a, t) = (2, 1, 3) -> 3 -> 2, heads 2 -> 4 -> 3 -> 1
DEEP_LAYOUT = [
    ("encoder.v.layers.0.weight", 0, (3, 2)),
    ("encoder.v.layers.0.bias", 6, (3,)),
    ("encoder.v.layers.1.weight", 9, (2, 3)),
    ("encoder.v.layers.1.bias", 15, (2,)),
    ("encoder.a.layers.0.weight", 17, (3, 1)),
    ("encoder.a.layers.0.bias", 20, (3,)),
    ("encoder.a.layers.1.weight", 23, (2, 3)),
    ("encoder.a.layers.1.bias", 29, (2,)),
    ("encoder.t.layers.0.weight", 31, (3, 3)),
    ("encoder.t.layers.0.bias", 40, (3,)),
    ("encoder.t.layers.1.weight", 43, (2, 3)),
    ("encoder.t.layers.1.bias", 49, (2,)),
    ("shared_head.layers.0.weight", 51, (4, 2)),
    ("shared_head.layers.0.bias", 59, (4,)),
    ("shared_head.layers.1.weight", 63, (3, 4)),
    ("shared_head.layers.1.bias", 75, (3,)),
    ("prediction_head.layers.0.weight", 78, (1, 3)),
    ("prediction_head.layers.0.bias", 81, (1,)),
]


def random_batch(b=4, seed=1):
    rng = Rng(seed)
    feats = {m: rng.normal(size=(b, DIMS[m])) for m in MODALITIES}
    alpha = np.abs(rng.normal(size=(b, 3))) + 0.1
    alpha /= alpha.sum(axis=1, keepdims=True)
    labels = rng.normal(size=b)
    return feats, alpha, labels


def sparse_batch(b=8, seed=3):
    """`random_batch` where no row weights audio and rows 0, 3, 6 give
    video no weight either."""
    feats, alpha, labels = random_batch(b, seed)
    alpha[:, 1] = 0.0
    alpha[::3, 0] = 0.0
    alpha /= alpha.sum(axis=1, keepdims=True)
    return feats, alpha, labels


class TestForwardFused:
    def test_output_shape(self):
        model = tiny_model()
        feats, alpha, _ = random_batch()
        preds, tape = forward_fused(model, feats, alpha)
        assert preds.shape == (4,)
        for mi, m in enumerate(MODALITIES):
            assert np.array_equal(tape.weights[m], alpha[:, mi:mi + 1])

    def test_zero_weight_modality_does_not_contribute(self):
        model = tiny_model()
        feats, _, _ = random_batch()
        alpha = np.array([[0.5, 0.5, 0.0]] * 4)
        base = forward_fused(model, feats, alpha)[0]
        scrambled = dict(feats)
        scrambled["t"] = feats["t"] + 100.0
        assert np.array_equal(base, forward_fused(model, scrambled, alpha)[0])

    def test_single_modality_weight_one_matches_probe_path(self):
        model = tiny_model(dropout=0.0)
        feats, _, _ = random_batch()
        alpha = np.array([[0.0, 0.0, 1.0]] * 4)
        fused = forward_fused(model, feats, alpha)[0]
        probe = probe_predictions(model, feats, np.ones((4, 3), dtype=bool), 2, Rng(0))
        np.testing.assert_allclose(fused, probe["t"][0], rtol=1e-12)


class TestBackwardFused:
    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        model = tiny_model(seed=seed)
        feats, alpha, labels = random_batch(seed=seed + 10)

        def loss_fn():
            preds, _ = forward_fused(model, feats, alpha)
            return mse_loss_batch(preds, labels)[0]

        preds, tape = forward_fused(model, feats, alpha)
        _, dpreds = mse_loss_batch(preds, labels)
        analytic = backward_fused(model, tape, dpreds, grad_buffer(model))
        numeric = finite_difference_grads(loss_fn, [model.theta])
        assert_grads_close([analytic], numeric)

    def test_reused_buffer_is_fully_overwritten(self):
        model = tiny_model()
        feats, alpha, labels = random_batch()
        preds, tape = forward_fused(model, feats, alpha)
        _, dpreds = mse_loss_batch(preds, labels)
        reused = grad_buffer(model)
        assert backward_fused(model, tape, dpreds, reused) is reused[0]
        fresh = backward_fused(model, tape, dpreds, grad_buffer(model, fill=0.0))
        assert np.array_equal(reused[0], fresh)

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
            preds, tape = forward_fused(model, feats, alpha)
            g = backward_fused(model, tape, np.ones(4), grad_buffer(model))
            grads_by_alpha.append(tensor(model, g, "encoder.v.layers.0.bias"))
        np.testing.assert_allclose(2.0 * grads_by_alpha[0], grads_by_alpha[1],
                                   rtol=1e-9)

    def test_train_mode_gradcheck_with_frozen_masks(self):
        # dropout masks recorded on the tape's gates define the
        # differentiated function; finite differences replay through them
        # on the rows each encoder ran on, with the relu re-evaluated
        model = tiny_model(dropout=0.4, seed=2)
        feats, alpha, labels = random_batch(seed=5)
        preds, tape = forward_fused(model, feats, alpha, Rng(77))
        _, dpreds = mse_loss_batch(preds, labels)
        analytic = backward_fused(model, tape, dpreds, grad_buffer(model))

        def loss_fn():
            out = np.zeros((len(labels), model.heads.layers[0][0].shape[1]))
            for mi, m in enumerate(MODALITIES):
                rows = tape.rows[m]
                a = feats[m][rows]
                mlp = model.encoders[m]
                t = tape.encoder_tapes[m]
                for li, (w, b) in enumerate(mlp.layers):
                    z = a @ w.T + b
                    if li < len(mlp.layers) - 1:
                        a = np.where((z > 0) & t.gates[li], z / t.keep, 0.0)
                    else:
                        a = z
                out[rows] += alpha[rows, mi:mi + 1] * a
            t = tape.head_tape
            for li, (w, b) in enumerate(model.heads.layers):
                z = out @ w.T + b
                if li < len(model.heads.layers) - 1:
                    out = np.where((z > 0) & t.gates[li], z / t.keep, 0.0)
                else:
                    out = z
            return mse_loss_batch(out[:, 0], labels)[0]

        numeric = finite_difference_grads(loss_fn, [model.theta])
        assert_grads_close([analytic], numeric)


class TestSharedBlock:
    def test_upload_contains_only_shared_head_by_default(self):
        model = tiny_model()
        names = [name for name, _ in extract_shared(model, False)]
        assert names and all(n.startswith("shared_head.") for n in names)

    def test_share_encoders_flag_widens_block(self):
        model = tiny_model()
        names = [name for name, _ in extract_shared(model, share_encoders=True)]
        assert any(n.startswith("encoder.v.") for n in names)
        assert all(not n.startswith("prediction_head.") for n in names)

    def test_assign_round_trip(self):
        src, dst = tiny_model(seed=1), tiny_model(seed=2)
        assign_shared(dst, extract_shared(src, False), False)
        for (w_src, _), (w_dst, _) in zip(src.heads.layers[:-1], dst.heads.layers[:-1]):
            assert np.array_equal(w_src, w_dst)
        # encoders untouched
        assert not np.array_equal(src.encoders["v"].layers[0][0],
                                  dst.encoders["v"].layers[0][0])

    def test_layers_are_views_into_theta(self):
        model = tiny_model()
        mlps = [mlp for _, mlp in model.components()]
        arrays = [a for mlp in mlps for layer in mlp.layers for a in layer]
        assert all(np.shares_memory(a, model.theta) for a in arrays)
        assert model.theta.size == sum(a.size for a in arrays)
        model.theta[:] = 0.0
        assert all(not a.any() for a in arrays)

    @pytest.mark.parametrize("share_encoders", [False, True])
    def test_layout_names_and_shared_slice(self, share_encoders):
        model = tiny_model()
        assert model.layout == TINY_LAYOUT
        names = [name for name, _ in extract_shared(model, share_encoders)]
        assert names == UPLOAD_NAMES[share_encoders]
        block = model.shared_slice(share_encoders)
        assert block == slice(0 if share_encoders else 195, 231)
        flat = np.concatenate([arr.ravel() for _, arr in
                               extract_shared(model, share_encoders)])
        assert np.array_equal(flat, model.theta[block])

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
            return Mlp([(np.array(w, dtype=float), np.zeros(len(w)))])

        weights = {m: [[1.0 + i, 2.0], [3.0, 4.0 + i]] for i, m in enumerate(MODALITIES)}
        model = ModelParams(
            encoders={m: linear(w) for m, w in weights.items()},
            heads=Mlp([(np.eye(2), np.ones(2)), (np.array([[0.5, -0.5]]), np.zeros(1))]),
        )
        assert model.theta.size == 3 * 6 + 6 + 3
        for m in MODALITIES:
            w, _ = model.encoders[m].layers[0]
            assert np.shares_memory(w, model.theta)
            assert w.tolist() == weights[m]
        assert [n for n, _, _ in model.layout] == [
            f"encoder.{m}.layers.0.{attr}" for m in MODALITIES for attr in ("weight", "bias")
        ] + ["shared_head.layers.0.weight", "shared_head.layers.0.bias",
             "prediction_head.layers.0.weight", "prediction_head.layers.0.bias"]

    def test_nonfinite_head_output_raises(self):
        # a non-finite value inside the heads, which run as one network,
        # still raises, in the fused pass and in the probes
        model = tiny_model(dropout=0.2)
        model.heads.layers[0][1][:] = np.inf
        feats, alpha, _ = random_batch()
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            forward_fused(model, feats, alpha)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            probe_predictions(model, feats, np.ones((4, 3), dtype=bool), 3, Rng(1))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["first_weight", "first_bias", "last_weight"])
    def test_nonfinite_encoder_value_raises(self, where, value):
        # nothing checks an encoder's own output: NaN*0 and inf*0 are NaN, so
        # a non-finite value crosses the relu/dropout gates and raises at
        # the heads' output, in every kind of pass
        model = tiny_model(dropout=0.2)
        (w0, b0), (w1, _) = model.encoders["v"].layers
        {"first_weight": w0, "first_bias": b0, "last_weight": w1}[where].flat[0] = value
        feats, alpha, _ = random_batch()
        mask = np.ones((4, 3), dtype=bool)
        for run in (lambda: forward_fused(model, feats, alpha),
                    lambda: forward_fused(model, feats, alpha, Rng(1)),
                    lambda: probe_predictions(model, feats, mask, 3, Rng(1)),
                    lambda: fused_mc_predictions(model, feats, alpha, 3, Rng(1))):
            with np.errstate(invalid="ignore"), pytest.raises(NumericError):
                run()

    def test_deeper_hand_built_model_is_packed(self):
        # two-layer encoders, and heads of two shared layers then the
        # prediction layer
        rng = Rng(5)

        def mlp(*dims):
            return Mlp([(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out))
                        for d_in, d_out in zip(dims, dims[1:])])

        encoders = {"v": mlp(2, 3, 2), "a": mlp(1, 3, 2), "t": mlp(3, 3, 2)}
        heads = mlp(2, 4, 3, 1)
        given = [[(w.copy(), b.copy()) for w, b in net.layers]
                 for net in [encoders[m] for m in MODALITIES] + [heads]]
        model = ModelParams(encoders, heads)
        assert model.layout == DEEP_LAYOUT
        assert model.theta.size == 82
        assert model.shared_slice(False) == slice(51, 78)
        assert model.shared_slice(True) == slice(0, 78)
        assert [n for n, _ in extract_shared(model, False)] == [
            n for n, _, _ in DEEP_LAYOUT[12:16]]
        for (_, net), layers in zip(model.components(), given):
            assert len(net.layers) == len(layers)
            for (w, b), (w0, b0) in zip(net.layers, layers):
                assert np.shares_memory(w, model.theta) and np.shares_memory(b, model.theta)
                assert np.array_equal(w, w0) and np.array_equal(b, b0)


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
            expected = forward_fused(model, feats, alpha)[0][mask[:, mi]]
            assert probe[m].shape == (3, int(mask[:, mi].sum()))
            for row in probe[m]:
                np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_fused_mc_zero_dropout_collapses(self):
        model = tiny_model(dropout=0.0)
        feats, alpha, _ = random_batch()
        preds = fused_mc_predictions(model, feats, alpha, 4, Rng(3))
        assert np.ptp(preds, axis=0).max() == 0.0


class TestWeightedRows:
    def test_rng_consumption_is_pinned(self):
        # each dropout layer draws the masks of the whole batch, whichever
        # rows its encoder runs on: 4 dropout layers x 6 units x (8 + 3 * 8)
        # rows = 768 draws, and Philox makes 4 per counter step
        model = tiny_model(dropout=0.3)
        feats, alpha, _ = sparse_batch()
        rng = Rng(11)
        forward_fused(model, feats, alpha, rng)
        fused_mc_predictions(model, feats, alpha, 3, rng)
        state = rng.gen.bit_generator.state
        assert state["state"]["counter"].tolist() == [192, 0, 0, 0]
        assert state["buffer_pos"] == 4

    def test_zero_weight_rows_are_never_read(self):
        model = tiny_model(dropout=0.3)
        feats, alpha, labels = sparse_batch()
        weighted = alpha != 0.0
        zeroed = {m: np.where(weighted[:, mi:mi + 1], feats[m], 0.0)
                  for mi, m in enumerate(MODALITIES)}
        garbage = {m: np.where(weighted[:, mi:mi + 1], feats[m], fill)
                   for (mi, m), fill in zip(enumerate(MODALITIES), (np.nan, 1e300, -np.inf))}
        np.testing.assert_array_equal(forward_fused(model, garbage, alpha)[0],
                                      forward_fused(model, zeroed, alpha)[0])
        np.testing.assert_array_equal(fused_mc_predictions(model, garbage, alpha, 3, Rng(4)),
                                      fused_mc_predictions(model, zeroed, alpha, 3, Rng(4)))
        grads = []
        for batch in (garbage, zeroed):
            preds, tape = forward_fused(model, batch, alpha, Rng(4))
            grads.append(backward_fused(model, tape, mse_loss_batch(preds, labels)[1],
                                        grad_buffer(model)))
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_encoders_forward_only_weighted_rows(self, monkeypatch):
        model = tiny_model(dropout=0.3)
        feats, alpha, _ = sparse_batch()
        passes = 3
        calls = []
        forward = feduaf.model.forward

        def counting(mlp, x, *args, **kwargs):
            calls.append((mlp, x.shape[0]))
            return forward(mlp, x, *args, **kwargs)

        monkeypatch.setattr(feduaf.model, "forward", counting)
        forward_fused(model, feats, alpha, Rng(4))
        fused_mc_predictions(model, feats, alpha, passes, Rng(4))
        for mi, m in enumerate(MODALITIES):
            weighted = int(np.count_nonzero(alpha[:, mi]))
            rows = [n for mlp, n in calls if mlp is model.encoders[m]]
            assert rows == [weighted, passes * weighted]
        assert [n for mlp, n in calls if mlp is model.heads] == [8, passes * 8]
        assert len(calls) == 8

    @pytest.mark.parametrize("seed", range(3))
    def test_unweighted_encoder_gets_exact_zero_gradient(self, seed):
        model = tiny_model(seed=seed)
        feats, alpha, labels = sparse_batch(seed=seed + 20)

        def loss_fn():
            preds, _ = forward_fused(model, feats, alpha)
            return mse_loss_batch(preds, labels)[0]

        preds, tape = forward_fused(model, feats, alpha)
        _, dpreds = mse_loss_batch(preds, labels)
        grad = backward_fused(model, tape, dpreds, grad_buffer(model))
        for w, b in model.layer_views(grad)["encoder.a"]:
            assert np.array_equal(w, np.zeros_like(w))
            assert np.array_equal(b, np.zeros_like(b))
        numeric = finite_difference_grads(loss_fn, [model.theta])
        assert_grads_close([grad], numeric)
