"""Dense network numerics: forward, dropout, backprop, Adam, MSE.

Networks run on (B, d) batches only; single inputs are one-row batches."""

import numpy as np
import pytest

from feduaf.nn import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    init_mlp,
    mse_loss_batch,
)
from feduaf.rng import Rng

from oracles import assert_grads_close, finite_difference_grads


def single_layer(w, b):
    """An affine map: a network's last layer has no relu."""
    return Mlp([(np.array(w, dtype=float), np.array(b, dtype=float))])


def relu_layer(w, b, dropout_rate=0.0):
    """A hidden relu layer (w, b) under an identity output layer, so the
    network's output is that layer's activation, exactly."""
    w = np.array(w, dtype=float)
    out = w.shape[0]
    return Mlp([(w, np.array(b, dtype=float)), (np.eye(out), np.zeros(out))],
               dropout_rate)


def layer_arrays(mlp):
    """[w0, b0, w1, b1, ...] as views into the network."""
    return [a for layer in mlp.layers for a in layer]


def grad_buffers(mlp):
    """One (d_weights, d_bias) pair of arrays per layer, for backward to fill."""
    return [(np.empty_like(w), np.empty_like(b)) for w, b in mlp.layers]


def grad_arrays(out):
    """[dw0, db0, dw1, db1, ...] of filled buffers, aligned with layer_arrays."""
    return [a for pair in out for a in pair]


class TestForward:
    def test_identity_layer_passes_input_through(self):
        mlp = single_layer(np.eye(2), [0.0, 0.0])
        out, _ = forward(mlp, np.array([[1.0, 2.0]]))
        assert out.tolist() == [[1.0, 2.0]]

    def test_relu_affine_analytic(self):
        # 2*3 + 1 = 7
        mlp = relu_layer([[2.0]], [1.0])
        out, _ = forward(mlp, np.array([[3.0]]))
        assert out.tolist() == [[7.0]]

    def test_relu_clamps_negative(self):
        mlp = relu_layer([[2.0]], [1.0])
        out, _ = forward(mlp, np.array([[-3.0]]))
        assert out.tolist() == [[0.0]]

    def test_batch_and_vector_agree(self):
        # a batch and its one-row batches: BLAS may round batched and
        # single-row matmuls differently, so this is a tight-tolerance check,
        # not a bit-level one
        mlp = init_mlp([3, 4, 2], Rng(0))
        x = Rng(1).normal(size=(5, 3))
        batch_out, _ = forward(mlp, x)
        for i in range(5):
            row_out, _ = forward(mlp, x[i:i + 1])
            np.testing.assert_allclose(batch_out[i:i + 1], row_out, rtol=1e-12, atol=0)
    def test_eval_is_pure(self):
        mlp = init_mlp([3, 4, 1], Rng(0), dropout_rate=0.5)
        x = np.array([[0.3, -0.2, 1.0]])
        a, _ = forward(mlp, x)
        b, _ = forward(mlp, x)
        assert np.array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self):
        mlp = init_mlp([3, 4, 1], Rng(0), dropout_rate=0.0)
        x = np.array([[0.3, -0.2, 1.0]])
        a, _ = forward(mlp, x, Rng(5))
        b, _ = forward(mlp, x)
        assert np.array_equal(a, b)

    def test_train_dropout_mean_approaches_eval(self):
        # inverted dropout: E[train output] == eval output for a net whose
        # dropout feeds a final linear layer; 10k passes, 2% per coordinate
        rng = Rng(42)
        mlp = Mlp(
            [
                (np.abs(rng.normal(size=(6, 3))) + 0.2, np.full(6, 0.1)),
                (np.abs(rng.normal(size=(2, 6))) + 0.2, np.zeros(2)),
            ],
            dropout_rate=0.5,
        )
        x = np.array([[0.7, 1.3, 0.4]])
        eval_out, _ = forward(mlp, x)
        draw = Rng(7)
        total = np.zeros((1, 2))
        n = 10_000
        for _ in range(n):
            out, _ = forward(mlp, x, draw)
            total += out
        mean = total / n
        assert np.all(np.abs(mean - eval_out) <= 0.02 * np.abs(eval_out))


class TestBackward:
    def test_linear_layer_analytic(self):
        # y = w*x with w=3, x=1: loss y^2 has dL/dw = 2*y*x = 6
        mlp = single_layer([[3.0]], [0.0])
        out, tape = forward(mlp, np.array([[1.0]]))
        grads = grad_buffers(mlp)
        backward(mlp, tape, 2.0 * out, grads)
        dw, db = grads[0]
        assert dw[0, 0] == pytest.approx(6.0)
        assert db[0] == pytest.approx(2.0 * out[0, 0])

    def test_zero_loss_grad_gives_zero_grads(self):
        mlp = init_mlp([3, 5, 2], Rng(3))
        _, tape = forward(mlp, Rng(4).normal(size=(1, 3)))
        grads = grad_buffers(mlp)
        input_grad = backward(mlp, tape, np.zeros((1, 2)), grads)
        for dw, db in grads:
            assert not dw.any() and not db.any()
        assert not input_grad.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = Rng(seed)
        dims = [4, 6, 3, 1]
        mlp = init_mlp(dims, rng)
        x = rng.normal(size=(1, 4))
        y = np.array([0.3])

        def loss_fn():
            out, _ = forward(mlp, x)
            return mse_loss_batch(out[:, 0], y)[0]

        out, tape = forward(mlp, x)
        _, dpreds = mse_loss_batch(out[:, 0], y)
        grads = grad_buffers(mlp)
        backward(mlp, tape, dpreds[:, None], grads)
        analytic = grad_arrays(grads)
        numeric = finite_difference_grads(loss_fn, layer_arrays(mlp))
        assert_grads_close(analytic, numeric)

    def test_skipped_input_grad_keeps_parameter_grads(self):
        mlp = init_mlp([4, 6, 3], Rng(3), dropout_rate=0.2)
        x = Rng(4).normal(size=(5, 4))
        g = Rng(5).normal(size=(5, 3))
        _, tape = forward(mlp, x, Rng(6))
        full, lean = grad_buffers(mlp), grad_buffers(mlp)
        assert backward(mlp, tape, g, full) is not None
        assert backward(mlp, tape, g, lean, input_grad=False) is None
        for (dw, db), (dw_full, db_full) in zip(lean, full):
            assert np.array_equal(dw, dw_full) and np.array_equal(db, db_full)

    def test_dropped_units_get_zero_gradient(self):
        mlp = init_mlp([3, 8, 1], Rng(0), dropout_rate=0.5)
        x = Rng(1).normal(size=(1, 3))
        _, tape = forward(mlp, x, Rng(2))
        mask = (Rng(2).random((1, 8)) < 0.5)[0]  # the one mask forward drew
        assert not mask.all() and mask.any()  # seed chosen to mix kept/dropped
        grads = grad_buffers(mlp)
        backward(mlp, tape, np.ones((1, 1)), grads)
        dw0 = grads[0][0]
        # a dropped unit contributes no gradient to its incoming weights
        w0, b0 = mlp.layers[0]
        z = tape.inputs[0][0] @ w0.T + b0
        dropped_rows = ~mask & (z > 0)
        assert not dw0[dropped_rows].any()


class TestAdam:
    def test_zero_grads_leave_params_and_decay_moments(self):
        mlp = init_mlp([2, 2], Rng(0))
        params = layer_arrays(mlp)
        state = AdamState.init_for(params, lr=1e-2)
        # one real step to create nonzero moments
        grads = [np.ones_like(p) for p in params]
        adam_step(params, grads, state)
        m_before = [m.copy() for m in state.first_moment]
        snapshot = [p.copy() for p in params]
        zero = [np.zeros_like(p) for p in params]
        adam_step(params, zero, state)
        for m_new, m_old in zip(state.first_moment, m_before):
            assert np.all(np.abs(m_new) < np.abs(m_old))
        # params move only through the decayed momentum, not the zero grads
        assert state.step_count == 2
        assert all(np.isfinite(p).all() for p in params)
        del snapshot

    def test_first_step_moves_by_lr(self):
        w = np.array([0.0])
        state = AdamState.init_for([w], lr=1e-3)
        adam_step([w], [np.array([1.0])], state)
        # bias-corrected first step is lr/(1 + eps) in magnitude
        assert w[0] == pytest.approx(-1e-3, abs=1e-9)

    def test_zero_grad_from_init_is_noop(self):
        w = np.array([1.5, -2.0])
        state = AdamState.init_for([w], lr=1e-3)
        adam_step([w], [np.zeros(2)], state)
        assert w.tolist() == [1.5, -2.0]

    def test_flat_vector_matches_per_tensor_and_textbook_steps(self):
        # one update over a packed vector is bitwise the per-tensor update,
        # and both are bitwise the textbook expression
        rng = Rng(4)
        shapes = [(30, 20), (30,), (5, 30), (5,)]
        tensors = [rng.normal(size=s) for s in shapes]
        flat = np.concatenate([t.ravel() for t in tensors])
        ref_p, ref_m, ref_v = flat.copy(), np.zeros(flat.size), np.zeros(flat.size)
        per_state = AdamState.init_for(tensors, lr=1e-2)
        flat_state = AdamState.init_for([flat], lr=1e-2)
        b1, b2, lr, eps = 0.9, 0.999, 1e-2, 1e-8
        for t in range(1, 9):
            grads = [rng.normal(size=s) for s in shapes]
            g = np.concatenate([x.ravel() for x in grads])
            adam_step(tensors, grads, per_state)
            adam_step([flat], [g], flat_state)
            ref_m = b1 * ref_m + (1.0 - b1) * g
            ref_v = b2 * ref_v + (1.0 - b2) * g * g
            ref_p = ref_p - lr * (ref_m / (1.0 - b1 ** t)) / (
                np.sqrt(ref_v / (1.0 - b2 ** t)) + eps)
        assert np.array_equal(flat, np.concatenate([x.ravel() for x in tensors]))
        assert np.array_equal(flat, ref_p)
        assert np.array_equal(flat_state.first_moment[0], ref_m)
        assert np.array_equal(flat_state.second_moment[0], ref_v)

    def test_deterministic_training(self):
        def train(seed):
            mlp = init_mlp([4, 6, 1], Rng(seed))
            params = layer_arrays(mlp)
            state = AdamState.init_for(params, lr=1e-3)
            grads = grad_buffers(mlp)
            rng = Rng(seed).derive("data")
            for _ in range(25):
                x = rng.normal(size=(1, 4))
                out, tape = forward(mlp, x)
                _, dpreds = mse_loss_batch(out[:, 0], np.ones(1))
                backward(mlp, tape, dpreds[:, None], grads)
                adam_step(params, grad_arrays(grads), state)
            return params

        a = train(11)
        b = train(11)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = mse_loss_batch(np.array([1.0, -2.0]), np.array([1.0, -2.0]))
        assert loss == 0.0 and grad.tolist() == [0.0, 0.0]

    def test_analytic_case(self):
        # errors 2 and 0: mean square 2, gradient 2*err/B
        loss, grad = mse_loss_batch(np.array([2.0, 1.0]), np.array([0.0, 1.0]))
        assert loss == 2.0 and grad.tolist() == [2.0, 0.0]

    def test_gradient_matches_finite_differences(self):
        p, y = np.array([0.7, 0.1]), np.array([-0.3, 0.4])
        h = 1e-6
        grad = mse_loss_batch(p, y)[1]
        for i in range(2):
            step = np.zeros(2)
            step[i] = h
            fd = (mse_loss_batch(p + step, y)[0] - mse_loss_batch(p - step, y)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_batch_matches_scalar_mean(self):
        preds = np.array([0.2, -1.0, 2.5])
        labels = np.array([0.0, -1.5, 2.0])
        loss, grad = mse_loss_batch(preds, labels)
        errors = [float(p) - float(y) for p, y in zip(preds, labels)]
        assert loss == pytest.approx(sum(e * e for e in errors) / 3)
        for i in range(3):
            assert grad[i] == pytest.approx(2.0 * errors[i] / 3)


def test_relu_dropout_masks_and_scales():
    # relu, then inverted dropout at keep 0.5: kept positive units double
    mlp = relu_layer(np.eye(3), np.zeros(3), dropout_rate=0.5)
    z = np.tile([1.0, -1.0, 2.0], (8, 1))
    out, tape = forward(mlp, z, Rng(0))
    mask = Rng(0).random((8, 3)) < 0.5  # the one mask forward drew
    assert mask.any() and not mask.all()
    assert np.array_equal(out, np.where(mask, [2.0, 0.0, 4.0], 0.0))
    # backward passes gradient only through kept positive units, scaled alike
    input_grad = backward(mlp, tape, np.ones((8, 3)), grad_buffers(mlp))
    assert np.array_equal(input_grad, np.where(mask, [2.0, 0.0, 2.0], 0.0))


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("rng_given", [True, False], ids=["train", "eval"])
def test_gates_match_where_reference_bit_for_bit(rng_given, dropout_rate):
    # relu and inverted dropout against their np.where forms, with the masks
    # drawn from the same stream in the same order
    rng = Rng(4)
    mlp = init_mlp([5, 9, 8, 3], rng, dropout_rate)
    for _, b in mlp.layers:
        b += rng.normal(0.0, 0.5, size=b.shape)
    x = rng.normal(size=(7, 5))
    g = rng.normal(size=(7, 3))
    out, tape = forward(mlp, x, Rng(8) if rng_given else None)
    grads = grad_buffers(mlp)
    input_grad = backward(mlp, tape, g, grads)

    draws = Rng(8)
    keep = 1.0 - dropout_rate
    use_dropout = rng_given and dropout_rate > 0.0
    last = len(mlp.layers) - 1
    a, inputs, zs, masks = x, [], [], []
    for i, (w, b) in enumerate(mlp.layers):
        z = a @ w.T + b
        inputs.append(a)
        zs.append(z)
        mask = draws.random(z.shape) < keep if use_dropout and i < last else None
        masks.append(mask)
        if i == last:
            a = z
        elif mask is None:
            a = np.where(z > 0.0, z, 0.0)
        else:
            a = np.where((z > 0.0) & mask, z / keep, 0.0)
    np.testing.assert_array_equal(out, a)
    for i in range(len(mlp.layers) - 1, -1, -1):
        (w, _), z, mask = mlp.layers[i], zs[i], masks[i]
        if i == last:
            gz = g
        elif mask is None:
            gz = np.where(z > 0.0, g, 0.0)
        else:
            gz = np.where((z > 0.0) & mask, g / keep, 0.0)
        np.testing.assert_array_equal(grads[i][0], gz.T @ inputs[i])
        np.testing.assert_array_equal(grads[i][1], gz.sum(axis=0))
        g = gz @ w
    np.testing.assert_array_equal(input_grad, g)
    # one gate per hidden layer; the affine output layer has none
    assert len(tape.gates) == last


def test_rows_keep_the_whole_batch_masks():
    # a forward over rows idx of a batch draws the masks of the whole batch
    # and applies their rows idx
    mlp = init_mlp([4, 16, 16, 2], Rng(0), dropout_rate=0.5)
    x = Rng(1).normal(size=(9, 4))
    idx = np.array([1, 4, 5, 8])
    full_rng, part_rng = Rng(2), Rng(2)
    full_out, full_tape = forward(mlp, x, full_rng)
    out, tape = forward(mlp, x[idx], part_rng, rows=(9, idx))
    assert len(tape.gates) == len(full_tape.gates) == 2
    for gate, full_gate in zip(tape.gates, full_tape.gates):
        assert np.array_equal(gate, full_gate[idx])
    np.testing.assert_allclose(out, full_out[idx], rtol=1e-12)
    assert part_rng.random() == full_rng.random()
