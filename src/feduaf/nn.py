"""From-scratch dense network numerics: forward, dropout, backprop, Adam.

Networks are small MLPs over (B, d) float64 batches, and every one has
the same shape: each layer but the last is affine, then relu, then inverted
dropout (a pass given an `Rng` draws the masks and scales kept units by
1/keep, so a pass without one needs no rescaling); the last layer is a plain
affine map. Backprop is hand-derived for this fixed structure and checked
against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, NumericError, ShapeError, StateError
from .rng import Rng


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def validate(self):
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weights must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != out_dim {self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericError("layer parameters contain non-finite entries")


@dataclass
class Mlp:
    layers: list[DenseLayer]
    dropout_rate: float = 0.0

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def validate(self):
        if not self.layers:
            raise ConfigError("Mlp needs at least one layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for layer in self.layers:
            layer.validate()
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )


def init_mlp(dims, rng: Rng, dropout_rate: float = 0.0) -> Mlp:
    """Build an MLP with Glorot-uniform weights and zero biases; `dims` is
    [in, hidden..., out]."""
    if len(dims) < 2:
        raise ConfigError("dims needs at least an input and an output size")
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    mlp = Mlp(layers, dropout_rate)
    mlp.validate()
    return mlp


@dataclass
class Tape:
    """Activation record from one forward call, consumed by backward."""

    mlp_id: int
    inputs: list = field(default_factory=list)  # per-layer input (B, in_dim)
    # per layer but the last: (z > 0) & dropout keep mask, bool (B, out_dim)
    gates: list = field(default_factory=list)
    keep: float = 1.0  # dropout keep probability; 1.0 when no dropout ran


def _as_batch(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what} has shape {x.shape}, expected (*, {dim})")
    return x


def forward(mlp: Mlp, x: np.ndarray, rng: Rng | None = None, rows=None):
    """Run the MLP on a (B, in_dim) batch; returns (output, tape).

    Given an `rng`, the pass draws fresh inverted-dropout masks from it after
    each relu (no draw when dropout_rate is 0, so a rate-0 pass equals one
    without an rng exactly). Without an rng the pass is deterministic and
    consumes no randomness. `rows=(B, idx)`
    says that `x` holds rows `idx` of a B-row batch: each dropout layer then
    draws the mask of the whole (B, out_dim) batch and keeps rows `idx`, so
    the random stream does not depend on which rows are computed.
    """
    layers = mlp.layers
    a = _as_batch(x, layers[0].weights.shape[1], "input")
    if not np.isfinite(a).all():
        raise NumericError("non-finite values in forward input")
    if rows is not None and len(rows[1]) != a.shape[0]:
        raise ShapeError(f"{len(rows[1])} row indices for {a.shape[0]} input rows")
    n, idx = (a.shape[0], slice(None)) if rows is None else rows
    use_dropout = rng is not None and mlp.dropout_rate > 0.0
    keep = 1.0 - mlp.dropout_rate if use_dropout else 1.0
    inputs, gates = [], []
    for i, layer in enumerate(layers):
        inputs.append(a)
        a = a @ layer.weights.T
        a += layer.bias
        if i < len(layers) - 1:
            gate = a > 0.0
            if use_dropout:
                gate &= rng.keep_mask((n, a.shape[1]), keep)[idx]
            np.multiply(a, gate, out=a)
            if use_dropout:
                a /= keep
            gates.append(gate)
    return a, Tape(id(mlp), inputs, gates, keep)


def backward(mlp: Mlp, tape: Tape, loss_grad: np.ndarray, out,
             input_grad: bool = True):
    """Backprop the loss gradient through a taped forward pass.

    The relu/dropout gates recorded on the tape are respected: inactive and
    dropped units pass no gradient. Each layer's gradient is written into
    `out`, one (d_weights, d_bias) pair of arrays per layer. Returns the
    gradient w.r.t. the forward input (used to chain the heads into the
    encoders through fusion), or None with `input_grad=False`, which skips
    that last product.
    """
    if tape.mlp_id != id(mlp):
        raise StateError("tape was produced by a different network")
    if len(tape.inputs) != len(mlp.layers):
        raise StateError("tape layer count does not match network")
    g = _as_batch(loss_grad, mlp.out_dim, "loss_grad")
    if g.shape[0] != tape.inputs[0].shape[0]:
        raise ShapeError("loss_grad batch size does not match tape")
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        gz = g
        if i < len(tape.gates):
            gz = g * tape.gates[i]
            if tape.keep != 1.0:
                gz /= tape.keep
        dw, db = out[i]
        np.matmul(gz.T, tape.inputs[i], out=dw)
        gz.sum(axis=0, out=db)
        g = gz @ layer.weights if i or input_grad else None
    return g


# Kingma & Ba's defaults (arXiv:1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


@dataclass
class AdamState:
    lr: float
    first_moment: list
    second_moment: list
    scratch: list = field(repr=False, compare=False)  # per-array (num, den) buffers
    step_count: int = 0

    @classmethod
    def init_for(cls, params, lr: float) -> "AdamState":
        return cls(lr, [np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params],
                   [(np.empty_like(p), np.empty_like(p)) for p in params])


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam step, updating `params` and `state` in place.

    Each array is updated with in-place ufuncs through the two scratch
    buffers held by the state, so a step allocates nothing; the operations
    keep the order of the textbook expression, so the result does not depend
    on how the parameters are split into arrays.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params/grads/state length mismatch")
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"shape mismatch in adam_step: {p.shape} vs {g.shape}")
    state.step_count += 1
    bc1 = 1.0 - BETA1 ** state.step_count
    bc2 = 1.0 - BETA2 ** state.step_count
    for p, g, m, v, (num, den) in zip(params, grads, state.first_moment,
                                      state.second_moment, state.scratch):
        # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=num)
        m += num
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=num)
        num *= g
        v += num
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += EPS_ADAM
        np.divide(m, bc1, out=num)
        num *= state.lr
        num /= den
        p -= num
    return params, state


def mse_loss_batch(preds: np.ndarray, labels: np.ndarray):
    """Mean squared error over a batch and the per-prediction gradient."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ShapeError(f"preds {preds.shape} vs labels {labels.shape}")
    if not (np.isfinite(preds).all() and np.isfinite(labels).all()):
        raise NumericError("mse_loss_batch requires finite inputs")
    diff = preds - labels
    n = preds.shape[0]
    return float(diff @ diff) / n, 2.0 * diff / n
