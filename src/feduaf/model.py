"""Multimodal model bundle and its fused forward/backward pipeline.

A bundle holds one encoder per modality and the heads: one network whose
layers are the shared representation head (the only block the federation
exchanges by default) followed by the client-specific scalar prediction
layer. Fusion weights enter the forward pass as constants (stop-gradient):
the backward pass scales each modality's representation gradient by its
weight and never differentiates through the weights themselves.

All parameters of a bundle live in one float64 vector, `theta`, in canonical
component order; every layer's weights and bias are views into it. The
layout table names each tensor with its v1 checkpoint name
(`shared_head.layers.i.*` for the heads' hidden layers,
`prediction_head.layers.0.*` for their last) and offset, and the exchanged
block is one contiguous slice of `theta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericError, ValidationError
from .fusion import MODALITIES, fuse_batch, weighted_rows
from .nn import Mlp, Tape, backward, forward, init_mlp
from .rng import Rng


@dataclass
class ModelParams:
    encoders: dict  # modality -> Mlp
    heads: Mlp  # shared-head layers, then the scalar prediction layer
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    layout: list = field(init=False, repr=False, compare=False)  # (name, offset, shape)

    def __post_init__(self):
        """Pack every layer into `theta`, in `components()` order, and make
        each network's layers (weights, bias) views into it."""
        self.layout, offset = [], 0
        for name, mlp in self.components():
            for i, layer in enumerate(mlp.layers):
                prefix = f"{name}.layers.{i}"
                if name == "heads":
                    prefix = (f"shared_head.layers.{i}" if i < len(mlp.layers) - 1
                              else "prediction_head.layers.0")
                for arr, suffix in zip(layer, ("weight", "bias")):
                    self.layout.append((f"{prefix}.{suffix}", offset, arr.shape))
                    offset += arr.size
        self.theta = np.concatenate([a.ravel() for _, mlp in self.components()
                                     for layer in mlp.layers for a in layer], dtype=np.float64)
        views = self.layer_views(self.theta)
        for name, mlp in self.components():
            mlp.layers = views[name]

    def layer_views(self, flat: np.ndarray) -> dict:
        """Component name -> per-layer (weights, bias) views into `flat`, a
        vector laid out like `theta`."""
        views = iter(flat[off:off + math.prod(shape)].reshape(shape)
                     for _, off, shape in self.layout)
        return {name: [(next(views), next(views)) for _ in mlp.layers]
                for name, mlp in self.components()}

    def components(self) -> list:
        """Canonical (name, Mlp) order of `theta` and of gradient vectors."""
        return [(f"encoder.{m}", self.encoders[m]) for m in MODALITIES] + [("heads", self.heads)]

    def shared_slice(self, share_encoders: bool) -> slice:
        """The exchanged block inside `theta`: the shared head, preceded by
        the encoders when they are shared too; it ends where the prediction
        layer, the last two layout entries, begins."""
        head_start = self.layout[-2 * len(self.heads.layers)][1]
        return slice(0 if share_encoders else head_start, self.layout[-2][1])

    def shared_layout(self, share_encoders: bool) -> list:
        """Layout entries of the exchanged block, in upload order."""
        block = self.shared_slice(share_encoders)
        return [entry for entry in self.layout if block.start <= entry[1] < block.stop]


def init_model_params(feature_dims: dict, hidden_dim: int, fusion_dim: int,
                      dropout_rate: float, rng: Rng) -> ModelParams:
    encoders = {
        m: init_mlp([feature_dims[m], hidden_dim, fusion_dim],
                    rng.derive("encoder", m), dropout_rate)
        for m in MODALITIES
    }
    shared = init_mlp([fusion_dim, hidden_dim], rng.derive("shared_head")).layers
    pred = init_mlp([hidden_dim, 1], rng.derive("prediction_head")).layers
    return ModelParams(encoders, Mlp(shared + pred, dropout_rate))


def extract_shared(model: ModelParams, share_encoders: bool) -> list:
    """Copy the exchanged block out as named tensors."""
    theta = model.theta
    return [(name, theta[off:off + math.prod(shape)].reshape(shape).copy())
            for name, off, shape in model.shared_layout(share_encoders)]


def assign_shared(model: ModelParams, tensors: list, share_encoders: bool):
    """Copy named tensors into the exchanged block of this bundle; their
    names must be exactly the block's layout, in order."""
    layout = model.shared_layout(share_encoders)
    names = [name for name, _ in tensors]
    if names != [name for name, _, _ in layout]:
        raise ValidationError(f"tensors {names} do not match the exchanged layout")
    for (name, src), (_, off, shape) in zip(tensors, layout):
        if src.shape != shape:
            raise ValidationError(f"tensor {name!r} has shape {src.shape}, expected {shape}")
        model.theta[off:off + src.size] = src.ravel()


@dataclass
class FusedTape:
    """Records of one fused forward pass, consumed by backward_fused."""

    encoder_tapes: dict  # modality -> Tape over the rows that weight it
    head_tape: Tape  # of model.heads
    rows: dict  # modality -> row indices with a nonzero weight on it
    weights: dict  # modality -> (len(rows[m]), 1) fusion weights of those rows


def _run_heads(model: ModelParams, h: np.ndarray, rng: Rng | None):
    """The heads' forward call; (output (B, 1), tape). Raises NumericError
    on a non-finite output: the one divergence check of every pass. A
    non-finite weight or activation anywhere upstream shows here, since
    NaN*0 and inf*0 are NaN and so cross the relu/dropout gates."""
    out, tape = forward(model.heads, h, rng)
    if not np.isfinite(out).all():
        raise NumericError("non-finite values in the heads' output")
    return out, tape


def forward_fused(model: ModelParams, feats: dict, alpha: np.ndarray,
                  rng: Rng | None = None):
    """Full pipeline on a batch: encoders -> weighted fusion -> heads.

    `feats[m]` is (B, d_m); `alpha` is (B, 3) in v/a/t order and is treated
    as constant. Each encoder runs only on the rows with a nonzero weight on
    its modality (other rows of `feats[m]` are never read), and still draws
    the dropout masks of all B rows. Returns (predictions (B,), tape).
    """
    b = len(alpha)
    rows, weights = weighted_rows(alpha)
    reps, enc_tapes = {}, {}
    for m in MODALITIES:
        reps[m], enc_tapes[m] = forward(model.encoders[m], feats[m].take(rows[m], axis=0),
                                        rng, rows=(b, rows[m]))
    out, head_tape = _run_heads(model, fuse_batch(reps, weights, rows, b), rng)
    return out[:, 0], FusedTape(enc_tapes, head_tape, rows, weights)


def backward_fused(model: ModelParams, tape: FusedTape, dpreds: np.ndarray,
                   out: tuple) -> np.ndarray:
    """Gradient of one fused pass, written into the vector of
    `out = (grad, model.layer_views(grad))`, which is returned.

    Fusion weights act as constants: each encoder sees its representation
    gradient scaled by alpha_m on the rows it ran on; an encoder that ran on
    no row gets an exact zero gradient. Every slot of `grad` is overwritten,
    so one buffer serves every step.
    """
    grad, views = out
    dh = backward(model.heads, tape.head_tape, dpreds[:, None], views["heads"])
    for m in MODALITIES:
        d_rep = tape.weights[m] * dh.take(tape.rows[m], axis=0)
        backward(model.encoders[m], tape.encoder_tapes[m], d_rep,
                 views[f"encoder.{m}"], input_grad=False)
    return grad


def probe_predictions(model: ModelParams, feats: dict, mask: np.ndarray,
                      T: int, rng: Rng) -> dict:
    """T stochastic single-modality passes over the available rows of each
    modality; returns {m: (T, n_m)}, n_m the number of rows with m available.

    Each modality's available rows, tiled T times, go through its own
    encoder (fusion weight 1 on that channel); the encoder outputs of all
    modalities then go through the heads in one pass.
    Every row draws fresh dropout masks.
    """
    reps = []
    for mi, m in enumerate(MODALITIES):
        rep, _ = forward(model.encoders[m], np.tile(feats[m][mask[:, mi]], (T, 1)), rng)
        reps.append(rep)
    out, _ = _run_heads(model, np.concatenate(reps), rng)
    counts = mask.sum(axis=0)
    parts = np.split(out[:, 0], T * np.cumsum(counts)[:-1])
    return {m: part.reshape(T, n) for m, part, n in zip(MODALITIES, parts, counts)}


def fused_mc_predictions(model: ModelParams, feats: dict, alpha: np.ndarray,
                         T: int, rng: Rng) -> np.ndarray:
    """T stochastic full-pipeline passes with fixed fusion weights; (T, B)."""
    tiled_feats = {m: np.tile(feats[m], (T, 1)) for m in MODALITIES}
    preds, _ = forward_fused(model, tiled_feats, np.tile(alpha, (T, 1)), rng)
    return preds.reshape(T, len(alpha))
