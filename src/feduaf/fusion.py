"""Uncertainty-guided fusion of modality representations.

Fusion weights are a masked softmax over negative per-modality
uncertainties: low-uncertainty modalities get high weight, unavailable
modalities get exactly zero, and the weights of the available ones sum to
one. The fused representation is the convex combination of the modality
representations under those weights. Each operation is written once, over
a batch; the scalar forms are B=1 wrappers around it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateInputError, ShapeError, StateError

log = logging.getLogger(__name__)

MODALITIES = ("v", "a", "t")
WEIGHT_SUM_TOL = 1e-9


@dataclass
class ModalityMask:
    """Per-sample availability bits for the v/a/t channels."""

    available: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(self.available) != set(MODALITIES):
            raise ShapeError(f"mask must cover exactly {MODALITIES}")
        self.available = {m: bool(self.available[m]) for m in MODALITIES}

    @classmethod
    def full(cls) -> "ModalityMask":
        return cls({m: True for m in MODALITIES})

    @classmethod
    def of(cls, *modalities) -> "ModalityMask":
        return cls({m: m in modalities for m in MODALITIES})

    def modalities(self) -> list:
        return [m for m in MODALITIES if self.available[m]]

    def as_array(self) -> np.ndarray:
        return np.array([self.available[m] for m in MODALITIES], dtype=bool)


@dataclass
class FusionWeights:
    alpha: dict

    def __post_init__(self):
        self.alpha = {m: float(self.alpha.get(m, 0.0)) for m in MODALITIES}

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha[m] for m in MODALITIES])

    def validate(self, mask: ModalityMask):
        total = 0.0
        for m in MODALITIES:
            if mask.available[m]:
                total += self.alpha[m]
            elif self.alpha[m] != 0.0:
                raise StateError(f"unavailable modality {m!r} has nonzero weight")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise StateError(f"weights sum to {total}, expected 1")


def fusion_weights_batch(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise masked softmax of -u; u and mask are (B, 3) in v/a/t order.

    Unavailable entries get weight exactly 0, whatever u holds there.
    Non-finite uncertainties on available entries are masked out
    (fail-soft, logged); rows with nothing usable raise.
    """
    u = np.asarray(u, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if u.shape != mask.shape or u.ndim != 2 or u.shape[1] != len(MODALITIES):
        raise ShapeError(f"expected (B, {len(MODALITIES)}) arrays, got {u.shape}")
    finite = np.isfinite(u)
    usable = mask & finite
    if not mask.any(axis=1).all():
        raise DegenerateInputError("a row has all modalities masked")
    if (mask & ~finite).any():
        log.warning("non-finite uncertainties present; masking those entries")
        if not usable.any(axis=1).all():
            raise DegenerateInputError("a row has no finite uncertainty available")
    neg = np.where(usable, -u, -np.inf)
    neg = neg - neg.max(axis=1, keepdims=True)
    expd = np.where(usable, np.exp(neg), 0.0)
    return expd / expd.sum(axis=1, keepdims=True)


def uniform_fusion_weights_batch(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1, keepdims=True)
    if (counts == 0).any():
        raise DegenerateInputError("a row has all modalities masked")
    return np.where(mask, 1.0, 0.0) / counts


def weighted_rows(alpha: np.ndarray) -> dict:
    """Modality -> indices of the rows of `alpha` (B, 3) that weight it."""
    nonzero = alpha.T != 0.0
    return {m: nonzero[mi].nonzero()[0] for mi, m in enumerate(MODALITIES)}


def fuse_batch(reps: dict, alpha: np.ndarray, rows: dict) -> np.ndarray:
    """Convex combination h = sum_m alpha[:, m] * h_m over a (B, 3) `alpha`
    in v/a/t order. `rows` is `weighted_rows(alpha)` and `reps[m]` holds h_m
    on just those rows, (len(rows[m]), D): a zero-weight row adds exactly 0,
    so it is never computed. Terms are added into zeros in v/a/t order."""
    fused = np.zeros((alpha.shape[0], reps[MODALITIES[0]].shape[1]))
    for mi, m in enumerate(MODALITIES):
        idx = rows[m]
        fused[idx] = fused.take(idx, axis=0) + alpha[idx, mi:mi + 1] * reps[m]
    return fused


# ------------------------------------------------------------ B=1 wrappers

def fusion_weights(u: dict, mask: ModalityMask) -> FusionWeights:
    """`fusion_weights_batch` for one sample, with u a modality -> u map."""
    for m in mask.modalities():
        if m not in u:
            raise StateError(f"no uncertainty for available modality {m!r}")
    row = [[u[m] if mask.available[m] else np.nan for m in MODALITIES]]
    w = fusion_weights_batch(np.array(row), mask.as_array()[None, :])
    return FusionWeights(dict(zip(MODALITIES, w[0])))


def uniform_fusion_weights(mask: ModalityMask) -> FusionWeights:
    """Equal weight for every available modality (fusion ablation)."""
    w = uniform_fusion_weights_batch(mask.as_array()[None, :])
    return FusionWeights(dict(zip(MODALITIES, w[0])))


def fuse(reps: dict, alpha: FusionWeights) -> np.ndarray:
    """`fuse_batch` for one sample; zero-weight reps are ignored and may be
    absent, the weighted ones must share a shape."""
    weighted = [m for m in MODALITIES if alpha.alpha[m] != 0.0]
    if not weighted:
        raise DegenerateInputError("all fusion weights are zero")
    h = {}
    for m in weighted:
        if m not in reps:
            raise ShapeError(f"missing representation for weighted modality {m!r}")
        h[m] = np.asarray(reps[m], dtype=np.float64)
    shape = h[weighted[0]].shape
    if any(h[m].shape != shape for m in weighted):
        raise ShapeError("modality representations have mismatched shapes")
    batch = alpha.as_array()[None, :]
    gathered = {m: h[m].reshape(1, -1) if m in h else np.zeros((0, h[weighted[0]].size))
                for m in MODALITIES}
    return fuse_batch(gathered, batch, weighted_rows(batch))[0].reshape(shape)
