"""Uncertainty-guided fusion of modality representations.

Fusion weights are a masked softmax over negative per-modality
uncertainties: low-uncertainty modalities get high weight, unavailable
modalities get exactly zero, and the weights of the available ones sum to
one. The fused representation is the convex combination of the modality
representations under those weights. Every operation works on a batch of
(B, 3) arrays in v/a/t order; a one-row batch is the per-sample form.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError

MODALITIES = ("v", "a", "t")


def fusion_weights_batch(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise masked softmax of -u; u and mask are (B, 3) in v/a/t order.

    Unavailable entries get weight exactly 0, whatever u holds there. A
    probe variance is never negative, so a non-finite one has overflowed;
    it gets weight 0, the softmax's own limit. Rows with nothing usable,
    all-masked rows included, raise.
    """
    usable = mask & np.isfinite(u)
    if not usable.any(axis=1).all():
        raise NumericError("a row has no finite uncertainty available")
    neg = np.where(usable, -u, -np.inf)
    neg = neg - neg.max(axis=1, keepdims=True)
    expd = np.where(usable, np.exp(neg), 0.0)
    return expd / expd.sum(axis=1, keepdims=True)


def uniform_fusion_weights_batch(mask: np.ndarray) -> np.ndarray:
    return np.where(mask, 1.0, 0.0) / mask.sum(axis=1, keepdims=True)


def weighted_rows(alpha: np.ndarray) -> tuple:
    """(rows, weights) of a (B, 3) `alpha`: modality -> indices of the rows
    that weight it, and modality -> those rows' weights as an (n, 1)
    column."""
    nonzero = alpha.T != 0.0
    rows = {m: nonzero[mi].nonzero()[0] for mi, m in enumerate(MODALITIES)}
    return rows, {m: alpha[rows[m], mi:mi + 1] for mi, m in enumerate(MODALITIES)}


def fuse_batch(reps: dict, weights: dict, rows: dict, b: int) -> np.ndarray:
    """Convex combination h = sum_m alpha[:, m] * h_m over B rows, from
    `rows, weights = weighted_rows(alpha)`: `reps[m]` holds h_m on just
    rows `rows[m]`, (len(rows[m]), D), whose weights are `weights[m]`. A
    zero-weight row adds exactly 0, so it is never computed. Terms are
    added into zeros in v/a/t order."""
    fused = np.zeros((b, reps[MODALITIES[0]].shape[1]))
    for m in MODALITIES:
        idx = rows[m]
        fused[idx] = fused.take(idx, axis=0) + weights[m] * reps[m]
    return fused
