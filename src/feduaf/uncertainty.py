"""Prediction-level uncertainty from stochastic forward passes.

Uncertainty is the spread of T dropout-enabled predictions: population
variance for regression, entropy of the mean probability vector for
classification. Per-modality uncertainty probes each available channel on
its own through the encoder and heads; the fused uncertainty runs the whole
pipeline under the fusion weights those probes imply. This is a stability
signal, not a Bayesian posterior.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, ValidationError
from .fusion import MODALITIES
from .model import ModelParams, fused_mc_predictions, probe_predictions
from .rng import Rng

PROB_SUM_TOL = 1e-6


def population_variance(preds: np.ndarray) -> np.ndarray:
    """Per-column population variance (divide by T) of (T, B) predictions.

    Values are shifted by the first row so constant columns give exactly 0.
    """
    t = preds.shape[0]
    shifted = preds - preds[0]
    mean = np.sum(shifted, axis=0) / t
    centered = shifted - mean
    return np.sum(centered * centered, axis=0) / t


def variance_uncertainty(preds) -> float:
    """Population variance (divide by T) of a list of scalar predictions."""
    arr = np.asarray(preds, dtype=np.float64).ravel()
    if arr.shape[0] < 2:
        raise ConfigError("variance needs at least 2 predictions")
    return float(population_variance(arr[:, None])[0])


def entropy_uncertainty(probs_per_pass) -> float:
    """Shannon entropy (natural log) of the mean probability vector.

    Each pass must be a normalized probability vector; 0*log(0) counts as 0.
    """
    mat = np.asarray(probs_per_pass, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValidationError("need at least one probability vector")
    if (mat < 0).any():
        raise ValidationError("probabilities must be non-negative")
    sums = mat.sum(axis=1)
    if np.abs(sums - 1.0).max() > PROB_SUM_TOL:
        raise ValidationError("each probability vector must sum to 1 within 1e-6")
    mean = mat.mean(axis=0)
    nz = mean > 0.0
    return float(-(mean[nz] * np.log(mean[nz])).sum())


def probe_uncertainties(model: ModelParams, feats: dict, mask: np.ndarray,
                        T: int, rng: Rng) -> np.ndarray:
    """Per-modality probe variances for a batch; (B, 3), NaN where missing.

    Runs T single-modality stochastic passes over the available rows only
    and takes each (sample, modality) pair's population variance.
    """
    u = np.full((mask.shape[0], len(MODALITIES)), np.nan)
    preds = probe_predictions(model, feats, mask, T, rng)
    for mi, m in enumerate(MODALITIES):
        u[mask[:, mi], mi] = population_variance(preds[m])
    return u


def fused_uncertainties(model: ModelParams, feats: dict, alpha: np.ndarray,
                        T: int, rng: Rng) -> np.ndarray:
    """Per-sample population variance of T fused stochastic passes; (B,)."""
    preds = fused_mc_predictions(model, feats, alpha, T, rng)
    return population_variance(preds)
