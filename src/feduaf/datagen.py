"""Synthetic federated multimodal data with missing modalities, noisy
client marking, and JSONL ingestion.

The generator draws a shared latent factor per sample; the label is a
clipped linear readout plus a per-client style offset whose spread is the
Non-IID knob, and each modality observes a fixed seeded projection of the
latent with channel-specific noise (audio noisiest, text cleanest) so the
modalities genuinely differ in reliability. Client ids play the role of
speakers: one client, one style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .config import (FederationSpec, decode, is_finite_list, is_finite_number, is_text,
                     open_input, parse_json)
from .exceptions import ValidationError
from .fusion import MODALITIES
from .rng import Rng

LABEL_RANGE = (-3.0, 3.0)
LABEL_NOISE_STD = 0.1
LABEL_WEIGHT_NORM = 1.2
# visual is the reference channel; audio is 2x noisier, text 2x cleaner
MODALITY_NOISE_STD = {"v": 0.6, "a": 1.2, "t": 0.3}
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)


@dataclass
class Samples:
    """A split as one table. `feats[m]` is (n, d_m) float64, zero on the rows
    where m is unavailable; `mask` is (n, 3) bool in v/a/t order; `labels`
    is (n,)."""

    feats: dict
    mask: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ClientDataset:
    client_id: str
    samples: Samples


@dataclass
class ClientData:
    """One client's train and test datasets, as the run splits and marks them."""

    client_id: str
    train: ClientDataset
    test: ClientDataset
    is_noisy: bool = False


def _split_bounds(n: int) -> tuple:
    """(lo, hi) index ranges of the positional 70/10/20 train/val/test split
    of n samples; at least 1 train and 1 test sample when n >= 2."""
    n_tr = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    return (0, n_tr), (n_tr, n_tr + n_val), (n_tr + n_val, n)


def split_dataset(dataset: ClientDataset) -> ClientData:
    """The train and test rows of `_split_bounds`; the run drops val."""
    cid, table = dataset.client_id, dataset.samples
    train, _, test = _split_bounds(len(table))
    return ClientData(cid, *(ClientDataset(cid, batch_from_samples(table, slice(lo, hi)))
                             for lo, hi in (train, test)))


def generate_federation(spec: FederationSpec) -> list:
    """One unsplit ClientDataset table per client of the validated `spec`,
    spk000 first.

    Deterministic in the spec: the same spec yields bit-identical data.
    Missing-modality masks take one stream per range of `_split_bounds`.
    """
    master = Rng(spec.seed).derive("datagen")
    w = master.derive("label_weights").normal(size=spec.latent_dim)
    w *= LABEL_WEIGHT_NORM / np.linalg.norm(w)
    projections = {
        m: master.derive("projection", m).normal(size=(spec.feature_dim, spec.latent_dim))
        / np.sqrt(spec.latent_dim)
        for m in MODALITIES
    }
    n = spec.samples_per_client
    clients = []
    for k in range(spec.num_clients):
        cid = f"spk{k:03d}"
        crng = master.derive("client", k)
        # abs: numpy rejects the scale of an intensity given as -0.0
        style = crng.normal(0.0, abs(2.0 * spec.noniid_intensity))
        z = crng.normal(size=(n, spec.latent_dim))
        eta = crng.normal(0.0, LABEL_NOISE_STD, size=n)
        labels = np.clip(z @ w + style + eta, *LABEL_RANGE)
        feats = {}
        for m in MODALITIES:
            noise = crng.normal(0.0, MODALITY_NOISE_STD[m], size=(n, spec.feature_dim))
            feats[m] = z @ projections[m].T + noise
        mask = np.ones((n, len(MODALITIES)), dtype=bool)
        if spec.missing_ratio > 0.0:
            mask = np.concatenate([
                draw_missing_masks(hi - lo, spec.missing_ratio, crng.derive("missing", split))
                for split, (lo, hi) in zip(("train", "val", "test"), _split_bounds(n))])
        clients.append(ClientDataset(cid, Samples(
            {m: np.where(mask[:, mi:mi + 1], feats[m], 0.0) for mi, m in enumerate(MODALITIES)},
            mask, labels)))
    return clients


def draw_missing_masks(n: int, rho_m: float, rng: Rng):
    """Masks of n samples that start with every modality: each (sample,
    modality) bit drops independently with probability rho_m.

    A sample that would lose every modality gets one restored, uniformly at
    random. Returns the (n, 3) bool masks.
    """
    out = np.ones((n, len(MODALITIES)), dtype=bool)
    for i in range(n):
        dropped = rng.random(len(MODALITIES)) < rho_m
        out[i] = ~dropped
        if dropped.all():
            out[i, rng.integers(0, len(MODALITIES))] = True
    return out


def mark_noisy_clients(clients: list, noisy_ratio: float, rng: Rng) -> list:
    """Flag exactly round(ratio * K) clients, chosen uniformly without replacement."""
    k = len(clients)
    n_noisy = int(round(noisy_ratio * k))
    chosen = set(int(i) for i in rng.choice(k, size=n_noisy, replace=False))
    return [replace(c, is_noisy=i in chosen) for i, c in enumerate(clients)]


# ------------------------------------------------------------------- batching

def batch_from_samples(samples: Samples, idx) -> Samples:
    """Rows `idx` of a table, an index array or a slice, as a table."""
    return Samples({m: f[idx] for m, f in samples.feats.items()},
                   samples.mask[idx], samples.labels[idx])


# ----------------------------------------------------------------- JSONL I/O

_SAMPLE_KEYS = {"client_id", "features", "mask", "label"}


def save_jsonl(path, datasets: list):
    """Write each ClientDataset's table, one sample per line, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for ds in datasets:
            table = ds.samples
            for i, row in enumerate(table.mask):
                rec = {
                    "client_id": ds.client_id,
                    "features": {m: table.feats[m][i].tolist()
                                 for m, bit in zip(MODALITIES, row) if bit},
                    "mask": {m: int(bit) for m, bit in zip(MODALITIES, row)},
                    "label": float(table.labels[i]),
                }
                fh.write(json.dumps(rec) + "\n")


def _parse_line(line: str, where: str, dims_seen: dict) -> tuple:
    """(client_id, modality -> feature vector, label) of one line;
    errors begin with `where`."""
    rec = parse_json(line, where)
    if not isinstance(rec, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    unknown = set(rec) - _SAMPLE_KEYS
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _SAMPLE_KEYS - set(rec)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    cid = rec["client_id"]
    if not is_text(cid):
        raise ValidationError(
            f"{where}: client_id must be a non-empty string with no NUL or lone surrogate")
    mask_rec = rec["mask"]
    if not isinstance(mask_rec, dict) or set(mask_rec) != set(MODALITIES):
        raise ValidationError(f"{where}: mask must have exactly keys {MODALITIES}")
    for m, bit in mask_rec.items():
        if type(bit) is not int or bit not in (0, 1):  # not True, not 1.0
            raise ValidationError(f"{where}: mask[{m!r}] must be 0 or 1")
    available = sorted(m for m in MODALITIES if mask_rec[m])
    if not available:
        raise ValidationError(f"{where}: sample has no available modality")
    feats_rec = rec["features"]
    if not isinstance(feats_rec, dict):
        raise ValidationError(f"{where}: features must be an object")
    if sorted(feats_rec) != available:
        raise ValidationError(f"{where}: features keys {sorted(feats_rec)} do not "
                              f"match available modalities {available}")
    features = {}
    for m, vec in feats_rec.items():
        if not is_finite_list(vec) or not vec:
            raise ValidationError(
                f"{where}: features[{m!r}] must be a non-empty list of finite numbers"
            )
        arr = np.array(vec, dtype=np.float64)
        if m in dims_seen and dims_seen[m] != arr.size:
            raise ValidationError(
                f"{where}: features[{m!r}] has dim {arr.size}, "
                f"expected {dims_seen[m]}"
            )
        dims_seen.setdefault(m, arr.size)
        features[m] = arr
    label = rec["label"]
    lo, hi = LABEL_RANGE
    if not is_finite_number(label) or not lo <= label <= hi:
        raise ValidationError(f"{where}: label must be a number in [{lo}, {hi}]")
    return cid, features, float(label)


def load_jsonl(path, feature_dim: int) -> list:
    """Parse a JSONL dataset into one ClientDataset table per client_id, in
    order of first appearance; a modality on no line gets width
    `feature_dim`."""
    groups: dict = {}
    dims_seen: dict = {}
    with open_input(path, "dataset") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            line = decode(raw, where)
            if not line.strip():
                continue
            cid, features, label = _parse_line(line, where, dims_seen)
            groups.setdefault(cid, []).append((features, label))
    if not groups:
        raise ValidationError(f"{path}: empty dataset file")
    datasets = []
    for cid, rows in groups.items():
        feats = {m: np.zeros((len(rows), dims_seen.get(m, feature_dim))) for m in MODALITIES}
        for i, (features, _) in enumerate(rows):
            for m, vec in features.items():
                feats[m][i] = vec
        mask = np.array([[m in features for m in MODALITIES] for features, _ in rows])
        datasets.append(ClientDataset(cid, Samples(
            feats, mask, np.array([label for _, label in rows]))))
    return datasets
