"""Round-synchronous federated protocol engine.

Each round selected clients train locally with uncertainty-guided fusion
from the shared representation block the server last broadcast, upload the
(possibly perturbed) block plus a scalar reliability score, and the server
aggregates under the configured strategy, broadcasts the result to every
client and evaluates. Client work is independent given its derived rng
stream, so parallel and serial execution are bit-identical; `run_round`
hands the server its uploads in client_id order, so aggregation always sums
in that order.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import FEDPROX, RELIABILITY_WEIGHTED, UNIFORM, parse_int, replacing
from .datagen import (
    ClientData,
    Samples,
    batch_from_samples,
    generate_federation,
    load_jsonl,
    mark_noisy_clients,
    split_dataset,
)
from .exceptions import ConfigError, NumericError
from .fusion import fusion_weights_batch, uniform_fusion_weights_batch
from .model import (
    ModelParams,
    assign_shared,
    backward_fused,
    extract_shared,
    forward_fused,
    init_model_params,
)
from .nn import AdamState, adam_step, mse_loss_batch
from .rng import Rng
from .serialize import save_params
from .uncertainty import fused_uncertainties, probe_uncertainties


@dataclass
class ClientUpdate:
    client_id: str
    shared_params: list  # named tensors
    reliability: float
    num_samples: int


@dataclass
class RoundReport:
    round: int
    train_loss: dict  # client_id -> mean batch loss
    test_mae: float
    mean_reliability: float
    weights: dict  # client_id -> aggregation weight
    reliabilities: dict  # client_id -> r_k


@dataclass
class ClientRuntime:
    data: ClientData
    model: ModelParams


@dataclass
class FederationState:
    clients: list  # ClientRuntime, sorted by client_id
    shared: list  # current global named tensors
    round_index: int = 0
    reports: list = field(default_factory=list)


def effective_strategy(config) -> str:
    """Resolve the ablation flag: no RelAgg turns reliability weighting off."""
    if config.strategy == RELIABILITY_WEIGHTED and not config.ablation.rel_agg:
        return UNIFORM
    return config.strategy


# -------------------------------------------------------------- server math

def normalize_reliabilities(updates: list) -> np.ndarray:
    """Weights proportional to reliability, summing to 1."""
    r = np.array([u.reliability for u in updates], dtype=np.float64)
    bad = ~(np.isfinite(r) & (r > 0))
    if bad.any():
        i = int(bad.argmax())
        raise NumericError(f"client {updates[i].client_id!r} has reliability {r[i]}; "
                           "reliabilities must be finite and positive")
    return r / r.sum()


def aggregation_weights(updates: list, strategy: str) -> np.ndarray:
    if strategy == RELIABILITY_WEIGHTED:
        return normalize_reliabilities(updates)
    if strategy == UNIFORM:
        return np.full(len(updates), 1.0 / len(updates))
    # data_size and fedprox weigh by train-set size
    n = np.array([u.num_samples for u in updates], dtype=np.float64)
    return n / n.sum()


def aggregate(updates: list, weights: np.ndarray) -> list:
    """Average of the uploaded blocks under `weights`, one per upload,
    summed in the order the uploads are given.

    The result is clamped to the coordinate-wise [min, max] of the uploads
    so the convex-combination guarantee survives float rounding.
    """
    out = []
    for ti, (name, _) in enumerate(updates[0].shared_params):
        stack = np.stack([u.shared_params[ti][1] for u in updates])
        agg = np.tensordot(weights, stack, axes=1)
        np.clip(agg, stack.min(axis=0), stack.max(axis=0), out=agg)
        out.append((name, agg))
    return out


def perturb_update(tensors: list, gamma: float, rng: Rng) -> list:
    """Add zero-mean Gaussian noise scaled per tensor by gamma * its std."""
    out = []
    for name, arr in tensors:
        std = float(arr.std())
        if std == 0.0:
            out.append((name, arr.copy()))
        else:
            out.append((name, arr + rng.normal(0.0, gamma * std, arr.shape)))
    return out


def fedprox_penalty(theta: np.ndarray, anchor: np.ndarray, mu: float):
    """Proximal term (mu/2)*||theta - anchor||^2 and its gradient."""
    diff = theta - anchor
    return 0.5 * mu * float((diff * diff).sum()), mu * diff


@contextlib.contextmanager
def _naming(where: str):
    """Prefix a NumericError raised in the block with `where`. A non-finite
    value ends in such an error or in fusion's masking, not in numpy's
    overflow warnings; errstate is per thread, so each worker sets its own."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NumericError as exc:
        raise NumericError(f"{where}: {exc}") from exc


# -------------------------------------------------------------- client side

def _batch_fusion_weights(model, samples: Samples, config, rng):
    if config.ablation.ua_fusion:
        u = probe_uncertainties(model, samples.feats, samples.mask,
                                config.uncertainty.passes, rng)
        return fusion_weights_batch(u, samples.mask)
    return uniform_fusion_weights_batch(samples.mask)


def client_mean_uncertainty(model: ModelParams, samples: Samples, config, rng: Rng) -> float:
    """Mean fused prediction uncertainty over (a subsample of) the rows."""
    max_n = config.reliability.max_samples
    if len(samples) > max_n:
        samples = batch_from_samples(
            samples, np.sort(rng.choice(len(samples), size=max_n, replace=False)))
    alpha = _batch_fusion_weights(model, samples, config, rng)
    u = fused_uncertainties(model, samples.feats, alpha, config.uncertainty.passes, rng)
    return float(u.mean())


def local_update(client: ClientRuntime, config, rng: Rng):
    """One client's round: local epochs from the model as it stands (the
    broadcast has already put the global block in it), optional noisy
    perturbation of the shared block, reliability from post-perturbation
    uncertainty, upload. `run_round` names the round and the client of a
    NumericError raised here.

    Returns (ClientUpdate, mean batch loss).
    """
    cid = client.data.client_id
    train = client.data.train.samples
    share_enc = config.share_encoders
    theta = client.model.theta
    adam = AdamState.init_for([theta], lr=config.training.lr)
    grad = np.empty_like(theta)  # every slot is rewritten by each backward
    grad_out = (grad, client.model.layer_views(grad))
    prox_mu = config.training.fedprox_mu if config.strategy == FEDPROX else 0.0
    if prox_mu > 0.0:
        shared = client.model.shared_slice(share_enc)
        theta_global = theta[shared].copy()
    n = len(train)
    batch = config.training.batch_size
    losses = []
    for _epoch in range(config.training.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            rows = batch_from_samples(train, perm[start:start + batch])
            alpha = _batch_fusion_weights(client.model, rows, config, rng)
            preds, tape = forward_fused(client.model, rows.feats, alpha, rng)
            loss, dpreds = mse_loss_batch(preds, rows.labels)
            if not np.isfinite(loss):
                raise NumericError("non-finite loss")
            backward_fused(client.model, tape, dpreds, out=grad_out)
            if prox_mu > 0.0:
                grad[shared] += fedprox_penalty(theta[shared], theta_global, prox_mu)[1]
            adam_step([theta], [grad], adam)
            losses.append(loss)
    upload = extract_shared(client.model, share_enc)
    if client.data.is_noisy and config.noise_gamma > 0.0:
        upload = perturb_update(upload, config.noise_gamma, rng)
        assign_shared(client.model, upload, share_enc)
    # reliability reflects the model as uploaded (perturbation included)
    u_bar = client_mean_uncertainty(client.model, train, config, rng)
    reliability = 1.0 / (u_bar + config.reliability.epsilon)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return ClientUpdate(cid, upload, reliability, n), mean_loss


# -------------------------------------------------------------- evaluation

def evaluate_mae(clients: list, config, rng: Rng, collect: list | None = None) -> float:
    """Average over clients of the mean absolute error on their test split,
    one client after another.

    Predictions are deterministic forwards without an rng; fusion weights still
    come from stochastic probe passes when uncertainty fusion is on, each
    client on its own stream `rng.derive(client_id)`. Pass `collect` to
    receive per-sample (prediction, label) records, in client order.
    """
    client_maes = []
    for client in clients:
        cid = client.data.client_id
        test = client.data.test.samples
        with _naming(f"evaluating client {cid!r}"):
            alpha = _batch_fusion_weights(client.model, test, config, rng.derive(cid))
            preds = forward_fused(client.model, test.feats, alpha)[0]
        client_maes.append(float(np.mean(np.abs(preds - test.labels))))
        if collect is not None:
            collect.append({
                "client_id": cid,
                "predictions": [float(p) for p in preds],
                "labels": [float(y) for y in test.labels],
            })
    return float(np.mean(client_maes))


# -------------------------------------------------------------- round loop

def _map(fn, items: list, n_workers: int, executor) -> list:
    """[fn(x) for x in items] on up to `n_workers` workers of `executor`
    (a concurrent.futures class), never more than there are items, since a
    process pool forks all of its workers up front; results keep the order
    of `items`."""
    n_workers = min(n_workers, len(items))
    if n_workers <= 1:
        return [fn(x) for x in items]
    with executor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def _select_clients(state: FederationState, config, round_index: int,
                    run_rng: Rng) -> list:
    k = len(state.clients)
    frac = config.training.participation
    if frac >= 1.0:
        return list(range(k))
    n_sel = max(1, int(round(frac * k)))
    chosen = run_rng.derive("select", round_index).choice(k, size=n_sel, replace=False)
    return sorted(int(i) for i in chosen)


def run_round(state: FederationState, config, run_rng: Rng,
              n_threads: int = 1) -> RoundReport:
    """Train selected clients (optionally in threads), aggregate, broadcast
    the new global block to every client, evaluate. Appends the report to
    the state and returns it."""
    r = state.round_index + 1
    selected = _select_clients(state, config, r, run_rng)

    def work(i):
        client = state.clients[i]
        cid = client.data.client_id
        with _naming(f"round {r}: client {cid!r} diverged"):
            return local_update(client, config, run_rng.derive("round", r, "client", cid))

    # in client_id order: `selected` is sorted and so is state.clients
    results = _map(work, selected, n_threads, ThreadPoolExecutor)
    updates = [update for update, _ in results]
    with _naming(f"round {r}"):
        weights = aggregation_weights(updates, effective_strategy(config))
        state.shared = aggregate(updates, weights)
        for client in state.clients:
            assign_shared(client.model, state.shared, config.share_encoders)
        mae = evaluate_mae(state.clients, config, run_rng.derive("eval", r))
    report = RoundReport(
        round=r,
        train_loss={u.client_id: loss for u, loss in results},
        test_mae=mae,
        mean_reliability=float(np.mean([u.reliability for u in updates])),
        weights={u.client_id: float(w) for u, w in zip(updates, weights)},
        reliabilities={u.client_id: float(u.reliability) for u in updates},
    )
    state.round_index = r
    state.reports.append(report)
    return report


# -------------------------------------------------------------- entry points

def build_federation_data(config, seed: int) -> list:
    """One ClientData per client, in client_id order: either source's unsplit
    tables, split and marked noisy here, the one place that does either."""
    fed = config.federation
    if config.data_path:
        datasets = load_jsonl(config.data_path, fed.feature_dim)
        if len(datasets) < 2:
            raise ConfigError(f"{config.data_path}: a federation needs at least "
                              f"2 clients, found {len(datasets)}")
        for ds in datasets:
            if len(ds.samples) < 2:
                raise ConfigError(f"{config.data_path}: client {ds.client_id!r} has "
                                  f"{len(ds.samples)} sample(s); a split needs 2 or more")
        noisy_rng = Rng(seed).derive("noisy-mark")
    else:
        data_seed = seed if fed.seed is None else fed.seed
        datasets = generate_federation(replace(fed, seed=data_seed))
        noisy_rng = Rng(data_seed).derive("datagen", "noisy")
    clients = [split_dataset(ds) for ds in sorted(datasets, key=lambda d: d.client_id)]
    return mark_noisy_clients(clients, fed.noisy_ratio, noisy_rng)


def init_federation(config, seed: int) -> FederationState:
    """Build every client's data and model, and broadcast the server's
    initial shared block to every client."""
    data = build_federation_data(config, seed)
    dims = {m: f.shape[1] for m, f in data[0].train.samples.feats.items()}
    init_rng = Rng(seed)
    clients = [
        ClientRuntime(
            data=cd,
            model=init_model_params(
                dims, config.model.hidden_dim, config.model.fusion_dim,
                config.model.dropout, init_rng.derive("init", cd.client_id)),
        )
        for cd in data
    ]
    server_model = init_model_params(
        dims, config.model.hidden_dim, config.model.fusion_dim,
        config.model.dropout, init_rng.derive("init", "server"))
    shared = extract_shared(server_model, config.share_encoders)
    for client in clients:
        assign_shared(client.model, shared, config.share_encoders)
    return FederationState(clients=clients, shared=shared)


def threads_from_env() -> int:
    """Worker count from FEDUAF_THREADS (default 1), an integer >= 1."""
    return parse_int(os.environ.get("FEDUAF_THREADS", "1"), "FEDUAF_THREADS", 1)


def run_simulation(config, seed: int, run_dir, n_threads: int | None = None) -> dict:
    """Execute a full run and write rounds.jsonl, then shared_params.json and
    summary.json, to run_dir. All three are removed first, so a run that
    stops early, even before its first round, leaves none from an earlier
    run in run_dir."""
    for name in ("rounds.jsonl", "summary.json", "shared_params.json"):
        Path(run_dir, name).unlink(missing_ok=True)  # creates no directory
    if n_threads is None:
        n_threads = threads_from_env()
    t_start = time.perf_counter()
    state = init_federation(config, seed)
    run_rng = Rng(seed).derive("protocol")
    with _naming("round 0"):
        initial_mae = evaluate_mae(state.clients, config, run_rng.derive("eval", 0))
    os.makedirs(run_dir, exist_ok=True)  # a run that fails before here leaves no directory
    with open(os.path.join(run_dir, "rounds.jsonl"), "w", encoding="utf-8") as fh:
        for _ in range(config.training.rounds):
            report = run_round(state, config, run_rng, n_threads=n_threads)
            fh.write(json.dumps(asdict(report), sort_keys=True) + "\n")
    with replacing(os.path.join(run_dir, "shared_params.json")) as tmp:
        save_params(tmp, state.shared)
    summary = {
        "config": config.to_dict(),
        "seed": seed,
        "initial_mae": initial_mae,
        "final_mae": state.reports[-1].test_mae,
        "final_mean_reliability": state.reports[-1].mean_reliability,
        "rounds_completed": state.round_index,
        "noisy_clients": [c.data.client_id for c in state.clients if c.data.is_noisy],
        "wall_time_s": time.perf_counter() - t_start,
    }
    with (replacing(os.path.join(run_dir, "summary.json")) as tmp,
          open(tmp, "w", encoding="utf-8") as fh):
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary
