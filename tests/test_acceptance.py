"""Acceptance gate.

Eight criteria, each printed as one pass/fail line (run with `pytest
tests/test_acceptance.py -v -s` to watch them live). Criteria 5-7 train
real federations; they are deterministic given the fixed seeds and finish
well inside their stated budgets on a laptop-class machine.
"""

import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from feduaf.config import config_from_dict
from feduaf.datagen import load_jsonl, save_jsonl
from feduaf.fedsim import (
    ClientUpdate,
    aggregate,
    aggregation_weights,
    evaluate_mae,
    fedprox_penalty,
    init_federation,
    normalize_reliabilities,
)
from feduaf.fusion import MODALITIES, fusion_weights_batch
from feduaf.model import (
    backward_fused,
    forward_fused,
    init_model_params,
)
from feduaf.nn import mse_loss_batch
from feduaf.rng import Rng
from feduaf.uncertainty import entropy_uncertainty, variance_uncertainty

from oracles import entropy_ref, finite_difference_grads, population_variance_ref

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "ingest_fixture.jsonl")
N_WORKERS = min(2, os.cpu_count() or 1)


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion} ({name}): {status}"
          + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _sim_job(args):
    config_dict, seed, run_dir = args
    from feduaf.fedsim import run_simulation

    cfg = config_from_dict(config_dict)
    summary = run_simulation(cfg, seed, run_dir, n_threads=1)
    return {"final_mae": summary["final_mae"],
            "noisy_clients": summary["noisy_clients"], "run_dir": run_dir}


def run_grid(jobs):
    """Execute (config_dict, seed, run_dir) jobs, two processes at a time."""
    if N_WORKERS > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=N_WORKERS) as pool:
            return list(pool.map(_sim_job, jobs))
    return [_sim_job(j) for j in jobs]


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_math_exact_suite():
    t0 = time.perf_counter()
    rng = Rng(101)
    problems = []

    # fusion weights: sum over available == 1 (1e-9), masked exactly 0,
    # shift invariance under constant offsets (1e-12)
    for trial in range(500):
        mask = ((rng.integers(1, 8) >> np.arange(3)) & 1).astype(bool)[None, :]
        u = np.full((1, 3), np.nan)
        u[mask] = [float(rng.uniform(0, 10)) for _ in range(int(mask.sum()))]
        w = fusion_weights_batch(u, mask)
        total = float(w[mask].sum())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"weight sum off by {abs(total - 1.0)}")
        for wm in w[~mask]:
            if wm != 0.0:
                problems.append(f"masked weight nonzero: {wm}")
        c = float(rng.uniform(-5, 5))
        w_shift = fusion_weights_batch(u + c, mask)
        if (np.abs(w - w_shift)[mask] > 1e-12).any():
            problems.append("shift invariance violated")

    # reliability normalization sums to 1 (1e-9)
    for trial in range(500):
        k = int(rng.integers(1, 12))
        ups = [ClientUpdate(f"c{i}", [("w", np.zeros(1))],
                            float(rng.uniform(0.01, 50)), 1) for i in range(k)]
        w = normalize_reliabilities(ups)
        if abs(float(w.sum()) - 1.0) > 1e-9:
            problems.append("reliability weights do not sum to 1")

    # aggregation stays coordinate-wise inside [min, max] (exact)
    for trial in range(200):
        k = int(rng.integers(1, 7))
        ups = [ClientUpdate(f"c{i}",
                            [("w", rng.normal(size=(3, 4))),
                             ("b", rng.normal(size=4))],
                            float(rng.uniform(0.1, 10)), int(rng.integers(1, 50)))
               for i in range(k)]
        for strategy in ("reliability_weighted", "uniform", "data_size"):
            agg = aggregate(ups, aggregation_weights(ups, strategy))
            for ti, (name, arr) in enumerate(agg):
                stack = np.stack([u.shared_params[ti][1] for u in ups])
                if (arr < stack.min(axis=0)).any() or (arr > stack.max(axis=0)).any():
                    problems.append(f"aggregate left convex hull for {name}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5s")
    report(1, "math-exact suite", not problems,
           problems[0] if problems else f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def _relu_kink_margin(model, tape):
    """Smallest |preactivation| across relu layers, which are every layer
    but the last; finite differences are only well-posed away from the
    kink."""
    margin = np.inf
    comps = [(model.encoders[m], tape.encoder_tapes[m]) for m in MODALITIES]
    comps.append((model.heads, tape.head_tape))
    for mlp, t in comps:
        for (w, b), a in zip(mlp.layers[:-1], t.inputs):
            z = a @ w.T + b
            margin = min(margin, float(np.abs(z).min(initial=np.inf)))
    return margin


def _gradcheck_case(case):
    """Random small bundle + inputs with a safe relu margin (deterministic)."""
    for attempt in range(30):
        rng = Rng(5000 + case).derive("attempt", attempt)
        dims = {m: int(rng.integers(2, 9)) for m in MODALITIES}
        hidden = int(rng.integers(2, 9))
        fusion_dim = int(rng.integers(2, 9))
        model = init_model_params(dims, hidden, fusion_dim, 0.0,
                                  rng.derive("init"))
        for _, mlp in model.components():
            for _, bias in mlp.layers:
                bias += rng.normal(0.0, 0.3, size=bias.shape)
        b = int(rng.integers(1, 5))
        feats = {m: rng.normal(size=(b, dims[m])) for m in MODALITIES}
        raw = np.abs(rng.normal(size=(b, 3))) * (rng.random((b, 3)) > 0.25)
        raw[np.arange(b), rng.integers(0, 3, size=b)] += 0.5  # keep rows nonzero
        alpha = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.normal(size=b)
        _, tape = forward_fused(model, feats, alpha)
        if _relu_kink_margin(model, tape) > 1e-3:
            return model, feats, alpha, labels
    raise AssertionError(f"no kink-free configuration found for case {case}")


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    failures = []
    for case in range(100):
        model, feats, alpha, labels = _gradcheck_case(case)
        use_prox = case % 2 == 1
        mu = 0.05
        shared = model.shared_slice(False)
        anchor = model.theta[shared].copy()

        def loss_fn():
            preds, _ = forward_fused(model, feats, alpha)
            loss = mse_loss_batch(preds, labels)[0]
            if use_prox:
                loss += fedprox_penalty(model.theta[shared], anchor, mu)[0]
            return loss

        preds, tape = forward_fused(model, feats, alpha)
        _, dpreds = mse_loss_batch(preds, labels)
        grad = np.empty_like(model.theta)
        analytic = backward_fused(model, tape, dpreds, (grad, model.layer_views(grad)))
        if use_prox:
            _, prox_grad = fedprox_penalty(model.theta[shared], anchor, mu)
            analytic[shared] += prox_grad
        numeric, = finite_difference_grads(loss_fn, [model.theta])
        tol = 1e-4 * np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-7
        if (np.abs(analytic - numeric) > tol).any():
            failures.append(f"case {case}: max err "
                            f"{np.abs(analytic - numeric).max():.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(2, "gradient suite", not failures,
           failures[0] if failures else f"100 cases, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_oracle_equivalence():
    problems = []

    # evaluate_mae vs independent recomputation from dumped predictions
    cfg = config_from_dict({
        "federation": {"num_clients": 4, "samples_per_client": 20,
                        "missing_ratio": 0.3},
        "model": {"hidden_dim": 8},
    })
    state = init_federation(cfg, 3)
    dump = []
    mae = evaluate_mae(state.clients, cfg, Rng(3).derive("eval"), collect=dump)
    recomputed = float(np.mean([
        np.mean(np.abs(np.array(rec["predictions"]) - np.array(rec["labels"])))
        for rec in dump
    ]))
    if mae != recomputed:
        problems.append(f"MAE {mae!r} != recomputation {recomputed!r}")

    # variance and entropy vs direct formula evaluation, 1000 inputs each
    rng = Rng(77)
    for _ in range(1000):
        vals = rng.normal(0, 3, size=int(rng.integers(2, 12)))
        got = variance_uncertainty(vals)
        want = population_variance_ref(vals)
        if abs(got - want) > 1e-12:
            problems.append(f"variance off by {abs(got - want)}")
            break
    for _ in range(1000):
        t = int(rng.integers(1, 6))
        k = int(rng.integers(2, 7))
        mat = rng.uniform(0.05, 1.0, size=(t, k))
        mat /= mat.sum(axis=1, keepdims=True)
        got = entropy_uncertainty(mat)
        want = entropy_ref(mat)
        if abs(got - want) > 1e-12:
            problems.append(f"entropy off by {abs(got - want)}")
            break
    report(3, "oracle equivalence", not problems,
           problems[0] if problems else "exact MAE match; 2000 formula checks")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_protocol_determinism(tmp_path):
    smoke = {
        "federation": {"num_clients": 4, "samples_per_client": 40,
                        "missing_ratio": 0.2},
        "model": {"hidden_dim": 8},
        "training": {"rounds": 3, "local_epochs": 1},
    }
    from feduaf.fedsim import run_simulation

    payloads = {}
    for tag, threads in (("first", 1), ("second", 1), ("parallel", 4)):
        run_dir = tmp_path / tag
        run_simulation(config_from_dict(smoke), 42, run_dir, n_threads=threads)
        payloads[tag] = (run_dir / "rounds.jsonl").read_bytes()
    ok_repeat = payloads["first"] == payloads["second"]
    ok_parallel = payloads["first"] == payloads["parallel"]
    report(4, "protocol determinism", ok_repeat and ok_parallel,
           "byte-identical across repeats and serial/parallel execution"
           if ok_repeat and ok_parallel else
           f"repeat:{ok_repeat} parallel:{ok_parallel}")


# ---------------------------------------------------------------- criterion 5

TREND5_BASE = {
    "federation": {"num_clients": 10, "samples_per_client": 80,
                    "noniid_intensity": 1.0},
    "model": {"hidden_dim": 32},
    "training": {"rounds": 50, "local_epochs": 5},
}
STRATEGY_SET = {
    "feduaf": ("reliability_weighted", True, True),
    "fedavg_uniform": ("uniform", False, False),
    "fedavg_datasize": ("data_size", False, False),
    "fedprox": ("fedprox", False, False),
}
SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def trend5_results():
    t0 = time.perf_counter()
    jobs, keys = [], []
    base_dir = tempfile.mkdtemp(prefix="feduaf-accept5-")
    for sname, (strat, ua, rel) in STRATEGY_SET.items():
        for rho in (0.2, 0.8):
            cfg = {**TREND5_BASE,
                   "federation": {**TREND5_BASE["federation"], "missing_ratio": rho},
                   "strategy": strat,
                   "ablation": {"ua_fusion": ua, "rel_agg": rel}}
            for seed in SEEDS:
                keys.append((sname, rho, seed))
                jobs.append((cfg, seed,
                             os.path.join(base_dir, f"{sname}-rho{rho}-s{seed}")))
    results = run_grid(jobs)
    mae = {k: r["final_mae"] for k, r in zip(keys, results)}
    return mae, time.perf_counter() - t0


def test_criterion_5_missing_modality_trend(trend5_results):
    mae, elapsed = trend5_results
    problems = []
    for sname in STRATEGY_SET:
        lo = np.mean([mae[(sname, 0.2, s)] for s in SEEDS])
        hi = np.mean([mae[(sname, 0.8, s)] for s in SEEDS])
        if not hi > lo:
            problems.append(f"{sname}: MAE(0.8)={hi:.4f} <= MAE(0.2)={lo:.4f}")
    wins = sum(mae[("feduaf", 0.8, s)] <= mae[("fedavg_uniform", 0.8, s)]
               for s in SEEDS)
    if wins < 2:
        problems.append(f"feduaf beats uniform FedAvg in only {wins}/3 seeds")
    if elapsed >= 900:
        problems.append(f"runtime {elapsed:.0f}s exceeds 15min")
    report(5, "missing-modality trend", not problems,
           problems[0] if problems else
           f"all strategies degrade with rho; feduaf wins {wins}/3 seeds "
           f"({elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 6

TREND6_BASE = {
    "federation": {"num_clients": 10, "samples_per_client": 100,
                    "missing_ratio": 0.8, "noniid_intensity": 1.0,
                    "noisy_ratio": 0.3},
    "model": {"hidden_dim": 32},
    "training": {"rounds": 50, "local_epochs": 5},
    "noise_gamma": 1.0,
}
ABLATIONS = {
    "full": ("reliability_weighted", True, True),
    "no_uafusion": ("reliability_weighted", False, True),
    "no_relagg": ("reliability_weighted", True, False),
    "no_both": ("uniform", False, False),
}


@pytest.fixture(scope="module")
def trend6_results():
    t0 = time.perf_counter()
    base_dir = tempfile.mkdtemp(prefix="feduaf-accept6-")
    jobs, keys = [], []
    for vname, (strat, ua, rel) in ABLATIONS.items():
        cfg = {**TREND6_BASE, "strategy": strat,
               "ablation": {"ua_fusion": ua, "rel_agg": rel}}
        for seed in SEEDS:
            keys.append((vname, seed))
            jobs.append((cfg, seed, os.path.join(base_dir, f"{vname}-s{seed}")))
    results = run_grid(jobs)
    mae = {k: r["final_mae"] for k, r in zip(keys, results)}
    return mae, time.perf_counter() - t0


def test_criterion_6_ablation_trend(trend6_results):
    mae, elapsed = trend6_results
    means = {v: float(np.mean([mae[(v, s)] for s in SEEDS])) for v in ABLATIONS}
    problems = []
    for single in ("no_uafusion", "no_relagg"):
        if not means["full"] <= means[single]:
            problems.append(f"full ({means['full']:.4f}) > {single} "
                            f"({means[single]:.4f})")
    if not all(means["no_both"] >= means[v] for v in ABLATIONS):
        problems.append(f"no_both ({means['no_both']:.4f}) not the worst: {means}")
    if elapsed >= 1800:
        problems.append(f"runtime {elapsed:.0f}s exceeds 30min")
    detail = " ".join(f"{v}={means[v]:.4f}" for v in ABLATIONS)
    report(6, "ablation trend", not problems,
           problems[0] if problems else f"{detail} ({elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 7

NOISY_RATIOS = (0.0, 0.2, 0.4, 0.6)


@pytest.fixture(scope="module")
def trend7_results():
    t0 = time.perf_counter()
    base_dir = tempfile.mkdtemp(prefix="feduaf-accept7-")
    base = {
        "federation": {"num_clients": 10, "samples_per_client": 100,
                        "missing_ratio": 0.8, "noniid_intensity": 1.0},
        "model": {"hidden_dim": 32},
        "training": {"rounds": 50, "local_epochs": 5},
        "noise_gamma": 1.0,
    }
    pair = {"feduaf": ("reliability_weighted", True, True),
            "fedavg": ("uniform", False, False)}
    jobs, keys = [], []
    for sname, (strat, ua, rel) in pair.items():
        for ratio in NOISY_RATIOS:
            cfg = {**base,
                   "federation": {**base["federation"], "noisy_ratio": ratio},
                   "strategy": strat, "ablation": {"ua_fusion": ua, "rel_agg": rel}}
            for seed in SEEDS:
                keys.append((sname, ratio, seed))
                jobs.append((cfg, seed,
                             os.path.join(base_dir, f"{sname}-r{ratio}-s{seed}")))
    results = run_grid(jobs)
    out = {k: r for k, r in zip(keys, results)}
    return out, time.perf_counter() - t0


def _reliability_separation(run):
    """Mean reliability of noisy vs clean clients in the final round."""
    noisy = set(run["noisy_clients"])
    with open(os.path.join(run["run_dir"], "rounds.jsonl")) as fh:
        last = json.loads(fh.readlines()[-1])
    rel = last["reliabilities"]
    r_noisy = np.mean([r for cid, r in rel.items() if cid in noisy])
    r_clean = np.mean([r for cid, r in rel.items() if cid not in noisy])
    return r_noisy, r_clean


def test_criterion_7_noisy_client_trend(trend7_results):
    runs, elapsed = trend7_results
    problems = []

    # diagnostic: the perturbation must measurably raise noisy-client
    # uncertainty, i.e. lower their reliability, for RelAgg to have signal
    separations = [_reliability_separation(runs[("feduaf", r, s)])
                   for r in NOISY_RATIOS[1:] for s in SEEDS]
    signal = sum(rn < rc for rn, rc in separations)
    if signal < len(separations) * 0.75:
        print(f"\n[acceptance] DIAGNOSTIC: perturbation raised noisy-client "
              f"uncertainty in only {signal}/{len(separations)} runs; "
              f"reliability weighting has weak signal")

    for sname in ("feduaf", "fedavg"):
        means = [float(np.mean([runs[(sname, r, s)]["final_mae"] for s in SEEDS]))
                 for r in NOISY_RATIOS]
        if not all(a <= b + 1e-12 for a, b in zip(means, means[1:])):
            problems.append(f"{sname} MAE not non-decreasing: "
                            f"{[round(m, 4) for m in means]}")
    gaps0 = {s: runs[("fedavg", 0.0, s)]["final_mae"]
             - runs[("feduaf", 0.0, s)]["final_mae"] for s in SEEDS}
    gaps6 = {s: runs[("fedavg", 0.6, s)]["final_mae"]
             - runs[("feduaf", 0.6, s)]["final_mae"] for s in SEEDS}
    grown = sum(gaps6[s] > gaps0[s] for s in SEEDS)
    if grown < 2:
        problems.append(f"gap grows in only {grown}/3 seeds")
    if elapsed >= 2700:
        problems.append(f"runtime {elapsed:.0f}s exceeds 45min")
    report(7, "noisy-client trend", not problems,
           problems[0] if problems else
           f"both monotone; gap grows {grown}/3 seeds; reliability signal "
           f"{signal}/{len(separations)} ({elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_ingestion(tmp_path):
    problems = []
    clients = load_jsonl(FIXTURE, 20)  # every modality is on some line
    if sorted(c.client_id for c in clients) != ["spk_a", "spk_b"]:
        problems.append("fixture clients not loaded")
    if not all(len(c.samples) == 5 for c in clients):
        problems.append("expected 5 samples per client")

    # trains two rounds from the file
    cfg = config_from_dict({
        "data_path": FIXTURE,
        "model": {"hidden_dim": 6},
        "training": {"rounds": 2, "local_epochs": 1, "batch_size": 4},
    })
    from feduaf.fedsim import run_simulation

    summary = run_simulation(cfg, 1, tmp_path / "run", n_threads=1)
    if summary["rounds_completed"] != 2:
        problems.append("training from fixture did not complete 2 rounds")
    if not math.isfinite(summary["final_mae"]):
        problems.append("non-finite MAE from fixture training")

    # write -> load round-trips bit-identically (object level and bytes)
    p1 = tmp_path / "copy1.jsonl"
    p2 = tmp_path / "copy2.jsonl"
    save_jsonl(p1, clients)
    reloaded = load_jsonl(p1, 20)
    save_jsonl(p2, reloaded)
    if p1.read_bytes() != p2.read_bytes():
        problems.append("write -> load -> write changed bytes")
    for a, b in zip(clients, reloaded):
        sa, sb = a.samples, b.samples
        if not (np.array_equal(sa.labels, sb.labels) and np.array_equal(sa.mask, sb.mask)):
            problems.append("sample mismatch after round-trip")
        for mi, m in enumerate(MODALITIES):
            if not np.array_equal(sa.feats[m][sa.mask[:, mi]], sb.feats[m][sb.mask[:, mi]]):
                problems.append("feature bits changed in round-trip")
    report(8, "jsonl ingestion", not problems,
           problems[0] if problems else
           f"2 clients x 5 samples; trained 2 rounds (final MAE "
           f"{summary['final_mae']:.3f}); bit-exact round-trip")
