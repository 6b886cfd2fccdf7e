"""The benchmark's workloads: one feduaf config per workload.

Every workload uses noniid_intensity 1.0, T=5, E=5 and batch 32, and takes
its data seed from the benchmark's --seed (federation.seed stays null, so
the run seed generates the data). `rounds` is the number of rounds one
repetition runs; it is fixed per workload so that final_mae and the
rounds.jsonl digest mean the same thing on every run of the benchmark.
`threads` is the FEDUAF_THREADS value the repetition runs with.
"""

from __future__ import annotations

COMMON = {
    "uncertainty": {"passes": 5},
    "training": {"local_epochs": 5, "batch_size": 32},
}

WORKLOADS = {
    # The reference shape at its hardest missing ratio: probing is about
    # half of the round and most probe rows belong to missing modalities.
    # Also runs perturbation, reliability MC and reliability weighting.
    "feduaf_rho08": {
        "why": "full method at rho=0.8: probing dominates and most probe rows are wasted",
        "rounds": 7,
        "threads": 1,
        "config": {
            "federation": {"num_clients": 10, "samples_per_client": 100,
                           "noniid_intensity": 1.0, "missing_ratio": 0.8,
                           "noisy_ratio": 0.3},
            "model": {"hidden_dim": 128},
            "strategy": "reliability_weighted",
            "noise_gamma": 1.0,
            "ablation": {"ua_fusion": True, "rel_agg": True},
        },
    },
    # The acceptance grid's baseline arms: no probing at all, narrow layers,
    # so per-call overhead (Adam, fused forward/backward, the FedProx term)
    # dominates. A probing change must leave it unchanged.
    "fedprox_w32": {
        "why": "FedProx without probing at width 32: per-call overhead, Adam and the prox term dominate",
        "rounds": 24,
        "threads": 1,
        "config": {
            "federation": {"num_clients": 10, "samples_per_client": 100,
                           "noniid_intensity": 1.0, "missing_ratio": 0.2},
            "model": {"hidden_dim": 32},
            "strategy": "fedprox",
            "ablation": {"ua_fusion": False, "rel_agg": True},
        },
    },
    # 100 clients, 20 trained per round on two client threads, all 100
    # evaluated: the only workload with a large set-up and thread idle time.
    # BLAS thread variables are left as found, so oversubscription shows.
    "scale_threads": {
        "why": "100 clients, 20 per round on 2 client threads: thread pool, 100-client eval and set-up",
        "rounds": 4,
        "threads": 2,
        "config": {
            "federation": {"num_clients": 100, "samples_per_client": 100,
                           "noniid_intensity": 1.0, "missing_ratio": 0.5,
                           "noisy_ratio": 0.3},
            "model": {"hidden_dim": 128},
            "training": {"participation": 0.2},
            "strategy": "reliability_weighted",
            "noise_gamma": 1.0,
            "ablation": {"ua_fusion": True, "rel_agg": True},
        },
    },
    # Not a benchmark workload: a seconds-long shape for the self-tests.
    "smoke": {
        "why": "tiny shape for the benchmark's own self-tests",
        "rounds": 2,
        "threads": 2,
        "config": {
            "federation": {"num_clients": 4, "samples_per_client": 20,
                           "noniid_intensity": 1.0, "missing_ratio": 0.5,
                           "noisy_ratio": 0.5},
            "model": {"hidden_dim": 8},
            "training": {"participation": 0.5},
            "strategy": "reliability_weighted",
            "ablation": {"ua_fusion": True, "rel_agg": True},
        },
    },
}

BENCHMARK_WORKLOADS = ("feduaf_rho08", "fedprox_w32", "scale_threads")


def config_dict(name: str, seed: int, run_dir: str) -> dict:
    """The raw config of one repetition, ready for feduaf's config parser."""
    spec = WORKLOADS[name]
    raw = {key: dict(val) for key, val in COMMON.items()}
    for key, val in spec["config"].items():
        raw[key] = {**raw.get(key, {}), **val} if isinstance(val, dict) else val
    raw["training"] = {**raw["training"], "rounds": spec["rounds"]}
    raw["seeds"] = [seed]
    raw["output_dir"] = run_dir
    return raw
