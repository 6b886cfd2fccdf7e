"""feduaf benchmark: round-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh interpreter
(`perfbench/child.py`) that calls `fedsim.run_simulation` on the workload's
config with the given seed; repetitions start until the next one would not
fit in S seconds (at least two run). Every repetition's rounds.jsonl must
be byte-identical, every round's MAE finite and every output well formed;
a repetition that fails any of these fails all its rounds.

--trace 0 reports the end-to-end metrics of untraced repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of `perfbench/layers.json`, which also records the
end-to-end metric and workload each should move.

Prints every metric with its unit, an environment record, and as the last
line {"correct", "attempted", "failed", "metrics"}. Exits 1 if any round
failed and 2 on a usage error or when the checkout holds no feduaf source.
Outputs go to `.bench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "FEDUAF_THREADS")
MIN_REPS = 2
HARD_LIMIT_S = 170.0  # the whole command must end within 180 s

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)["metrics"]

END_TO_END_UNITS = {
    "round_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_mae": "label",
}

# per-layer metric -> (span, statistic, phase); statistics come from
# spans.span_totals. Metrics not listed are derived in layer_metrics.
LAYER_SOURCES = {
    "uncertainty.probe_total_s": ("uncertainty.probe", "total", "round"),
    "uncertainty.probe_s": ("uncertainty.probe", "self", "round"),
    "uncertainty.probe_calls": ("uncertainty.probe", "calls", "round"),
    "uncertainty.probe_rows": ("uncertainty.probe", "n", "round"),
    "rng.draw_s": ("rng.draw", "self", "round"),
    "rng.draw_calls": ("rng.draw", "calls", "round"),
    "rng.values_drawn": ("rng.draw", "n", "round"),
    "nn.forward_s": ("nn.forward", "self", "round"),
    "nn.forward_calls": ("nn.forward", "calls", "round"),
    "nn.forward_rows": ("nn.forward", "n", "round"),
    "nn.backward_s": ("nn.backward", "self", "round"),
    "nn.backward_calls": ("nn.backward", "calls", "round"),
    "nn.adam_s": ("nn.adam", "self", "round"),
    "nn.adam_calls": ("nn.adam", "calls", "round"),
    "nn.adam_values": ("nn.adam", "n", "round"),
    "model.forward_fused_s": ("model.forward_fused", "self", "round"),
    "model.backward_fused_s": ("model.backward_fused", "self", "round"),
    "model.probe_s": ("model.probe", "self", "round"),
    "model.fused_mc_s": ("model.fused_mc", "self", "round"),
    "model.exchange_s": ("model.exchange", "self", "round"),
    "fusion.weights_s": ("fusion.weights", "self", "round"),
    "fusion.weights_calls": ("fusion.weights", "calls", "round"),
    "uncertainty.fused_total_s": ("uncertainty.fused", "total", "round"),
    "fedsim.reliability_total_s": ("fedsim.reliability", "total", "round"),
    "fedsim.local_update_total_s": ("fedsim.local_update", "total", "round"),
    "fedsim.evaluate_total_s": ("fedsim.evaluate", "total", "round"),
    "fedsim.aggregate_s": ("fedsim.aggregate", "self", "round"),
    "fedsim.perturb_s": ("fedsim.perturb", "self", "round"),
    "fedsim.upload_bytes": ("fedsim.local_update", "n", "round"),
    "datagen.generate_s": ("datagen.generate", "self", "setup"),
    "model.init_s": ("model.init", "self", "setup"),
    "fedsim.init_total_s": ("fedsim.init", "total", "setup"),
    "datagen.batch_s": ("datagen.batch", "self", "round"),
    "datagen.batch_calls": ("datagen.batch", "calls", "round"),
    "serialize.save_s": ("serialize.save", "self", "round"),
    "serialize.bytes_written": ("serialize.save", "n", "round"),
}


# ------------------------------------------------------------ outputs

def digest_mismatches(digests: list) -> list:
    """Indices whose digest differs from the first non-None digest; None
    marks a repetition that produced no output and is skipped."""
    ref = next((d for d in digests if d is not None), None)
    return [i for i, d in enumerate(digests) if d is not None and d != ref]


def check_outputs(run_dir: str, rounds: int) -> tuple:
    """(digest of rounds.jsonl, failed round indices, errors) of one run."""
    with open(os.path.join(run_dir, "rounds.jsonl"), "rb") as fh:
        raw = fh.read()
    reports = [json.loads(line) for line in raw.splitlines()]
    errors, failed = [], []
    if [r["round"] for r in reports] != list(range(1, rounds + 1)):
        errors.append(f"rounds.jsonl holds rounds {[r['round'] for r in reports]}")
    for r in reports:
        weights = list(r["weights"].values())
        rel = list(r["reliabilities"].values())
        if not (math.isfinite(r["test_mae"])
                and all(w >= 0 for w in weights)
                and abs(math.fsum(weights) - 1.0) < 1e-9
                and all(math.isfinite(x) and x > 0 for x in rel)
                and all(math.isfinite(x) for x in r["train_loss"].values())):
            failed.append(r["round"])
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    last = reports[-1]["test_mae"] if reports else None
    # repr compares floats exactly and NaN equal to NaN
    if summary["rounds_completed"] != rounds or repr(summary["final_mae"]) != repr(last):
        errors.append("summary.json disagrees with rounds.jsonl")
    with open(os.path.join(run_dir, "shared_params.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    if params.get("format") != "feduaf.params" or not params.get("tensors"):
        errors.append("shared_params.json is not a feduaf.params container")
    return hashlib.sha256(raw).hexdigest(), failed, errors


# ------------------------------------------------------------ repetitions

def run_rep(workload: str, seed: int, run_dir: str, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and check its outputs."""
    spec = workloads.WORKLOADS[workload]
    env = dict(os.environ, FEDUAF_THREADS=str(spec["threads"]))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--run-dir", run_dir, "--trace", str(int(traced))]
    rep = {"traced": traced, "rounds": spec["rounds"], "run_dir": run_dir,
           "digest": None, "failed_rounds": [], "errors": []}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        rep["errors"].append(f"timed out after {timeout:.0f} s")
        proc = None
    rep["wall_s"] = time.perf_counter() - t0
    if proc is not None and proc.returncode != 0:
        rep["errors"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if rep["errors"]:
        return rep
    try:
        rep["digest"], rep["failed_rounds"], errors = check_outputs(run_dir, spec["rounds"])
        rep["errors"].extend(errors)
        with open(os.path.join(run_dir, "bench.json"), encoding="utf-8") as fh:
            rep["bench"] = json.load(fh)
        with open(os.path.join(run_dir, "spans.json"), encoding="utf-8") as fh:
            span_list = json.load(fh)
        rep["round_s"] = spans.round_times(span_list)
        rep["setup_s"] = spans.setup_end(span_list) - rep["bench"]["t0"]
        if traced:
            rep["layers"] = layer_metrics(span_list, spec["rounds"])
            rep["coverage"] = spans.coverage_errors(span_list, rep["bench"]["expect"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep["errors"].append(f"unreadable outputs: {exc!r}")
    return rep


def run_set(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions until the next would overrun `seconds`; with `trace`
    they alternate untraced and traced, starting untraced."""
    set_dir = os.path.join(OUT, workload, f"s{seed}-t{int(trace)}")
    shutil.rmtree(set_dir, ignore_errors=True)
    os.makedirs(set_dir)
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        reps.append(run_rep(workload, seed, os.path.join(set_dir, f"rep{len(reps)}"),
                            traced, HARD_LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in reps)
        limit = HARD_LIMIT_S if len(reps) < MIN_REPS else min(seconds, HARD_LIMIT_S)
        if elapsed + longest > limit:
            return reps


# ------------------------------------------------------------ metrics

def end_to_end(reps: list) -> dict:
    """End-to-end metrics of the good untraced repetitions."""
    good = [r for r in reps if not r["traced"] and not r["errors"]]
    if not good:
        return {}
    round_s = [t for r in good for t in r["round_s"]]
    values = {
        "round_s": statistics.median(round_s),
        "samples_per_s": sum(r["bench"]["sample_epochs"] for r in good) / math.fsum(round_s),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["bench"]["peak_rss_mb"] for r in good),
        "final_mae": good[0]["bench"]["final_mae"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(span_list: list, rounds: int) -> dict:
    """Per-layer values of one traced repetition, per round or per set-up;
    the round-time tail and tracing overhead are added by per_layer."""
    totals = spans.span_totals(span_list)
    out = {}
    for name, (span, stat, phase) in LAYER_SOURCES.items():
        agg = totals.get((span, phase))
        value = agg[stat] if agg else 0
        out[name] = value / rounds if phase == "round" else value
    probe = totals.get(("uncertainty.probe", "round"))
    out["uncertainty.probe_useful_ratio"] = probe["m"] / probe["n"] if probe and probe["n"] else 0.0
    phase_s, idle = spans.client_phase(span_list)
    out["fedsim.client_phase_s"] = phase_s / rounds
    out["fedsim.client_idle_ratio"] = idle
    return out


def per_layer(reps: list) -> tuple:
    """(metrics, coverage errors): layer metrics averaged over the good
    traced repetitions, plus round-time tail and tracing overhead."""
    plain = [r for r in reps if not r["traced"] and not r["errors"]]
    traced = [r for r in reps if r["traced"] and not r["errors"]]
    if not plain or not traced:
        return {}, []
    values = {name: statistics.fmean(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    plain_rounds = [t for r in plain for t in r["round_s"]]
    traced_rounds = [t for r in traced for t in r["round_s"]]
    tail_value, tail_pct, tail_n = spans.tail(plain_rounds)
    values["fedsim.round_s_tail"] = tail_value if tail_value is not None else 0.0
    values["fedsim.round_s_tail_pct"] = tail_pct if tail_pct is not None else 0.0
    values["fedsim.round_s_tail_n"] = tail_n
    values["bench.trace_overhead"] = (statistics.median(traced_rounds)
                                      / statistics.median(plain_rounds))
    metrics = {k: {"value": values[k], "unit": LAYERS[k]["unit"]} for k in LAYERS}
    return metrics, sorted({e for r in traced for e in r["coverage"]})


# ------------------------------------------------------------ environment

def src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ------------------------------------------------------------ main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "feduaf", "__init__.py")):
        print(f"no feduaf source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    reps = run_set(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_after"] = os.getloadavg()
    good = [r for r in reps if "bench" in r]
    if good:
        env.update(good[0]["bench"]["versions"])

    for i in digest_mismatches([r["digest"] for r in reps]):
        reps[i]["errors"].append("rounds.jsonl differs from the first repetition's")
    metrics, coverage = per_layer(reps) if args.trace else (end_to_end(reps), [])
    attempted = sum(r["rounds"] for r in reps)
    failed = sum(r["rounds"] if r["errors"] else len(r["failed_rounds"]) for r in reps)
    metrics = {k: m for k, m in metrics.items() if math.isfinite(m["value"])}
    correct = failed == 0 and not coverage and bool(metrics)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetitions, {attempted} rounds, {failed} failed "
          f"(failed_ratio {failed / attempted:.4g})")
    for i, rep in enumerate(reps):
        for err in rep["errors"]:
            print(f"  repetition {i}: {err}", file=sys.stderr)
        if rep["failed_rounds"]:
            print(f"  repetition {i}: rounds {rep['failed_rounds']} failed", file=sys.stderr)
    for err in coverage:
        print(f"  coverage: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "repetitions": [{**{k: r.get(k) for k in ("traced", "rounds", "wall_s", "digest",
                                                  "failed_rounds", "errors")},
                         "round_s": r.get("round_s", [])} for r in reps],
        "failed_ratio": failed / attempted,
        "coverage_errors": coverage,
        "metrics": metrics,
    }
    path = os.path.join(OUT, args.workload, f"result-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
