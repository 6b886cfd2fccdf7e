"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --run-dir DIR --trace 0|1

Imports feduaf from the checkout's `src/`, wraps `fedsim.run_round` (and,
with --trace 1, every layer function), calls the public entry point
`fedsim.run_simulation` exactly as `feduaf run` does, and writes
`bench.json` (and `spans.json`) next to the run's own outputs. The
FEDUAF_THREADS value comes from the caller's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import feduaf
    from feduaf import fedsim
    from feduaf.config import config_from_dict

    if not os.path.abspath(feduaf.__file__).startswith(SRC + os.sep):
        print(f"feduaf imported from {feduaf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    spans.install(tracer, layers=bool(args.trace))
    config = config_from_dict(workloads.config_dict(args.workload, args.seed, args.run_dir))
    summary = fedsim.run_simulation(config, args.seed, args.run_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    train_sizes = {c.data.client_id: len(c.data.train.samples) for c in tracer.state.clients}
    result = {
        "t0": t0,
        "peak_rss_mb": peak_rss_mb,
        "final_mae": summary["final_mae"],
        "sample_epochs": config.training.local_epochs * sum(
            train_sizes[cid] for report in tracer.state.reports for cid in report.train_loss),
        "expect": spans.expected_spans(config, tracer.state),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    with open(os.path.join(args.run_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(os.path.join(args.run_dir, "bench.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
