"""Command-line experiment runner.

Subcommands: gen-data (write a synthetic federation as JSONL), run (single
training run), sweep (grid x seeds with CSV aggregation), plotdata (tidy
per-figure CSVs from a sweep). Exit codes, decided by `exceptions.failure`:
0 success, 1 config/validation error, 2 runtime/numeric error, a failure to
write outputs or a size that cannot be allocated or that numpy cannot
represent.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import FederationSpec, from_dict, parse_config, parse_int, read_json, replacing
from .datagen import generate_federation, save_jsonl
from .exceptions import ConfigError, failure
from .fedsim import run_simulation
from .sweep import emit_plotdata, run_sweep


def _cmd_gen_data(args) -> int:
    raw = read_json(args.spec, "spec")
    spec = from_dict(FederationSpec, raw)
    if "num_clients" not in raw:
        raise ConfigError("spec requires 'num_clients'")
    spec = replace(spec, seed=0 if spec.seed is None else spec.seed)
    datasets = generate_federation(spec)
    with replacing(args.out) as tmp:
        save_jsonl(tmp, datasets)
    n_samples = sum(len(ds.samples) for ds in datasets)
    print(f"wrote {n_samples} samples for {len(datasets)} clients to {args.out}")
    return 0


def _cmd_run(args) -> int:
    seed = None if args.seed is None else parse_int(args.seed, "--seed", 0)
    config = parse_config(args.config)
    seed = config.seeds[0] if seed is None else seed
    summary = run_simulation(config, seed, config.output_dir)
    print(f"seed {seed}: final MAE {summary['final_mae']:.4f} "
          f"after {summary['rounds_completed']} rounds "
          f"({summary['wall_time_s']:.1f}s)")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    grid = read_json(args.grid, "grid")
    result = run_sweep(config, grid, config.output_dir)
    n_failed = sum(1 for c in result.cells if c.errors)
    print(f"wrote {len(result.cells)} grid points to {result.csv_path}"
          + (f" ({n_failed} with errors)" if n_failed else ""))
    return 0


def _cmd_plotdata(args) -> int:
    written = emit_plotdata(args.input, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feduaf",
        description="Federated multimodal sentiment simulator with "
                    "uncertainty-aware fusion and reliability-guided aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic federation as JSONL")
    p.add_argument("--spec", required=True, help="FederationSpec JSON file")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("run", help="execute one training run")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", default=None,
                   help="override the run seed (default: first of config seeds)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a grid sweep and aggregate MAE")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--grid", required=True, help="grid spec JSON file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plotdata", help="emit per-figure CSVs from sweep.csv")
    p.add_argument("--in", dest="input", required=True, help="sweep.csv path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        outcome = failure(exc)
        if outcome is None:
            raise
        code, message = outcome
        print(f"{'error' if code == 1 else 'runtime error'}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
