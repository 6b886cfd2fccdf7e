"""Grid sweeps over federation knobs and strategies, with CSV emission.

A grid is a JSON object whose keys are a subset of
{noniid_intensity, missing_ratio, noisy_ratio, strategy, ablation} and whose
values are lists of settings. Every grid point runs once per seed; the
sweep aggregates final-MAE mean/std per point into sweep.csv (fixed column
set, rows in grid order, byte-deterministic). A run whose failure the CLI
would report (`exceptions.failure`) is recorded in sweep_errors.json and the
sweep continues; any other exception is a bug and propagates.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import STRATEGIES, ExperimentConfig, config_from_dict, decode, open_input, replacing
from .exceptions import ConfigError, ParseError, ValidationError, failure
from .fedsim import _map, run_simulation, threads_from_env

GRID_AXES = ("noniid_intensity", "missing_ratio", "noisy_ratio", "strategy", "ablation")

CSV_COLUMNS = ("dataset_tag", "rho_m", "noniid", "noisy_ratio", "strategy",
               "ua_fusion", "rel_agg", "seed_count", "mae_mean", "mae_std")


@dataclass
class SweepCell:
    config: ExperimentConfig
    maes: list
    errors: list

    @property
    def mae_mean(self):
        return float(np.mean(self.maes)) if self.maes else None

    @property
    def mae_std(self):
        return float(np.std(self.maes)) if self.maes else None


@dataclass
class SweepResult:
    cells: list
    csv_path: str


def parse_grid(raw: dict) -> list:
    """Expand a grid spec into points (dicts) in canonical axis order."""
    if not isinstance(raw, dict):
        raise ConfigError("grid must be a JSON object")
    unknown = set(raw) - set(GRID_AXES)
    if unknown:
        raise ConfigError(
            f"unknown grid axis {sorted(unknown)[0]!r}; allowed: {GRID_AXES}"
        )
    axes = [a for a in GRID_AXES if a in raw]
    for a in axes:
        if not isinstance(raw[a], list) or not raw[a]:
            raise ConfigError(f"grid axis {a!r} must be a non-empty list")
    return [dict(zip(axes, combo))
            for combo in itertools.product(*(raw[a] for a in axes))]


def apply_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    """Derive a cell config; revalidates through the normal config path."""
    d = config.to_dict()
    for axis, value in point.items():
        if axis == "strategy":
            d["strategy"] = value
        elif axis == "ablation":
            d["ablation"] = value
        else:
            d["federation"][axis] = value
    return config_from_dict(d)


def _run_cell_seed(args):
    config, seed, run_dir = args
    try:
        summary = run_simulation(config, seed, run_dir, n_threads=1)
    except Exception as exc:  # a failed cell must not abort the sweep
        outcome = failure(exc)
        if outcome is None:
            raise
        return ("error", f"seed {seed}: {type(exc).__name__}: {outcome[1]}")
    return ("ok", summary["final_mae"])


def run_sweep(config: ExperimentConfig, grid_raw: dict, out_dir) -> SweepResult:
    """Run every grid point x seed on FEDUAF_THREADS worker processes and
    write sweep.csv under out_dir."""
    n_workers = threads_from_env()
    cells = [SweepCell(apply_point(config, point), [], [])
             for point in parse_grid(grid_raw)]
    os.makedirs(out_dir, exist_ok=True)  # a grid that fails validation leaves no directory
    errors_path = os.path.join(out_dir, "sweep_errors.json")
    Path(errors_path).unlink(missing_ok=True)  # it describes only this sweep's failures
    jobs = [(ci, seed) for ci in range(len(cells)) for seed in config.seeds]
    args = [(cells[ci].config, seed, os.path.join(out_dir, f"cell{ci:03d}", f"seed{seed}"))
            for ci, seed in jobs]
    outcomes = _map(_run_cell_seed, args, n_workers, ProcessPoolExecutor)
    for (ci, _), (status, payload) in zip(jobs, outcomes):
        (cells[ci].maes if status == "ok" else cells[ci].errors).append(payload)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with replacing(csv_path) as tmp:
        write_sweep_csv(tmp, cells)
    errors = {f"cell{ci:03d}": c.errors for ci, c in enumerate(cells) if c.errors}
    if errors:
        with replacing(errors_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            json.dump(errors, fh, indent=2, sort_keys=True)
    return SweepResult(cells=cells, csv_path=csv_path)


def _dataset_tag(config: ExperimentConfig) -> str:
    if config.data_path:
        return os.path.basename(config.data_path)
    return "synthetic"


def write_sweep_csv(path, cells: list):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in cells:
            cfg = cell.config
            writer.writerow([
                _dataset_tag(cfg),
                repr(float(cfg.federation.missing_ratio)),
                repr(float(cfg.federation.noniid_intensity)),
                repr(float(cfg.federation.noisy_ratio)),
                cfg.strategy,
                int(cfg.ablation.ua_fusion),
                int(cfg.ablation.rel_agg),
                len(cell.maes),
                "" if cell.mae_mean is None else repr(cell.mae_mean),
                "" if cell.mae_std is None else repr(cell.mae_std),
            ])


# ------------------------------------------------------------ plot data

_PLOT_X_AXES = (("rho_m", "fig_missing_ratio.csv"),
                ("noniid", "fig_noniid.csv"),
                ("noisy_ratio", "fig_noisy_ratio.csv"))


def _series_label(row: dict) -> str:
    label = row["strategy"]
    if row["ua_fusion"] != "1" or row["rel_agg"] != "1":
        label += f".ua{row['ua_fusion']}.rel{row['rel_agg']}"
    return label


_LABEL_COLUMNS = {"strategy": STRATEGIES, "ua_fusion": ("0", "1"), "rel_agg": ("0", "1")}


def _cell_error(sweep_csv, i: int, col: str, want: str, value) -> ValidationError:
    return ValidationError(f"{sweep_csv}: data row {i}: column {col!r} "
                           f"must be {want}, got {value!r}")


def _read_sweep_rows(sweep_csv) -> list:
    """The data rows of a sweep.csv, checked as `write_sweep_csv` writes them,
    with the x axes and mae_mean as finite floats (mae_mean None where empty)."""
    with open_input(sweep_csv, "sweep csv") as fh:
        reader = csv.DictReader(io.StringIO(decode(fh.read(), sweep_csv), newline=""))
    header = reader.fieldnames or []
    missing = sorted(set(CSV_COLUMNS) - set(header))
    if missing:
        raise ValidationError(f"sweep csv missing columns: {missing}")
    repeated = sorted({col for col in header if header.count(col) > 1})
    if repeated:
        raise ParseError(f"{sweep_csv}: repeated columns {repeated}")
    rows = list(reader)
    if not rows:
        raise ValidationError("sweep csv has no data rows")
    for i, row in enumerate(rows, start=1):
        for col, allowed in _LABEL_COLUMNS.items():
            if row[col] not in allowed:
                raise _cell_error(sweep_csv, i, col, f"one of {allowed}", row[col])
        count = row["seed_count"]  # None in a short row
        if not (isinstance(count, str) and count.isascii() and count.isdigit()):
            raise _cell_error(sweep_csv, i, "seed_count", "a non-negative integer", count)
        for col in ("rho_m", "noniid", "noisy_ratio", "mae_mean"):
            value = row[col]
            if col == "mae_mean" and value == "":
                row[col] = None
                continue
            try:
                number = float(value)
            except (TypeError, ValueError):  # TypeError: a short row holds None
                number = math.nan
            if not math.isfinite(number):
                raise _cell_error(sweep_csv, i, col, "a finite number", value)
            row[col] = number
    return rows


def emit_plotdata(sweep_csv, out_dir) -> list:
    """Write one tidy per-figure CSV per varying numeric axis, in place of
    every figure CSV an earlier call left in out_dir.

    Each output has the x-axis column first, then one mae_mean column per
    strategy/ablation series, rows sorted by x ascending.
    """
    rows = _read_sweep_rows(sweep_csv)
    os.makedirs(out_dir, exist_ok=True)
    for _, fname in _PLOT_X_AXES:
        Path(out_dir, fname).unlink(missing_ok=True)
    candidates = [(axis, fname) for axis, fname in _PLOT_X_AXES
                  if len({r[axis] for r in rows}) >= 2]
    if not candidates:
        candidates = list(_PLOT_X_AXES)
    written = []
    for axis, fname in candidates:
        xs = sorted({r[axis] for r in rows})
        series = sorted({_series_label(r) for r in rows})
        table = {}
        for r in rows:
            if r["mae_mean"] is not None:
                table.setdefault((r[axis], _series_label(r)), []).append(r["mae_mean"])
        path = os.path.join(out_dir, fname)
        with replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([axis] + series)
            for x in xs:
                row = [repr(x)]
                for s in series:
                    vals = table.get((x, s))
                    row.append("" if vals is None else repr(float(np.mean(vals))))
                writer.writerow(row)
        written.append(path)
    return written
