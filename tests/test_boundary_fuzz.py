"""Boundary fuzz: one hostile leaf in a valid input, run through `cli.main`.

Each example takes a valid config, gen-data spec, sweep grid or dataset
line, replaces one leaf (a scalar, a list element or a whole section) with a
hostile value, and runs the subcommand in-process. Whatever the input, main
must return 0, 1 or 2, let no exception escape, and on failure print exactly
one `error:` (exit 1) or `runtime error:` (exit 2) line. Hypothesis runs
derandomized on a fixed budget, so every run tries the same examples.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from feduaf.cli import main

DEEP = "<deep>"  # written out as a value nested DEPTH lists deep
DEPTH = 100_000

# keys that size an array also get sizes numpy cannot allocate (2**50 rows
# exceed any address space) or represent; counts that only loop (clients,
# rounds, epochs) get small values, which is all a test can afford
SIZE_KEYS = {"hidden_dim", "fusion_dim", "passes", "samples_per_client",
             "feature_dim", "latent_dim"}
HUGE = st.sampled_from([2**50, 2**60, 2**63, 2**64, 10**30])
HOSTILE = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([None, True, False, "", "x", "\0", "a\0b", "\ud800", "\udcff",
                     [], {}, [[]], {"k": 1}, -0.0, 0.5, 1.5, 1e308, float("nan"),
                     float("inf"), float("-inf"), DEEP]),
)

CONFIG = {
    "federation": {"num_clients": 2, "samples_per_client": 4, "noniid_intensity": 0.5,
                   "missing_ratio": 0.3, "noisy_ratio": 0.5, "seed": 1,
                   "feature_dim": 2, "latent_dim": 2},
    "model": {"hidden_dim": 3, "fusion_dim": 3, "dropout": 0.1},
    "uncertainty": {"passes": 2},
    "training": {"rounds": 1, "local_epochs": 1, "lr": 0.01, "batch_size": 2,
                 "fedprox_mu": 0.01, "participation": 1.0},
    "reliability": {"epsilon": 1e-8, "max_samples": 3},
    "ablation": {"ua_fusion": True, "rel_agg": True},
    "strategy": "reliability_weighted",
    "noise_gamma": 1.0,
    "share_encoders": False,
    "seeds": [1],
    "output_dir": "out",
    "data_path": None,
}
SPEC = {key: CONFIG["federation"][key] for key in
        ("num_clients", "samples_per_client", "noniid_intensity", "missing_ratio",
         "noisy_ratio", "seed", "feature_dim", "latent_dim")}
GRID = {"missing_ratio": [0.2, 0.5], "strategy": ["uniform"],
        "ablation": [{"ua_fusion": False, "rel_agg": True}]}
LINES = [{"client_id": cid, "features": {"v": [0.1, -0.2], "t": [0.3, 0.4]},
          "mask": {"v": 1, "a": 0, "t": 1}, "label": 0.5}
         for cid in ("a", "a", "b", "b")]


def leaf_paths(obj, path=()):
    """Key paths of every value under `obj`, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, path + (key,))


def mutated(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def dump(obj) -> str:
    return json.dumps(obj).replace(json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH)


@st.composite
def mutations(draw, base):
    path = draw(st.sampled_from(list(leaf_paths(base))))
    hostile = st.one_of(HOSTILE, HUGE) if path[-1] in SIZE_KEYS else HOSTILE
    return mutated(base, path, draw(hostile))


def run_cli(files: dict, argv: list):
    """Write `files` into a fresh directory, run main there, and check the
    exit code and what it printed to stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"FEDUAF_THREADS": "1"}):
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
    text = err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert text.startswith("error: " if code == 1 else "runtime error: ")
        assert text.count("\n") == 1 and text.endswith("\n"), text


FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@FUZZ
@given(mutations(CONFIG))
@example(mutated(CONFIG, ("model", "hidden_dim"), 2**63))  # an unrepresentable size
@example(mutated(CONFIG, ("output_dir",), "\ud800"))  # a path UTF-8 cannot encode
def test_run_config(config):
    run_cli({"config.json": dump(config)}, ["run", "--config", "config.json"])


@FUZZ
@given(mutations(SPEC))
@example(mutated(SPEC, ("noniid_intensity",), -0.0))  # a signed zero as a numpy scale
def test_gen_data_spec(spec):
    run_cli({"spec.json": dump(spec)},
            ["gen-data", "--spec", "spec.json", "--out", "x.jsonl"])


@FUZZ
@given(mutations(GRID))
def test_sweep_grid(grid):
    run_cli({"config.json": dump(CONFIG), "grid.json": dump(grid)},
            ["sweep", "--config", "config.json", "--grid", "grid.json"])


@FUZZ
@given(mutations(LINES))
@example(mutated(LINES, (1, "features", "v", 1), 1e308))  # finite, but its square is not
def test_dataset_line(lines):
    run_cli({"config.json": dump(dict(CONFIG, data_path="data.jsonl")),
             "data.jsonl": "".join(dump(line) + "\n" for line in lines)},
            ["run", "--config", "config.json"])
