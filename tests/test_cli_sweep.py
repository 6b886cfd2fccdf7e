"""CLI contract (exit codes, subcommands) and sweep/plotdata machinery."""

import csv
import json
import os
import warnings
from pathlib import Path

import pytest

from feduaf.cli import main
from feduaf.config import config_from_dict
from feduaf.datagen import load_jsonl
from feduaf.exceptions import ConfigError, ParseError, ValidationError
from feduaf.sweep import emit_plotdata, parse_grid, run_sweep

SMALL_RUN = {
    "federation": {"num_clients": 3, "samples_per_client": 12, "missing_ratio": 0.2},
    "model": {"hidden_dim": 6},
    "training": {"rounds": 2, "local_epochs": 1},
    "seeds": [1, 2],
}


GEN_DATA_SPEC = {"num_clients": 2, "samples_per_client": 4, "feature_dim": 2,
                 "latent_dim": 2, "noniid_intensity": 1.0, "missing_ratio": 0.5,
                 "noisy_ratio": 0.5}
GEN_DATA_REFERENCE = os.path.join(os.path.dirname(__file__), "data", "gen_data_noseed.jsonl")
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "ingest_fixture.jsonl")
GOOD_LINE = ('{"client_id": "c", "features": {"v": [1.0]}, '
             '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n')


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def write_undecodable(path):
    """A file that starts with a UTF-16 byte-order mark, not UTF-8."""
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


def assert_names_undecodable(err, path):
    assert err.startswith("error: ") and f"{path}: " in err and "not UTF-8" in err


def assert_names_directory(err, path):
    assert err.startswith("error: ") and f"is a directory: {path}" in err


def unallocatable_message(size) -> str:
    """How the CLI reports an array of `size` rows it cannot make."""
    if size >= 2**60:
        return "runtime error: a size numpy cannot represent: "
    return "runtime error: Unable to allocate "


class TestCli:
    def test_gen_data_writes_loadable_jsonl(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json",
                          {"num_clients": 3, "samples_per_client": 8,
                           "missing_ratio": 0.5, "seed": 2})
        out = tmp_path / "data.jsonl"
        assert main(["gen-data", "--spec", spec, "--out", str(out)]) == 0
        clients = load_jsonl(out, 20)
        assert len(clients) == 3
        assert sum(len(c.samples) for c in clients) == 24

    def test_gen_data_unknown_key_exits_1(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"num_clients": 3, "bogus": 1})
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        assert "bogus" in capsys.readouterr().err
        spec = write_undecodable(tmp_path / "spec.json")
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        assert_names_undecodable(capsys.readouterr().err, spec)
        assert main(["gen-data", "--spec", str(tmp_path), "--out", str(tmp_path / "x")]) == 1
        assert_names_directory(capsys.readouterr().err, tmp_path)

    @pytest.mark.parametrize("key,value", [
        ("num_clients", "5"), ("missing_ratio", "0.5"),
        ("samples_per_client", 2.5), ("seed", True), ("num_clients", None)])
    def test_gen_data_bad_value_exits_1(self, tmp_path, capsys, key, value):
        spec = write_json(tmp_path / "spec.json", {"num_clients": 3, key: value})
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err
        assert not (tmp_path / "x").exists()

    def test_gen_data_requires_num_clients(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"samples_per_client": 4})
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "x")]) == 1
        assert "num_clients" in capsys.readouterr().err

    def test_gen_data_without_seed_matches_reference_file(self, tmp_path, capsys):
        # the reference file was written by the gen-data of the release before
        # FederationSpec became the federation config section
        spec = write_json(tmp_path / "spec.json", GEN_DATA_SPEC)
        out = tmp_path / "data.jsonl"
        assert main(["gen-data", "--spec", spec, "--out", str(out)]) == 0
        assert out.read_bytes() == Path(GEN_DATA_REFERENCE).read_bytes()

    def test_run_writes_outputs_and_exits_0(self, tmp_path, capsys):
        cfg = dict(SMALL_RUN, output_dir=str(tmp_path / "out"))
        path = write_json(tmp_path / "config.json", cfg)
        assert main(["run", "--config", path, "--seed", "7"]) == 0
        assert (tmp_path / "out" / "rounds.jsonl").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["rounds_completed"] == 2

    @pytest.mark.parametrize("extra", [{}, {"data_path": FIXTURE}],
                             ids=["synthetic", "data-path"])
    def test_run_negative_seed_exits_1_naming_the_option(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        path = write_json(tmp_path / "config.json", dict(SMALL_RUN, output_dir=str(out), **extra))
        for seed in ("-1", "-2"):
            assert main(["run", "--config", path, "--seed", seed]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --seed must be an integer >= 0, got {seed}\n"
        assert not out.exists()

    def test_run_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = dict(SMALL_RUN, output_dir=str(tmp_path / sub))
            path = write_json(tmp_path / f"config-{sub}.json", cfg)
            assert main(["run", "--config", path]) == 0
        a = (tmp_path / "a" / "rounds.jsonl").read_bytes()
        b = (tmp_path / "b" / "rounds.jsonl").read_bytes()
        assert a == b

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "config.json", {"training": {"rounds": 0}})
        assert main(["run", "--config", path]) == 1
        bad = write_undecodable(tmp_path / "bad.json")
        assert main(["run", "--config", bad]) == 1
        assert_names_undecodable(capsys.readouterr().err, bad)
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, output_dir=str(tmp_path / "out")))
        assert main(["sweep", "--config", path, "--grid", bad]) == 1
        assert_names_undecodable(capsys.readouterr().err, bad)
        for argv in (["run", "--config", str(tmp_path)],
                     ["sweep", "--config", path, "--grid", str(tmp_path)]):
            assert main(argv) == 1
            assert_names_directory(capsys.readouterr().err, tmp_path)

    def test_repeated_config_key_exits_1(self, tmp_path, capsys):
        # json alone keeps the last value, and the run would take 2 rounds
        path = tmp_path / "config.json"
        path.write_text('{"training": {"rounds": 1, "rounds": 2}, "output_dir": %s}'
                        % json.dumps(str(tmp_path / "out")))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: repeated key 'rounds'" in err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_exits_1(self, tmp_path, capsys):
        # json's decoder raises RecursionError at this depth
        path = tmp_path / "config.json"
        path.write_text('{"training": %s%s}' % ("[" * 100_000, "]" * 100_000))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    def test_deeply_nested_dataset_line_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_LINE + '{"client_id": %s%s}\n' % ("[" * 100_000, "]" * 100_000))
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, data_path=str(data), output_dir=str(tmp_path / "out")))
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {data}: line 2: JSON nested too deeply\n"

    def test_dataset_field_error_names_file(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_LINE.replace('"label": 0.5', '"label": 9.5'))
        out = tmp_path / "out"
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, data_path=str(data), output_dir=str(out)))
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 1: label must be a number in [-3.0, 3.0]\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [("model", "hidden_dim", 10**13),
                                                     ("uncertainty", "passes", 10**14)] + [
        (section, key, value) for value in (2**60, 2**63)
        for section, key in (("model", "hidden_dim"), ("model", "fusion_dim"),
                             ("uncertainty", "passes"), ("federation", "samples_per_client"),
                             ("federation", "feature_dim"), ("federation", "latent_dim"))])
    def test_unallocatable_run_size_exits_2(self, tmp_path, capsys, section, key, value):
        # the first array of this size exceeds 2**48 bytes, which no address
        # space holds, so the allocation fails under any overcommit setting;
        # from 2**60 numpy cannot even represent the array's size
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, output_dir=str(tmp_path / "out"),
                               **{section: {**SMALL_RUN.get(section, {}), key: value}}))
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(unallocatable_message(value)) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unallocatable_gen_data_size_exits_2(self, tmp_path, capsys):
        for key, value in [("samples_per_client", 10**14)] + [
                (key, value) for key in ("samples_per_client", "feature_dim")
                for value in (2**60, 2**63)]:
            spec = write_json(tmp_path / "spec.json", dict(GEN_DATA_SPEC, **{key: value}))
            assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "x.jsonl")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(unallocatable_message(value)) and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["output_dir", "data_path"])
    @pytest.mark.parametrize("char", ["\0", "\ud800"], ids=["nul", "surrogate"])
    def test_unusable_path_string_exits_1(self, tmp_path, capsys, key, char):
        # neither can name a file: open() rejects a NUL and UTF-8 a lone surrogate
        out = tmp_path / "out"
        raw = dict(SMALL_RUN, output_dir=str(out))
        raw[key] = str(tmp_path / f"x{char}y")
        assert main(["run", "--config", write_json(tmp_path / "config.json", raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' expects ") and err.count("\n") == 1
        assert not out.exists()

    def test_surrogate_client_id_exits_1(self, tmp_path, capsys):
        # the id keys the client's random streams, which hash its UTF-8 bytes
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_LINE * 2 + GOOD_LINE.replace('"c"', '"\\ud800"') * 2)
        out = tmp_path / "out"
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, data_path=str(data), output_dir=str(out)))
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err == (f"error: {data}: line 3: client_id must be a "
                                           "non-empty string with no NUL or lone surrogate\n")
        assert not out.exists()

    def test_sweep_bad_grid_value_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        path = write_json(tmp_path / "config.json", dict(SMALL_RUN, output_dir=str(out)))
        grid = write_json(tmp_path / "grid.json", {"missing_ratio": [0.2, 2.0]})
        assert main(["sweep", "--config", path, "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'federation.missing_ratio' expects ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "", "1_0", " 2 ", "+2", "\u0663"])
    def test_bad_thread_env_exits_1(self, tmp_path, capsys, monkeypatch, value):
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, output_dir=str(tmp_path / "out")))
        grid = write_json(tmp_path / "grid.json", {})
        monkeypatch.setenv("FEDUAF_THREADS", value)
        for argv in (["run", "--config", path],
                     ["sweep", "--config", path, "--grid", grid]):
            assert main(argv) == 1
            assert "FEDUAF_THREADS" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 1

    def test_runtime_error_exits_2(self, tmp_path, capsys):
        # ingesting a dataset whose only client has too few samples for a
        # test split is a runtime-side failure path via empty federation
        data = tmp_path / "data.jsonl"
        data.write_text("")
        cfg = dict(SMALL_RUN, data_path=str(data),
                   output_dir=str(tmp_path / "out"))
        path = write_json(tmp_path / "config.json", cfg)
        code = main(["run", "--config", path])
        assert code == 1  # empty dataset is a validation error
        # a one-client file is no federation (num_clients >= 2)
        data.write_text(GOOD_LINE * 6)
        capsys.readouterr()
        assert main(["run", "--config", path]) == 1
        assert "at least 2 clients" in capsys.readouterr().err
        # a byte that is not UTF-8 on line 2
        data.write_bytes(GOOD_LINE.encode() + b'{"client_id": "\xff"}\n')
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert_names_undecodable(err, data)
        assert "line 2" in err
        # a directory is no dataset file
        path = write_json(tmp_path / "config.json", dict(cfg, data_path=str(tmp_path)))
        assert main(["run", "--config", path]) == 1
        assert_names_directory(capsys.readouterr().err, tmp_path)

    def test_diverging_client_exits_2_and_is_named(self, tmp_path, capsys):
        # a huge step overflows the first client's weights after one step;
        # the next forward sees non-finite values. The exit-2 message is
        # the only output: numpy's overflow warnings are not shown
        cfg = dict(SMALL_RUN, output_dir=str(tmp_path / "out"),
                   training=dict(SMALL_RUN["training"], lr=1e300))
        path = write_json(tmp_path / "config.json", cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", path]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("runtime error: round 1: ")
        assert "client 'spk000' diverged: " in err

    def test_client_too_small_to_split_exits_1(self, tmp_path, capsys):
        # one sample gives client 'a' no train split; the run must stop
        # before it creates its output directory
        data = tmp_path / "data.jsonl"
        data.write_text(GOOD_LINE.replace('"c"', '"a"') + GOOD_LINE * 6)
        out = tmp_path / "out"
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, data_path=str(data), output_dir=str(out)))
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "client 'a' has 1 sample" in err
        assert not out.exists()

    @pytest.mark.parametrize("vec", ['"ab"', '[0.1, {"x": 1}]'])
    def test_bad_feature_values_exit_1(self, tmp_path, capsys, vec):
        data = tmp_path / "data.jsonl"
        data.write_text('{"client_id": "c", "features": {"v": %s}, '
                        '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n' % vec)
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, data_path=str(data),
                               output_dir=str(tmp_path / "out")))
        assert main(["run", "--config", path]) == 1
        assert "line 1: features['v']" in capsys.readouterr().err

    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        path = write_json(tmp_path / "config.json",
                          dict(SMALL_RUN, output_dir=str(blocker / "out")))
        grid = write_json(tmp_path / "grid.json", {})
        for argv in (["run", "--config", path],
                     ["sweep", "--config", path, "--grid", grid]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("runtime error: ") and "file" in err

    def test_plotdata_missing_columns_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "sweep.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plotdata", "--in", str(bad), "--out", str(tmp_path / "figs")]) == 1
        bad = write_undecodable(tmp_path / "sweep.csv")
        assert main(["plotdata", "--in", bad, "--out", str(tmp_path / "figs")]) == 1
        assert_names_undecodable(capsys.readouterr().err, bad)
        assert main(["plotdata", "--in", str(tmp_path), "--out", str(tmp_path / "figs")]) == 1
        assert_names_directory(capsys.readouterr().err, tmp_path)
        missing = tmp_path / "none.csv"
        assert main(["plotdata", "--in", str(missing), "--out", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"not found: {missing}" in err


class TestGrid:
    def test_empty_grid_is_single_point(self):
        assert parse_grid({}) == [{}]

    def test_cardinality(self):
        points = parse_grid({"missing_ratio": [0.2, 0.8],
                             "noniid_intensity": [0.2, 1.0]})
        assert len(points) == 4

    def test_axis_order_canonical(self):
        points = parse_grid({"strategy": ["uniform"], "missing_ratio": [0.1, 0.2]})
        assert [p["missing_ratio"] for p in points] == [0.1, 0.2]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_grid({"batch_size": [1]})

    def test_bad_strategy_rejected(self, tmp_path, capsys):
        # every cell config is built before anything is written
        out = tmp_path / "sweep"
        path = write_json(tmp_path / "config.json", dict(SMALL_RUN, output_dir=str(out)))
        grid = write_json(tmp_path / "grid.json", {"strategy": ["uniform", "nope"]})
        assert main(["sweep", "--config", path, "--grid", grid]) == 1
        assert capsys.readouterr().err.startswith("error: config key 'strategy' expects ")
        assert not out.exists()


class TestSweep:
    def sweep_config(self, tmp_path):
        return config_from_dict(dict(SMALL_RUN, output_dir=str(tmp_path / "sweep")))

    def test_single_point_matches_run(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        result = run_sweep(cfg, {}, cfg.output_dir)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert len(cell.maes) == 2  # one per seed
        # cross-check against the per-seed summary.json files
        for i, seed in enumerate(cfg.seeds):
            summary = json.loads(
                (tmp_path / "sweep" / "cell000" / f"seed{seed}" / "summary.json")
                .read_text())
            assert summary["final_mae"] == cell.maes[i]

    def test_csv_schema_and_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        grid = {"missing_ratio": [0.2, 0.6], "strategy": ["reliability_weighted",
                                                          "uniform"]}
        result = run_sweep(cfg, grid, cfg.output_dir)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {"dataset_tag", "rho_m", "noniid", "noisy_ratio",
                                "strategy", "ua_fusion", "rel_agg", "seed_count",
                                "mae_mean", "mae_std"}
        assert all(r["dataset_tag"] == "synthetic" for r in rows)
        assert all(r["seed_count"] == "2" for r in rows)
        assert all(float(r["mae_std"]) >= 0.0 for r in rows)

    def test_csv_deterministic_across_reruns(self, tmp_path):
        grid = {"missing_ratio": [0.2, 0.5]}
        payloads = []
        for sub in ("s1", "s2"):
            cfg = config_from_dict(dict(SMALL_RUN, output_dir=str(tmp_path / sub)))
            result = run_sweep(cfg, grid, cfg.output_dir)
            payloads.append(Path(result.csv_path).read_bytes())
        assert payloads[0] == payloads[1]

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        grid = {"missing_ratio": [0.2, 0.5]}
        payloads = []
        for sub, workers in (("serial", "1"), ("parallel", "2")):
            monkeypatch.setenv("FEDUAF_THREADS", workers)
            cfg = config_from_dict(dict(SMALL_RUN, output_dir=str(tmp_path / sub)))
            result = run_sweep(cfg, grid, cfg.output_dir)
            payloads.append(Path(result.csv_path).read_bytes())
        assert payloads[0] == payloads[1]

    def test_mean_equals_mean_of_seed_values(self, tmp_path):
        import numpy as np

        cfg = self.sweep_config(tmp_path)
        result = run_sweep(cfg, {"missing_ratio": [0.3]}, cfg.output_dir)
        cell = result.cells[0]
        assert cell.mae_mean == pytest.approx(np.mean(cell.maes), abs=1e-15)
        assert cell.mae_std == pytest.approx(np.std(cell.maes), abs=1e-15)

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path):
        # nonexistent data file fails every seed of every cell
        cfg = config_from_dict(dict(SMALL_RUN,
                                    data_path=str(tmp_path / "missing.jsonl"),
                                    output_dir=str(tmp_path / "sweep")))
        result = run_sweep(cfg, {"missing_ratio": [0.2, 0.4]}, cfg.output_dir)
        assert all(not c.maes and len(c.errors) == 2 for c in result.cells)
        errors = json.loads((tmp_path / "sweep" / "sweep_errors.json").read_text())
        assert set(errors) == {"cell000", "cell001"}
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["mae_mean"] == "" and r["seed_count"] == "0" for r in rows)
        # so does a dataset that is not UTF-8
        data = tmp_path / "bad.jsonl"
        data.write_bytes(GOOD_LINE.encode() + b'{"client_id": "\xff"}\n')
        cfg = config_from_dict(dict(SMALL_RUN, data_path=str(data),
                                    output_dir=str(tmp_path / "sweep2")))
        errors = run_sweep(cfg, {}, cfg.output_dir).cells[0].errors
        assert len(errors) == 2 and all("line 2: not UTF-8" in e for e in errors)


    def test_pool_never_larger_than_job_count(self, tmp_path, monkeypatch):
        # a fork pool starts all its workers at the first submit
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("feduaf.sweep.ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("FEDUAF_THREADS", "64")
        cfg = self.sweep_config(tmp_path)
        result = run_sweep(cfg, {}, cfg.output_dir)
        assert sizes == [2] and len(result.cells[0].maes) == 2
        one_seed = config_from_dict(dict(SMALL_RUN, seeds=[1],
                                         output_dir=str(tmp_path / "one")))
        run_sweep(one_seed, {}, one_seed.output_dir)
        assert sizes == [2]  # a single job runs serially, without a pool

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only FeduafError marks a cell as failed; a bug must surface
        def broken(*args, **kwargs):
            raise TypeError("bug in the simulator")

        monkeypatch.setattr("feduaf.sweep.run_simulation", broken)
        monkeypatch.setenv("FEDUAF_THREADS", "1")
        cfg = self.sweep_config(tmp_path)
        with pytest.raises(TypeError, match="bug in the simulator"):
            run_sweep(cfg, {}, cfg.output_dir)


class TestPlotData:
    def make_sweep_csv(self, tmp_path):
        cfg = config_from_dict(dict(SMALL_RUN, seeds=[1],
                                    output_dir=str(tmp_path / "sweep")))
        grid = {"missing_ratio": [0.1, 0.4], "strategy": ["reliability_weighted",
                                                          "uniform"]}
        return run_sweep(cfg, grid, cfg.output_dir).csv_path

    def test_series_and_rows(self, tmp_path):
        csv_path = self.make_sweep_csv(tmp_path)
        written = emit_plotdata(csv_path, tmp_path / "figs")
        assert len(written) == 1
        with open(written[0]) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[0] == "rho_m"
        assert set(header[1:]) == {"reliability_weighted", "uniform"}
        assert [float(r[0]) for r in data] == [0.1, 0.4]  # sorted ascending
        assert len(data) == 2

    def test_single_strategy_single_series(self, tmp_path):
        cfg = config_from_dict(dict(SMALL_RUN, seeds=[1],
                                    output_dir=str(tmp_path / "sweep")))
        path = run_sweep(cfg, {"missing_ratio": [0.1, 0.3]}, cfg.output_dir).csv_path
        written = emit_plotdata(path, tmp_path / "figs")
        with open(written[0]) as fh:
            header = next(csv.reader(fh))
        assert len(header) == 2  # x axis + one series

    @pytest.mark.parametrize("column,value", [
        ("rho_m", "abc"), ("noniid", ""), ("noisy_ratio", "inf"), ("mae_mean", "xyz"),
        ("strategy", "bogus"), ("ua_fusion", "yes"), ("rel_agg", "2"),
        ("seed_count", "-3"), ("seed_count", "1.5")])
    def test_non_numeric_cell_rejected(self, tmp_path, capsys, column, value):
        good = {"dataset_tag": "synthetic", "rho_m": "0.1", "noniid": "0.0",
                "noisy_ratio": "0.0", "strategy": "uniform", "ua_fusion": "1",
                "rel_agg": "1", "seed_count": "1", "mae_mean": "0.5", "mae_std": "0.0"}
        path = tmp_path / "sweep.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(good))
            writer.writeheader()
            writer.writerow(good)
            writer.writerow(dict(good, **{column: value}))
        with pytest.raises(ValidationError, match=f"data row 2: column '{column}'"):
            emit_plotdata(path, tmp_path / "figs")
        assert main(["plotdata", "--in", str(path), "--out", str(tmp_path / "figs")]) == 1
        assert f"'{column}'" in capsys.readouterr().err

    def test_repeated_column_rejected(self, tmp_path, capsys):
        # csv.DictReader alone would keep the last of the two rho_m cells
        columns = ["dataset_tag", "rho_m", "noniid", "noisy_ratio", "strategy", "ua_fusion",
                   "rel_agg", "seed_count", "mae_mean", "mae_std", "rho_m"]
        row = ["synthetic", "0.1", "0.0", "0.0", "uniform", "1", "1", "1", "0.5", "0.0", "0.2"]
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(columns) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match=r"repeated columns \['rho_m'\]"):
            emit_plotdata(path, tmp_path / "figs")
        assert main(["plotdata", "--in", str(path), "--out", str(tmp_path / "figs")]) == 1
        assert "rho_m" in capsys.readouterr().err

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("rho_m,mae_mean\n0.1,0.5\n")
        with pytest.raises(ValidationError, match="missing columns"):
            emit_plotdata(bad, tmp_path / "figs")
