"""Config parsing: defaults, strict keys, ranges, round-trips."""

import json
import math
import re
from dataclasses import fields, is_dataclass

import pytest

from feduaf.config import ExperimentConfig, config_from_dict, from_dict, parse_config
from feduaf.exceptions import ConfigError, ParseError


def test_empty_object_gives_reference_defaults():
    cfg = config_from_dict({})
    assert cfg.training.rounds == 100
    assert cfg.training.local_epochs == 5
    assert cfg.training.lr == 1e-3
    assert cfg.uncertainty.passes == 5
    assert cfg.model.hidden_dim == 128
    assert cfg.model.fusion_dim == 128
    assert cfg.seeds == [1, 2, 3]
    assert cfg.strategy == "reliability_weighted"
    assert cfg.ablation.ua_fusion and cfg.ablation.rel_agg


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="federation.num_cleints"):
        config_from_dict({"federation": {"num_cleints": 5}})
    with pytest.raises(ConfigError, match="'outputs'"):
        config_from_dict({"outputs": "x"})


def test_out_of_range_reports_allowed_range():
    with pytest.raises(ConfigError, match="training.local_epochs.*>= 0"):
        config_from_dict({"training": {"local_epochs": -1}})
    with pytest.raises(ConfigError, match=r"\[0, 1\)"):
        config_from_dict({"federation": {"missing_ratio": 1.0}})
    with pytest.raises(ConfigError, match="passes"):
        config_from_dict({"uncertainty": {"passes": 1}})
    with pytest.raises(ConfigError, match="strategy"):
        config_from_dict({"strategy": "magic"})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"seeds": []})
    # a repeated seed would run the same directory twice and count it twice
    with pytest.raises(ConfigError, match="seeds.*distinct"):
        config_from_dict({"seeds": [1, 1]})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError):
        config_from_dict({"training": {"rounds": True}})


# wrong-typed values per declared field type; None is added for fields
# whose type does not admit it
WRONG_VALUES = {
    "int": ["5", True, 2.5],
    "float": ["0.5", True, math.inf, -math.inf],
    "bool": ["true", 1],
    "str": [5, True],
    "list": ["1", [True], [1.5]],
}


def test_every_field_rejects_wrong_types():
    # the declared defaults obey their rules
    from_dict(ExperimentConfig, config_from_dict({}).to_dict())
    sections = [("", ExperimentConfig)] + [
        (f.name, f.default_factory) for f in fields(ExperimentConfig)
        if is_dataclass(f.default_factory)]
    for section, cls in sections:
        for f in fields(cls):
            if is_dataclass(f.default_factory):
                continue
            wrong = WRONG_VALUES[f.type.split(" | ")[0]]
            if "None" not in f.type:
                wrong = wrong + [None]
            key = f"{section}.{f.name}" if section else f.name
            for value in wrong:
                raw = {section: {f.name: value}} if section else {f.name: value}
                with pytest.raises(ConfigError, match=f"'{re.escape(key)}' expects"):
                    config_from_dict(raw)


def test_long_offending_value_is_cut_in_the_message():
    # a list nested 500 deep: its repr is 1,000 brackets
    seeds = json.loads("[" * 500 + "]" * 500)
    with pytest.raises(ConfigError) as info:
        config_from_dict({"seeds": seeds})
    msg = str(info.value)
    assert msg.startswith("config key 'seeds' expects a non-empty list")
    assert msg.endswith(", got " + "[" * 60 + "... (1000 chars)")
    # a short value is shown whole
    with pytest.raises(ConfigError, match=r", got 'x'$"):
        config_from_dict({"seeds": "x"})


def test_fusion_dim_defaults_to_hidden():
    cfg = config_from_dict({"model": {"hidden_dim": 48}})
    assert cfg.model.fusion_dim == 48
    with pytest.raises(ConfigError, match="model.fusion_dim"):
        config_from_dict({"model": {"hidden_dim": 48, "fusion_dim": None}})


def test_round_trip_identity():
    raw = {
        "federation": {"num_clients": 6, "missing_ratio": 0.4, "seed": 9},
        "model": {"hidden_dim": 16, "dropout": 0.2},
        "training": {"rounds": 7, "lr": 0.01},
        "strategy": "fedprox",
        "ablation": {"ua_fusion": False, "rel_agg": True},
        "seeds": [4, 5],
        "data_path": "some.jsonl",
    }
    cfg = config_from_dict(raw)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_parse_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"training": {"rounds": 3}}))
    cfg = parse_config(path)
    assert cfg.training.rounds == 3


def test_parse_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.json")
