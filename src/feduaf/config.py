"""Declarative experiment configuration (JSON).

An empty object is a valid config: every key has a default, and the
defaults for rounds/epochs/lr/passes/hidden width are the protocol's
reference values (R=100, E=5, lr=1e-3, T=5, width 128). Parsing is strict:
unknown keys and out-of-range values are errors that name the key.

Each field declares its default and its rule once, next to each other, and
`from_dict`, the one validator, checks a JSON object against them (an
object built in Python goes through it as a dict). This module imports only
`exceptions`, so every other module can import from it.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .exceptions import ConfigError, ParseError

RELIABILITY_WEIGHTED = "reliability_weighted"
UNIFORM = "uniform"
DATA_SIZE = "data_size"
FEDPROX = "fedprox"
STRATEGIES = (RELIABILITY_WEIGHTED, UNIFORM, DATA_SIZE, FEDPROX)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A finite JSON number; bools are not numbers. The bound is compared
    exactly, so ±inf, NaN and an int too large for float64 fail it."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def is_text(v) -> bool:
    """A non-empty string with no NUL and no lone surrogate (JSON can spell
    both), so it encodes as UTF-8 and can name a file."""
    return (isinstance(v, str) and v != "" and "\0" not in v
            and not any("\ud800" <= c <= "\udfff" for c in v))


def is_finite_list(v) -> bool:
    """A flat list of finite JSON numbers."""
    return isinstance(v, list) and all(is_finite_number(x) for x in v)


def _rule(default, desc: str, ok, nullable: bool = False):
    """A field with `default` whose values must satisfy `ok` (or be None,
    when `nullable`); errors quote `desc`."""
    meta = {"desc": ("null or " if nullable else "") + desc,
            "ok": (lambda v: v is None or ok(v)) if nullable else ok}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _int(default, lo: int, nullable: bool = False):
    return _rule(default, f"an integer >= {lo}",
                 lambda v: _is_int(v) and v >= lo, nullable)


def _num(default, lo, hi=None, open_lo: bool = False, open_hi: bool = False):
    if hi is None:
        desc = f"a finite number {'>' if open_lo else '>='} {lo}"
    else:
        desc = f"a number in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    return _rule(default, desc, lambda v: is_finite_number(v)
                 and (lo < v if open_lo else lo <= v)
                 and (hi is None or (v < hi if open_hi else v <= hi)))


def _bool(default):
    return _rule(default, "a boolean", lambda v: isinstance(v, bool))


def _text(default, nullable: bool = False):
    return _rule(default, "a non-empty string with no NUL or lone surrogate",
                 is_text, nullable)


@dataclass
class FederationSpec:
    """The `federation` config section, and the spec `feduaf gen-data`
    reads. `seed: None` means: use the run seed (gen-data uses 0)."""

    num_clients: int = _int(10, 2)
    samples_per_client: int = _int(100, 2)
    noniid_intensity: float = _num(0.0, 0, 1)  # client style spread knob
    missing_ratio: float = _num(0.0, 0, 1, open_hi=True)  # per (sample, modality)
    noisy_ratio: float = _num(0.0, 0, 1)
    seed: int | None = _int(None, 0, nullable=True)
    feature_dim: int = _int(20, 1)
    latent_dim: int = _int(8, 1)


@dataclass
class ModelConfig:
    hidden_dim: int = _int(128, 1)
    fusion_dim: int | None = _int(None, 1)  # None: hidden_dim; explicit null is rejected
    dropout: float = _num(0.1, 0, 1, open_hi=True)

    def __post_init__(self):
        if self.fusion_dim is None:
            self.fusion_dim = self.hidden_dim


@dataclass
class UncertaintyConfig:
    passes: int = _int(5, 2)


@dataclass
class TrainingConfig:
    rounds: int = _int(100, 1)
    local_epochs: int = _int(5, 0)
    lr: float = _num(1e-3, 0, open_lo=True)
    batch_size: int = _int(32, 1)
    fedprox_mu: float = _num(0.01, 0)
    participation: float = _num(1.0, 0, 1, open_lo=True)


@dataclass
class ReliabilityConfig:
    epsilon: float = _num(1e-8, 0, open_lo=True)
    max_samples: int = _int(256, 1)


@dataclass
class AblationConfig:
    ua_fusion: bool = _bool(True)
    rel_agg: bool = _bool(True)


@dataclass
class ExperimentConfig:
    federation: FederationSpec = field(default_factory=FederationSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    uncertainty: UncertaintyConfig = field(default_factory=UncertaintyConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    strategy: str = _rule(RELIABILITY_WEIGHTED, f"one of {STRATEGIES}",
                          lambda v: v in STRATEGIES)
    noise_gamma: float = _num(1.0, 0)
    share_encoders: bool = _bool(False)
    seeds: list = _rule([1, 2, 3], "a non-empty list of distinct integers >= 0",
                        lambda v: isinstance(v, list) and len(v) >= 1
                        and all(_is_int(s) and s >= 0 for s in v)
                        and len(set(v)) == len(v))
    output_dir: str = _text("runs")
    data_path: str | None = _text(None, nullable=True)

    def to_dict(self) -> dict:
        return asdict(self)


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


ECHO_CHARS = 60  # of an offending value's repr in a message


def _check(f, value, key: str):
    if not f.metadata["ok"](value):
        shown = repr(value)
        if len(shown) > ECHO_CHARS:
            shown = f"{shown[:ECHO_CHARS]}... ({len(shown)} chars)"
        raise ConfigError(f"config key '{key}' expects {f.metadata['desc']}, got {shown}")


def from_dict(cls, raw, path: str = ""):
    """Build dataclass `cls` from a JSON object. Absent keys keep the
    declared defaults, section fields recurse, and an unknown key or a value
    breaking its field's rule raises ConfigError naming the key path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config key '{path}' must be an object" if path
                          else "config root must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key '{_key(path, unknown[0])}'")
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        key = _key(path, f.name)
        if is_dataclass(f.default_factory):
            values[f.name] = from_dict(f.default_factory, raw[f.name], key)
        else:
            _check(f, raw[f.name], key)
            values[f.name] = copy.deepcopy(raw[f.name])
    return cls(**values)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config with defaults filled in."""
    return from_dict(ExperimentConfig, raw)


def open_input(path, what: str, mode: str = "rb", **kwargs):
    """open() an input file; a missing path or a directory is a ConfigError."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except IsADirectoryError:
        raise ConfigError(f"{what} path is a directory: {path}")


def unique_keys(pairs: list) -> dict:
    """json `object_pairs_hook` of every JSON input: a repeated key raises
    ParseError naming it, where json alone would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def read_json(path, what: str):
    """Parse a UTF-8 JSON file opened by `open_input`; an undecodable,
    malformed or too deeply nested one, or one with a repeated key, raises
    ParseError naming the file."""
    try:
        with open_input(path, what, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON ({exc.msg}, line {exc.lineno})")
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    return config_from_dict(read_json(path, "config"))
