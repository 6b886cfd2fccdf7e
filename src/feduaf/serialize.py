"""Named-tensor parameter container.

Parameters travel as a flat list of (name, float64 array) pairs, both
in-memory (server/client exchange) and on disk as a versioned JSON
document:

    {"format": "feduaf.params", "version": 1,
     "tensors": [{"name": "...", "shape": [2, 3], "data": [row-major floats]}]}

Names follow `<component>.layers.<i>.weight` / `.bias`, e.g.
`shared_head.layers.0.weight` or `encoder.v.layers.1.bias`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import is_finite_list, read_json
from .exceptions import ValidationError

FORMAT_NAME = "feduaf.params"
FORMAT_VERSION = 1


def to_container(tensors: list) -> dict:
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "tensors": []}
    for name, arr in tensors:
        arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValidationError(f"tensor {name!r} contains non-finite values")
        doc["tensors"].append(
            {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
        )
    return doc


def from_container(doc: dict) -> list:
    """Parse a container, rejecting anything `to_container` could not have
    written: a version other than the integer 1, no `tensors` list, missing
    keys, non-string or repeated names, malformed shapes, data that is not a
    flat list of finite numbers, or of the wrong length."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValidationError("not a feduaf.params container")
    version, tensors = doc.get("version"), doc.get("tensors")
    if type(version) is not int or version != FORMAT_VERSION:  # not True, not 1.0
        raise ValidationError(f"unsupported container version {version!r}")
    if not isinstance(tensors, list):
        raise ValidationError(f"'tensors' must be a list, got {tensors!r}")
    out, names = [], set()
    for entry in tensors:
        if not isinstance(entry, dict) or not {"name", "shape", "data"} <= entry.keys():
            raise ValidationError("each tensor entry needs 'name', 'shape' and 'data'")
        name, shape, data = entry["name"], entry["shape"], entry["data"]
        if not isinstance(name, str) or name in names:
            raise ValidationError(f"tensor names must be distinct strings, got {name!r}")
        names.add(name)
        if not isinstance(shape, list) or not all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
            raise ValidationError(f"tensor {name!r}: shape must be a list of "
                                  f"non-negative integers, got {shape!r}")
        if not is_finite_list(data):
            raise ValidationError(f"tensor {name!r}: data must be a flat list of finite numbers")
        if len(data) != math.prod(shape):
            raise ValidationError(f"tensor {name!r}: data length does not match shape")
        out.append((name, np.array(data, dtype=np.float64).reshape(shape)))
    return out


def save_params(path, tensors: list):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_container(tensors), fh)


def load_params(path) -> list:
    return from_container(read_json(path, "parameter"))
