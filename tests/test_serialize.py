"""Named-tensor container round-trips and validation."""

import numpy as np
import pytest

from feduaf.exceptions import ValidationError
from feduaf.model import assign_shared, extract_shared, init_model_params
from feduaf.rng import Rng
from feduaf.serialize import (
    from_container,
    load_params,
    save_params,
    to_container,
)

DIMS = {"v": 3, "a": 2, "t": 4}


def model(seed, hidden=5):
    return init_model_params(DIMS, hidden, 4, 0.0, Rng(seed))


def test_file_round_trip_is_bit_exact(tmp_path):
    tensors = extract_shared(model(0), share_encoders=True)
    path = tmp_path / "params.json"
    save_params(path, tensors)
    loaded = load_params(path)
    assert [n for n, _ in loaded] == [n for n, _ in tensors]
    for (_, a), (_, b) in zip(tensors, loaded):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_assign_round_trip(tmp_path):
    src, dst = model(1), model(2)
    save_params(tmp_path / "params.json", extract_shared(src, False))
    assign_shared(dst, load_params(tmp_path / "params.json"), False)
    for (w_src, b_src), (w_dst, b_dst) in zip(src.heads.layers[:-1], dst.heads.layers[:-1]):
        assert np.array_equal(w_src, w_dst)
        assert np.array_equal(b_src, b_dst)


def test_assign_rejects_shape_mismatch():
    src, dst = model(1), model(2, hidden=4)
    with pytest.raises(ValidationError):
        assign_shared(dst, from_container(to_container(extract_shared(src, False))), False)


def test_assign_rejects_missing_tensor():
    tensors = extract_shared(model(2), False)
    name, arr = tensors[0]
    for bad in ([], tensors[1:], tensors + [("junk.extra", arr)],
                tensors + [(name, np.zeros_like(arr))]):
        dst = model(2)
        with pytest.raises(ValidationError):
            assign_shared(dst, bad, False)
        assert np.array_equal(dst.heads.layers[0][0], arr)


def test_container_rejects_wrong_format():
    with pytest.raises(ValidationError):
        from_container({"format": "something-else", "version": 1, "tensors": []})


def test_container_rejects_wrong_version():
    # to_container writes the integer 1, so True and 1.0 are not versions
    for version in (99, True, 1.0):
        with pytest.raises(ValidationError):
            from_container({"format": "feduaf.params", "version": version, "tensors": []})


def container(*entries):
    return {"format": "feduaf.params", "version": 1, "tensors": list(entries)}


def test_container_rejects_bad_shape():
    for shape, data in (([2, 2], [1.0, 2.0, 3.0]), ("ab", [1.0]), ([-1], [1.0]),
                        ([1.5], [1.0]), ([True], [1.0])):
        with pytest.raises(ValidationError):
            from_container(container({"name": "w", "shape": shape, "data": data}))


def test_container_rejects_incomplete_entry():
    full = {"name": "w", "shape": [1], "data": [1.0]}
    for key in full:
        entry = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValidationError):
            from_container(container(entry))
    with pytest.raises(ValidationError):
        from_container(container("w"))
    # to_container always writes a tensors list, empty or not
    with pytest.raises(ValidationError):
        from_container({"format": "feduaf.params", "version": 1})
    for tensors in (5, None):
        with pytest.raises(ValidationError):
            from_container({"format": "feduaf.params", "version": 1, "tensors": tensors})
    for shape, data in (([1], ["x"]), ([1], ["1.5"]), ([1], [True]), ([1], [10**400]),
                        ([4], [[1, 2], [3, 4]]), ([2, 2], [[1, 2], [3, 4]])):
        with pytest.raises(ValidationError):
            from_container(container({"name": "w", "shape": shape, "data": data}))
    for names in ([7], [None], ["w", "w"]):
        with pytest.raises(ValidationError):
            from_container(container(*({"name": n, "shape": [1], "data": [1.0]}
                                       for n in names)))


def test_container_rejects_nonfinite():
    with pytest.raises(ValidationError):
        to_container([("w", np.array([np.inf]))])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            from_container(container({"name": "w", "shape": [2], "data": [1.0, bad]}))


def test_scalar_shape_round_trip():
    doc = to_container([("s", np.array(2.5))])
    (name, arr), = from_container(doc)
    assert name == "s" and arr.shape == () and arr == 2.5
