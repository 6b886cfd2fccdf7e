"""Independent oracles shared by the test modules.

These deliberately avoid the library's own computation paths: finite
differences for gradients, plain-Python formula evaluation for variance,
entropy, masked softmax, and weighted sums.
"""

import math

import numpy as np


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn w.r.t. each array in `params`.

    `loss_fn` takes no arguments and must read the (mutated) arrays by
    reference. Arrays are restored afterwards.
    """
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    for a, n in zip(analytic, numeric):
        a = np.asarray(a)
        n = np.asarray(n)
        tol = rtol * np.maximum(np.abs(a), np.abs(n)) + atol
        bad = np.abs(a - n) > tol
        assert not bad.any(), (
            f"gradient mismatch: analytic {a[bad][:3]} vs numeric {n[bad][:3]}"
        )


def population_variance_ref(values):
    """Textbook population variance via plain Python floats."""
    values = [float(v) for v in values]
    t = len(values)
    mean = sum(values) / t
    return sum((v - mean) ** 2 for v in values) / t


def entropy_ref(prob_vectors):
    """Mean probability vector entropy via plain Python floats."""
    rows = [list(map(float, p)) for p in np.atleast_2d(prob_vectors)]
    n = len(rows)
    mean = [sum(r[j] for r in rows) / n for j in range(len(rows[0]))]
    return -sum(p * math.log(p) for p in mean if p > 0.0)


def masked_softmax_ref(u_row, mask_row):
    """softmax(-u) over the available entries with finite u, via plain
    Python floats and math.exp; every other entry gets 0."""
    usable = [i for i, (u, ok) in enumerate(zip(u_row, mask_row))
              if ok and math.isfinite(u)]
    low = min(float(u_row[i]) for i in usable)
    exps = {i: math.exp(low - float(u_row[i])) for i in usable}
    total = sum(exps.values())
    return [exps[i] / total if i in exps else 0.0 for i in range(len(u_row))]
