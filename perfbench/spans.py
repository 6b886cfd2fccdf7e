"""Span tracing of feduaf's layers from outside, and the arithmetic on spans.

`install` wraps the public functions of each module of `src/feduaf/`. fedsim,
model and uncertainty import layer functions by name, so a wrapper replaces
every binding of the original function object in every loaded feduaf
module, not only the attribute of the defining module. Nothing in `src/`
changes.

A span is the tuple (id, parent, name, start, end, thread, round, n, m):
`parent` is 0 for a root, `round` is 0 during set-up and the round index
from round 1 on, and `n`, `m` are counters the wrapper takes at the same
boundary (rows, values, bytes). Parent stacks are per thread, so a span's
children always run in its own thread. Spans stay in memory until the run
ends.

Only the standard library is imported here. The child imports this module
before it starts the set-up clock, so numpy's import must stay with feduaf's,
inside the set-up time the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

ROUND_SPAN = "fedsim.round"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self.state = None  # the FederationState run_round last saw
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, payload=None):
        """Return `fn` recorded as span `name`; `payload(args, kwargs, result)`
        gives the (n, m) counters of a call that returned."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            n, m = payload(args, kwargs, result) if payload else (0, 0)
            spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                          tracer.round, n, m))
            return result

        return traced

    def wrap_round(self, fn):
        """`run_round` recorded as ROUND_SPAN; sets the round id first and
        keeps the federation state it is given."""
        inner = self.wrap(ROUND_SPAN, fn)

        @functools.wraps(fn)
        def run_round(state, *args, **kwargs):
            self.state = state
            self.round = state.round_index + 1
            return inner(state, *args, **kwargs)

        return run_round


# ------------------------------------------------------------ counters

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _result_size(args, kwargs, result):
    return getattr(result, "size", 1), 0


def _forward_rows(args, kwargs, result):
    shape = _arg(args, kwargs, 1, "x").shape
    return (shape[0] if len(shape) == 2 else 1), 0


def _adam_values(args, kwargs, result):
    return sum(p.size for p in _arg(args, kwargs, 0, "params")), 0


def _probe_rows(args, kwargs, result):
    """(rows computed, rows whose modality is available): T*B per probed
    modality against T per available (sample, modality) pair."""
    mask = _arg(args, kwargs, 2, "mask")
    passes = _arg(args, kwargs, 3, "T")
    probed = int(mask.any(axis=0).sum())
    return passes * mask.shape[0] * probed, passes * int(mask.sum())


def _upload_bytes(args, kwargs, result):
    update = result[0]
    return sum(arr.nbytes for _, arr in update.shared_params), 0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")), 0


# (span, module, attribute, counters). The module is the one that defines
# the function; every other binding of the same object is patched too.
LAYER_FUNCTIONS = (
    ("datagen.generate", "feduaf.datagen", "generate_federation", None),
    ("datagen.batch", "feduaf.datagen", "batch_from_samples", None),
    ("rng.draw", "feduaf.rng", "Rng.random", _result_size),
    ("rng.draw", "feduaf.rng", "Rng.uniform", _result_size),
    ("rng.draw", "feduaf.rng", "Rng.normal", _result_size),
    ("rng.draw", "feduaf.rng", "Rng.integers", _result_size),
    ("rng.draw", "feduaf.rng", "Rng.permutation", _result_size),
    ("rng.draw", "feduaf.rng", "Rng.choice", _result_size),
    ("nn.forward", "feduaf.nn", "forward", _forward_rows),
    ("nn.backward", "feduaf.nn", "backward", None),
    ("nn.adam", "feduaf.nn", "adam_step", _adam_values),
    ("model.init", "feduaf.model", "init_model_params", None),
    ("model.forward_fused", "feduaf.model", "forward_fused", None),
    ("model.backward_fused", "feduaf.model", "backward_fused", None),
    ("model.probe", "feduaf.model", "probe_predictions", None),
    ("model.fused_mc", "feduaf.model", "fused_mc_predictions", None),
    ("model.exchange", "feduaf.model", "extract_shared", None),
    ("model.exchange", "feduaf.model", "assign_shared", None),
    ("fusion.weights", "feduaf.fusion", "fusion_weights_batch", None),
    ("fusion.weights", "feduaf.fusion", "uniform_fusion_weights_batch", None),
    ("uncertainty.probe", "feduaf.uncertainty", "probe_uncertainties", _probe_rows),
    ("uncertainty.fused", "feduaf.uncertainty", "fused_uncertainties", None),
    ("fedsim.init", "feduaf.fedsim", "init_federation", None),
    ("fedsim.local_update", "feduaf.fedsim", "local_update", _upload_bytes),
    ("fedsim.reliability", "feduaf.fedsim", "client_mean_uncertainty", None),
    ("fedsim.perturb", "feduaf.fedsim", "perturb_update", None),
    ("fedsim.aggregate", "feduaf.fedsim", "aggregate", None),
    ("fedsim.evaluate", "feduaf.fedsim", "evaluate_mae", None),
    ("serialize.save", "feduaf.serialize", "save_params", _file_bytes),
)

SPAN_NAMES = tuple(sorted({row[0] for row in LAYER_FUNCTIONS} | {ROUND_SPAN}))


def _rebind(original, replacement) -> int:
    """Point every binding of `original` in loaded feduaf modules at
    `replacement`; returns how many were found."""
    found = 0
    for modname, module in list(sys.modules.items()):
        if modname != "feduaf" and not modname.startswith("feduaf."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found += 1
    return found


def install(tracer: Tracer, layers: bool):
    """Wrap `fedsim.run_round` always, and every layer function if `layers`."""
    fedsim = sys.modules["feduaf.fedsim"]
    _rebind(fedsim.run_round, tracer.wrap_round(fedsim.run_round))
    if not layers:
        return
    for span, modname, attr, payload in LAYER_FUNCTIONS:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), payload))
            continue
        original = getattr(module, attr)
        if not _rebind(original, tracer.wrap(span, original, payload)):
            raise RuntimeError(f"no binding of {modname}.{attr} to wrap")


def expected_spans(config, state) -> dict:
    """span -> whether the run must record it (True) or must not (False),
    read from the parsed config and, for perturbation, from which noisy
    clients the run's rounds selected."""
    trains = config.training.local_epochs > 0
    probes = config.ablation.ua_fusion
    noisy = {c.data.client_id for c in state.clients if c.data.is_noisy}
    perturbs = config.noise_gamma > 0 and any(
        noisy & set(report.train_loss) for report in state.reports)
    expect = {name: True for name in SPAN_NAMES}
    expect.update({
        "datagen.generate": config.data_path is None,
        "nn.backward": trains,
        "nn.adam": trains,
        "model.backward_fused": trains,
        "model.probe": probes,
        "uncertainty.probe": probes,
        "fedsim.perturb": perturbs,
    })
    return expect


def coverage_errors(spans, expect: dict) -> list:
    """Spans that ran against the expectation, named."""
    seen = {s[2] for s in spans}
    errors = []
    for name, must in sorted(expect.items()):
        if must and name not in seen:
            errors.append(f"span {name} recorded no calls, but the config says it runs")
        elif not must and name in seen:
            errors.append(f"span {name} recorded calls, but the config says it never runs")
    return errors


# ------------------------------------------------------------ arithmetic

def self_times(spans) -> dict:
    """span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s[0]] = (t1 - t0) - covered
    return out


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile of `values` with at
    least ten samples above it, i.e. the eleventh-largest value. With ten or
    fewer samples no percentile qualifies and the value is None."""
    n = len(values)
    if n <= 10:
        return None, None, n
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def round_times(spans) -> list:
    """Wall time of each round, in round order."""
    rounds = sorted((s[6], s[4] - s[3]) for s in spans if s[2] == ROUND_SPAN)
    return [dt for _, dt in rounds]


def setup_end(spans) -> float:
    """Start of round 1 on the tracer's clock."""
    return min(s[3] for s in spans if s[2] == ROUND_SPAN)


def span_totals(spans) -> dict:
    """(name, phase) -> calls, total (inclusive) and self seconds, n and m
    counter sums; phase is 'setup' for round 0 and 'round' after."""
    selft = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "n": 0, "m": 0})
    for s in spans:
        agg = out[(s[2], "setup" if s[6] == 0 else "round")]
        agg["calls"] += 1
        agg["total"] += s[4] - s[3]
        agg["self"] += selft[s[0]]
        agg["n"] += s[7]
        agg["m"] += s[8]
    return out


def client_phase(spans) -> tuple:
    """(client phase seconds summed over rounds, idle ratio).

    A round's client phase runs from its first local_update start to its
    last local_update end. Idle is the share of (threads seen x phase) in
    which no local_update ran; it is about 0 for serial runs.
    """
    by_round = defaultdict(list)
    for s in spans:
        if s[2] == "fedsim.local_update" and s[6] > 0:
            by_round[s[6]].append(s)
    phase = capacity = busy = 0.0
    for group in by_round.values():
        width = max(s[4] for s in group) - min(s[3] for s in group)
        phase += width
        capacity += width * len({s[5] for s in group})
        busy += sum(s[4] - s[3] for s in group)
    return phase, (1.0 - busy / capacity) if capacity > 0 else 0.0
