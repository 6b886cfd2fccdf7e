"""Protocol engine: local updates, reliability, aggregation, rounds."""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import feduaf.fedsim
import feduaf.model
from feduaf.config import config_from_dict
from feduaf.datagen import ClientData, ClientDataset, Samples, batch_from_samples
from feduaf.exceptions import NumericError
from feduaf.fedsim import (
    ClientRuntime,
    ClientUpdate,
    aggregate,
    aggregation_weights,
    client_mean_uncertainty,
    evaluate_mae,
    fedprox_penalty,
    init_federation,
    local_update,
    normalize_reliabilities,
    perturb_update,
    run_round,
    run_simulation,
)
from feduaf.fusion import MODALITIES
from feduaf.model import ModelParams, extract_shared
from feduaf.nn import Mlp
from feduaf.rng import Rng

SMOKE = {
    "federation": {"num_clients": 4, "samples_per_client": 20, "missing_ratio": 0.2},
    "model": {"hidden_dim": 8},
    "training": {"rounds": 3, "local_epochs": 1},
}


def smoke_config(**overrides):
    raw = json.loads(json.dumps(SMOKE))
    for key, val in overrides.items():
        if isinstance(val, dict):
            raw.setdefault(key, {}).update(val)
        else:
            raw[key] = val
    return config_from_dict(raw)


def named_update(cid, value, reliability=1.0, n=10):
    return ClientUpdate(cid, [("shared_head.layers.0.weight", np.atleast_1d(value))],
                        reliability, n)


def aggregate_by(updates, strategy):
    return aggregate(updates, aggregation_weights(updates, strategy))


class TestNormalizeReliabilities:
    def test_equal_reliabilities(self):
        w = normalize_reliabilities([named_update("a", 0, 2.0),
                                     named_update("b", 0, 2.0)])
        assert w.tolist() == [0.5, 0.5]

    def test_proportional(self):
        w = normalize_reliabilities([named_update("a", 0, 3.0),
                                     named_update("b", 0, 1.0)])
        assert w.tolist() == [0.75, 0.25]

    def test_single_client(self):
        assert normalize_reliabilities([named_update("a", 0, 7.0)]).tolist() == [1.0]

    def test_nonpositive_rejected(self):
        with pytest.raises(NumericError):
            normalize_reliabilities([named_update("a", 0, 0.0)])
        # the message names the first client that is not finite and positive
        for bad in (0.0, -1.0, np.inf, np.nan):
            updates = [named_update("a", 0, 1.0), named_update("b", 0, bad),
                       named_update("c", 0, 0.0)]
            with pytest.raises(NumericError, match=f"^client 'b' has reliability {bad}; "):
                normalize_reliabilities(updates)

    def test_anti_monotone_in_uncertainty(self):
        # raising one client's mean uncertainty strictly lowers its weight
        eps = 1e-8
        reliab = lambda u: 1.0 / (u + eps)
        updates = [named_update("a", 0, reliab(0.2)), named_update("b", 0, reliab(0.3))]
        w_before = normalize_reliabilities(updates)[0]
        updates[0] = named_update("a", 0, reliab(0.25))
        assert normalize_reliabilities(updates)[0] < w_before


class TestAggregate:
    def test_single_upload_bit_exact(self):
        arr = Rng(0).normal(size=(3, 2))
        upd = ClientUpdate("a", [("shared_head.layers.0.weight", arr.copy())], 2.0, 5)
        (name, out), = aggregate_by([upd], "reliability_weighted")
        assert np.array_equal(out, arr)

    def test_plain_average(self):
        out = aggregate_by([named_update("a", 2.0, 1.0), named_update("b", 4.0, 1.0)],
                           "reliability_weighted")
        assert out[0][1].tolist() == [3.0]

    def test_reliability_weighted_value(self):
        out = aggregate_by([named_update("a", 0.0, 3.0), named_update("b", 4.0, 1.0)],
                           "reliability_weighted")
        assert out[0][1][0] == pytest.approx(1.0)

    def test_data_size_weights(self):
        out = aggregate_by([named_update("a", 0.0, 1.0, n=30),
                            named_update("b", 4.0, 1.0, n=10)], "data_size")
        assert out[0][1][0] == pytest.approx(1.0)

    def test_convex_containment_exact(self):
        rng = Rng(3)
        updates = [
            ClientUpdate(f"c{i}", [("shared_head.layers.0.weight",
                                    rng.normal(size=(4, 4)))],
                         float(rng.random() + 0.1), 10)
            for i in range(5)
        ]
        for strategy in ("reliability_weighted", "uniform", "data_size"):
            out = aggregate_by(updates, strategy)[0][1]
            stack = np.stack([u.shared_params[0][1] for u in updates])
            assert (out >= stack.min(axis=0)).all()
            assert (out <= stack.max(axis=0)).all()

    def test_identical_uploads_return_same_values(self):
        arr = Rng(1).normal(size=(2, 2))
        ups = [ClientUpdate(f"c{i}", [("w", arr.copy())], 1.0, 5) for i in range(3)]
        out = aggregate_by(ups, "uniform")[0][1]
        assert np.array_equal(out, arr)

    def test_equal_reliability_matches_uniform(self):
        rng = Rng(2)
        ups = [ClientUpdate(f"c{i}", [("w", rng.normal(size=(3,)))], 5.0, 7)
               for i in range(4)]
        a = aggregate_by(ups, "reliability_weighted")[0][1]
        b = aggregate_by(ups, "uniform")[0][1]
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


class TestPerturbUpdate:
    def test_gamma_zero_bit_exact(self):
        tensors = [("w", Rng(0).normal(size=(5, 5)))]
        out = perturb_update(tensors, 0.0, Rng(1))
        assert np.array_equal(out[0][1], tensors[0][1])
        assert out[0][1] is not tensors[0][1]

    def test_noise_std_tracks_tensor_std(self):
        arr = Rng(2).normal(0.0, 0.2, size=10_000)
        out = perturb_update([("w", arr)], 1.0, Rng(3))
        noise = out[0][1] - arr
        assert 0.18 <= noise.std() <= 0.22

    def test_constant_tensor_unchanged(self):
        arr = np.full(100, 3.3)
        out = perturb_update([("w", arr)], 1.0, Rng(4))
        assert np.array_equal(out[0][1], arr)


class TestFedproxPenalty:
    def test_mu_zero_is_noop(self):
        p, g = fedprox_penalty(np.ones(3), np.zeros(3), 0.0)
        assert p == 0.0 and not g.any()

    def test_at_anchor_zero(self):
        theta = Rng(0).normal(size=4)
        p, g = fedprox_penalty(theta, theta.copy(), 0.5)
        assert p == 0.0 and not g.any()

    def test_scalar_analytic(self):
        p, g = fedprox_penalty(np.array([1.0]), np.array([0.0]), 0.01)
        assert p == pytest.approx(0.005)
        assert g[0] == pytest.approx(0.01)


def record(monkeypatch, name):
    """The values feduaf.fedsim's `name` returns from now on, in call order."""
    seen = []
    fn = getattr(feduaf.fedsim, name)

    def recording(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(feduaf.fedsim, name, recording)
    return seen


class TestLocalUpdate:
    def build_state(self, **overrides):
        cfg = smoke_config(**overrides)
        return init_federation(cfg, 1), cfg

    def test_zero_epochs_uploads_broadcast_bit_exact(self, monkeypatch):
        state, cfg = self.build_state(training={"local_epochs": 0})
        client = state.clients[0]
        losses = record(monkeypatch, "mse_loss_batch")
        update, mean_loss = local_update(client, cfg, Rng(9))
        broadcast = dict(state.shared)
        assert len(update.shared_params) == len(broadcast)
        for name, arr in update.shared_params:
            assert np.array_equal(arr, broadcast[name])
        assert update.reliability > 0.0
        assert losses == [] and mean_loss == 0.0

    def test_upload_contains_only_shared_head(self):
        state, cfg = self.build_state()
        update, _ = local_update(state.clients[0], cfg, Rng(9))
        assert all(n.startswith("shared_head.") for n, _ in update.shared_params)

    def test_reliability_formula(self, monkeypatch):
        # r = 1 / (u_bar + eps)
        state, cfg = self.build_state()
        u_bars = record(monkeypatch, "client_mean_uncertainty")
        update, _ = local_update(state.clients[0], cfg, Rng(9))
        [u_bar] = u_bars
        expected = 1.0 / (u_bar + cfg.reliability.epsilon)
        assert update.reliability == pytest.approx(expected, rel=1e-6)
        if u_bar == pytest.approx(0.25):
            assert update.reliability == pytest.approx(4.0, abs=1e-6)

    def test_training_reduces_loss_on_average(self, monkeypatch):
        state, cfg = self.build_state(training={"local_epochs": 60, "lr": 0.01})
        calls = record(monkeypatch, "mse_loss_batch")
        _, mean_loss = local_update(state.clients[0], cfg, Rng(9))
        losses = [loss for loss, _ in calls]
        assert mean_loss == np.mean(losses)
        k = len(losses) // 4
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    def test_convex_toy_descends_monotonically_after_warmup(self, monkeypatch):
        # a linear pipeline, one sample, no dropout: single-layer encoders,
        # and heads whose one relu layer never clamps (features and weights
        # start positive, the label lies above the first prediction, and
        # the recorded gates show it)
        dim = 3
        eye = lambda: (np.eye(dim) * 0.5, np.zeros(dim))
        model = ModelParams(
            encoders={m: Mlp([eye()]) for m in MODALITIES},
            heads=Mlp([eye(), (np.full((1, dim), 0.3), np.zeros(1))]),
        )
        gates = []
        forward = feduaf.model.forward

        def recording(*args, **kwargs):
            out, tape = forward(*args, **kwargs)
            gates.extend(tape.gates)
            return out, tape

        monkeypatch.setattr(feduaf.model, "forward", recording)
        one = Samples({m: np.array([[1.0, 0.5, 0.25]]) for m in MODALITIES},
                      np.ones((1, 3), dtype=bool), np.array([2.0]))
        data = ClientData("c0", *(ClientDataset("c0", one) for _ in range(2)))
        client = ClientRuntime(data=data, model=model)
        cfg = smoke_config(training={"local_epochs": 300, "batch_size": 1},
                           model={"dropout": 0.0})
        calls = record(monkeypatch, "mse_loss_batch")
        local_update(client, cfg, Rng(0))
        losses = [loss for loss, _ in calls]
        assert gates and all(gate.all() for gate in gates)
        warmup = 20
        assert all(b <= a + 1e-12 for a, b in zip(losses[warmup:], losses[warmup + 1:]))
        assert losses[-1] < 1e-3

    def test_noisy_client_perturbs_upload(self):
        state, cfg = self.build_state(noise_gamma=1.0)
        client = state.clients[0]
        clean_update, _ = local_update(client, cfg, Rng(9))
        state2, _ = self.build_state(noise_gamma=1.0)
        client2 = state2.clients[0]
        client2.data.is_noisy = True
        noisy_update, _ = local_update(client2, cfg, Rng(9))
        diffs = [not np.array_equal(a[1], b[1])
                 for a, b in zip(clean_update.shared_params, noisy_update.shared_params)]
        assert any(diffs)

    @pytest.mark.parametrize("share_encoders", [False, True])
    def test_every_upload_has_the_broadcast_layout(self, share_encoders):
        # aggregate stacks the uploads tensor by tensor and checks none of them
        state, cfg = self.build_state(share_encoders=share_encoders, noise_gamma=1.0,
                                      federation={"noisy_ratio": 0.5})
        noisy = [c.data.is_noisy for c in state.clients]
        assert any(noisy) and not all(noisy)
        layout = [(name, arr.shape) for name, arr in state.shared]
        for client in state.clients:
            update, _ = local_update(client, cfg, Rng(9))
            assert [(name, arr.shape) for name, arr in update.shared_params] == layout

    def test_reliability_subsample_is_a_sorted_draw_of_the_rows(self):
        # more rows than max_samples: the estimate runs on sorted rows drawn
        # without replacement, and continues on the same stream
        state, cfg = self.build_state(reliability={"max_samples": 5})
        whole = smoke_config(reliability={"max_samples": 14})
        model, train = state.clients[0].model, state.clients[0].data.train.samples
        assert len(train) == 14
        rng = Rng(9)
        rows = np.sort(rng.choice(14, 5, replace=False))
        want = client_mean_uncertainty(model, batch_from_samples(train, rows), whole, rng)
        assert client_mean_uncertainty(model, train, cfg, Rng(9)) == want

    def test_reliability_uses_every_row_up_to_max_samples(self, monkeypatch):
        state, cfg = self.build_state()
        whole = smoke_config(reliability={"max_samples": 14})
        model, train = state.clients[0].model, state.clients[0].data.train.samples
        want = client_mean_uncertainty(model, train, cfg, Rng(9))

        def no_draw(*args, **kwargs):
            raise AssertionError("subsampled a table of max_samples rows")

        monkeypatch.setattr(Rng, "choice", no_draw)
        assert client_mean_uncertainty(model, train, whole, Rng(9)) == want


class TestEvaluateMae:
    def zeroed_state(self):
        cfg = smoke_config()
        state = init_federation(cfg, 1)
        for client in state.clients:
            for _, mlp in client.model.components():
                for w, b in mlp.layers:
                    w[...] = 0.0
                    b[...] = 0.0
        return state, cfg

    def test_zero_model_mae_equals_mean_abs_label(self):
        state, cfg = self.zeroed_state()
        expected = np.mean([
            np.mean(np.abs(c.data.test.samples.labels)) for c in state.clients
        ])
        mae = evaluate_mae(state.clients, cfg, Rng(0))
        assert mae == pytest.approx(expected)

    def test_analytic_two_sample_case(self):
        state, cfg = self.zeroed_state()
        client = state.clients[0]
        test = batch_from_samples(client.data.test.samples, np.arange(2))
        test.labels[:] = (1.0, -1.0)
        client.data.test.samples = test
        mae = evaluate_mae([client], cfg, Rng(0))
        assert mae == pytest.approx(1.0)

    def test_matches_brute_force_recomputation(self):
        cfg = smoke_config()
        state = init_federation(cfg, 1)
        dump = []
        mae = evaluate_mae(state.clients, cfg, Rng(5), collect=dump)
        per_client = [np.mean(np.abs(np.array(rec["predictions"])
                                     - np.array(rec["labels"])))
                      for rec in dump]
        assert mae == np.mean(per_client)


class TestClientPool:
    def test_never_more_threads_than_work_items(self, monkeypatch):
        sizes = []

        class FakePool:
            """Records max_workers and maps serially; starts no thread."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("feduaf.fedsim.ThreadPoolExecutor", FakePool)
        cfg = smoke_config(training={"participation": 0.5})
        state = init_federation(cfg, 4)
        run_round(state, cfg, Rng(4).derive("protocol"), n_threads=64)
        # only the client phase opens a pool: 2 of 4 clients selected, and
        # evaluation of all 4 runs serially
        assert sizes == [2]


def _openblas_threads(extra_env: dict) -> int:
    """OpenBLAS thread count after `import feduaf` in a fresh interpreter
    whose BLAS thread variables are `extra_env` only."""
    code = (
        "import ctypes, glob, os, sys, numpy, feduaf\n"
        "libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), 'numpy.libs')\n"
        "paths = glob.glob(os.path.join(libs, 'libscipy_openblas*.so'))\n"
        "if not paths:\n"
        "    sys.exit(3)\n"
        "get = ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_\n"
        "get.restype = ctypes.c_int\n"
        "print(get())\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("numpy has no bundled scipy-openblas library")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


class TestBlasPin:
    def test_import_pins_openblas_to_one_thread(self):
        assert _openblas_threads({}) == 1

    def test_explicit_openblas_thread_count_is_honoured(self):
        # OpenBLAS caps its count at the CPUs it may run on
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two CPUs to tell 2 threads from the pin")
        assert _openblas_threads({"OPENBLAS_NUM_THREADS": "2"}) == 2


class TestRounds:
    @pytest.mark.parametrize("share_encoders", [False, True])
    def test_init_broadcasts_shared_block_bit_exact(self, share_encoders):
        cfg = smoke_config(share_encoders=share_encoders)
        state = init_federation(cfg, 1)
        for client in state.clients:
            held = extract_shared(client.model, share_encoders)
            assert [n for n, _ in held] == [n for n, _ in state.shared]
            for (_, a), (_, b) in zip(held, state.shared):
                assert a.tobytes() == b.tobytes()

    def test_modality_on_no_line_gets_the_configured_width(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"client_id": cid, "features": {"v": [float(i), 1.0], "t": [0.5 * i]},
                        "mask": {"v": 1, "a": 0, "t": 1}, "label": 0.1 * i}) + "\n"
            for cid in ("c0", "c1") for i in range(5)))
        cfg = smoke_config(data_path=str(data), federation={"feature_dim": 7})
        state = init_federation(cfg, 1)
        for client in state.clients:
            widths = {m: enc.layers[0][0].shape[1]
                      for m, enc in client.model.encoders.items()}
            assert widths == {"v": 2, "a": 7, "t": 1}
        summary = run_simulation(cfg, 1, tmp_path / "run", n_threads=1)
        assert summary["rounds_completed"] == cfg.training.rounds
        assert np.isfinite(summary["final_mae"])

    def test_symmetric_setup_strategy_equivalence(self):
        # equal reliabilities and sizes: reliability weighting == uniform
        cfg = smoke_config(training={"local_epochs": 0})
        state_a = init_federation(cfg, 3)
        state_b = init_federation(cfg, 3)
        run_round(state_a, cfg, Rng(3).derive("protocol"))
        cfg_u = smoke_config(training={"local_epochs": 0}, strategy="uniform")
        run_round(state_b, cfg_u, Rng(3).derive("protocol"))
        for (na, a), (nb, b) in zip(state_a.shared, state_b.shared):
            assert na == nb
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)

    def test_round_reports_are_deterministic(self):
        cfg = smoke_config()
        reports = []
        for _ in range(2):
            state = init_federation(cfg, 5)
            rng = Rng(5).derive("protocol")
            reports.append([asdict(run_round(state, cfg, rng)) for _ in range(2)])
        assert reports[0] == reports[1]

    def test_weights_sum_to_one(self):
        cfg = smoke_config()
        state = init_federation(cfg, 2)
        report = run_round(state, cfg, Rng(2).derive("protocol"))
        assert abs(sum(report.weights.values()) - 1.0) <= 1e-9

    def test_partial_participation(self):
        cfg = smoke_config(training={"participation": 0.5})
        state = init_federation(cfg, 4)
        report = run_round(state, cfg, Rng(4).derive("protocol"))
        assert len(report.weights) == 2

    def test_aggregate_gets_uploads_in_client_id_order_with_their_weights(self, monkeypatch):
        # aggregate sums in the order it is given the uploads
        calls = []

        def recording(updates, weights):
            calls.append((updates, weights))
            return aggregate(updates, weights)

        monkeypatch.setattr(feduaf.fedsim, "aggregate", recording)
        cfg = smoke_config(federation={"num_clients": 6}, training={"participation": 0.5})
        assert cfg.strategy == "reliability_weighted"
        state = init_federation(cfg, 4)
        rng = Rng(4).derive("protocol")
        for _ in range(2):
            report = run_round(state, cfg, rng, n_threads=2)
            updates, weights = calls[-1]
            ids = [u.client_id for u in updates]
            assert len(ids) == 3 and ids == sorted(ids)
            assert weights.tolist() == normalize_reliabilities(updates).tolist()
            assert weights.tolist() == [report.weights[cid] for cid in ids]

    def test_training_beats_untrained_model(self, tmp_path):
        cfg = smoke_config(training={"rounds": 8, "local_epochs": 2})
        summary = run_simulation(cfg, 11, tmp_path, n_threads=1)
        assert summary["final_mae"] < summary["initial_mae"]

    def test_smoke_run_within_time_budget(self, tmp_path):
        import time

        cfg = config_from_dict({
            "federation": {"num_clients": 4, "samples_per_client": 50,
                            "missing_ratio": 0.2},
            "training": {"rounds": 3, "local_epochs": 1},
        })
        t0 = time.perf_counter()
        run_simulation(cfg, 1, tmp_path, n_threads=1)
        assert time.perf_counter() - t0 < 30.0

    def test_final_shared_params_checkpoint_written(self, tmp_path):
        from feduaf.serialize import load_params

        cfg = smoke_config()
        run_simulation(cfg, 1, tmp_path, n_threads=1)
        tensors = load_params(os.path.join(tmp_path, "shared_params.json"))
        assert all(n.startswith("shared_head.") for n, _ in tensors)

    def test_share_encoders_flag_widens_exchange(self, tmp_path):
        cfg = smoke_config(share_encoders=True)
        state = init_federation(cfg, 1)
        names = [n for n, _ in state.shared]
        assert any(n.startswith("encoder.") for n in names)
        summary = run_simulation(cfg, 1, tmp_path, n_threads=1)
        assert summary["rounds_completed"] == 3

    def test_env_var_thread_cap_preserves_output(self, tmp_path, monkeypatch):
        cfg = smoke_config()
        run_simulation(cfg, 5, tmp_path / "serial", n_threads=1)
        monkeypatch.setenv("FEDUAF_THREADS", "3")
        run_simulation(cfg, 5, tmp_path / "env")
        for name in ("rounds.jsonl", "shared_params.json"):
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "env" / name).read_bytes()
            assert a == b, name


class TestNoisySuppression:
    def test_reliability_weights_suppress_noisy_clients(self):
        # 10 clients, 4 noisy, gamma=1: noisy clients should carry lower
        # aggregation weight in >= 4 of 5 seeds, provided the perturbation
        # measurably raises their uncertainty
        suppressed, signal_present = 0, 0
        for seed in range(1, 6):
            cfg = config_from_dict({
                "federation": {"num_clients": 10, "samples_per_client": 20,
                                "noisy_ratio": 0.4, "missing_ratio": 0.2},
                "model": {"hidden_dim": 8},
                "training": {"rounds": 2, "local_epochs": 2},
                "noise_gamma": 1.0,
            })
            state = init_federation(cfg, seed)
            rng = Rng(seed).derive("protocol")
            report = None
            for _ in range(cfg.training.rounds):
                report = run_round(state, cfg, rng)
            noisy_ids = {c.data.client_id for c in state.clients if c.data.is_noisy}
            w_noisy = np.mean([w for cid, w in report.weights.items() if cid in noisy_ids])
            w_clean = np.mean([w for cid, w in report.weights.items() if cid not in noisy_ids])
            r_noisy = np.mean([r for cid, r in report.reliabilities.items() if cid in noisy_ids])
            r_clean = np.mean([r for cid, r in report.reliabilities.items() if cid not in noisy_ids])
            if r_noisy < r_clean:
                signal_present += 1
            if w_noisy < w_clean:
                suppressed += 1
        if signal_present < 4:
            pytest.skip("perturbation did not measurably raise client "
                        f"uncertainty (signal in {signal_present}/5 seeds)")
        assert suppressed >= 4
