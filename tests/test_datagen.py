"""Synthetic federation generator, missing-modality masks, JSONL I/O."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from feduaf.config import config_from_dict, from_dict
from feduaf.datagen import (
    ClientDataset,
    FederationSpec,
    Samples,
    _split_bounds,
    batch_from_samples,
    draw_missing_masks,
    generate_federation,
    load_jsonl,
    mark_noisy_clients,
    save_jsonl,
    split_dataset,
)
from feduaf.exceptions import ConfigError, ParseError, ValidationError
from feduaf.fedsim import build_federation_data
from feduaf.fusion import MODALITIES
from feduaf.rng import Rng


def assert_same_table(got, want):
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.labels, want.labels)
    for m in MODALITIES:
        assert np.array_equal(got.feats[m], want.feats[m])


class TestGenerateFederation:
    def test_deterministic(self):
        spec = FederationSpec(num_clients=3, samples_per_client=20,
                              noniid_intensity=0.5, missing_ratio=0.3,
                              noisy_ratio=0.4, seed=5)
        a = generate_federation(spec)
        b = generate_federation(spec)
        assert [ca.client_id for ca in a] == ["spk000", "spk001", "spk002"]
        for ca, cb in zip(a, b):
            assert ca.client_id == cb.client_id
            assert_same_table(ca.samples, cb.samples)

    def test_iid_limit_label_means_agree(self):
        spec = FederationSpec(num_clients=2, samples_per_client=1000,
                              noniid_intensity=0.0, seed=3)
        clients = generate_federation(spec)
        means = [c.samples.labels.mean() for c in clients]
        assert abs(means[0] - means[1]) < 0.1

    def test_full_heterogeneity_spreads_label_means(self):
        spec = FederationSpec(num_clients=10, samples_per_client=1000,
                              noniid_intensity=1.0, seed=3)
        clients = generate_federation(spec)
        means = np.array([c.samples.labels.mean() for c in clients])
        assert means.std() > 1.0

    def test_labels_stay_in_range(self):
        spec = FederationSpec(num_clients=4, samples_per_client=200,
                              noniid_intensity=1.0, seed=11)
        for c in generate_federation(spec):
            labels = c.samples.labels
            assert labels.min() >= -3.0 and labels.max() <= 3.0

    def test_heterogeneity_monotone_in_kappa(self):
        # across-client variance of label means, averaged over 5 seeds,
        # must not decrease along the kappa grid
        kappas = [0.0, 0.25, 0.5, 0.75, 1.0]
        avg_var = []
        for kappa in kappas:
            variances = []
            for seed in range(5):
                spec = FederationSpec(num_clients=8, samples_per_client=100,
                                      noniid_intensity=kappa, seed=seed)
                clients = generate_federation(spec)
                means = [c.samples.labels.mean() for c in clients]
                variances.append(np.var(means))
            avg_var.append(np.mean(variances))
        assert all(a <= b + 1e-9 for a, b in zip(avg_var, avg_var[1:]))

    def test_split_sizes(self):
        spec = FederationSpec(num_clients=2, samples_per_client=100, seed=0)
        ds = generate_federation(spec)[0]
        c = split_dataset(ds)
        assert (len(ds.samples), len(c.train.samples), len(c.test.samples)) == (100, 70, 20)
        # the 10 val rows between them are dropped
        assert np.array_equal(c.test.samples.labels, ds.samples.labels[80:])

    def test_modalities_have_distinct_noise_levels(self):
        # residual feature noise after projecting out the shared latent:
        # audio noisiest, text cleanest
        spec = FederationSpec(num_clients=2, samples_per_client=2000, seed=9)
        clients = generate_federation(spec)
        feats = clients[0].samples.feats
        spreads = {m: feats[m].var(axis=0).mean() for m in MODALITIES}
        assert spreads["a"] > spreads["v"] > spreads["t"]

    @pytest.mark.parametrize("rho,digest", [(0.0, "40fa1830b8cd0ee5"),
                                            (0.8, "d25a98f70b872120")])
    def test_output_pinned_byte_for_byte(self, tmp_path, rho, digest):
        # 20 samples per client give a non-empty val range, so each of the
        # three missing-modality streams is pinned
        spec = FederationSpec(num_clients=3, samples_per_client=20, noniid_intensity=1.0,
                              missing_ratio=rho, noisy_ratio=0.5, seed=11)
        path = tmp_path / "data.jsonl"
        save_jsonl(path, generate_federation(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_invalid_spec_rejected(self):
        # generate_federation takes the spec its callers validated
        with pytest.raises(ConfigError):
            from_dict(FederationSpec, {"num_clients": 1})
        with pytest.raises(ConfigError):
            from_dict(FederationSpec, {"num_clients": 2, "missing_ratio": 1.0})
        for bad in ({"num_clients": "5"}, {"missing_ratio": "0.5"},
                    {"samples_per_client": 2.5}, {"seed": True}, {"seed": -1}):
            with pytest.raises(ConfigError):
                from_dict(FederationSpec, {"num_clients": 3, **bad})


def draw_masks_recording(n, rho, seed):
    """draw_missing_masks(n, rho, Rng(seed)), with the drop events its
    stream's `random` draws make, (n, 3) bool, and the restored rows."""
    rng = Rng(seed)
    draws = []
    random = rng.random

    def recording(size=None):
        draws.append(random(size))
        return draws[-1]

    rng.random = recording
    masks = draw_missing_masks(n, rho, rng)
    drop_events = np.array(draws) < rho
    restored = drop_events.all(axis=1)
    assert drop_events.shape == masks.shape == (n, len(MODALITIES))
    # a row keeps what it did not drop, and a row that dropped all gets one back
    assert np.array_equal(masks[~restored], ~drop_events[~restored])
    assert (masks[restored].sum(axis=1) == 1).all()
    return masks, drop_events, restored


class TestInjectMissing:
    def generate(self, rho, seed):
        spec = FederationSpec(num_clients=3, samples_per_client=100,
                              missing_ratio=rho, seed=seed)
        return [ds.samples for ds in generate_federation(spec)]

    def test_empirical_drop_rate(self):
        # pre-restoration drop rate within [0.78, 0.82] at rho=0.8 over
        # 10000 (sample, modality) pairs
        _, drop_events, _ = draw_masks_recording(3334, 0.8, 2)
        rate = drop_events.sum() / drop_events.size
        assert 0.78 <= rate <= 0.82

    def test_every_sample_keeps_a_modality(self):
        tables = self.generate(0.9, 3)
        assert tables and all(t.mask.any(axis=1).all() for t in tables)

    def test_features_match_mask_after_injection(self):
        tables = self.generate(0.5, 4)
        assert any((~t.mask).any() for t in tables)
        for t in tables:
            assert t.mask.shape == (len(t), len(MODALITIES))
            assert ((-3.0 <= t.labels) & (t.labels <= 3.0)).all()
            for mi, m in enumerate(MODALITIES):
                assert t.feats[m].shape == (len(t), 20)
                assert np.isfinite(t.feats[m]).all()
                # unavailable rows are zero; available ones are generated noise
                assert not t.feats[m][~t.mask[:, mi]].any()
                assert t.feats[m][t.mask[:, mi]].all()

    def test_restoration_rate_matches_rho_cubed(self):
        rho = 0.6
        n = 20000
        _, _, restored = draw_masks_recording(n, rho, 5)
        p = rho ** 3
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(restored.sum() / n - p) <= 3 * sigma

    def test_drop_events_independent_across_modalities(self):
        # chi-square independence on the pre-restoration drop events (the
        # restoration step intentionally couples the final masks)
        _, drop_events, _ = draw_masks_recording(5000, 0.4, 8)
        for i in range(3):
            for j in range(i + 1, 3):
                table = np.zeros((2, 2))
                for bi in (0, 1):
                    for bj in (0, 1):
                        table[bi, bj] = np.sum((drop_events[:, i] == bi)
                                               & (drop_events[:, j] == bj))
                p_value = stats.chi2_contingency(table).pvalue
                assert p_value > 0.01


def run_clients(run_seed=3, **federation):
    """The split, marked clients a run at `run_seed` builds from the
    `federation` section."""
    return build_federation_data(config_from_dict({"federation": federation}), run_seed)


class TestMarkNoisy:
    def test_zero_ratio_marks_none(self):
        clients = run_clients(num_clients=4, samples_per_client=10, seed=0)
        assert not any(c.is_noisy for c in clients)

    def test_exact_count(self):
        clients = run_clients(num_clients=10, samples_per_client=10, noisy_ratio=0.6, seed=0)
        assert sum(c.is_noisy for c in clients) == 6

    def test_deterministic_selection(self):
        clients = [split_dataset(ds) for ds in generate_federation(
            FederationSpec(num_clients=6, samples_per_client=10, seed=1))]
        a = mark_noisy_clients(clients, 0.5, Rng(42))
        b = mark_noisy_clients(clients, 0.5, Rng(42))
        assert [c.is_noisy for c in a] == [c.is_noisy for c in b]


class TestSplit:
    @pytest.mark.parametrize("n,expected", [
        (100, (70, 10, 20)),
        (10, (7, 1, 2)),
        (5, (4, 0, 1)),  # round(3.5) = 4, round(0.5) = 0 (banker's rounding)
        (2, (1, 0, 1)),
    ])
    def test_fractions(self, n, expected):
        rng = Rng(0)
        table = Samples({m: rng.normal(size=(n, 2)) for m in MODALITIES},
                        np.ones((n, 3), dtype=bool), np.arange(n, dtype=float))
        assert tuple(hi - lo for lo, hi in _split_bounds(n)) == expected
        c = split_dataset(ClientDataset("x", table))
        n_tr, n_val, n_te = expected
        # positional: train is the first rows, test the last; val between is dropped
        assert c.train.samples.labels.tolist() == list(range(n_tr))
        assert c.test.samples.labels.tolist() == list(range(n_tr + n_val, n))
        assert np.array_equal(c.test.samples.feats["a"], table.feats["a"][n - n_te:])

    def test_two_or_more_samples_give_a_train_and_a_test_row(self):
        # local_update and evaluate_mae take these splits unchecked; the
        # three ranges cover [0, n) in order
        for n in range(2, 10_001):
            (tr_lo, tr_hi), (va_lo, va_hi), (te_lo, te_hi) = _split_bounds(n)
            assert 0 == tr_lo < tr_hi == va_lo <= va_hi == te_lo < te_hi == n, n


class TestJsonl:
    def make_clients(self, seed=0):
        spec = FederationSpec(num_clients=2, samples_per_client=6,
                              missing_ratio=0.3, seed=seed)
        return generate_federation(spec)

    def test_round_trip_bit_identical(self, tmp_path):
        clients = self.make_clients()
        path = tmp_path / "data.jsonl"
        save_jsonl(path, clients)
        loaded = load_jsonl(path, 20)
        assert [d.client_id for d in loaded] == [c.client_id for c in clients]
        for ds, c in zip(loaded, clients):
            assert_same_table(ds.samples, c.samples)

    def test_write_load_write_stable(self, tmp_path):
        clients = self.make_clients()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(p1, clients)
        save_jsonl(p2, load_jsonl(p1, 20))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_jsonl(path, 20)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"client_id": "c", "features": {"v": [1.0]}, '
                '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}')
        path.write_text(good + "\n{oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_jsonl(path, 20)

    def test_repeated_key_names_line(self, tmp_path):
        # json alone keeps the last label, 1.0, and never sees the bad 5.0
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                        '"mask": {"v": 1, "a": 0, "t": 0}, "label": 5.0, "label": 1.0}\n')
        with pytest.raises(ParseError, match="line 1: repeated key 'label'"):
            load_jsonl(path, 20)

    def test_mask_features_inconsistency_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client_id": "c", "features": {}, '
                        '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n')
        with pytest.raises(ValidationError, match="line 1"):
            load_jsonl(path, 20)
        # a feature vector is a non-empty flat list of finite JSON numbers
        for vec in ('["1.5", "2"]', "[true, false]", '"ab"', '[0.1, {"x": 1}]', "[]",
                    "[[1.0, 2.0]]", "[1%s]" % ("0" * 400), "[NaN]"):
            path.write_text('{"client_id": "c", "features": {"v": %s}, '
                            '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n' % vec)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path, 20)

    def test_line_without_a_modality_rejected(self, tmp_path):
        # fusion takes every loaded row to have an available modality
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client_id": "c", "features": {}, '
                        '"mask": {"v": 0, "a": 0, "t": 0}, "label": 0.5}\n')
        with pytest.raises(ValidationError, match="line 1: sample has no available modality"):
            load_jsonl(path, 20)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for label in ("3.5", "true", "1" + "0" * 400):
            path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                            '"mask": {"v": 1, "a": 0, "t": 0}, "label": %s}\n' % label)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path, 20)

    def test_bool_mask_bits_rejected(self, tmp_path):
        # a mask bit is the integer 0 or 1, as save_jsonl writes it
        path = tmp_path / "bad.jsonl"
        for mask in ('{"v": true, "a": 0, "t": 0}', '{"v": 1, "a": false, "t": 0}',
                     '{"v": 1.0, "a": 0, "t": 0}', '{"v": 1, "a": 0.0, "t": 0}'):
            path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                            '"mask": %s, "label": 0.5}\n' % mask)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path, 20)

    def test_inconsistent_dims_rejected(self, tmp_path):
        line1 = ('{"client_id": "c", "features": {"v": [1.0, 2.0]}, '
                 '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.0}')
        line2 = ('{"client_id": "c", "features": {"v": [1.0]}, '
                 '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.0}')
        path = tmp_path / "bad.jsonl"
        path.write_text(line1 + "\n" + line2 + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_jsonl(path, 20)


class TestBatching:
    def table(self):
        return Samples({m: np.arange(12.0).reshape(4, 3) + 100 * mi
                        for mi, m in enumerate(MODALITIES)},
                       np.array([[1, 1, 1], [0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=bool),
                       np.array([1.0, -1.0, 0.5, 2.0]))

    @pytest.mark.parametrize("idx", [np.array([3, 0]), slice(1, 3), slice(0)])
    def test_gathers_rows(self, idx):
        table = self.table()
        rows = batch_from_samples(table, idx)
        assert np.array_equal(rows.mask, table.mask[idx])
        assert np.array_equal(rows.labels, table.labels[idx])
        for m in MODALITIES:
            assert np.array_equal(rows.feats[m], table.feats[m][idx])
        assert len(rows) == len(table.labels[idx])

    def test_zero_fill_and_mask(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text('{"client_id": "c", "features": {"v": [1.0, 2.0], "t": [3.0]}, '
                        '"mask": {"v": 1, "a": 0, "t": 1}, "label": 1.0}\n'
                        '{"client_id": "c", "features": {"t": [4.0]}, '
                        '"mask": {"v": 0, "a": 0, "t": 1}, "label": -1.0}\n')
        [ds] = load_jsonl(path, 5)
        table = ds.samples
        assert table.labels.tolist() == [1.0, -1.0]
        assert table.mask.tolist() == [[True, False, True], [False, False, True]]
        assert table.feats["v"].tolist() == [[1.0, 2.0], [0.0, 0.0]]
        assert table.feats["t"].tolist() == [[3.0], [4.0]]
        # a modality on no line takes the width it is given
        assert table.feats["a"].shape == (2, 5) and not table.feats["a"].any()
