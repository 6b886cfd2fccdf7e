"""Synthetic federation generator, missing-modality masks, JSONL I/O."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from feduaf.datagen import (
    ClientDataset,
    FederationSpec,
    Sample,
    batch_from_samples,
    draw_missing_masks,
    generate_federation,
    load_jsonl,
    mark_noisy_clients,
    save_jsonl,
    split_dataset,
)
from feduaf.exceptions import ConfigError, ParseError, ValidationError
from feduaf.fusion import MODALITIES
from feduaf.rng import Rng


def client_labels(client):
    return np.array([s.label for ds in (client.train, client.val, client.test)
                     for s in ds.samples])


class TestGenerateFederation:
    def test_deterministic(self):
        spec = FederationSpec(num_clients=3, samples_per_client=20,
                              noniid_intensity=0.5, missing_ratio=0.3,
                              noisy_ratio=0.4, seed=5)
        a = generate_federation(spec)
        b = generate_federation(spec)
        for ca, cb in zip(a, b):
            assert ca.client_id == cb.client_id
            assert ca.is_noisy == cb.is_noisy
            for da, db in ((ca.train, cb.train), (ca.val, cb.val), (ca.test, cb.test)):
                for sa, sb in zip(da.samples, db.samples):
                    assert sa.label == sb.label
                    assert set(sa.features) == set(sb.features)
                    for m in sa.features:
                        assert np.array_equal(sa.features[m], sb.features[m])

    def test_iid_limit_label_means_agree(self):
        spec = FederationSpec(num_clients=2, samples_per_client=1000,
                              noniid_intensity=0.0, seed=3)
        clients = generate_federation(spec)
        means = [client_labels(c).mean() for c in clients]
        assert abs(means[0] - means[1]) < 0.1

    def test_full_heterogeneity_spreads_label_means(self):
        spec = FederationSpec(num_clients=10, samples_per_client=1000,
                              noniid_intensity=1.0, seed=3)
        clients = generate_federation(spec)
        means = np.array([client_labels(c).mean() for c in clients])
        assert means.std() > 1.0

    def test_labels_stay_in_range(self):
        spec = FederationSpec(num_clients=4, samples_per_client=200,
                              noniid_intensity=1.0, seed=11)
        for c in generate_federation(spec):
            labels = client_labels(c)
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
                means = [client_labels(c).mean() for c in clients]
                variances.append(np.var(means))
            avg_var.append(np.mean(variances))
        assert all(a <= b + 1e-9 for a, b in zip(avg_var, avg_var[1:]))

    def test_split_sizes(self):
        spec = FederationSpec(num_clients=2, samples_per_client=100, seed=0)
        c = generate_federation(spec)[0]
        assert (len(c.train.samples), len(c.val.samples), len(c.test.samples)) == (70, 10, 20)

    def test_modalities_have_distinct_noise_levels(self):
        # residual feature noise after projecting out the shared latent:
        # audio noisiest, text cleanest
        spec = FederationSpec(num_clients=2, samples_per_client=2000, seed=9)
        clients = generate_federation(spec)
        feats, _, _ = batch_from_samples(clients[0].train.samples, {m: 20 for m in MODALITIES})
        spreads = {m: feats[m].var(axis=0).mean() for m in MODALITIES}
        assert spreads["a"] > spreads["v"] > spreads["t"]

    @pytest.mark.parametrize("rho,digest", [(0.0, "40fa1830b8cd0ee5"),
                                            (0.8, "d25a98f70b872120")])
    def test_output_pinned_byte_for_byte(self, tmp_path, rho, digest):
        # 20 samples per client give a non-empty val split, so every split's
        # missing-modality stream is pinned
        spec = FederationSpec(num_clients=3, samples_per_client=20, noniid_intensity=1.0,
                              missing_ratio=rho, noisy_ratio=0.5, seed=11)
        path = tmp_path / "data.jsonl"
        save_jsonl(path, generate_federation(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            generate_federation(FederationSpec(num_clients=1))
        with pytest.raises(ConfigError):
            generate_federation(FederationSpec(num_clients=2, missing_ratio=1.0))
        for bad in ({"num_clients": "5"}, {"missing_ratio": "0.5"},
                    {"samples_per_client": 2.5}, {"seed": True}, {"seed": None}):
            with pytest.raises(ConfigError):
                generate_federation(FederationSpec(**{"num_clients": 3, **bad}))


class TestInjectMissing:
    def generate(self, rho, seed):
        spec = FederationSpec(num_clients=3, samples_per_client=100,
                              missing_ratio=rho, seed=seed)
        return [s for c in generate_federation(spec)
                for ds in (c.train, c.val, c.test) for s in ds.samples]

    def test_empirical_drop_rate(self):
        # pre-restoration drop rate within [0.78, 0.82] at rho=0.8 over
        # 10000 (sample, modality) pairs
        masks = np.ones((3334, 3), dtype=bool)
        _, drop_events, _ = draw_missing_masks(masks, 0.8, Rng(2))
        rate = drop_events.sum() / masks.size
        assert 0.78 <= rate <= 0.82

    def test_every_sample_keeps_a_modality(self):
        samples = self.generate(0.9, 3)
        assert samples and all(s.features for s in samples)

    def test_features_match_mask_after_injection(self):
        samples = self.generate(0.5, 4)
        assert any(len(s.features) < len(MODALITIES) for s in samples)
        for s in samples:
            assert set(s.features) <= set(MODALITIES)
            assert -3.0 <= s.label <= 3.0
            assert all(np.isfinite(vec).all() for vec in s.features.values())

    def test_restoration_rate_matches_rho_cubed(self):
        rho = 0.6
        n = 20000
        masks = np.ones((n, 3), dtype=bool)
        _, _, restored = draw_missing_masks(masks, rho, Rng(5))
        p = rho ** 3
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(restored / n - p) <= 3 * sigma

    def test_drop_events_independent_across_modalities(self):
        # chi-square independence on the pre-restoration drop events (the
        # restoration step intentionally couples the final masks)
        masks = np.ones((5000, 3), dtype=bool)
        _, drop_events, _ = draw_missing_masks(masks, 0.4, Rng(8))
        for i in range(3):
            for j in range(i + 1, 3):
                table = np.zeros((2, 2))
                for bi in (0, 1):
                    for bj in (0, 1):
                        table[bi, bj] = np.sum((drop_events[:, i] == bi)
                                               & (drop_events[:, j] == bj))
                p_value = stats.chi2_contingency(table).pvalue
                assert p_value > 0.01


class TestMarkNoisy:
    def test_zero_ratio_marks_none(self):
        clients = generate_federation(FederationSpec(num_clients=4,
                                                     samples_per_client=10, seed=0))
        assert not any(c.is_noisy for c in clients)

    def test_exact_count(self):
        spec = FederationSpec(num_clients=10, samples_per_client=10,
                              noisy_ratio=0.6, seed=0)
        clients = generate_federation(spec)
        assert sum(c.is_noisy for c in clients) == 6

    def test_deterministic_selection(self):
        clients = generate_federation(FederationSpec(num_clients=6,
                                                     samples_per_client=10, seed=1))
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
        samples = [Sample({m: rng.normal(size=2) for m in MODALITIES}, 0.0)
                   for _ in range(n)]
        c = split_dataset(ClientDataset("x", samples))
        assert (len(c.train.samples), len(c.val.samples), len(c.test.samples)) == expected


class TestJsonl:
    def make_clients(self, seed=0):
        spec = FederationSpec(num_clients=2, samples_per_client=6,
                              missing_ratio=0.3, seed=seed)
        return generate_federation(spec)

    def test_round_trip_bit_identical(self, tmp_path):
        clients = self.make_clients()
        path = tmp_path / "data.jsonl"
        save_jsonl(path, clients)
        loaded = load_jsonl(path)
        flat = {}
        for c in clients:
            flat.setdefault(c.client_id, [])
            for ds in (c.train, c.val, c.test):
                flat[c.client_id].extend(ds.samples)
        assert sorted(d.client_id for d in loaded) == sorted(flat)
        for ds in loaded:
            for got, want in zip(ds.samples, flat[ds.client_id]):
                assert got.label == want.label
                assert set(got.features) == set(want.features)
                for m in got.features:
                    assert np.array_equal(got.features[m], want.features[m])

    def test_write_load_write_stable(self, tmp_path):
        clients = self.make_clients()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(p1, clients)
        save_jsonl(p2, load_jsonl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_jsonl(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"client_id": "c", "features": {"v": [1.0]}, '
                '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}')
        path.write_text(good + "\n{oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_jsonl(path)

    def test_repeated_key_names_line(self, tmp_path):
        # json alone keeps the last label, 1.0, and never sees the bad 5.0
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                        '"mask": {"v": 1, "a": 0, "t": 0}, "label": 5.0, "label": 1.0}\n')
        with pytest.raises(ParseError, match="line 1: repeated key 'label'"):
            load_jsonl(path)

    def test_mask_features_inconsistency_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"client_id": "c", "features": {}, '
                        '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n')
        with pytest.raises(ValidationError, match="line 1"):
            load_jsonl(path)
        # a feature vector is a non-empty flat list of finite JSON numbers
        for vec in ('["1.5", "2"]', "[true, false]", '"ab"', '[0.1, {"x": 1}]', "[]",
                    "[[1.0, 2.0]]", "[1%s]" % ("0" * 400), "[NaN]"):
            path.write_text('{"client_id": "c", "features": {"v": %s}, '
                            '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.5}\n' % vec)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for label in ("3.5", "true", "1" + "0" * 400):
            path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                            '"mask": {"v": 1, "a": 0, "t": 0}, "label": %s}\n' % label)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path)

    def test_bool_mask_bits_rejected(self, tmp_path):
        # a mask bit is the integer 0 or 1, as save_jsonl writes it
        path = tmp_path / "bad.jsonl"
        for mask in ('{"v": true, "a": 0, "t": 0}', '{"v": 1, "a": false, "t": 0}',
                     '{"v": 1.0, "a": 0, "t": 0}', '{"v": 1, "a": 0.0, "t": 0}'):
            path.write_text('{"client_id": "c", "features": {"v": [1.0]}, '
                            '"mask": %s, "label": 0.5}\n' % mask)
            with pytest.raises(ValidationError, match="line 1"):
                load_jsonl(path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        line1 = ('{"client_id": "c", "features": {"v": [1.0, 2.0]}, '
                 '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.0}')
        line2 = ('{"client_id": "c", "features": {"v": [1.0]}, '
                 '"mask": {"v": 1, "a": 0, "t": 0}, "label": 0.0}')
        path = tmp_path / "bad.jsonl"
        path.write_text(line1 + "\n" + line2 + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_jsonl(path)


class TestBatching:
    def test_zero_fill_and_mask(self):
        rng = Rng(0)
        s1 = Sample({m: rng.normal(size=3) for m in MODALITIES}, 1.0)
        s2 = Sample({"t": rng.normal(size=3)}, -1.0)
        feats, mask, labels = batch_from_samples([s1, s2], {m: 3 for m in MODALITIES})
        assert labels.tolist() == [1.0, -1.0]
        assert mask.tolist() == [[True, True, True], [False, False, True]]
        assert not feats["v"][1].any()
        assert np.array_equal(feats["t"][1], s2.features["t"])
