"""Monte-Carlo dropout uncertainty: variance, entropy, probes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feduaf.exceptions import ConfigError, NumericError, ValidationError
from feduaf.fusion import MODALITIES, fusion_weights_batch
import feduaf.model
from feduaf.model import fused_mc_predictions, init_model_params
from feduaf.rng import Rng
from feduaf.uncertainty import (
    entropy_uncertainty,
    probe_uncertainties,
    variance_uncertainty,
)

from oracles import entropy_ref, population_variance_ref

DIMS = {m: 4 for m in MODALITIES}


def tiny_model(dropout=0.2, seed=0):
    return init_model_params(DIMS, hidden_dim=6, fusion_dim=5,
                             dropout_rate=dropout, rng=Rng(seed))


def full_sample(seed=1):
    """Modality -> feature vector of a sample with every modality."""
    rng = Rng(seed)
    return {m: rng.normal(size=4) for m in MODALITIES}


def sample_mc(model, features, T, rng):
    """One sample's pipeline as a one-row batch, `features` holding the
    vectors of its available modalities: probe uncertainties (1, 3), NaN
    where missing, and T fused predictions (T,) under the weights they
    imply, all drawn from `rng` in that order."""
    mask = np.array([[m in features for m in MODALITIES]])
    feats = {m: features.get(m, np.zeros(model.encoders[m].layers[0][0].shape[1]))[None, :]
             for m in MODALITIES}
    u = probe_uncertainties(model, feats, mask, T, rng)
    alpha = fusion_weights_batch(u, mask)
    return u, fused_mc_predictions(model, feats, alpha, T, rng)[:, 0]


def available(u):
    return {m for mi, m in enumerate(MODALITIES) if not np.isnan(u[0, mi])}


class TestVariance:
    def test_constant_predictions(self):
        assert variance_uncertainty([1.0, 1.0, 1.0]) == 0.0

    def test_two_point_analytic(self):
        assert variance_uncertainty([0.0, 2.0]) == pytest.approx(1.0)

    def test_three_point_population(self):
        # population variance of 1,2,3 is 2/3 (not the sample variance 1)
        assert variance_uncertainty([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_single_value_rejected(self):
        with pytest.raises(ConfigError):
            variance_uncertainty([1.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=2, max_size=40))
    def test_matches_reference_formula(self, values):
        assert variance_uncertainty(values) == pytest.approx(
            population_variance_ref(values), abs=1e-9)

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=2, max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, values, pyrandom):
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        assert variance_uncertainty(shuffled) == pytest.approx(
            variance_uncertainty(values), abs=1e-12)

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=2, max_size=12),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_scaling_is_quadratic(self, values, c):
        scaled = [c * v for v in values]
        assert variance_uncertainty(scaled) == pytest.approx(
            c * c * variance_uncertainty(values), rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=2, max_size=20))
    def test_nonnegative_and_zero_iff_constant(self, values):
        u = variance_uncertainty(values)
        assert u >= 0.0
        if len(set(values)) == 1:
            assert u == 0.0


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy_uncertainty([[0.0, 1.0, 0.0]]) == 0.0

    def test_uniform_two_classes_is_ln2(self):
        assert entropy_uncertainty([[0.5, 0.5]]) == pytest.approx(math.log(2))

    def test_mean_of_passes_analytic(self):
        # mean of (0.9, 0.1) and (0.7, 0.3) is (0.8, 0.2): H ~ 0.5004
        val = entropy_uncertainty([[0.9, 0.1], [0.7, 0.3]])
        assert val == pytest.approx(0.5004, abs=1e-4)
        assert val == pytest.approx(entropy_ref([[0.9, 0.1], [0.7, 0.3]]))

    def test_uniform_maximizes(self):
        k = 4
        uniform = entropy_uncertainty([[1 / k] * k])
        assert uniform == pytest.approx(math.log(k))
        skewed = entropy_uncertainty([[0.7, 0.1, 0.1, 0.1]])
        assert skewed < uniform

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            entropy_uncertainty([[0.5, 0.6]])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            entropy_uncertainty([[1.2, -0.2]])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=5))
    def test_matches_reference_formula(self, raw, passes):
        p = np.array(raw) / np.sum(raw)
        mat = np.tile(p, (passes, 1))
        assert entropy_uncertainty(mat) == pytest.approx(entropy_ref(mat), abs=1e-12)


class TestMcPredict:
    def test_zero_dropout_gives_identical_predictions(self):
        model = tiny_model(dropout=0.0)
        _, preds = sample_mc(model, full_sample(), 5, Rng(3))
        assert len(set(preds.tolist())) == 1

    def test_fixed_seed_reproduces(self):
        model = tiny_model()
        _, a = sample_mc(model, full_sample(), 5, Rng(3))
        _, b = sample_mc(model, full_sample(), 5, Rng(3))
        assert a.tolist() == b.tolist()

    def test_dropout_produces_spread(self):
        model = tiny_model(dropout=0.3)
        _, preds = sample_mc(model, full_sample(), 5, Rng(3))
        assert variance_uncertainty(preds) > 0.0

    def test_no_modalities_rejected(self):
        with pytest.raises(NumericError):
            sample_mc(tiny_model(), {}, 5, Rng(0))


def masked_batch(b=8, seed=4):
    """Features zero-filled where the modality is missing, with every
    modality both available and missing somewhere in the batch."""
    rng = Rng(seed)
    mask = rng.random((b, 3)) < 0.5
    mask[0], mask[1] = [True, False, True], [False, True, False]
    feats = {m: np.where(mask[:, mi:mi + 1], rng.normal(size=(b, 4)), 0.0)
             for mi, m in enumerate(MODALITIES)}
    return feats, mask


class TestProbeUncertainties:
    @pytest.mark.parametrize("all_missing", [False, True])
    def test_nan_exactly_where_missing(self, all_missing):
        # an all-missing mask gives all-NaN and raises nothing
        feats, mask = masked_batch()
        if all_missing:
            mask[:] = False
        u = probe_uncertainties(tiny_model(), feats, mask, 5, Rng(2))
        assert u.shape == (8, 3)
        assert np.array_equal(np.isnan(u), ~mask)
        assert (u[mask] > 0.0).all()

    def test_missing_rows_are_never_read(self):
        model = tiny_model()
        feats, mask = masked_batch()
        base = probe_uncertainties(model, feats, mask, 5, Rng(2))
        garbage = {m: np.where(mask[:, mi:mi + 1], feats[m], fill)
                   for (mi, m), fill in zip(enumerate(MODALITIES), (np.nan, 1e300, -np.inf))}
        u = probe_uncertainties(model, garbage, mask, 5, Rng(2))
        assert np.array_equal(u, base, equal_nan=True)

    def test_forwards_only_available_rows_and_heads_once(self, monkeypatch):
        model = tiny_model()
        feats, mask = masked_batch()
        passes = 5
        calls = []
        forward = feduaf.model.forward

        def counting(mlp, x, *args, **kwargs):
            calls.append((mlp, x.shape[0]))
            return forward(mlp, x, *args, **kwargs)

        monkeypatch.setattr(feduaf.model, "forward", counting)
        probe_uncertainties(model, feats, mask, passes, Rng(2))
        pairs = int(mask.sum())
        for mi, m in enumerate(MODALITIES):
            rows = [n for mlp, n in calls if mlp is model.encoders[m]]
            assert rows == [passes * int(mask[:, mi].sum())]
        assert [n for mlp, n in calls if mlp is model.heads] == [passes * pairs]
        assert len(calls) == 4


class TestModalityUncertainties:
    def test_single_modality_sample(self):
        model = tiny_model()
        u, preds = sample_mc(model, {"t": full_sample()["t"]}, 5, Rng(2))
        assert available(u) == {"t"}
        assert variance_uncertainty(preds) >= 0.0

    def test_zero_dropout_gives_zero_uncertainty(self):
        model = tiny_model(dropout=0.0)
        u, preds = sample_mc(model, full_sample(), 5, Rng(2))
        assert (u == 0.0).all()
        assert variance_uncertainty(preds) == 0.0

    def test_covers_available_modalities_only(self):
        model = tiny_model()
        s = full_sample()
        u, _ = sample_mc(model, {m: s[m] for m in ("v", "t")}, 5, Rng(2))
        assert available(u) == {"v", "t"}
        assert (u[~np.isnan(u)] >= 0.0).all()


class TestTrainedModalitySeparation:
    def test_pure_noise_audio_is_less_certain_than_text(self):
        # end-to-end statistical oracle: on a model trained on the synthetic
        # generator, samples whose audio channel is pure noise should show
        # higher audio than text uncertainty. Each seeded trial compares the
        # mean over a small batch (single-sample comparisons are dominated
        # by per-sample input-energy noise).
        from feduaf.config import FederationSpec, config_from_dict, from_dict
        from feduaf.datagen import generate_federation
        from feduaf.fedsim import init_federation, run_round

        cfg = config_from_dict({
            "federation": {"num_clients": 4, "samples_per_client": 60},
            "model": {"hidden_dim": 32},
            "training": {"rounds": 15, "local_epochs": 5},
        })
        state = init_federation(cfg, 1)
        rng = Rng(1).derive("protocol")
        for _ in range(cfg.training.rounds):
            run_round(state, cfg, rng)
        model = state.clients[0].model
        # same generator seed, so the same projection matrices: the pool is
        # in-distribution for the trained model
        pool = generate_federation(from_dict(
            FederationSpec, {"num_clients": 4, "samples_per_client": 200, "seed": 1}
        ))[0].samples
        audio_scale = np.sqrt(1.0 + 1.2 ** 2)  # marginal std of audio features
        n_trials, batch, passes = 10, 4, 25
        wins = 0
        for t in range(n_trials):
            noise_rng = Rng(99).derive("trial", t)
            u_a, u_t = [], []
            for i in range(batch):
                j = t * batch + i
                feats = {m: pool.feats[m][j] for m in MODALITIES}  # all available
                feats["a"] = noise_rng.normal(0.0, audio_scale,
                                              size=len(feats["a"]))
                u, _ = sample_mc(model, feats, passes, Rng(1).derive("probe", t, i))
                u_a.append(u[0, 1])
                u_t.append(u[0, 2])
            wins += np.mean(u_a) > np.mean(u_t)
        assert wins >= 0.9 * n_trials, f"u_a > u_t in only {wins}/{n_trials} trials"
