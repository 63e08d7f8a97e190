"""Membership-inference audit: threshold attack, confidence collection,
and leakage comparison."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dpsynth.audit import (
    LeakageReport,
    MiaResult,
    _distinct_and_ranks,
    collect_confidences,
    compare_leakage,
    threshold_attack,
)
from dpsynth.corpus import LABELS, ClassLabel, Corpus
from dpsynth.evaluation.features import fit_tfidf, transform_corpus
from dpsynth.evaluation.linear import probabilities
from dpsynth.evaluation.mnb import train_mnb
from dpsynth.evaluation.svm import _logistic, train_svm
from dpsynth.rngutil import make_rng, subseed
from dpsynth.synth.mock import mock_original_corpus

from helpers import corp, rec, threshold_oracle

W, S = ClassLabel.WORLD, ClassLabel.SPORTS


class TestThresholdAttack:
    def test_worked_example(self):
        result = threshold_attack([0.9, 0.6], [0.7, 0.2])
        # theta=0.6: TPR 1.0, FPR 0.5; no threshold does better
        assert result.advantage == pytest.approx(0.5)
        assert result.best_threshold == pytest.approx(0.6)
        # pairs: (.9,.7) (.9,.2) (.6,.7) (.6,.2) -> 3 wins of 4
        assert result.auc == pytest.approx(0.75)
        assert result.n_members == 2 and result.n_nonmembers == 2

    def test_perfect_separation(self):
        result = threshold_attack([0.9, 0.8], [0.1, 0.2])
        assert result.advantage == pytest.approx(1.0)
        assert result.auc == pytest.approx(1.0)
        assert result.best_threshold == pytest.approx(0.8)

    def test_identical_distributions(self):
        result = threshold_attack([0.5, 0.5], [0.5, 0.5])
        assert result.advantage == pytest.approx(0.0)
        assert result.auc == pytest.approx(0.5)

    def test_ties_resolve_to_smallest_threshold(self):
        # advantage 0.5 at both 0.4 and 0.8; the smaller one is reported
        result = threshold_attack([0.4, 0.8], [0.1, 0.6])
        assert result.advantage == pytest.approx(0.5)
        assert result.best_threshold == pytest.approx(0.4)

    def test_empty_side_rejected(self):
        side = "^need at least one member and one non-member confidence$"
        with pytest.raises(ValueError, match=side):
            threshold_attack([], [0.5])
        with pytest.raises(ValueError, match=side):
            threshold_attack([0.5], [])

    @pytest.mark.parametrize("case", range(60))
    def test_agreement_with_exhaustive_oracle(self, case):
        rng = make_rng(subseed(17, "mia-case", case))
        n_m = int(rng.integers(1, 11))
        n_n = int(rng.integers(1, 11))
        # quantized so cross-group ties actually occur
        members = np.round(rng.random(n_m), 1).tolist()
        nonmembers = np.round(rng.random(n_n), 1).tolist()
        result = threshold_attack(members, nonmembers)
        oracle_adv, _, oracle_auc = threshold_oracle(members, nonmembers)
        assert result.advantage == pytest.approx(oracle_adv, abs=1e-12)
        assert result.auc == pytest.approx(oracle_auc, abs=1e-12)

    def test_result_json_shape(self):
        obj = threshold_attack([0.9], [0.1]).to_json_dict()
        assert set(obj) == {"advantage", "auc", "best_threshold", "n_members", "n_nonmembers"}


class TestCollectConfidences:
    def fitted_mnb(self, corpus):
        features = fit_tfidf(corpus)
        return train_mnb(corpus, features), features

    def test_overlap_aborts(self):
        members = mock_original_corpus(3, seed=0)
        nonmembers = Corpus(members.records[:4])
        model, features = self.fitted_mnb(members)
        with pytest.raises(ValueError, match=r"^4 record\(s\) appear in both member and non-member sets"):
            collect_confidences(model, features, members, nonmembers)

    def test_balanced_downsampling(self):
        members = mock_original_corpus(8, seed=1)     # 32 records
        nonmembers = mock_original_corpus(3, seed=2)  # 12 records
        model, features = self.fitted_mnb(members)
        m, n = collect_confidences(model, features, members, nonmembers, seed=5)
        assert len(m) == len(n) == 12
        # the non-member side is not down-sampled: its values are its full scores
        n_all, _ = collect_confidences(model, features, nonmembers, members, seed=5)
        assert np.array_equal(n, n_all)

    def test_returns_balanced_float_arrays(self):
        for sizes in ((8, 3), (3, 8), (5, 5)):
            members = mock_original_corpus(sizes[0], seed=1)
            nonmembers = mock_original_corpus(sizes[1], seed=2)
            model, features = self.fitted_mnb(members)
            m, n = collect_confidences(model, features, members, nonmembers, seed=5)
            size = 4 * min(sizes)
            for side in (m, n):
                assert isinstance(side, np.ndarray)
                assert side.dtype == np.float64 and side.shape == (size,)
            result = threshold_attack(m, n)
            assert result.n_members == result.n_nonmembers == size

    def test_confidences_lie_in_unit_interval(self):
        members = mock_original_corpus(4, seed=5)
        nonmembers = mock_original_corpus(3, seed=6)
        features = fit_tfidf(members)
        svm = train_svm(members, features, c_grid=(1.0,))
        models = [train_mnb(members, features)]
        # huge margins push the sigmoid to exactly 0 and 1
        models += [dataclasses.replace(svm, weights=svm.weights * scale,
                                       biases=svm.biases * scale)
                   for scale in (0.0, 1.0, 1e3, 1e6)]
        for model in models:
            m, n = collect_confidences(model, features, members, nonmembers)
            both = np.concatenate([m, n])
            assert np.all((both >= 0.0) & (both <= 1.0))

    def test_downsampling_keeps_ingestion_order_and_is_deterministic(self):
        members = mock_original_corpus(8, seed=1)
        nonmembers = mock_original_corpus(3, seed=2)
        model, features = self.fitted_mnb(members)
        m1, _ = collect_confidences(model, features, members, nonmembers, seed=5)
        m2, _ = collect_confidences(model, features, members, nonmembers, seed=5)
        assert np.array_equal(m1, m2)
        m3, _ = collect_confidences(model, features, members, nonmembers, seed=6)
        assert not np.array_equal(m1, m3)
        # order: the kept confidences are a subsequence of every member's
        # confidence in corpus order
        posterior = probabilities(model, transform_corpus(features, members))
        full = [posterior[i, list(model.classes).index(LABELS.index(r.label))]
                for i, r in enumerate(members.records)]
        it = iter(full)
        assert all(any(c == x for x in it) for c in m1.tolist())

    def test_mnb_confidence_is_true_label_posterior(self):
        members = mock_original_corpus(4, seed=3)
        nonmembers = mock_original_corpus(4, seed=4)
        model, features = self.fitted_mnb(members)
        m, n = collect_confidences(model, features, members, nonmembers)
        assert np.all((m >= 0.0) & (m <= 1.0)) and np.all((n >= 0.0) & (n <= 1.0))
        # members are trained on, so their own-label posterior should beat
        # the uniform floor on average
        assert float(np.mean(m)) > 0.25

    def test_svm_confidences_in_range(self):
        members = mock_original_corpus(4, seed=5)
        nonmembers = mock_original_corpus(4, seed=6)
        features = fit_tfidf(members)
        model = train_svm(members, features, c_grid=(1.0,))
        m, n = collect_confidences(model, features, members, nonmembers)
        assert np.all((m >= 0.0) & (m <= 1.0)) and np.all((n >= 0.0) & (n <= 1.0))

    def test_zero_weight_svm_gives_uniform_confidence(self):
        members = mock_original_corpus(2, seed=7)
        nonmembers = mock_original_corpus(2, seed=8)
        features = fit_tfidf(members)
        model = train_svm(members, features, c_grid=(1.0,))
        flat = dataclasses.replace(model, weights=np.zeros_like(model.weights),
                                   biases=np.zeros_like(model.biases))
        m, n = collect_confidences(flat, features, members, nonmembers)
        assert np.allclose(np.concatenate([m, n]), 0.25)

    def test_missing_class_scores_zero(self):
        # model trained without Sports; Sports records get confidence 0
        members = corp(
            rec("war border", "treaty talks", W),
            rec("chips code", "robots ship", ClassLabel.SCITECH),
        )
        nonmembers = corp(rec("match goal", "league final", S))
        model, features = self.fitted_mnb(members)
        _, n = collect_confidences(model, features, members, nonmembers)
        assert n[0] == 0.0


class TestNumpyHelpers:
    """The audit's own rank and the SVM link's sigmoid agree with scipy's."""

    @pytest.mark.parametrize("seed", range(5))
    def test_average_ranks_match_rankdata(self, seed):
        from scipy.stats import rankdata

        rng = make_rng(seed)
        n = int(rng.integers(1, 400))
        # few distinct values, so most entries are tied
        values = rng.integers(0, int(rng.integers(1, 12)), size=n) / 7.0
        distinct, ranks = _distinct_and_ranks(values)
        assert np.array_equal(distinct, np.unique(values))
        assert np.array_equal(ranks, rankdata(values, method="average"))

    @pytest.mark.parametrize("seed", range(3))
    def test_logistic_matches_expit(self, seed):
        from scipy.special import expit

        rng = make_rng(seed)
        margins = np.concatenate([
            rng.normal(0.0, 5.0, size=(500, 4)).ravel(),
            rng.uniform(-1000.0, 1000.0, size=2000),
            [-1000.0, -745.0, -40.0, 0.0, 40.0, 745.0, 1000.0],
        ])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ours = _logistic(margins)
        np.testing.assert_allclose(ours, expit(margins), rtol=1e-12, atol=1e-300)
        assert ours.min() >= 0.0 and ours.max() <= 1.0


class TestCompareLeakage:
    def result(self, adv):
        return MiaResult(advantage=adv, auc=0.5, best_threshold=0.5,
                         n_members=10, n_nonmembers=10)

    def test_reduced_leakage(self):
        report = compare_leakage(self.result(0.4), self.result(0.1))
        assert report.delta == pytest.approx(0.3)
        assert report.verdict == "reduced-leakage"

    def test_no_reduction(self):
        report = compare_leakage(self.result(0.1), self.result(0.4))
        assert report.delta == pytest.approx(-0.3)
        assert report.verdict == "no-reduction"
        assert compare_leakage(self.result(0.2), self.result(0.2)).verdict == "no-reduction"

    def test_json_shape(self):
        obj = compare_leakage(self.result(0.4), self.result(0.1)).to_json_dict()
        assert set(obj) == {"baseline", "private", "advantage_delta", "verdict"}
        assert obj["advantage_delta"] == pytest.approx(0.3)
