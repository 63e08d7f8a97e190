"""Evaluation stack: TF-IDF features, the two classifiers, the ICL harness,
and report rendering."""
from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsynth.corpus import _LABEL_ALIASES, LABELS, ClassLabel, Corpus, tokenize
from dpsynth.evaluation import svm as svm_module
from dpsynth.evaluation.features import fit_tfidf, transform, transform_corpus
from dpsynth.evaluation.icl import VALID_SHOTS, icl_evaluate, parse_label_response
from dpsynth.evaluation.linear import predict, scores
from dpsynth.evaluation.mnb import softmax, train_mnb
from dpsynth.evaluation.report import (
    EvalReport,
    evaluate,
    render_accuracy_table,
    render_sweep_table,
)
from dpsynth.evaluation.svm import train_svm
from dpsynth.rngutil import make_rng, subseed
from dpsynth.synth.backends import MockClient
from dpsynth.synth.generate import select_demos
from dpsynth.synth.mock import mock_original_corpus
from dpsynth.synth.prompts import build_classification_prompt

from helpers import (
    ScriptedClient,
    balanced_corpus,
    corp,
    mnb_oracle_predict,
    rec,
)

W, S, B, T = ClassLabel.WORLD, ClassLabel.SPORTS, ClassLabel.BUSINESS, ClassLabel.SCITECH


def ids(*labels):
    """Label ids (positions in LABELS) of ``labels``."""
    return [LABELS.index(label) for label in labels]


def class_rows(model, corpus):
    """Each record's row among ``model.classes``."""
    return np.array([list(model.classes).index(LABELS.index(r.label)) for r in corpus.records])


# ---------------------------------------------------------------- tf-idf


class TestTfIdf:
    def fitted(self):
        train = corp(
            rec("apple banana", "apple", W),
            rec("banana", "cherry", S),
        )
        return train, fit_tfidf(train)

    def test_vocabulary_is_lexicographic_over_train_tokens(self):
        _, model = self.fitted()
        assert model.vocabulary == {"apple": 0, "banana": 1, "cherry": 2}

    def test_idf_formula(self):
        _, model = self.fitted()
        # df: apple 1, banana 2, cherry 1 over N=2 docs
        assert model.idf[0] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-15)
        assert model.idf[1] == pytest.approx(math.log(3 / 3) + 1.0, abs=1e-15)
        assert model.idf[2] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-15)

    def test_row_values_by_hand(self):
        train, model = self.fitted()
        row = transform(model, train.records[0]).toarray()[0]
        raw = np.array([2 * (math.log(1.5) + 1.0), 1.0, 0.0])
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(row, expected, atol=1e-15)

    def test_rows_are_unit_length(self):
        corpus = mock_original_corpus(5, seed=1)
        model = fit_tfidf(corpus)
        X = transform_corpus(model, corpus)
        norms = np.linalg.norm(X.toarray(), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_unknown_tokens_become_zero_vector(self):
        _, model = self.fitted()
        row = transform(model, rec("zebra", "quokka wombat", W))
        assert row.data.size == row.indices.size == 0
        assert row.indptr.tolist() == [0, 0]
        assert row.shape == (1, 3)
        assert not row.toarray().any()

    def test_transform_corpus_matches_per_record_transform(self):
        corpus = mock_original_corpus(3, seed=2)
        model = fit_tfidf(corpus)
        X = transform_corpus(model, corpus).toarray()
        for i, record in enumerate(corpus.records):
            assert np.array_equal(X[i], transform(model, record).toarray()[0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="^cannot fit TF-IDF on an empty corpus$"):
            fit_tfidf(corp())


class TestMatchesScipyCsr:
    """The tf-idf matrix is numpy arrays; scoring, MNB training and the
    dense form must give scipy's CSR results to the last bit, so no report
    moves with the representation."""

    @pytest.fixture(scope="class")
    def fitted(self):
        from scipy import sparse

        corpus = mock_original_corpus(40, seed=7)
        features = fit_tfidf(mock_original_corpus(30, seed=8))
        X = transform_corpus(features, corpus)
        reference = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        return corpus, features, X, reference

    def test_scores(self, fitted):
        corpus, features, X, reference = fitted
        rng = np.random.default_rng(3)
        model = dataclasses.replace(train_mnb(corpus, features),
                                    weights=rng.normal(size=(4, X.shape[1])),
                                    biases=rng.normal(size=4))
        expected = reference @ model.weights.T + model.biases
        assert np.array_equal(scores(model, X), expected)

    def test_mnb_class_masses(self, fitted):
        corpus, features, _, reference = fitted
        alpha, V = 1.0, features.n_features
        model = train_mnb(corpus, features, alpha=alpha)
        y = class_rows(model, corpus)
        for k in range(len(model.classes)):
            mass = np.asarray(reference[np.flatnonzero(y == k)].sum(axis=0)).ravel()
            expected = np.log(mass + alpha) - np.log(mass.sum() + alpha * V)
            assert np.array_equal(model.weights[k], expected)

    def test_toarray(self, fitted):
        _, _, X, reference = fitted
        assert np.array_equal(X.toarray(), reference.toarray())


# Mixed case, digits, repeats, a one-letter token (dropped) and fields that
# tokenize to nothing; test-only words never reach the training vocabulary.
_TRAIN_WORDS = ["aa", "AA", "bb", "cc", "dd", "b2", "x", ".", "?!", "__"]
_TEST_ONLY_WORDS = ["zz", "qq9", "éé"]


def _records(words):
    field = st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)
    return st.lists(st.builds(rec, field, field, st.sampled_from(LABELS)), max_size=8)


def _reference_tfidf(train, records):
    """Vocabulary, idf and dense L2-normalized rows, counted with Counter."""
    counts = [Counter(tokenize(r.title) + tokenize(r.description)) for r in records]
    df = Counter()
    for r in train:
        df.update(set(tokenize(r.title) + tokenize(r.description)))
    tokens = sorted(df)
    vocab = {t: j for j, t in enumerate(tokens)}
    # np.log on a scalar, the same log the library takes
    idf = [float(np.log((1.0 + len(train)) / (1.0 + df[t]))) + 1.0 for t in tokens]
    rows = np.zeros((len(records), len(tokens)))
    for i, c in enumerate(counts):
        for t, n in c.items():
            if t in vocab:
                rows[i, vocab[t]] = n * idf[vocab[t]]
        norm = math.sqrt(sum(v * v for v in rows[i]))
        if norm > 0:
            rows[i] /= norm
    return vocab, idf, rows


@given(train=_records(_TRAIN_WORDS).filter(bool),
       test=_records(_TRAIN_WORDS + _TEST_ONLY_WORDS))
@settings(max_examples=200, deadline=None)
def test_tfidf_matches_counter_reference(train, test):
    model = fit_tfidf(corp(*train))
    vocab, idf, rows = _reference_tfidf(train, train + test)
    assert model.vocabulary == vocab
    assert list(model.vocabulary) == sorted(vocab)
    assert model.idf.tolist() == idf
    X = np.vstack([transform_corpus(model, corp(*train)).toarray(),
                   transform_corpus(model, corp(*test)).toarray()])
    assert X.shape == rows.shape
    np.testing.assert_allclose(X, rows, rtol=1e-12, atol=0)


# ---------------------------------------------------------------- naive bayes


class TestMnb:
    def test_token_distributions_are_normalized(self):
        corpus = mock_original_corpus(4, seed=0)
        features = fit_tfidf(corpus)
        model = train_mnb(corpus, features)
        row_sums = np.exp(model.weights).sum(axis=1)
        assert np.allclose(row_sums, 1.0, atol=1e-12)

    def test_priors_are_class_frequencies(self):
        corpus = corp(
            rec("aa bb", "cc", W), rec("aa", "bb", W), rec("dd", "ee ff", S),
        )
        model = train_mnb(corpus, fit_tfidf(corpus))
        assert model.classes.tolist() == ids(W, S)
        assert model.biases[0] == pytest.approx(math.log(2 / 3))
        assert model.biases[1] == pytest.approx(math.log(1 / 3))

    def test_only_present_classes_are_modeled(self):
        corpus = corp(rec("aa", "bb", W), rec("cc", "dd", T))
        model = train_mnb(corpus, fit_tfidf(corpus))
        assert model.classes.tolist() == ids(W, T)

    def test_zero_feature_tie_goes_to_enum_order(self):
        # symmetric two-class corpus; an all-unknown record scores only the
        # priors, which are equal, so argmax must take the first class
        corpus = corp(rec("aa", "aa", S), rec("bb", "bb", W))
        features = fit_tfidf(corpus)
        model = train_mnb(corpus, features)
        pred = predict(model, transform(features, rec("zz", "zz", B)))
        assert pred.tolist() == ids(W)

    def test_posterior_rows_sum_to_one(self):
        corpus = mock_original_corpus(4, seed=3)
        features = fit_tfidf(corpus)
        model = train_mnb(corpus, features)
        post = softmax(scores(model, transform_corpus(features, corpus)))
        assert post.shape == (len(corpus.records), 4)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(post >= 0)

    def test_alpha_validation(self):
        corpus = corp(rec("aa", "bb", W))
        with pytest.raises(ValueError):
            train_mnb(corpus, fit_tfidf(corpus), alpha=0.0)
        with pytest.raises(ValueError, match="^cannot train MNB on an empty corpus$"):
            train_mnb(corp(), fit_tfidf(corpus))

    @pytest.mark.parametrize("case", range(40))
    def test_agreement_with_direct_bayes_enumeration(self, case):
        rng = make_rng(subseed(31, "mnb-case", case))
        vocab = [f"w{i}" for i in range(int(rng.integers(4, 10)))]
        train = balanced_corpus(int(rng.integers(2, 5)), vocab, rng)
        features = fit_tfidf(train)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = train_mnb(train, features, alpha=alpha)

        X_dense = transform_corpus(features, train).toarray()
        y = class_rows(model, train)
        queries = balanced_corpus(1, vocab, rng)
        for record in queries.records:
            x = transform(features, record)
            predicted = predict(model, x)[0]
            allowed = mnb_oracle_predict(
                X_dense, y, x.toarray()[0], alpha, len(model.classes)
            )
            assert list(model.classes).index(predicted) in allowed


# ---------------------------------------------------------------- svm


def separable_corpus(per_class: int = 12) -> Corpus:
    words = {W: "war treaty border", S: "match goal league", B: "stock profit market", T: "chip code robot"}
    records = []
    for label, vocab in words.items():
        for i in range(per_class):
            records.append(rec(f"{vocab.split()[i % 3]} item{i}", vocab, label))
    return corp(*records)


class TestSvm:
    def test_separable_data_is_fit_perfectly(self):
        corpus = separable_corpus()
        features = fit_tfidf(corpus)
        model = train_svm(corpus, features, seed=0)
        preds = predict(model, transform_corpus(features, corpus))
        assert preds.tolist() == ids(*(r.label for r in corpus.records))
        assert scores(model, transform_corpus(features, corpus)).shape == (48, 4)

    def test_determinism_in_seed(self, monkeypatch):
        corpus = separable_corpus(6)
        features = fit_tfidf(corpus)
        a = train_svm(corpus, features, seed=5)
        b = train_svm(corpus, features, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()

        # The seed draws the validation split, which the grid fits train on.
        fitted_rows = []
        fit = svm_module._fit_ovr

        def spy(X, y, n_classes, c_value):
            fitted_rows.append(X.toarray())
            return fit(X, y, n_classes, c_value)

        monkeypatch.setattr(svm_module, "_fit_ovr", spy)
        train_svm(corpus, features, seed=5)
        train_svm(corpus, features, seed=6)
        assert len(fitted_rows) == 8  # three grid fits and one refit per call
        assert not np.array_equal(fitted_rows[0], fitted_rows[4])
        assert np.array_equal(fitted_rows[3], fitted_rows[7])  # refit on everything

    @pytest.mark.parametrize("c_value", [0.1, 1.0, 10.0])
    def test_solution_meets_optimality_certificate(self, c_value):
        # Separable records plus some over shared words, so at C >= 1 some
        # records sit outside the margin and others inside it.
        rng = make_rng(subseed(17, "svm-certificate"))
        noise = balanced_corpus(3, ["war", "goal", "stock", "chip", "w1", "w2"], rng)
        corpus = corp(*separable_corpus(6).records, *noise.records)
        features = fit_tfidf(corpus)
        model = train_svm(corpus, features, c_grid=(c_value,))
        X = np.hstack([transform_corpus(features, corpus).toarray(),
                       np.ones((len(corpus.records), 1))])
        for k, label_id in enumerate(model.classes):
            y = np.array([1.0 if r.label is LABELS[label_id] else -1.0 for r in corpus.records])
            w = np.append(model.weights[k], model.biases[k])
            # gradient of 1/2 |w|^2 + C sum max(0, 1 - y x.w)^2, written out
            slack = np.maximum(0.0, 1.0 - y * (X @ w))
            grad = w - 2.0 * c_value * X.T @ (y * slack)
            grad_at_zero = -2.0 * c_value * X.T @ y
            rel = np.linalg.norm(grad) / np.linalg.norm(grad_at_zero)
            assert rel <= svm_module.GRAD_RTOL <= 1e-6

            # On its active set the objective is a quadratic with a closed-form
            # minimiser; its Hessian is at least I, so |w - w*| <= |grad|.
            active = slack > 0
            assert active.any() and (c_value < 1 or not active.all())
            Xa = X[active]
            hessian = np.eye(X.shape[1]) + 2.0 * c_value * Xa.T @ Xa
            w_star = np.linalg.solve(hessian, 2.0 * c_value * Xa.T @ y[active])
            assert np.linalg.norm(w - w_star) <= np.linalg.norm(grad) + 1e-12

    def test_step_cap_raises(self, monkeypatch):
        corpus = separable_corpus(4)
        monkeypatch.setattr(svm_module, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match="^Newton-CG stopped after 1 steps at C=1.0 "):
            train_svm(corpus, fit_tfidf(corpus), c_grid=(1.0,))

    @pytest.fixture()
    def fitted_c(self, monkeypatch):
        """The C of every ``_fit_ovr`` call, in call order; the last is the refit."""
        c_values = []
        fit = svm_module._fit_ovr

        def spy(X, y, n_classes, c_value):
            c_values.append(c_value)
            return fit(X, y, n_classes, c_value)

        monkeypatch.setattr(svm_module, "_fit_ovr", spy)
        return c_values

    def test_validation_tie_keeps_smallest_c(self, fitted_c):
        # trivially separable: every C reaches the same validation accuracy
        corpus = separable_corpus()
        train_svm(corpus, fit_tfidf(corpus), c_grid=(10.0, 0.1, 1.0), seed=2)
        assert fitted_c == [0.1, 1.0, 10.0, 0.1]

    def test_single_candidate_skips_validation(self, fitted_c):
        corpus = separable_corpus(4)
        train_svm(corpus, fit_tfidf(corpus), c_grid=(2.5,), seed=0)
        assert fitted_c == [2.5]

    def test_input_validation(self):
        corpus = separable_corpus(4)
        features = fit_tfidf(corpus)
        with pytest.raises(ValueError, match="^cannot train an SVM on an empty corpus$"):
            train_svm(corp(), features)
        single = corp(rec("aa", "bb", W), rec("cc", "dd", W))
        with pytest.raises(ValueError, match="^SVM training needs at least two classes$"):
            train_svm(single, fit_tfidf(single))
        with pytest.raises(ValueError):
            train_svm(corpus, features, c_grid=())
        with pytest.raises(ValueError):
            train_svm(corpus, features, c_grid=(0.0, 1.0))


# ---------------------------------------------------------------- icl


class TestParseLabelResponse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ('Class Label: "Sports"', S),
            ("sports", S),
            ("The answer is World.", W),
            ('Class Label: "Bussiness"', B),
            ("business news", B),
            ("Sci/Tech", T),
            ("SCITECH", T),
            ("science/technology stories", T),
            ("World beats Sports here", W),  # leftmost match wins
            ("no label in sight", None),
            ("", None),
            ("sportsmanship", None),  # word boundary, not substring
        ],
    )
    def test_cases(self, text, expected):
        assert parse_label_response(text) is expected

    @pytest.mark.parametrize("alias, label", sorted(_LABEL_ALIASES.items()))
    def test_every_alias_parses(self, alias, label):
        for text in (alias, alias.upper(), f'Class Label: "{alias.title()}".'):
            assert parse_label_response(text) is label, text


class TestIclDemoSelection:
    # ICL demonstrations come from select_demos; these are its ICL shot counts.
    def test_zero_shot_selects_nothing(self):
        assert select_demos(mock_original_corpus(2, 0), 0, seed=0) == []

    def test_four_shot_covers_classes(self):
        demos = select_demos(mock_original_corpus(4, 0), 4, seed=3)
        assert [d.label for d in demos] == list(LABELS)
        assert select_demos(mock_original_corpus(4, 0), 4, seed=3) == demos

    def test_two_shot_uses_distinct_classes(self):
        for seed in range(50):
            demos = select_demos(mock_original_corpus(4, 0), 2, seed=seed)
            assert len(demos) == 2
            assert demos[0].label is not demos[1].label

    def test_missing_class_raises(self):
        full = mock_original_corpus(2, 0)
        partial = Corpus(tuple(r for r in full.records if r.label is not T))
        with pytest.raises(ValueError, match="^class Sci/Tech: need 1 demo records, have 0$"):
            select_demos(partial, 4, seed=0)


class TestIclEvaluate:
    def test_mock_backend_recovers_class_vocabulary(self):
        demo_corpus = mock_original_corpus(3, seed=1)
        test = mock_original_corpus(10, seed=2)
        report = icl_evaluate(4, demo_corpus, test, client=MockClient(), seed=0)
        assert report.model_tag == "icl-4shot"
        assert report.n_test == 40
        assert report.accuracy >= 0.75
        assert report.n_unparseable == 0

    def test_scripted_constant_answer(self):
        test = mock_original_corpus(3, seed=4)  # 3 of 12 records are World
        client = ScriptedClient(['Class Label: "World"'])
        report = icl_evaluate(0, corp(), test, client=client, seed=0)
        assert report.accuracy == pytest.approx(0.25)
        assert report.per_class_accuracy[W] == 1.0
        assert report.per_class_accuracy[S] == 0.0
        assert len(client.prompts) == 12

    def test_query_sampling_is_pinned(self):
        test = mock_original_corpus(1, seed=4)
        client = ScriptedClient(["World"])
        icl_evaluate(0, corp(), test, client=client, seed=7)
        for call in client.calls:
            assert call["temperature"] == 0.0
            assert call["top_p"] == 1.0
            assert call["max_tokens"] == 16
            assert call["seed"] == 7

    def test_unparseable_responses_scored_incorrect(self):
        test = mock_original_corpus(2, seed=4)
        client = ScriptedClient(["beats me"])
        report = icl_evaluate(0, corp(), test, client=client, seed=0)
        assert report.accuracy == 0.0
        assert report.n_unparseable == 8

    def test_demos_appear_in_every_prompt(self):
        # every prompt shows exactly the records select_demos picks, in order
        demo_corpus = mock_original_corpus(2, seed=9)
        test = mock_original_corpus(1, seed=10)
        for shots in VALID_SHOTS:
            client = ScriptedClient(["World"])
            icl_evaluate(shots, demo_corpus, test, client=client, seed=2)
            demos = select_demos(demo_corpus, shots, 2)
            assert len(demos) == shots
            assert client.prompts == [build_classification_prompt(demos, q) for q in test]

    def test_zero_shot_reports_original_source(self):
        test = mock_original_corpus(1, seed=2)
        report = icl_evaluate(0, corp(), test, client=ScriptedClient(["World"]), seed=0,
                              demo_source="Synthetic")
        assert report.train_source == "Original"

    def test_empty_test_corpus_rejected(self):
        with pytest.raises(ValueError, match="^cannot evaluate on an empty corpus$"):
            icl_evaluate(0, corp(), corp(), client=ScriptedClient(["x"]), seed=0)

    def test_threaded_and_serial_agree(self):
        demo_corpus = mock_original_corpus(2, seed=5)
        test = mock_original_corpus(6, seed=6)
        serial = icl_evaluate(4, demo_corpus, test, client=MockClient(), seed=1, workers=1)
        threaded = icl_evaluate(4, demo_corpus, test, client=MockClient(), seed=1, workers=4)
        assert serial.accuracy == threaded.accuracy
        assert serial.per_class_accuracy == threaded.per_class_accuracy


# ---------------------------------------------------------------- linear model


class TestLinearModel:
    @pytest.fixture(scope="class")
    def fitted(self):
        corpus = mock_original_corpus(6, seed=11)
        features = fit_tfidf(corpus)
        X = transform_corpus(features, mock_original_corpus(5, seed=12))
        models = {"mnb": train_mnb(corpus, features),
                  "svm": train_svm(corpus, features, c_grid=(1.0,))}
        return models, X

    @pytest.mark.parametrize("name", ["mnb", "svm"])
    def test_predict_is_the_argmax_of_scores(self, fitted, name):
        models, X = fitted
        model = models[name]
        s = scores(model, X)
        assert s.shape == (X.shape[0], len(model.classes))
        assert np.array_equal(predict(model, X), model.classes[np.argmax(s, axis=1)])

    @pytest.mark.parametrize("name", ["mnb", "svm"])
    def test_ties_go_to_the_earlier_class(self, fitted, name):
        models, X = fitted
        flat = dataclasses.replace(models[name], weights=np.zeros_like(models[name].weights),
                                   biases=np.zeros_like(models[name].biases))
        assert set(predict(flat, X).tolist()) == {int(flat.classes[0])}
        # a tie between the last two classes only
        biases = np.zeros_like(flat.biases)
        biases[-2:] = 1.0
        tied = dataclasses.replace(flat, biases=biases)
        assert set(predict(tied, X).tolist()) == {int(flat.classes[-2])}


@given(labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_a_per_record_oracle(labels, data):
    test = corp(*(rec(f"t{i}", "d", label) for i, label in enumerate(labels)))
    predictions = data.draw(st.lists(st.integers(-1, len(LABELS) - 1),
                                     min_size=len(labels), max_size=len(labels)))
    report = evaluate(np.array(predictions), test)
    correct = [p == LABELS.index(label) for p, label in zip(predictions, labels)]
    assert report.accuracy == sum(correct) / len(labels)
    expected = {}
    for label in LABELS:
        mine = [ok for ok, lab in zip(correct, labels) if lab is label]
        if mine:
            expected[label] = sum(mine) / len(mine)
    assert report.per_class_accuracy == expected
    assert list(report.per_class_accuracy) == list(expected)  # LABELS order


# ---------------------------------------------------------------- reports


class TestReports:
    def test_evaluate_counts_exactly(self):
        test = corp(rec("a1", "b", W), rec("a2", "b", W), rec("a3", "b", S))
        report = evaluate(ids(W, W, W), test, model_tag="const")
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.per_class_accuracy == {W: 1.0, S: 0.0}
        assert report.n_test == 3

    def test_none_predictions_count_as_wrong(self):
        test = corp(rec("a1", "b", W), rec("a2", "b", S))
        report = evaluate([-1, -1], test)
        assert report.accuracy == 0.0

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError, match="^cannot evaluate on an empty corpus$"):
            evaluate([], corp())

    def test_prediction_count_must_match_test(self):
        with pytest.raises(ValueError):
            evaluate(ids(W), corp(rec("a1", "b", W), rec("a2", "b", S)))

    def test_predict_dispatch(self):
        corpus = separable_corpus(4)
        features = fit_tfidf(corpus)
        X = transform_corpus(features, corpus)
        mnb = train_mnb(corpus, features)
        svm = train_svm(corpus, features, c_grid=(1.0,))
        # one predictor reads either model's own weights
        for model in (mnb, svm):
            expected = model.classes[np.argmax(X @ model.weights.T + model.biases, axis=1)]
            assert np.array_equal(predict(model, X), expected)
        assert predict(svm, X).tolist() == ids(*(r.label for r in corpus.records))

    def report(self, tag, source, acc):
        return EvalReport(
            model_tag=tag, train_source=source, accuracy=acc,
            per_class_accuracy={}, n_test=100,
        )

    def test_model_table_rendering(self):
        table = render_accuracy_table({
            "mnb": (self.report("mnb", "Original", 0.8073),
                    self.report("mnb", "Synthetic", 0.7126)),
            "svm": (self.report("svm", "Original", 0.825),
                    self.report("svm", "Synthetic", 0.5)),
        }, "Method", "Data")
        assert table.splitlines() == [
            "| Method | Accuracy (Original Data) | Accuracy (Synthetic Data) |",
            "| --- | --- | --- |",
            "| mnb | 80.73 | 71.26 |",
            "| svm | 82.50 | 50.00 |",
        ]

    def test_sweep_table_rendering(self):
        rows = [
            {"model": "mnb", "epsilon_requested": 0.0, "epsilon_used": 0.05,
             "floored": True, "accuracy_mean": 0.61, "accuracy_sd": 0.0, "n_seeds": 1},
            {"model": "mnb", "epsilon_requested": 1.0, "epsilon_used": 1.0,
             "floored": False, "accuracy_mean": 0.705, "accuracy_sd": 0.021, "n_seeds": 5},
        ]
        table = render_sweep_table(rows)
        assert "| mnb | 0.0 (ran at 0.05) | 61.00 |" in table
        assert "| mnb | 1.0 | 70.50 +/- 2.10 |" in table
