"""Release acceptance checks.

Each test prints one PASS/FAIL line straight to the terminal (past pytest's
capture) so a full run doubles as a release checklist. The two checks
against the real AGNews corpus need the public train CSV: set
DPSYNTH_AGNEWS_CSV to its path, or drop the file at data/agnews_train.csv,
to enable them. Everything else runs offline on the mock backend.
"""
from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dpsynth.audit import compare_leakage, collect_confidences, threshold_attack
from dpsynth.cli import cmd_generate, cmd_sweep, load_config
from dpsynth.corpus import (
    LABELS,
    ClassLabel,
    Corpus,
    NewsRecord,
    load_agnews,
    sample_split,
)
from dpsynth.dp import (
    DEFAULT_SENSITIVITY,
    Mechanism,
    PrivacyParams,
    SensitivityBound,
    build_histogram,
    noise_scale,
    perturb_histogram,
    sample_gaussian,
    sample_laplace,
)
from dpsynth.evaluation.features import fit_tfidf, transform, transform_corpus
from dpsynth.evaluation.linear import predict, probabilities
from dpsynth.evaluation.mnb import train_mnb
from dpsynth.evaluation.report import evaluate
from dpsynth.evaluation.svm import train_svm
from dpsynth.rngutil import make_rng, sub_rng, subseed
from dpsynth.synth.backends import BackendSpec, make_backend
from dpsynth.synth.generate import GenerationConfig, run_generation
from dpsynth.synth.mock import mock_original_corpus
from dpsynth.synth.prompts import build_classification_prompt, build_generation_prompt
from dpsynth.synth.reconcile import reconcile_corpus

from helpers import (
    GENERATION_DEMOS,
    ICL_DEMOS,
    ICL_QUERY,
    class_counts_restricted,
    laplace_pdf,
    mnb_oracle_predict,
    threshold_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


def _agnews_path() -> str:
    env = os.environ.get("DPSYNTH_AGNEWS_CSV", "").strip()
    if env:
        return env
    fallback = Path(__file__).resolve().parents[1] / "data" / "agnews_train.csv"
    return str(fallback) if fallback.exists() else ""


AGNEWS_CSV = _agnews_path()

needs_agnews = pytest.mark.skipif(
    not AGNEWS_CSV,
    reason="needs the public AGNews train CSV; set DPSYNTH_AGNEWS_CSV or add data/agnews_train.csv",
)


@pytest.fixture
def announce(capsys):
    """One visible PASS/FAIL line per check, bypassing output capture."""

    def _line(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    return _line


@pytest.fixture(scope="module")
def agnews_split():
    corpus = load_agnews(AGNEWS_CSV)
    return sample_split(corpus, 12000, 4000, seed=42)


# ------------------------------------------------- classifiers on real news


@needs_agnews
def test_mnb_accuracy_on_real_news(announce, agnews_split):
    t0 = time.perf_counter()
    train, test = agnews_split
    features = fit_tfidf(train)
    model = train_mnb(train, features)
    report = evaluate(predict(model, transform_corpus(features, test)), test, model_tag="mnb")
    elapsed = time.perf_counter() - t0
    ok = abs(report.accuracy - 0.8073) <= 0.04 and elapsed < 120.0
    announce(
        "mnb-real-news",
        ok,
        f"accuracy {report.accuracy:.4f} (want 0.8073 +/- 0.04) in {elapsed:.1f}s",
    )
    assert abs(report.accuracy - 0.8073) <= 0.04
    assert elapsed < 120.0


@needs_agnews
def test_svm_accuracy_on_real_news(announce, agnews_split):
    t0 = time.perf_counter()
    train, test = agnews_split
    features = fit_tfidf(train)
    model = train_svm(train, features, seed=42)
    report = evaluate(predict(model, transform_corpus(features, test)), test, model_tag="svm")
    elapsed = time.perf_counter() - t0
    ok = report.accuracy >= 0.82 and elapsed < 900.0
    announce(
        "svm-real-news",
        ok,
        f"accuracy {report.accuracy:.4f} (want >= 0.82) in {elapsed:.1f}s",
    )
    assert report.accuracy >= 0.82
    assert elapsed < 900.0


# ------------------------------------------------------- noise and calibration


def test_sampler_moments(announce):
    lap = sample_laplace(make_rng(20260819), 2.0, size=1_000_000)
    lap_mean = float(lap.mean())
    lap_var = float(lap.var())
    gau = sample_gaussian(make_rng(31), 3.0, size=1_000_000)
    gau_mean = float(gau.mean())
    gau_var = float(gau.var())
    ok = (
        abs(lap_mean) < 0.02
        and abs(lap_var - 8.0) <= 0.05 * 8.0
        and abs(gau_mean) < 0.01
        and abs(gau_var - 9.0) <= 0.05 * 9.0
    )
    announce(
        "sampler-moments",
        ok,
        f"laplace(b=2) mean {lap_mean:+.5f} var {lap_var:.4f}; "
        f"gaussian(sigma=3) mean {gau_mean:+.5f} var {gau_var:.4f}",
    )
    assert abs(lap_mean) < 0.02
    assert abs(lap_var - 8.0) <= 0.05 * 8.0
    assert abs(gau_mean) < 0.01
    assert abs(gau_var - 9.0) <= 0.05 * 9.0


def test_calibration_exactness(announce):
    sigma = noise_scale(
        PrivacyParams(epsilon=1.0, delta=1e-5, mechanism=Mechanism.GAUSSIAN),
        SensitivityBound(l1=1.0, l2=1.0),
    )
    direct = 1.0 * math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 1.0
    b = noise_scale(
        PrivacyParams(epsilon=0.5), SensitivityBound(l1=1.0, l2=1.0)
    )
    ok = abs(sigma - direct) < 1e-10 and b == 2.0
    announce(
        "calibration-exactness",
        ok,
        f"gaussian sigma {sigma:.12f} vs direct {direct:.12f}; laplace b {b}",
    )
    assert abs(sigma - direct) < 1e-10
    assert b == 2.0


def test_laplace_density_ratio_on_grid(announce):
    delta1 = 3.0
    worst = {}
    for epsilon in (0.5, 1.0, 10.0):
        b = delta1 / epsilon
        grid = np.linspace(-8.0 * b - delta1, 8.0 * b + delta1, 10_000)
        ratios = [laplace_pdf(v, 0.0, b) / laplace_pdf(v, delta1, b) for v in grid]
        worst[epsilon] = max(ratios)
    bound_ok = all(
        worst[e] <= math.exp(e) * (1 + 1e-12) and worst[e] >= math.exp(e) * (1 - 1e-9)
        for e in worst
    )
    detail = ", ".join(
        f"eps={e}: max ratio {worst[e]:.6g} vs bound {math.exp(e):.6g}" for e in worst
    )
    announce("laplace-density-ratio", bound_ok, detail)
    for e, m in worst.items():
        assert m <= math.exp(e) * (1 + 1e-12)
        assert m >= math.exp(e) * (1 - 1e-9)


# ------------------------------------------------------------- reconciliation


def test_reconciliation_exactness_200_cases(announce):
    failures = []
    for case in range(200):
        rng = make_rng(subseed(9100, "accept-recon", case))
        corpus = mock_original_corpus(int(rng.integers(3, 9)), seed=case)
        vocab_limit = int(rng.integers(3, 12))
        hist = build_histogram(corpus, vocab_limit=vocab_limit)
        epsilon = float(rng.choice([0.4, 1.0, 3.0]))
        if case % 2 == 0:
            params = PrivacyParams(epsilon=epsilon)
        else:
            params = PrivacyParams(
                epsilon=min(epsilon, 1.0), delta=1e-5, mechanism=Mechanism.GAUSSIAN
            )
        noisy = perturb_histogram(hist, params, SensitivityBound(l1=8.0, l2=4.0), rng)
        out = reconcile_corpus(corpus, noisy, make_rng(subseed(9200, "accept-recon-rng", case)))
        recount = class_counts_restricted(out, noisy.per_class)
        target = {label: dict(noisy.per_class.get(label, {})) for label in LABELS}
        if recount != target or len(out.records) != len(corpus.records):
            failures.append(case)
    ok = not failures
    announce(
        "reconciliation-exactness",
        ok,
        f"{200 - len(failures)}/200 cases match the noisy counts exactly"
        + (f" (failing cases: {failures[:5]})" if failures else ""),
    )
    assert failures == []


# --------------------------------------------------------------- determinism


def test_generate_rerun_is_byte_identical(announce, tmp_path):
    overrides = {
        "dataset_path": "mock:32",
        "n_train": 24,
        "n_test": 8,
        "vocab_limit": 30,
        "epsilon": 1.0,
        "seed": 11,
        "gen": {"total_records": 16, "batch_size": 8},
    }
    blobs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        config = load_config(None, dict(overrides, output_dir=str(out_dir)))
        cmd_generate(config)
        blobs.append(
            (
                (out_dir / "synthetic.jsonl").read_bytes(),
                (out_dir / "histogram_noisy.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1]
    announce(
        "generate-rerun-determinism",
        ok,
        f"two runs, {len(blobs[0][0])} corpus bytes each, "
        + ("identical" if ok else "DIFFER"),
    )
    assert blobs[0] == blobs[1]


# ------------------------------------------------------------ model oracles


def test_mnb_matches_direct_bayes_enumeration(announce):
    mismatches = 0
    for case in range(1000):
        rng = make_rng(subseed(5150, "accept-mnb", case))
        vocab = [f"tok{i}" for i in range(int(rng.integers(1, 7)))]
        n_docs = int(rng.integers(1, 6))
        records = []
        for d in range(n_docs):
            label = LABELS[int(rng.integers(0, 4))]
            title = " ".join(rng.choice(vocab, size=int(rng.integers(1, 4))))
            desc = " ".join(rng.choice(vocab, size=int(rng.integers(1, 6))))
            records.append(NewsRecord(title, desc, label))
        corpus = Corpus(tuple(records))
        features = fit_tfidf(corpus)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = train_mnb(corpus, features, alpha=alpha)

        X_dense = transform_corpus(features, corpus).toarray()
        rows = list(model.classes)
        y = np.array([rows.index(LABELS.index(r.label)) for r in corpus.records])
        query = NewsRecord(
            " ".join(rng.choice(vocab, size=int(rng.integers(1, 5)))),
            vocab[0],
            LABELS[0],
        )
        x = transform(features, query)
        predicted = predict(model, x)[0]
        allowed = mnb_oracle_predict(
            X_dense, y, x.toarray()[0], alpha, len(model.classes)
        )
        if rows.index(predicted) not in allowed:
            mismatches += 1
    ok = mismatches == 0
    announce(
        "mnb-bayes-oracle",
        ok,
        f"{1000 - mismatches}/1000 toy cases agree with direct enumeration",
    )
    assert mismatches == 0


# ----------------------------------------------------------- epsilon-utility


def test_accuracy_trend_across_epsilon(announce, tmp_path, capsys):
    config = load_config(
        None,
        {
            "dataset_path": "mock:96",
            "n_train": 64,
            "n_test": 32,
            "vocab_limit": 40,
            "seed": 1234,
            "models": ["mnb"],
            "epsilons": [0.0, 0.5, 1.0, 10.0],
            "sweep_seeds": 5,
            "gen": {"total_records": 160, "batch_size": 16},
            "output_dir": str(tmp_path),
        },
    )
    cmd_sweep(config)
    rows = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    assert [r["epsilon_requested"] for r in rows] == [0.0, 0.5, 1.0, 10.0]
    assert rows[0]["epsilon_used"] == 0.05 and rows[0]["floored"]

    means = [r["accuracy_mean"] for r in rows]
    sds = [r["accuracy_sd"] for r in rows]
    steps_ok = [
        means[i + 1] >= means[i] - max(sds[i], sds[i + 1])
        for i in range(len(means) - 1)
    ]
    ok = all(steps_ok)
    announce(
        "epsilon-utility-trend",
        ok,
        "mean accuracy by epsilon "
        + " -> ".join(f"{m:.3f}(sd {s:.3f})" for m, s in zip(means, sds)),
    )
    assert all(steps_ok), f"trend broken at steps {steps_ok}"


# -------------------------------------------------------------- attack audit


def test_threshold_attack_matches_bruteforce(announce):
    mismatches = 0
    for case in range(300):
        rng = make_rng(subseed(7700, "accept-mia", case))
        n_m = int(rng.integers(1, 11))
        n_n = int(rng.integers(1, 11))
        members = np.round(rng.random(n_m) * 20) / 20.0
        nonmembers = np.round(rng.random(n_n) * 20) / 20.0
        result = threshold_attack(members, nonmembers)
        adv, theta, auc = threshold_oracle(members, nonmembers)
        if not (
            math.isclose(result.advantage, adv, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(result.best_threshold, theta, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(result.auc, auc, rel_tol=1e-12, abs_tol=1e-12)
        ):
            mismatches += 1
    ok = mismatches == 0
    announce(
        "threshold-attack-oracle",
        ok,
        f"{300 - mismatches}/300 exhaustive-sweep cases agree",
    )
    assert mismatches == 0


def test_permutation_null_advantage_is_small(announce):
    pool = mock_original_corpus(500, seed=77)
    train = mock_original_corpus(30, seed=78)
    features = fit_tfidf(train)
    model = train_mnb(train, features)
    posterior = probabilities(model, transform_corpus(features, pool))
    idx = np.array([list(model.classes).index(LABELS.index(r.label)) for r in pool.records])
    confidences = posterior[np.arange(len(idx)), idx]

    rng = make_rng(123)
    half = len(confidences) // 2
    advantages = []
    for _ in range(100):
        perm = rng.permutation(len(confidences))
        result = threshold_attack(confidences[perm[:half]], confidences[perm[half:]])
        advantages.append(result.advantage)
    mean_adv = float(np.mean(advantages))
    ok = mean_adv < 0.05
    announce(
        "permutation-null-advantage",
        ok,
        f"mean advantage {mean_adv:.4f} over 100 label permutations "
        f"({half}+{half} confidences)",
    )
    assert mean_adv < 0.05


def test_audit_fixture_shows_leakage_reduction(announce):
    members = mock_original_corpus(6, seed=5)
    nonmembers = mock_original_corpus(6, seed=6)

    feats_base = fit_tfidf(members)
    model_base = train_mnb(members, feats_base)
    m, n = collect_confidences(model_base, feats_base, members, nonmembers, seed=0)
    baseline = threshold_attack(m, n)

    pipeline_seed = 9
    gen_config = GenerationConfig(total_records=160, batch_size=16)
    synthetic_raw = run_generation(members, make_backend(BackendSpec()), gen_config,
                                   subseed(pipeline_seed, "generation"))
    hist = build_histogram(synthetic_raw, vocab_limit=60)
    noisy = perturb_histogram(
        hist,
        PrivacyParams(epsilon=1.0),
        DEFAULT_SENSITIVITY,
        sub_rng(pipeline_seed, "dp-noise"),
    )
    synthetic = reconcile_corpus(synthetic_raw, noisy, sub_rng(pipeline_seed, "reconcile"))

    feats_syn = fit_tfidf(synthetic)
    model_syn = train_mnb(synthetic, feats_syn)
    m2, n2 = collect_confidences(model_syn, feats_syn, members, nonmembers, seed=0)
    private = threshold_attack(m2, n2)

    report = compare_leakage(baseline, private)
    ok = baseline.advantage > private.advantage and report.verdict == "reduced-leakage"
    announce(
        "audit-leakage-reduction",
        ok,
        f"attack advantage {baseline.advantage:.4f} on the original-data model vs "
        f"{private.advantage:.4f} on the synthetic-data model",
    )
    assert baseline.advantage > private.advantage
    assert report.verdict == "reduced-leakage"
    assert report.delta > 0


# ------------------------------------------------------------ prompt fidelity


def test_prompts_match_golden_files(announce):
    rendered = {
        "generation_prompt.txt": build_generation_prompt(GENERATION_DEMOS, 10),
        "icl_prompt_0shot.txt": build_classification_prompt([], ICL_QUERY),
        "icl_prompt_2shot.txt": build_classification_prompt(ICL_DEMOS[:2], ICL_QUERY),
        "icl_prompt_4shot.txt": build_classification_prompt(ICL_DEMOS, ICL_QUERY),
    }
    bad = [
        name
        for name, prompt in rendered.items()
        if (prompt + "\n").encode("utf-8") != (GOLDEN / name).read_bytes()
    ]
    ok = not bad
    announce(
        "prompt-goldens",
        ok,
        "all 4 prompts byte-match" if ok else f"mismatched: {bad}",
    )
    assert bad == []
