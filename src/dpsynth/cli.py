"""Experiment orchestration CLI.

Four subcommands drive the pipeline end to end:

  generate   original data -> synthetic corpus, noised release, JSONL output
  evaluate   train the requested models on original vs synthetic, report
  sweep      generate + evaluate across a list of epsilons, aggregate
  audit      membership-inference comparison, original vs synthetic models

Configuration is a JSON file (flat keys matching ExperimentConfig fields,
with nested "backend" and "gen" objects) plus command-line flag overrides;
flags win over the file, the file wins over defaults. Every command writes
a manifest (manifest_<command>.json) recording the resolved config, its
fingerprint, the privacy budget spent, backend call counters, and the paths
of every artifact it produced.

The experiment seed is the single source of randomness: stage seeds are
derived from it by labeled hashing.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import Corpus, load_agnews, sample_split, save_jsonl
from .dp import (
    DEFAULT_SENSITIVITY,
    BudgetLedger,
    Mechanism,
    PrivacyParams,
    TokenHistogram,
    build_histogram,
    charge,
    noise_scale,
    perturb_histogram,
)
from .evaluation.features import fit_tfidf, transform_corpus
from .evaluation.icl import VALID_SHOTS, icl_evaluate
from .evaluation.linear import predict
from .evaluation.mnb import train_mnb
from .evaluation.report import (
    EvalReport,
    evaluate,
    render_accuracy_table,
    render_sweep_table,
)
from .evaluation.svm import train_svm
from .audit import collect_confidences, compare_leakage, threshold_attack
from .rngutil import sub_rng, subseed
from .synth.backends import BackendSpec, make_backend
from .synth.generate import GenerationConfig, run_generation
from .synth.mock import mock_original_corpus
from .synth.reconcile import reconcile_corpus

VALID_MODELS = ("mnb", "svm", "icl")

# A requested epsilon of exactly 0 has no finite calibration; it runs here.
EPSILON_FLOOR = 0.05


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment, resolved and validated.

    dataset_path accepts a real file (.csv or .jsonl) or "mock:<N>" for the
    built-in offline sample corpus with N records. epsilon drives the
    single-release commands (generate, evaluate, audit); epsilons drives
    sweep. A requested epsilon of exactly 0 runs at EPSILON_FLOOR and is
    flagged wherever it is reported.
    """

    dataset_path: str = ""
    n_train: int = 12000
    n_test: int = 4000
    backend: BackendSpec = field(default_factory=BackendSpec)
    gen: GenerationConfig = field(default_factory=GenerationConfig)
    epsilon: float = 1.0
    epsilons: tuple[float, ...] = (0.0, 0.5, 1.0, 10.0)
    mechanism: str = "laplace"
    delta: float = 1e-5
    vocab_limit: int = 500
    models: tuple[str, ...] = ("mnb", "svm")
    icl_shots: tuple[int, ...] = (0, 2, 4)
    seed: int = 42
    output_dir: str = "runs"
    sweep_seeds: int = 1
    cache_enabled: bool = True
    cache_dir: str = ".dpsynth-cache"

    def __post_init__(self):
        if self.mechanism not in ("laplace", "gaussian"):
            raise ValueError(f"mechanism must be 'laplace' or 'gaussian', got {self.mechanism!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0 (0 runs at the surrogate floor)")
        if any(e < 0 for e in self.epsilons):
            raise ValueError("sweep epsilons must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.sweep_seeds < 1:
            raise ValueError("sweep_seeds must be >= 1")
        if self.vocab_limit < 1:
            raise ValueError("vocab_limit must be >= 1")
        if not self.cache_dir:
            raise ValueError("cache_dir must not be empty")
        deduped = []
        for m in self.models:
            if m not in VALID_MODELS:
                raise ValueError(f"unknown model {m!r}; choose from {VALID_MODELS}")
            if m not in deduped:
                deduped.append(m)
        object.__setattr__(self, "models", tuple(deduped))
        shots = sorted(set(self.icl_shots))
        for s in shots:
            if s not in VALID_SHOTS:
                raise ValueError(f"icl_shots must be drawn from {VALID_SHOTS}, got {s}")
        if "icl" in self.models and not shots:
            raise ValueError("models include 'icl' but icl_shots is empty")
        object.__setattr__(self, "icl_shots", tuple(shots))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))

    def resolve_epsilon(self, requested: float) -> tuple[float, bool]:
        """Map a requested epsilon to the one actually run. 0 -> floor."""
        if requested == 0.0:
            return EPSILON_FLOOR, True
        return float(requested), False

    def privacy_for(self, epsilon: float) -> PrivacyParams:
        mech = Mechanism(self.mechanism)
        # Laplace gives pure epsilon-DP; its ledger entries carry delta 0.
        delta = self.delta if mech is Mechanism.GAUSSIAN else 0.0
        return PrivacyParams(epsilon=epsilon, delta=delta, mechanism=mech)

    def check_calibration(self, epsilons) -> None:
        """Raise unless each requested epsilon's release can be calibrated,
        so a command fails before it spends any generation call."""
        for requested in epsilons:
            noise_scale(self.privacy_for(self.resolve_epsilon(requested)[0]),
                        DEFAULT_SENSITIVITY)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_json_fields)

    # Execution details that do not change what the experiment computes;
    # relocating outputs or toggling the cache must not look like a new run.
    _NON_IDENTITY_FIELDS = ("output_dir", "cache_dir", "cache_enabled")

    def fingerprint(self) -> str:
        identity = self.to_json_dict()
        for field_name in self._NON_IDENTITY_FIELDS:
            identity.pop(field_name, None)
        canon = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _json_fields(items: list) -> dict:
    """``dataclasses.asdict`` factory that writes tuples as JSON lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


_SECTIONS = {"backend": BackendSpec, "gen": GenerationConfig}


def _fits(value, want: type) -> bool:
    """Whether a config value has type ``want``. A bool is not an int, and
    an int fits a float."""
    return type(value) is want or (want is float and type(value) is int)


def _typed(cls, values: dict, prefix: str = "") -> dict:
    """``values`` with each int, float, str or bool field of ``cls``, and
    each item of a ``tuple[<one of those>, ...]`` field, checked against its
    declared type. A tuple field takes a list. An int given for a float
    becomes one, so ``1`` and ``1.0`` are one config."""
    values = dict(values)
    for name, want in typing.get_type_hints(cls).items():
        if name not in values:
            continue
        value = values[name]
        if typing.get_origin(want) is tuple:
            item = typing.get_args(want)[0]
            if not (isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)):
                raise ValueError(f"config key {prefix}{name} must be a list of "
                                 f"{item.__name__}, got {value!r}")
            values[name] = tuple(map(item, value))
        elif want in (int, float, str, bool):
            if not _fits(value, want):
                raise ValueError(
                    f"config key {prefix}{name} must be {want.__name__}, got {value!r}")
            values[name] = want(value)
    return values


def _merge_config_values(file_values: dict, overrides: dict) -> ExperimentConfig:
    for key in _SECTIONS:
        if not isinstance(file_values.get(key, {}), dict):
            raise ValueError(f"config key {key!r} must be a JSON object")
    merged = dict(file_values)
    for key, value in overrides.items():
        if key in _SECTIONS and isinstance(value, dict):
            nested = dict(merged.get(key, {}))
            nested.update(value)
            merged[key] = nested
        else:
            merged[key] = value

    unknown = set(merged) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    sections = {key: cls for key, cls in _SECTIONS.items() if isinstance(merged.get(key), dict)}
    for key, cls in sections.items():
        unknown |= {f"{key}.{name}" for name in
                    set(merged[key]) - {f.name for f in dataclasses.fields(cls)}}
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key, cls in sections.items():
        merged[key] = cls(**_typed(cls, merged[key], f"{key}."))
    return ExperimentConfig(**_typed(ExperimentConfig, merged))


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Defaults <- JSON file <- flag overrides."""
    file_values: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    return _merge_config_values(file_values, overrides)


# ---------------------------------------------------------------- outputs

def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _json(obj, sort_keys: bool = True):
    """A writer of ``obj`` as indented JSON to the path it is given."""
    def write(path: Path) -> None:
        path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")
    return write


def _write_outputs(command: str, config: ExperimentConfig, started_at: str, files: dict,
                   ledger: BudgetLedger, backend_stats: dict, notes: dict) -> dict:
    """Write a command's files into ``config.output_dir``, then its manifest.

    ``files`` maps each output name to ``(file name, writer)``; a writer
    takes the path to write. The old ``manifest_<command>.json`` goes first,
    so no manifest names files of another run. If any write fails, every
    path the command writes is removed, old or partial, and the error
    propagates. Returns the manifest."""
    out_dir = Path(config.output_dir)
    manifest_path = out_dir / f"manifest_{command}.json"
    paths = {name: out_dir / file_name for name, (file_name, _) in files.items()}
    manifest_path.unlink(missing_ok=True)
    try:
        for name, (_, write) in files.items():
            write(paths[name])
        manifest = {
            "command": command,
            "config_fingerprint": config.fingerprint(),
            "config": config.to_json_dict(),
            "tool_version": __version__,
            "started_at": started_at,
            "finished_at": _utc_now(),
            "outputs": {name: str(p) for name, p in paths.items()},
            "budget_ledger": ledger.to_json_dict(),
            "backend_stats": dict(backend_stats),
            "notes": notes,
        }
        _json(manifest)(manifest_path)
    except BaseException:
        for p in (*paths.values(), manifest_path):
            p.unlink(missing_ok=True)
        raise
    return manifest


# ---------------------------------------------------------------- stages

class StageError(Exception):
    """A failure tagged with the pipeline stage that raised it: the one
    error ``main`` reports as a single line before exiting 1."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")


@contextmanager
def stage(name: str):
    """Tag any failure below with the pipeline stage that raised it."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _load_original(config: ExperimentConfig) -> tuple[Corpus, Corpus]:
    """Original data as a stratified (train, test) pair."""
    with stage("load-dataset"):
        if not config.dataset_path:
            raise ValueError(
                "dataset_path is not set; point it at an AGNews file "
                "or use 'mock:<N>' for the built-in sample corpus"
            )
        if config.dataset_path.startswith("mock:"):
            value = config.dataset_path.split(":", 1)[1]
            n = int(value) if value.isdecimal() else 0
            if n < 4 or n % 4 != 0:
                raise ValueError(
                    f"mock:<N> needs N to be a positive multiple of 4, got {value!r}")
            corpus = mock_original_corpus(n // 4, seed=config.seed)
        else:
            corpus = load_agnews(config.dataset_path)
    with stage("split"):
        return sample_split(corpus, config.n_train, config.n_test, seed=config.seed)


def _make_client(config: ExperimentConfig):
    """The configured backend client. The http backend's is announced on
    stderr, because it sends original-data text to the endpoint."""
    if config.backend.kind == "http":
        print(
            "note: the http backend sends original-data text (demonstrations "
            "and/or queries) to the configured endpoint",
            file=sys.stderr,
        )
    return make_backend(
        config.backend,
        cache_dir=config.cache_dir,
        cache_enabled=config.cache_enabled,
    )


def _load_synthetic(path: str | Path) -> tuple[Corpus, BudgetLedger, dict]:
    """A synthetic corpus, the budget spent producing it, and the manifest
    notes on where it came from.

    The budget is read from manifest_generate.json next to the file, when
    that manifest's synthetic output has the file's name. Otherwise the
    ledger is empty and the notes flag the provenance as unknown; a
    manifest that cannot be read as outputs and a ledger raises.
    """
    with stage("load-synthetic"):
        corpus = load_agnews(path)
        sibling = Path(path).parent / "manifest_generate.json"
        known = False
        ledger = BudgetLedger()
        if sibling.exists():
            data = json.loads(sibling.read_text(encoding="utf-8"))
            try:
                known = Path(data["outputs"]["synthetic"]).name == Path(path).name
                if known:
                    ledger = BudgetLedger.from_json_dict(data["budget_ledger"])
            except KeyError as exc:
                raise ValueError(f"{sibling} has no key {exc.args[0]!r}") from None
    notes = {"synthetic_file": str(path), "synthetic_provenance_known": known}
    return corpus, ledger, notes


# ---------------------------------------------------------------- release

def _synthesize(config: ExperimentConfig, train: Corpus, client, seed: int,
                *labels) -> tuple[Corpus, TokenHistogram]:
    """Generate a raw synthetic corpus and count its true histogram.

    The generation stream is ``subseed(seed, "generation", *labels)``."""
    with stage("generate-records"):
        raw = run_generation(train, client, config.gen, subseed(seed, "generation", *labels),
                             workers=config.backend.max_concurrent)
    with stage("histogram"):
        return raw, build_histogram(raw, config.vocab_limit)


def _release(config: ExperimentConfig, raw: Corpus, hist: TokenHistogram,
             requested: float, seed: int, *labels) -> tuple[Corpus, TokenHistogram]:
    """Noise ``hist`` at the requested epsilon and reconcile ``raw`` to it.

    Returns the reconciled corpus and the released histogram, whose
    ``params`` are what the caller charges to its ledger. The noise and
    reconcile streams are ``sub_rng(seed, "<stage>", *labels)``."""
    with stage("dp-noise"):
        params = config.privacy_for(config.resolve_epsilon(requested)[0])
        noisy = perturb_histogram(hist, params, DEFAULT_SENSITIVITY,
                                  sub_rng(seed, "dp-noise", *labels))
    with stage("reconcile"):
        synthetic = reconcile_corpus(raw, noisy, sub_rng(seed, "reconcile", *labels))
    return synthetic, noisy


# ---------------------------------------------------------------- generate

def cmd_generate(config: ExperimentConfig) -> dict:
    """Produce a reconciled synthetic corpus under one epsilon release."""
    started_at = _utc_now()
    with stage("config"):
        config.check_calibration((config.epsilon,))
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    train, _test = _load_original(config)

    with stage("generate-records"):
        client = _make_client(config)
    raw, hist = _synthesize(config, train, client, config.seed)
    eps_used, floored = config.resolve_epsilon(config.epsilon)
    if floored:
        print(
            f"note: epsilon 0 has no finite calibration; running at the "
            f"surrogate floor {EPSILON_FLOOR} (flagged in the manifest)",
            file=sys.stderr,
        )
    synthetic, noisy = _release(config, raw, hist, config.epsilon, config.seed)
    ledger = charge(BudgetLedger(), f"release-eps{config.epsilon}", noisy.params)

    with stage("write-output"):
        manifest = _write_outputs(
            "generate", config, started_at,
            {"synthetic": ("synthetic.jsonl", lambda p: save_jsonl(synthetic, p)),
             "noisy_histogram": ("histogram_noisy.json", _json(noisy.to_json_dict()))},
            ledger, client.stats,
            {"epsilon_requested": config.epsilon, "epsilon_used": eps_used,
             "epsilon_floored": floored, "n_records": len(synthetic.records)})

    print(f"wrote {len(synthetic.records)} synthetic records to {out_dir / 'synthetic.jsonl'}")
    print(f"manifest: {out_dir / 'manifest_generate.json'}")
    return manifest


# ---------------------------------------------------------------- evaluate

def _fit(name: str, corpus: Corpus, seed: int = 0):
    """TF-IDF features and the MNB or SVM LinearModel fitted on one corpus,
    as ``(features, model)``. Only the SVM reads ``seed``."""
    features = fit_tfidf(corpus)
    if name == "mnb":
        return features, train_mnb(corpus, features)
    return features, train_svm(corpus, features, seed=seed)


def _score(name: str, corpus: Corpus, test: Corpus, seed: int, source: str,
           fingerprint: str = "") -> EvalReport:
    """Fit ``name`` on ``corpus`` and score it on ``test``. The training
    stream is ``subseed(seed, "train", name, source)``."""
    features, model = _fit(name, corpus, subseed(seed, "train", name, source))
    return evaluate(predict(model, transform_corpus(features, test)), test, model_tag=name,
                    train_source=source, config_fingerprint=fingerprint)


def _icl_reports(
    config: ExperimentConfig,
    client,
    train: Corpus,
    synthetic: Corpus,
    test: Corpus,
    fingerprint: str,
) -> dict[str, tuple[EvalReport, EvalReport]]:
    """One row per shot count, keyed ``"{shots}-shot"``: the reports with
    original and with synthetic demos. Each run's stream is
    ``subseed(config.seed, "icl", shots, source)``; 0-shot has no demos, so
    one run, whose stream has no source, fills both columns and counts its
    unparseable answers once."""
    workers = config.backend.max_concurrent
    rows = {}
    for shots in config.icl_shots:
        if shots == 0:
            rep = icl_evaluate(0, train, test, client=client,
                               seed=subseed(config.seed, "icl", 0), workers=workers,
                               config_fingerprint=fingerprint)
            rows["0-shot"] = (rep, dataclasses.replace(rep, train_source="Synthetic",
                                                       n_unparseable=0))
            continue
        rows[f"{shots}-shot"] = tuple(
            icl_evaluate(shots, demo_corpus, test, client=client,
                         seed=subseed(config.seed, "icl", shots, source),
                         workers=workers, demo_source=source, config_fingerprint=fingerprint)
            for source, demo_corpus in (("Original", train), ("Synthetic", synthetic)))
    return rows


def cmd_evaluate(config: ExperimentConfig, synthetic_file: str | Path) -> dict:
    """Train requested models on original and synthetic data, score both on
    the same held-out original test split."""
    started_at = _utc_now()
    with stage("config"):
        if not config.models:
            raise ValueError("evaluation needs at least one of mnb, svm, icl")
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    train, test = _load_original(config)
    synthetic, ledger, notes = _load_synthetic(synthetic_file)

    fp = config.fingerprint()
    classifiers: dict[str, tuple[EvalReport, EvalReport]] = {}
    icl: dict[str, tuple[EvalReport, EvalReport]] = {}
    client = None
    for name in config.models:
        if name == "icl":
            continue
        with stage(f"train-{name}"):
            classifiers[name] = tuple(
                _score(name, corpus, test, config.seed, source, fp)
                for source, corpus in (("Original", train), ("Synthetic", synthetic)))
    if "icl" in config.models:
        with stage("icl"):
            client = _make_client(config)
            icl = _icl_reports(config, client, train, synthetic, test, fp)

    with stage("report"):
        sections = []
        if classifiers:
            sections.append(render_accuracy_table(classifiers, "Method", "Data"))
        if icl:
            sections.append(render_accuracy_table(icl, "Shots", "Demos"))
        unparsed = sum(r.n_unparseable for row in icl.values() for r in row)
        if unparsed:
            sections.append(f"Unparseable responses (scored incorrect): {unparsed}")
        markdown = "\n\n".join(sections) + "\n"

        reports = [r for rows in (classifiers, icl) for row in rows.values() for r in row]
        manifest = _write_outputs(
            "evaluate", config, started_at,
            {"reports_json": ("evaluation.json",
                              _json([r.to_json_dict() for r in reports], sort_keys=False)),
             "reports_markdown": ("evaluation.md",
                                  lambda p: p.write_text(markdown, encoding="utf-8"))},
            ledger, client.stats if client is not None else {}, notes)

    print(markdown, end="")
    print(f"manifest: {out_dir / 'manifest_evaluate.json'}")
    return manifest


# ---------------------------------------------------------------- sweep

def cmd_sweep(config: ExperimentConfig) -> dict:
    """Accuracy across the epsilon list, optionally averaged over seeds.

    Per seed, one base corpus is generated and every epsilon re-noises the
    same histogram, so row differences isolate the privacy level.
    """
    started_at = _utc_now()
    with stage("config"):
        if len(config.epsilons) < 2:
            raise ValueError("a sweep needs at least two epsilon values")
        if len(set(config.epsilons)) < len(config.epsilons):
            raise ValueError(f"a sweep cannot take repeated epsilon values: {config.epsilons}")
        if not config.models:
            raise ValueError("sweep needs at least one of mnb, svm, icl")
        config.check_calibration(config.epsilons)
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    train, test = _load_original(config)

    with stage("generate-records"):
        client = _make_client(config)
    ledger = BudgetLedger()
    # accuracies[(model, requested_eps)] -> one value per seed
    accuracies: dict[tuple[str, float], list[float]] = {}

    for rep in range(config.sweep_seeds):
        rep_seed = config.seed + rep
        raw, hist = _synthesize(config, train, client, rep_seed)

        for requested in config.epsilons:
            synthetic, noisy = _release(config, raw, hist, requested, rep_seed,
                                        repr(requested))
            ledger = charge(ledger, f"seed{rep_seed}-eps{requested}", noisy.params)

            for name in config.models:
                with stage(f"evaluate-{name}"):
                    if name == "icl":
                        shots = max(config.icl_shots)
                        report = icl_evaluate(
                            shots, synthetic, test, client=client,
                            seed=subseed(rep_seed, "icl", shots, "Synthetic"),
                            workers=config.backend.max_concurrent, demo_source="Synthetic")
                    else:
                        report = _score(name, synthetic, test, rep_seed, "Synthetic")
                accuracies.setdefault((name, requested), []).append(report.accuracy)
            del synthetic  # with its cached count matrix, before the next release

    with stage("report"):
        rows = []
        for requested in config.epsilons:
            eps_used, floored = config.resolve_epsilon(requested)
            for name in config.models:
                vals = accuracies[(name, requested)]
                mean = float(np.mean(vals))
                sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                rows.append({
                    "model": name,
                    "epsilon_requested": requested,
                    "epsilon_used": eps_used,
                    "floored": floored,
                    "accuracies": vals,
                    "accuracy_mean": mean,
                    "accuracy_sd": sd,
                    "n_seeds": len(vals),
                })
        markdown = render_sweep_table(rows) + "\n"

        manifest = _write_outputs(
            "sweep", config, started_at,
            {"sweep_json": ("sweep.json", _json(rows, sort_keys=False)),
             "sweep_markdown": ("sweep.md", lambda p: p.write_text(markdown, encoding="utf-8"))},
            ledger, client.stats, {"n_seeds": config.sweep_seeds})

    print(markdown, end="")
    print(f"manifest: {out_dir / 'manifest_sweep.json'}")
    return manifest


# ---------------------------------------------------------------- audit

def cmd_audit(config: ExperimentConfig, synthetic_file: str | Path) -> dict:
    """Membership-inference advantage, original-trained vs synthetic-trained.

    Members are the original training records, non-members the held-out
    test records. Both attacks score the same member/non-member samples.
    """
    started_at = _utc_now()
    with stage("config"):
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    train, test = _load_original(config)
    synthetic, ledger, notes = _load_synthetic(synthetic_file)

    with stage("train-models"):
        features_orig, model_orig = _fit("mnb", train)
        features_synth, model_synth = _fit("mnb", synthetic)

    with stage("mia"):
        mia_seed = subseed(config.seed, "mia")
        m0, n0 = collect_confidences(model_orig, features_orig, train, test,
                                     seed=mia_seed)
        baseline = threshold_attack(m0, n0)
        m1, n1 = collect_confidences(model_synth, features_synth, train, test,
                                     seed=mia_seed)
        private = threshold_attack(m1, n1)
        report = compare_leakage(baseline, private)

    with stage("report"):
        manifest = _write_outputs(
            "audit", config, started_at,
            {"audit_json": ("audit.json", _json(report.to_json_dict()))},
            ledger, {}, notes)

    print(f"baseline advantage {baseline.advantage:.4f} (auc {baseline.auc:.4f}); "
          f"synthetic advantage {private.advantage:.4f} (auc {private.auc:.4f})")
    print(f"verdict: {report.verdict} (delta {report.delta:+.4f})")
    print(f"manifest: {out_dir / 'manifest_audit.json'}")
    return manifest


# ---------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    """The four subcommands. Each flag's dest is the config key it sets,
    dotted inside ``backend`` or ``gen``; a flag left off sets nothing."""
    parser = argparse.ArgumentParser(
        prog="dpsynth",
        description="Privacy-preserving synthetic news text: generate, evaluate, sweep, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, text in (("generate", "produce a noised synthetic corpus"),
                           ("evaluate", "score models on original vs synthetic"),
                           ("sweep", "accuracy across epsilon values"),
                           ("audit", "membership-inference comparison"))
    }

    def flag(names: str, *args, **kwargs) -> None:
        for name in names.split():
            commands[name].add_argument(*args, **kwargs)

    every = " ".join(commands)
    flag(every, "--config", help="JSON config file")
    flag(every, "--seed", type=int)
    flag(every, "--backend", choices=["mock", "http"], dest="backend.kind")
    flag(every, "--endpoint", dest="backend.endpoint_url", help="http backend endpoint URL")
    flag(every, "--model", dest="backend.model_name", help="http backend model name")
    flag(every, "--epsilon", type=float)
    flag(every, "--mechanism", choices=["laplace", "gaussian"])
    flag(every, "--delta", type=float)
    flag(every, "--out", dest="output_dir", help="output directory")
    flag(every, "--dataset", dest="dataset_path", help="AGNews file path or mock:<N>")
    flag(every, "--n-train", type=int)
    flag(every, "--n-test", type=int)
    flag(every, "--vocab-limit", type=int)
    flag(every, "--no-cache", action="store_false", dest="cache_enabled")
    flag(every, "--cache-dir")
    flag("generate sweep", "--total-records", type=int, dest="gen.total_records")
    flag("generate sweep", "--batch-size", type=int, dest="gen.batch_size")
    flag("generate", "--num-shots", type=int, dest="gen.num_shots")
    flag("evaluate audit", "--synthetic", required=True, help="synthetic JSONL file")
    flag("evaluate sweep", "--models", help="comma list from mnb,svm,icl")
    flag("evaluate", "--icl-shots", help="comma list from 0,2,4")
    flag("sweep", "--epsilons", help="comma list, e.g. 0,0.5,1,10")
    flag("sweep", "--sweep-seeds", type=int)
    return parser


def _list_items(key: str, value: str, item: type) -> tuple:
    """A comma-list flag's items, each read as ``item``; blank items are
    skipped. A malformed item is named with its flag."""
    items = []
    for text in filter(None, map(str.strip, value.split(","))):
        try:
            items.append(item(text))
        except ValueError:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag}: item {text!r} is not a valid {item.__name__}") from None
    return tuple(items)


def _overrides_from_args(args: dict) -> dict:
    """Config overrides from the flags given, keyed as the config file is.
    A comma-list flag sets a ``tuple[<item>, ...]`` config key, and its
    items are read as that key's item type."""
    hints = typing.get_type_hints(ExperimentConfig)
    over: dict = {}
    for key, value in args.items():
        if typing.get_origin(hints.get(key)) is tuple:
            value = _list_items(key, value, typing.get_args(hints[key])[0])
        section, _, name = key.rpartition(".")
        (over.setdefault(section, {}) if section else over)[name] = value
    return over


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, config_path = args.pop("command"), args.pop("config", None)
    synthetic = args.pop("synthetic", None)
    try:
        with stage("config"):
            config = load_config(config_path, _overrides_from_args(args))
        if command == "generate":
            cmd_generate(config)
        elif command == "evaluate":
            cmd_evaluate(config, synthetic)
        elif command == "sweep":
            cmd_sweep(config)
        else:
            cmd_audit(config, synthetic)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
