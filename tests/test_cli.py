"""Command-line surface: config handling, the four subcommands on the mock
backend, manifest contents, HTTP replay, and failure modes."""
from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import dpsynth.cli as cli_module
import dpsynth.corpus as corpus_module
from dpsynth.cli import (
    ExperimentConfig,
    build_parser,
    cmd_audit,
    cmd_evaluate,
    cmd_generate,
    cmd_sweep,
    load_config,
    StageError,
    main,
    stage,
)
from dpsynth.corpus import LABELS, Corpus
from dpsynth.dp import (
    Mechanism,
    PrivacyParams,
    SensitivityBound,
    noise_scale,
    sample_gaussian,
    sample_laplace,
)
from dpsynth.rngutil import sub_rng
from dpsynth.synth.backends import MockClient
from dpsynth.synth.prompts import CLASSIFICATION_HEAD


def write_config(tmp_path: Path, name: str = "config.json", **extra) -> Path:
    base = {
        "dataset_path": "mock:32",
        "n_train": 24,
        "n_test": 8,
        "vocab_limit": 30,
        "epsilon": 1.0,
        "seed": 11,
        "gen": {"total_records": 16, "batch_size": 8},
        "output_dir": str(tmp_path / "out"),
    }
    base.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- config


class TestExperimentConfig:
    def test_fingerprint_is_stable_and_field_sensitive(self):
        config = ExperimentConfig()
        assert re.fullmatch(r"[0-9a-f]{64}", config.fingerprint())
        assert config.fingerprint() == ExperimentConfig().fingerprint()
        for change in (
            {"epsilon": 2.0},
            {"seed": 43},
            {"vocab_limit": 400},
            {"mechanism": "gaussian"},
            {"models": ("mnb",)},
            {"gen": dataclasses.replace(config.gen, total_records=44)},
            {"backend": dataclasses.replace(config.backend, model_name="other")},
        ):
            assert dataclasses.replace(config, **change).fingerprint() != config.fingerprint()
        # Pinned: how the config is serialised must not move the identity of
        # an existing run.
        assert config.fingerprint() == (
            "97bb6d0f82658406d51605965a3a883d72749d8a0b587504ac91148f707bd6b5")
        # Every identity field, nested ones included, must move the
        # fingerprint; a new field fails here until it is given a value.
        http = {"kind": "http", "endpoint_url": "http://localhost:1/v1", "model_name": "m"}
        changed = {
            "dataset_path": "mock:8", "n_train": 400, "n_test": 100, "epsilon": 2.0,
            "epsilons": (1.0, 2.0), "mechanism": "gaussian", "delta": 1e-6,
            "vocab_limit": 400, "models": ("mnb",), "icl_shots": (0,), "seed": 43,
            "sweep_seeds": 2, "gen.temperature": 0.9, "gen.top_p": 0.9,
            "gen.num_shots": 2, "gen.batch_size": 8, "gen.total_records": 44,
            "backend.kind": http,
            "backend.endpoint_url": "http://localhost:1/v1", "backend.model_name": "m",
            "backend.auth_env_var": "KEY", "backend.max_concurrent": 2,
            "backend.retry_limit": 1,
        }
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in ExperimentConfig._NON_IDENTITY_FIELDS:
                continue
            nested = getattr(config, f.name)
            if not dataclasses.is_dataclass(nested):
                variants = {f.name: {f.name: changed[f.name]}}
            else:
                variants = {}
                for g in dataclasses.fields(nested):
                    value = changed[f"{f.name}.{g.name}"]
                    sub = value if isinstance(value, dict) else {g.name: value}
                    variants[f"{f.name}.{g.name}"] = {
                        f.name: dataclasses.replace(nested, **sub)}
            for name, change in variants.items():
                moved = dataclasses.replace(config, **change)
                assert moved.fingerprint() != config.fingerprint(), name

    def test_fingerprint_ignores_output_locations(self):
        # where results land must not change what the run is
        a = ExperimentConfig(output_dir="runs/a").fingerprint()
        b = ExperimentConfig(output_dir="runs/b").fingerprint()
        assert a == b

    def test_models_are_deduped_in_order(self):
        config = ExperimentConfig(models=("svm", "mnb", "svm"))
        assert config.models == ("svm", "mnb")
        with pytest.raises(ValueError):
            ExperimentConfig(models=("mnb", "forest"))

    def test_icl_shots_sorted_and_validated(self):
        assert ExperimentConfig(icl_shots=(4, 0, 4)).icl_shots == (0, 4)
        with pytest.raises(ValueError):
            ExperimentConfig(icl_shots=(3,))

    def test_icl_needs_shot_counts(self):
        with pytest.raises(ValueError, match="icl_shots"):
            ExperimentConfig(models=("mnb", "icl"), icl_shots=())
        assert ExperimentConfig(models=("mnb",), icl_shots=()).icl_shots == ()

    def test_empty_cache_dir_is_rejected(self):
        # An empty path would put the cache files in the working directory.
        with pytest.raises(ValueError, match="cache_dir"):
            ExperimentConfig(cache_dir="")

    def test_epsilon_floor_resolution(self):
        config = ExperimentConfig()
        assert config.resolve_epsilon(0.0) == (0.05, True)
        assert config.resolve_epsilon(1.0) == (1.0, False)
        assert config.resolve_epsilon(0.5) == (0.5, False)

    def test_privacy_params_per_mechanism(self):
        laplace = ExperimentConfig(mechanism="laplace", delta=1e-5).privacy_for(1.0)
        assert laplace.mechanism is Mechanism.LAPLACE
        assert laplace.delta == 0.0  # pure epsilon-DP accounting
        gauss = ExperimentConfig(mechanism="gaussian", delta=1e-5).privacy_for(1.0)
        assert gauss.mechanism is Mechanism.GAUSSIAN
        assert gauss.delta == 1e-5


class TestLoadConfig:
    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = write_config(tmp_path, epsilon=2.0, seed=7)
        config = load_config(str(path), {"epsilon": 5.0})
        assert config.epsilon == 5.0
        assert config.seed == 7

    def test_nested_sections_merge(self, tmp_path):
        path = write_config(tmp_path, backend={"model_name": "m-file"})
        config = load_config(str(path), {"backend": {"kind": "mock"},
                                         "gen": {"batch_size": 4}})
        assert config.backend.model_name == "m-file"
        assert config.backend.kind == "mock"
        assert config.gen.batch_size == 4
        assert config.gen.total_records == 16  # from the file

    def test_unknown_keys_are_rejected(self, tmp_path):
        path = write_config(tmp_path, typo_field=1)
        with pytest.raises(ValueError, match="typo_field"):
            load_config(str(path), {})

    def test_removed_svm_epochs_key_is_rejected(self, tmp_path):
        path = write_config(tmp_path, svm_epochs=10)
        with pytest.raises(ValueError, match="unknown config key.*svm_epochs"):
            load_config(str(path), {})

    @pytest.mark.parametrize("key, value", [
        ("dataset_format", "csv"), ("sensitivity_l1", 100.0), ("sensitivity_l2", 10.0),
        ("epsilon_floor", 0.1), ("fresh_generation_per_epsilon", True), ("mnb_alpha", 0.5),
        ("svm_c_grid", [1.0]), ("svm_val_fraction", 0.2),
    ])
    def test_removed_keys_fail_in_the_config_stage(self, tmp_path, capsys, key, value):
        # Each of these is a constant of the module that owns it, not a key.
        path = write_config(tmp_path, **{key: value})
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'config': unknown config key(s): {key}")
        assert not (tmp_path / "out").exists()

    def test_gen_seed_cannot_be_set_directly(self, tmp_path):
        path = write_config(tmp_path, gen={"total_records": 16, "seed": 9})
        with pytest.raises(ValueError, match=r"unknown config key\(s\): gen.seed"):
            load_config(str(path), {})

    @pytest.mark.parametrize("section, key", [
        ("gen", "seed"), ("gen", "temprature"), ("backend", "retries"),
        ("gen", "max_tokens"), ("gen", "max_calls"),
    ])
    def test_unknown_nested_keys_fail_in_the_config_stage(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, **{section: {key: 0.5}})
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: stage 'config': unknown config key(s): {section}.{key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"seed": "42"}, "seed must be int, got '42'"),
        ({"seed": True}, "seed must be int, got True"),
        ({"cache_enabled": "no"}, "cache_enabled must be bool, got 'no'"),
        ({"epsilon": "1"}, "epsilon must be float, got '1'"),
        ({"dataset_path": 32}, "dataset_path must be str, got 32"),
        ({"gen": {"batch_size": 8.0}}, "gen.batch_size must be int, got 8.0"),
        ({"gen": {"temperature": False}}, "gen.temperature must be float, got False"),
        ({"backend": {"retry_limit": "3"}}, "backend.retry_limit must be int, got '3'"),
        ({"models": "mnb"}, "models must be a list of str, got 'mnb'"),
        ({"icl_shots": 4}, "icl_shots must be a list of int, got 4"),
        ({"epsilons": "0,1"}, "epsilons must be a list of float, got '0,1'"),
        ({"icl_shots": [False, 2]}, "icl_shots must be a list of int, got [False, 2]"),
    ])
    def test_values_of_the_wrong_type_fail_in_the_config_stage(
            self, tmp_path, capsys, extra, message):
        path = write_config(tmp_path, **extra)
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: stage 'config': config key {message}\n"
        assert not (tmp_path / "out").exists()

    def test_an_int_is_read_as_a_float(self, tmp_path):
        as_int = load_config(str(write_config(tmp_path, epsilon=2, gen={"top_p": 1})), {})
        assert type(as_int.epsilon) is float and type(as_int.gen.top_p) is float
        as_float = load_config(str(write_config(tmp_path, epsilon=2.0,
                                                gen={"top_p": 1.0})), {})
        assert as_int.fingerprint() == as_float.fingerprint()

    def test_lists_become_tuples(self, tmp_path):
        path = write_config(tmp_path, epsilons=[0.5, 1], models=["mnb"])
        config = load_config(str(path), {})
        assert config.epsilons == (0.5, 1.0)
        assert config.models == ("mnb",)

    def test_no_file_uses_defaults_plus_overrides(self):
        config = load_config(None, {"seed": 99})
        assert config.seed == 99
        assert config.epsilon == ExperimentConfig().epsilon

    @pytest.mark.parametrize("section, value, argv", [
        ("backend", "http", []),
        ("backend", None, []),
        ("backend", 5, []),
        ("backend", "http", ["--backend", "mock"]),
        ("gen", [1], []),
        ("gen", None, ["--batch-size", "4"]),
    ])
    def test_sections_that_are_not_objects_fail_in_the_config_stage(
            self, tmp_path, capsys, section, value, argv):
        path = write_config(tmp_path, **{section: value})
        assert main(["generate", "--config", str(path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'config':")
        assert f"{section!r} must be a JSON object" in err


def _doc_section(name: str, heading: str | None = None) -> str:
    """A repo document, or the part of it under one ``## `` heading."""
    import dpsynth

    text = (Path(dpsynth.__file__).resolve().parents[2] / name).read_text(encoding="utf-8")
    return text.split(f"\n## {heading}", 1)[1].split("\n## ")[0] if heading else text


def _json_blocks(text: str) -> list[str]:
    return re.findall(r"```json\n(.*?)```", text, re.DOTALL)


def test_formats_doc_lists_exactly_the_config_keys():
    # The key tables in docs/formats.md are the config file's schema: a key
    # added to, dropped from or renamed in ExperimentConfig must show there.
    section = _doc_section("docs/formats.md", "Config file")
    documented = {name for line in section.splitlines() if line.startswith("| `")
                  for name in re.findall(r"`([^`]+)`", line.split("|")[1])}
    config = ExperimentConfig()
    keys = set()
    for f in dataclasses.fields(config):
        nested = getattr(config, f.name)
        if dataclasses.is_dataclass(nested):
            keys |= {f"{f.name}.{g.name}" for g in dataclasses.fields(nested)}
        else:
            keys.add(f.name)
    assert documented == keys


def test_documented_config_files_load(tmp_path):
    # A config shown in the docs is one a reader will copy: it must load.
    blocks = (_json_blocks(_doc_section("README.md", "Configuration"))
              + _json_blocks(_doc_section("docs/http-backend.md")))
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"doc{i}.json"
        path.write_text(block, encoding="utf-8")
        load_config(str(path), {})


def test_formats_doc_shows_exactly_the_request_fields():
    from dpsynth.synth.backends import BackendSpec, HttpClient

    blocks = _json_blocks(_doc_section("docs/formats.md", "HTTP backend wire format"))
    sent = []

    def transport(url, headers, body):
        sent.append(body)
        return 200, json.dumps({"choices": [{"message": {"content": "x"}}]})

    spec = BackendSpec(kind="http", endpoint_url="http://unit.test/v1", model_name="m")
    HttpClient(spec, transport=transport).complete(
        "p", temperature=0.7, top_p=1.0, max_tokens=200, seed=1)
    assert set(json.loads(blocks[0])) == set(sent[0])


# Every flag of every subcommand: the config key it sets and the value that
# key then holds. FLAG_FILE gives each of these keys another value.
ALL_COMMANDS = "generate evaluate sweep audit"
FLAG_TABLE = [
    (ALL_COMMANDS, ["--seed", "7"], "seed", 7),
    ("generate evaluate sweep", ["--backend", "mock"], "backend.kind", "mock"),
    ("generate evaluate sweep", ["--endpoint", "http://flag/v1"],
     "backend.endpoint_url", "http://flag/v1"),
    ("generate evaluate sweep", ["--model", "flag-model"], "backend.model_name", "flag-model"),
    ("generate", ["--epsilon", "2.5"], "epsilon", 2.5),
    ("generate sweep", ["--mechanism", "laplace"], "mechanism", "laplace"),
    ("generate sweep", ["--delta", "1e-6"], "delta", 1e-6),
    (ALL_COMMANDS, ["--out", "flag-out"], "output_dir", "flag-out"),
    (ALL_COMMANDS, ["--dataset", "mock:8"], "dataset_path", "mock:8"),
    (ALL_COMMANDS, ["--n-train", "40"], "n_train", 40),
    (ALL_COMMANDS, ["--n-test", "12"], "n_test", 12),
    ("generate sweep", ["--vocab-limit", "99"], "vocab_limit", 99),
    (ALL_COMMANDS, ["--no-cache"], "cache_enabled", False),
    (ALL_COMMANDS, ["--cache-dir", "flag-cache"], "cache_dir", "flag-cache"),
    ("generate sweep", ["--total-records", "44"], "gen.total_records", 44),
    ("generate sweep", ["--batch-size", "3"], "gen.batch_size", 3),
    ("generate", ["--num-shots", "2"], "gen.num_shots", 2),
    ("evaluate sweep", ["--models", "svm, icl"], "models", ("svm", "icl")),
    ("evaluate", ["--icl-shots", "4,0"], "icl_shots", (0, 4)),
    ("sweep", ["--epsilons", "0.5,2"], "epsilons", (0.5, 2.0)),
    ("sweep", ["--sweep-seeds", "3"], "sweep_seeds", 3),
]
FLAG_FILE = {
    "seed": 5, "epsilon": 3.0, "mechanism": "gaussian", "delta": 1e-4,
    "output_dir": "file-out", "dataset_path": "mock:16", "n_train": 20, "n_test": 10,
    "vocab_limit": 50, "cache_enabled": True, "cache_dir": "file-cache",
    "backend": {"kind": "http", "endpoint_url": "http://file/v1", "model_name": "file-model"},
    "gen": {"total_records": 20, "batch_size": 5, "num_shots": 3},
    "models": ["mnb"], "icl_shots": [2], "epsilons": [1.0, 4.0], "sweep_seeds": 2,
}


class TestFlags:
    @staticmethod
    def parsed(tmp_path, monkeypatch, command, argv):
        """(config the command receives, config from FLAG_FILE alone)."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FLAG_FILE), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli_module, f"cmd_{command}", lambda *args: calls.append(args))
        inputs = ["--synthetic", "s.jsonl"] if command in ("evaluate", "audit") else []
        assert main([command, "--config", str(path), *inputs, *argv]) == 0
        (args,) = calls
        assert args[1:] == (("s.jsonl",) if inputs else ())
        return args[0], load_config(str(path), {})

    @pytest.mark.parametrize("command, argv, key, value", [
        pytest.param(command, argv, key, value, id=f"{command}{argv[0]}")
        for commands, argv, key, value in FLAG_TABLE for command in commands.split()
    ])
    def test_flag_sets_its_config_key(self, tmp_path, monkeypatch, command, argv, key, value):
        config, from_file = self.parsed(tmp_path, monkeypatch, command, argv)
        section, _, name = key.rpartition(".")
        if section:
            change = {section: dataclasses.replace(getattr(from_file, section), **{name: value})}
        else:
            change = {name: value}
        assert config == dataclasses.replace(from_file, **change)

    @pytest.mark.parametrize("command", ALL_COMMANDS.split())
    def test_omitted_flags_leave_the_file_values(self, tmp_path, monkeypatch, command):
        config, from_file = self.parsed(tmp_path, monkeypatch, command, [])
        assert config == from_file
        defaults = ExperimentConfig()
        for key in set(FLAG_FILE) - {"cache_enabled"}:
            assert getattr(from_file, key) != getattr(defaults, key), key

    def test_table_lists_every_flag(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(ALL_COMMANDS.split())
        for command, parser in subparsers.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings}
            table = {argv[0] for commands, argv, _, _ in FLAG_TABLE
                     if command in commands.split()}
            assert flags - {"-h", "--help", "--config", "--synthetic"} == table, command


class TestStage:
    def test_wraps_exceptions_with_stage_name(self):
        with pytest.raises(StageError) as err:
            with stage("load-dataset"):
                raise ValueError("file is empty")
        assert str(err.value) == "stage 'load-dataset': file is empty"

    def test_does_not_rewrap_stage_errors(self):
        inner = StageError("inner", ValueError("x"))
        with pytest.raises(StageError) as err:
            with stage("outer"):
                raise inner
        assert err.value is inner


def test_cli_import_leaves_scipy_stats_and_special_unloaded():
    # Every command pays for what dpsynth.cli imports at start-up; none of
    # these heavy scipy packages is needed by any command.
    import dpsynth

    src = str(Path(dpsynth.__file__).resolve().parents[1])
    heavy = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.linalg",
             "scipy.sparse.linalg")
    code = (
        "import sys, dpsynth.cli\n"
        f"heavy = {heavy!r}\n"
        "print(sorted(m for m in sys.modules"
        " if any(m == h or m.startswith(h + '.') for h in heavy)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scipy_and_requests_load_only_for_the_commands_that_use_them(tmp_path):
    # Start-up, a mock generate, the audit and the MNB and ICL evaluations
    # and sweeps train no SVM and send no HTTP request, so they must not pay
    # to import scipy, requests or the standard library's HTTP client. SVM
    # training loads scipy.sparse itself, and every command writes the same
    # bytes as a process that had those modules loaded from the start.
    import dpsynth

    src = str(Path(dpsynth.__file__).resolve().parents[1])
    config = write_config(tmp_path)
    synthetic = str(tmp_path / "lazy" / "generate" / "synthetic.jsonl")
    commands = {
        "generate": ["generate"],
        "evaluate-icl": ["evaluate", "--synthetic", synthetic, "--models", "icl",
                         "--icl-shots", "0"],
        "evaluate-mnb": ["evaluate", "--synthetic", synthetic, "--models", "mnb"],
        "sweep-mnb": ["sweep", "--models", "mnb", "--epsilons", "0,1"],
        "audit": ["audit", "--synthetic", synthetic],
        "evaluate-svm": ["evaluate", "--synthetic", synthetic, "--models", "svm"],
    }

    def argv(root: str) -> dict[str, list[str]]:
        return {name: [*args, "--config", str(config), "--out", str(tmp_path / root / name)]
                for name, args in commands.items()}

    code = (
        "import json, sys\n"
        "import dpsynth, dpsynth.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests')\n"
        "                  or m in ('urllib.request', 'http.client'))\n"
        "seen = {'import': loaded()}\n"
        f"for name, argv in {argv('lazy')!r}.items():\n"
        "    assert dpsynth.cli.main(argv) == 0, name\n"
        "    seen[name] = loaded()\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    for name in ("import", "generate", "evaluate-icl", "evaluate-mnb", "sweep-mnb", "audit"):
        assert seen[name] == [], name
    assert "scipy.sparse" in seen["evaluate-svm"]
    assert not any(m.startswith("requests") for loaded in seen.values() for m in loaded)

    # The same commands in a process that has those modules loaded already.
    import http.client  # noqa: F401
    import urllib.request  # noqa: F401

    import scipy.sparse  # noqa: F401

    for args in argv("eager").values():
        assert main(args) == 0
    for artifact in ("generate/synthetic.jsonl", "generate/histogram_noisy.json",
                     "evaluate-icl/evaluation.json", "evaluate-mnb/evaluation.json",
                     "sweep-mnb/sweep.json", "audit/audit.json",
                     "evaluate-svm/evaluation.json", "evaluate-svm/evaluation.md"):
        lazy = (tmp_path / "lazy" / artifact).read_bytes()
        assert lazy == (tmp_path / "eager" / artifact).read_bytes(), artifact


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py replaces functions at the names their callers look
    # up; renaming or dropping one of those names breaks traced benchmark runs.
    import dpsynth

    src = Path(dpsynth.__file__).resolve().parents[1]
    perfbench = src.parent / "perfbench"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def test_traced_generate_writes_the_untraced_outputs(tmp_path):
    # The tracer also reads what the wrapped calls take and return (the
    # histogram behind each draw, the corpus before reconciliation); a
    # re-shaped argument or result fails the traced run, drops its counts
    # or changes its outputs.
    import dpsynth

    src = Path(dpsynth.__file__).resolve().parents[1]
    tracer = src.parent / "perfbench" / "tracer.py"
    configs = {
        name: write_config(tmp_path, f"{name}.json", dataset_path="mock:96", n_train=48,
                           n_test=48, gen={"total_records": 32, "batch_size": 8},
                           output_dir=str(tmp_path / name))
        for name in ("plain", "traced")
    }
    assert main(["generate", "--config", str(configs["plain"])]) == 0
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, str(tracer), str(trace), "generate",
                          "--config", str(configs["traced"])],
                         env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for artifact in ("synthetic.jsonl", "histogram_noisy.json"):
        traced = (tmp_path / "traced" / artifact).read_bytes()
        assert traced == (tmp_path / "plain" / artifact).read_bytes(), artifact
    counts = read_json(trace)["counts"]
    assert "dp.cells_clamped" in counts
    assert "synth.reconcile.insertions" in counts


def test_each_command_runs_its_stages_in_order(tmp_path, monkeypatch):
    # The benchmark reports one cli.stage.<name>_s metric per name in
    # perfbench/run.py's STAGES; a stage renamed, dropped or moved when
    # command code is restructured would silently empty or shift them.
    import dpsynth

    run_py = Path(dpsynth.__file__).resolve().parents[2] / "perfbench" / "run.py"
    benchmarked = next(
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["STAGES"])
    names: list[str] = []
    real = cli_module.stage

    @contextmanager
    def recording(name):
        names.append(name)
        with real(name):
            yield

    monkeypatch.setattr(cli_module, "stage", recording)
    path = write_config(tmp_path)
    synthetic = str(tmp_path / "out" / "synthetic.jsonl")
    release = ["dp-noise", "reconcile"]
    expected = {
        ("generate",): ["generate-records", "generate-records", "histogram", *release,
                        "write-output"],
        ("evaluate", "--synthetic", synthetic, "--models", "mnb,svm,icl"):
            ["load-synthetic", "train-mnb", "train-svm", "icl", "report"],
        ("sweep", "--epsilons", "0,1", "--models", "mnb"):
            ["generate-records", "generate-records", "histogram",
             *release, "evaluate-mnb", *release, "evaluate-mnb", "report"],
        ("audit", "--synthetic", synthetic): ["load-synthetic", "train-models", "mia", "report"],
    }
    for argv, stages in expected.items():
        names.clear()
        assert main([*argv, "--config", str(path)]) == 0
        assert names == ["config", "config", "load-dataset", "split", *stages], argv
        assert set(names) <= set(benchmarked), argv


def test_python_m_dpsynth_cli_runs_the_command(tmp_path):
    import dpsynth

    env = {**os.environ, "PYTHONPATH": str(Path(dpsynth.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "dpsynth.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True)

    bare = run()
    assert bare.returncode == 2
    assert bare.stderr.startswith("usage: dpsynth")
    out = run("generate", "--dataset", "mock:96", "--n-train", "48", "--n-test", "48",
              "--total-records", "32", "--out", "D")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "D" / "synthetic.jsonl").is_file()


def test_leaf_modules_load_only_what_they_import():
    # Importing one module must not pull in the rest of the package, so no
    # package __init__ may import its submodules.
    import dpsynth

    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'dpsynth'}\n"
        "import dpsynth.corpus\n"
        "corpus = loaded()\n"
        "import dpsynth.dp\n"
        "print(json.dumps([sorted(corpus), sorted(loaded() - corpus)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dpsynth.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [
        ["dpsynth", "dpsynth.corpus", "dpsynth.rngutil"],
        ["dpsynth.dp"],
    ]


def test_only_caught_exception_classes_are_defined():
    # A class earns its place only where some code catches it by type; any
    # other failure is a builtin exception with a message.
    import dpsynth

    root = Path(dpsynth.__file__).resolve().parent
    classes = []
    for path in root.rglob("*.py"):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                classes.append((f"{module}.{node.name}", node.name, bases))
    errors = {"Exception", "ValueError", "RuntimeError"}
    for _ in classes:  # close over subclasses of subclasses
        errors |= {name for _, name, bases in classes if bases & errors}
    assert {qualified for qualified, _, bases in classes if bases & errors} == {
        "cli.StageError", "synth.generate.AllRecordsMalformed"}


def test_no_module_imports_a_name_it_never_uses():
    # The project has no linter dependency, so a plain AST walk: an imported
    # name must appear somewhere else in its module. evaluation/report.py's
    # ``transform`` is used from outside, by perfbench/tracer.py, which
    # counts calls through it.
    import dpsynth

    root = Path(dpsynth.__file__).resolve().parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(root).as_posix()}: {name}")
    assert unused == ["evaluation/report.py: transform"]


def test_every_source_directory_is_a_package():
    # setuptools' packages.find skips a directory without __init__.py, so
    # the wheel would leave it out while imports from src/ still work.
    import dpsynth

    root = Path(dpsynth.__file__).resolve().parent
    missing = [str(d.relative_to(root.parent)) for d in [root, *root.rglob("*")]
               if d.is_dir() and any(d.glob("*.py")) and not (d / "__init__.py").is_file()]
    assert missing == []


# ---------------------------------------------------------------- generate


class TestCmdGenerate:
    def test_writes_corpus_histogram_and_manifest(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        lines = (out / "synthetic.jsonl").read_text().splitlines()
        assert len(lines) == 16
        first = json.loads(lines[0])
        assert list(first) == ["Title", "Description", "Class_Label"]
        hist = read_json(out / "histogram_noisy.json")
        assert hist["vocab_limit"] == 30
        manifest = read_json(out / "manifest_generate.json")
        assert manifest["command"] == "generate"
        assert manifest["notes"]["n_records"] == 16
        assert manifest["notes"]["epsilon_floored"] is False
        assert manifest["budget_ledger"]["entries"][0]["epsilon"] == 1.0
        assert manifest["backend_stats"]["mock_calls"] >= 2
        assert "wrote 16 synthetic records" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        path_a = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "a"))
        path_b = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "b"))
        assert main(["generate", "--config", str(path_a)]) == 0
        assert main(["generate", "--config", str(path_b)]) == 0
        for artifact in ("synthetic.jsonl", "histogram_noisy.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()
        fp_a = read_json(tmp_path / "a" / "manifest_generate.json")["config_fingerprint"]
        fp_b = read_json(tmp_path / "b" / "manifest_generate.json")["config_fingerprint"]
        assert fp_a == fp_b  # only the output location differs

    @staticmethod
    def fail_partway(monkeypatch):
        # The real writer, given one record-shaped item it cannot encode
        # after the good ones, fails partway through the file. NewsRecord
        # itself refuses such text, so the item is a plain namespace.
        real_save = cli_module.save_jsonl

        def save_then_fail(corpus, path):
            bad = SimpleNamespace(title="Bad", description="x \ud800", label=LABELS[0])
            try:
                return real_save(Corpus(corpus.records + (bad,)), path)
            except UnicodeEncodeError:
                assert path.read_text(encoding="utf-8").count("\n") == len(corpus)
                raise

        monkeypatch.setattr(cli_module, "save_jsonl", save_then_fail)

    def test_a_failed_write_leaves_no_partial_output(self, tmp_path, capsys, monkeypatch):
        self.fail_partway(monkeypatch)
        path = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 1
        assert "error: stage 'write-output':" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_failed_rerun_leaves_none_of_the_earlier_outputs(self, tmp_path, capsys,
                                                               monkeypatch):
        # What is left of an earlier run in --out cannot be told from the
        # failed run's outputs, so none of it may remain, above all no
        # manifest naming files that are gone.
        path = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        self.fail_partway(monkeypatch)
        capsys.readouterr()
        assert main(["generate", "--config", str(path), "--seed", "5"]) == 1
        assert "error: stage 'write-output':" in capsys.readouterr().err
        for artifact in ("manifest_generate.json", "synthetic.jsonl", "histogram_noisy.json"):
            assert not (tmp_path / "out" / artifact).exists(), artifact

    def test_seed_changes_the_corpus(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path / "s1"))
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["generate", "--config", str(path), "--seed", "12",
                     "--out", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "synthetic.jsonl").read_bytes()
        b = (tmp_path / "s2" / "synthetic.jsonl").read_bytes()
        assert a != b

    def test_epsilon_zero_runs_at_floor_and_is_flagged(self, tmp_path, capsys):
        path = write_config(tmp_path, epsilon=0.0)
        assert main(["generate", "--config", str(path)]) == 0
        notes = read_json(tmp_path / "out" / "manifest_generate.json")["notes"]
        assert notes["epsilon_requested"] == 0.0
        assert notes["epsilon_used"] == 0.05
        assert notes["epsilon_floored"] is True
        assert "surrogate floor" in capsys.readouterr().err

    def test_missing_dataset_fails_in_the_load_stage(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset_path="")
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'load-dataset':")
        assert "mock:<N>" in err

    def test_uneven_mock_size_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset_path="mock:30")
        assert main(["generate", "--config", str(path)]) == 1
        assert "multiple of 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "", "1e3", "-8"])
    def test_malformed_mock_size_named(self, tmp_path, capsys, value):
        path = write_config(tmp_path, dataset_path=f"mock:{value}")
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"mock:<N> needs N to be a positive multiple of 4, got {value!r}" in err

    def test_lone_surrogate_in_a_dataset_row_fails_in_the_load_stage(self, tmp_path, capsys):
        # json.dumps writes the lone surrogate as the escape \ud800, which
        # json.loads reads back; the text has no UTF-8 form to write out.
        data = tmp_path / "data.jsonl"
        rows = [{"Title": f"{label.value} headline {i}", "Description": f"Text {i}.",
                 "Class_Label": label.value} for i in range(8) for label in LABELS]
        rows[2]["Title"] += " \ud800"
        data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert "\\ud800" in data.read_text(encoding="utf-8")
        path = write_config(tmp_path, dataset_path=str(data))
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'load-dataset': row 3: title has no UTF-8 form")


# ---------------------------------------------------------------- evaluate


@pytest.fixture()
def generated(tmp_path):
    """A completed generate run: (config path, output dir)."""
    path = write_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    return path, tmp_path / "out"


class TestCmdEvaluate:
    def test_reports_cover_both_sources(self, generated, capsys):
        path, out = generated
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(out / "synthetic.jsonl"),
                     "--models", "mnb,icl", "--icl-shots", "0"]) == 0
        reports = read_json(out / "evaluation.json")
        tags = {(r["model_tag"], r["train_source"]) for r in reports}
        assert tags == {
            ("mnb", "Original"), ("mnb", "Synthetic"),
            ("icl-0shot", "Original"), ("icl-0shot", "Synthetic"),
        }
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in reports)
        md = (out / "evaluation.md").read_text()
        assert "| Method | Accuracy (Original Data) | Accuracy (Synthetic Data) |" in md
        assert "| Shots | Accuracy (Original Demos) | Accuracy (Synthetic Demos) |" in md
        assert "| Method |" in capsys.readouterr().out

    def test_icl_footer_counts_each_unparseable_answer_once(self, generated, monkeypatch):
        # Every prompt of odd length gets an answer with no label. 0-shot
        # is one run shown in both columns, so its answers count once.
        class HalfAnswering(MockClient):
            def __init__(self):
                super().__init__()
                self.unlabelled: list[str] = []

            def complete(self, prompt, **kwargs):
                if len(prompt) % 2:
                    self.unlabelled.append(prompt)
                    return "I cannot tell."
                return super().complete(prompt, **kwargs)

        client = HalfAnswering()
        monkeypatch.setattr(cli_module, "_make_client", lambda config: client)
        path, out = generated
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(out / "synthetic.jsonl"),
                     "--models", "icl", "--icl-shots", "0,2"]) == 0
        zero_shot = [p for p in client.unlabelled if "demonstrations" not in p]
        assert 0 < len(zero_shot) < len(client.unlabelled)
        md = (out / "evaluation.md").read_text()
        assert md.endswith(f"\n\nUnparseable responses (scored incorrect): "
                           f"{len(client.unlabelled)}\n")

    def test_manifest_recovers_budget_from_sibling_generate(self, generated):
        path, out = generated
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(out / "synthetic.jsonl"),
                     "--models", "mnb"]) == 0
        manifest = read_json(out / "manifest_evaluate.json")
        assert manifest["notes"]["synthetic_provenance_known"] is True
        assert manifest["budget_ledger"]["entries"][0]["epsilon"] == 1.0

    def test_unknown_provenance_is_flagged(self, generated, tmp_path):
        path, out = generated
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "synthetic.jsonl").write_bytes((out / "synthetic.jsonl").read_bytes())
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(stray / "synthetic.jsonl"),
                     "--models", "mnb"]) == 0
        manifest = read_json(out / "manifest_evaluate.json")
        assert manifest["notes"]["synthetic_provenance_known"] is False
        assert manifest["budget_ledger"]["entries"] == []

    def test_a_renamed_copy_beside_the_manifest_has_unknown_provenance(self, generated):
        # The manifest beside the file names synthetic.jsonl, not other.jsonl.
        path, out = generated
        other = out / "other.jsonl"
        other.write_bytes((out / "synthetic.jsonl").read_bytes())
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(other), "--models", "mnb"]) == 0
        manifest = read_json(out / "manifest_evaluate.json")
        assert manifest["notes"]["synthetic_provenance_known"] is False
        assert manifest["budget_ledger"]["entries"] == []

    def test_lone_surrogate_in_a_synthetic_row_fails_in_the_load_stage(self, generated,
                                                                        capsys):
        path, out = generated
        synthetic = out / "synthetic.jsonl"
        lines = synthetic.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["Description"] += " \udfff"
        lines[1] = json.dumps(row)
        synthetic.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(synthetic), "--models", "mnb"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: stage 'load-synthetic': row 2: description has no UTF-8 form")
        assert not (out / "evaluation.json").exists()

    def test_synthetic_file_of_another_suffix_fails_in_the_load_stage(self, generated, capsys):
        path, out = generated
        renamed = out / "x.txt"
        renamed.write_bytes((out / "synthetic.jsonl").read_bytes())
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(renamed), "--models", "mnb"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'load-synthetic': ")
        assert "name the file *.csv or *.jsonl" in err

    def test_a_failed_report_write_leaves_no_report_and_no_manifest(self, generated, capsys,
                                                                     monkeypatch):
        path, out = generated
        argv = ["evaluate", "--config", str(path),
                "--synthetic", str(out / "synthetic.jsonl"), "--models", "mnb"]
        assert main(argv) == 0
        real_write = Path.write_text

        def write_then_fail(self, data, *args, **kwargs):
            if self.name != "evaluation.md":
                return real_write(self, data, *args, **kwargs)
            real_write(self, data[:10], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_then_fail)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: stage 'report': disk full\n"
        for artifact in ("evaluation.json", "evaluation.md", "manifest_evaluate.json"):
            assert not (out / artifact).exists(), artifact
        assert (out / "manifest_generate.json").exists()

    def test_no_models_is_an_error(self, generated, tmp_path, capsys):
        path, out = generated
        empty = write_config(tmp_path, name="empty-models.json", models=[])
        assert main(["evaluate", "--config", str(empty),
                     "--synthetic", str(out / "synthetic.jsonl")]) == 1
        assert "error: stage 'config':" in capsys.readouterr().err

    def test_unknown_model_name_is_an_error(self, generated, capsys):
        path, out = generated
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", str(out / "synthetic.jsonl"),
                     "--models", "mnb,forest"]) == 1
        assert "forest" in capsys.readouterr().err

    def test_missing_synthetic_file_is_an_error(self, generated, capsys):
        path, _ = generated
        assert main(["evaluate", "--config", str(path),
                     "--synthetic", "nowhere.jsonl", "--models", "mnb"]) == 1
        assert "stage 'load-synthetic'" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


class TestCmdSweep:
    def test_sweep_table_rows(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilons", "0,1",
                     "--models", "mnb"]) == 0
        out = tmp_path / "out"
        rows = read_json(out / "sweep.json")
        assert [r["epsilon_requested"] for r in rows] == [0.0, 1.0]
        assert rows[0]["epsilon_used"] == 0.05 and rows[0]["floored"] is True
        assert rows[1]["epsilon_used"] == 1.0 and rows[1]["floored"] is False
        for row in rows:
            assert row["model"] == "mnb"
            assert row["n_seeds"] == 1
            assert len(row["accuracies"]) == 1
            assert 0.0 <= row["accuracy_mean"] <= 1.0
            assert row["accuracy_sd"] == 0.0
        md = (out / "sweep.md").read_text()
        assert "(ran at 0.05)" in md
        assert "| Method | epsilon | Accuracy |" in md
        assert "| Method |" in capsys.readouterr().out

    def test_repeated_seeds_report_spread(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilons", "0.5,10",
                     "--models", "mnb", "--sweep-seeds", "2"]) == 0
        rows = read_json(tmp_path / "out" / "sweep.json")
        for row in rows:
            assert row["n_seeds"] == 2
            assert len(row["accuracies"]) == 2
            assert row["accuracy_sd"] >= 0.0

    def test_icl_rows_ask_one_query_per_test_record_and_epsilon(self, tmp_path, monkeypatch):
        class Counting(MockClient):
            def __init__(self):
                super().__init__()
                self.queries: list[str] = []

            def complete(self, prompt, **kwargs):
                if prompt.startswith(CLASSIFICATION_HEAD):
                    self.queries.append(prompt)
                return super().complete(prompt, **kwargs)

        clients: list[Counting] = []

        def make_client(config):
            clients.append(Counting())
            return clients[-1]

        monkeypatch.setattr(cli_module, "_make_client", make_client)
        path = write_config(tmp_path)
        for out in ("a", "b"):
            assert main(["sweep", "--config", str(path), "--epsilons", "0,1",
                         "--models", "icl,mnb", "--out", str(tmp_path / out)]) == 0
        rows = read_json(tmp_path / "a" / "sweep.json")
        assert [(r["model"], r["epsilon_requested"]) for r in rows] == [
            ("icl", 0.0), ("mnb", 0.0), ("icl", 1.0), ("mnb", 1.0)]
        n_test, n_epsilons = 8, 2  # one 4-shot query per test record and epsilon
        assert [len(c.queries) for c in clients] == [n_test * n_epsilons] * 2
        assert (tmp_path / "a" / "sweep.json").read_bytes() == \
            (tmp_path / "b" / "sweep.json").read_bytes()

    def test_single_epsilon_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilons", "1"]) == 1
        assert "at least two epsilon" in capsys.readouterr().err

    def test_repeated_epsilons_are_rejected(self, tmp_path, capsys):
        # Two rows from one seed would claim two seeds each, and the ledger
        # would charge twice for releases drawn from one noise stream.
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilons", "0.5,1,1.0",
                     "--models", "mnb"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'config':")
        assert "repeated" in err
        assert not (tmp_path / "out" / "sweep.json").exists()

    def test_unusable_cache_dir_fails_in_a_stage(self, tmp_path, capsys):
        # A cache directory under a regular file cannot be created; the
        # error must be reported like any other stage failure, not escape.
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilons", "0,1",
                     "--models", "mnb", "--backend", "http",
                     "--endpoint", "http://localhost:1/v1", "--model", "m",
                     "--cache-dir", str(blocker / "cache")]) == 1
        assert "error: stage 'generate-records':" in capsys.readouterr().err


class TestUncalibratableRelease:
    """A release that cannot be calibrated fails before any generation call."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--mechanism", "gaussian", "--epsilon", "2"],
        ["generate", "--mechanism", "gaussian", "--delta", "0"],
        ["generate", "--vocab-limit", "0"],
        ["sweep", "--mechanism", "gaussian", "--epsilons", "0.5,10"],
        ["generate", "--epsilon", "inf"],      # noise scale 0
        ["generate", "--epsilon", "1e-320"],   # noise scale overflows to inf
        ["sweep", "--epsilons", "1,inf"],
        ["evaluate", "--synthetic", "s.jsonl", "--icl-shots", "abc"],
        ["sweep", "--epsilons", "1,x"],
        ["generate", "--seed", "-1"],
    ])
    def test_fails_in_the_config_stage(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli_module, "run_generation", lambda *a, **k: calls.append(a))
        path = write_config(tmp_path)
        assert main([*argv, "--config", str(path)]) == 1
        assert "error: stage 'config':" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--synthetic", "s.jsonl", "--icl-shots", "0, abc"],
         "--icl-shots: item 'abc' is not a valid int"),
        (["sweep", "--epsilons", "1,x"], "--epsilons: item 'x' is not a valid float"),
    ])
    def test_malformed_list_item_names_its_flag(self, tmp_path, capsys, argv, message):
        path = write_config(tmp_path)
        assert main([*argv, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: stage 'config': {message}\n"


class TestOutputDirectory:
    """Every command makes its output directory in its config stage, after
    the config is validated."""

    INPUTS = {"generate": [], "sweep": [], "evaluate": ["--synthetic", "s.jsonl"],
                 "audit": ["--synthetic", "s.jsonl"]}

    @pytest.mark.parametrize("command", ALL_COMMANDS.split())
    def test_uncreatable_output_dir_fails_in_the_config_stage(self, tmp_path, capsys,
                                                              command):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        path = write_config(tmp_path, output_dir=str(blocker / "out"))
        assert main([command, "--config", str(path), *self.INPUTS[command]]) == 1
        assert capsys.readouterr().err.startswith("error: stage 'config':")

    @pytest.mark.parametrize("command, argv", [
        ("generate", ["--mechanism", "gaussian", "--epsilon", "2"]),
        ("evaluate", ["--models", ""]),
        ("sweep", ["--epsilons", "1"]),
        ("audit", ["--seed", "-1"]),
    ])
    def test_invalid_config_leaves_no_output_dir(self, tmp_path, capsys, command, argv):
        path = write_config(tmp_path)
        assert main([command, "--config", str(path), *self.INPUTS[command], *argv]) == 1
        assert capsys.readouterr().err.startswith("error: stage 'config':")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, extra, argv", [
    ("evaluate", {}, ["--synthetic", "s.jsonl", "--models", "icl", "--icl-shots", ""]),
    ("sweep", {"icl_shots": []}, ["--models", "icl", "--epsilons", "0,1"]),
])
def test_icl_without_shot_counts_fails_in_the_config_stage(tmp_path, capsys, command,
                                                            extra, argv):
    path = write_config(tmp_path, **extra)
    assert main([command, "--config", str(path), *argv]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'config':")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- golden outputs


class TestGoldenOutputs:
    """Whole outputs pinned by digest, not only compared between reruns.

    A rerun comparison cannot see a renamed random stream, a reordered draw
    or a stage that reads the wrong stream: both runs change alike. The
    split sizes are chosen so that each of the generation, noise and
    reconcile streams moves at least one sweep accuracy. A change that means
    to move a stream re-pins these digests and says so.
    """

    @pytest.mark.parametrize("argv, extra, digests", [
        (["generate"], {}, {
            "synthetic.jsonl": "cd4af45fc0ba3130b41ea4d1ed5baa4c7f4ec539d2caec3029700862ce835a51",
            "histogram_noisy.json": "89da63560a2b6ba90c8876b7840a7dc4f626155726d5e8f868bed25960b453c5",
        }),
        (["generate", "--mechanism", "gaussian", "--epsilon", "0.5"], {}, {
            "synthetic.jsonl": "5242b4fd8cc2a2a45c62d81e0cb252adff7648ba914fdaddff457b44eaa390fa",
            "histogram_noisy.json": "1586184e2099f3bbe3ca26d39b5868d638b8f70324abf84a3d06ad6b009fd35d",
        }),
        (["generate"], {"epsilon": 0.0}, {
            "synthetic.jsonl": "eefdbdc6c8861c658b5a761724c75cb8a3627268c07dde9f39a9e348401778a8",
            "histogram_noisy.json": "661e7119b0f7c571d2886e7b77109ccd065d3984cc61584b0330ae49c26d8362",
        }),
        (["sweep", "--epsilons", "0,1", "--models", "mnb", "--sweep-seeds", "2"], {}, {
            "sweep.json": "68c1833bcf8d811dab7c0770c166d5ee08bd13e470b708f73d3ac0fce6a53e29",
        }),
    ], ids=["laplace-eps1", "gaussian-eps0.5", "eps0-floor", "sweep-two-seeds"])
    def test_output_digests(self, tmp_path, argv, extra, digests):
        path = write_config(tmp_path, dataset_path="mock:96", n_train=48, n_test=48,
                            gen={"total_records": 32, "batch_size": 8}, **extra)
        assert main([*argv, "--config", str(path)]) == 0
        for artifact, digest in digests.items():
            data = (tmp_path / "out" / artifact).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, artifact

    def test_evaluate_and_audit_digests(self, tmp_path):
        # Every model and every shot count, so each training and ICL stream
        # is pinned; the audit reads the same synthetic file.
        path = write_config(tmp_path, dataset_path="mock:96", n_train=48, n_test=48,
                            gen={"total_records": 32, "batch_size": 8})
        out = tmp_path / "out"
        synthetic = str(out / "synthetic.jsonl")
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path), "--synthetic", synthetic,
                     "--models", "mnb,svm,icl", "--icl-shots", "0,2,4"]) == 0
        assert main(["audit", "--config", str(path), "--synthetic", synthetic]) == 0
        for artifact, digest in {
            "evaluation.json": "39344b3e50464ac685218a381347b8ff776821f3843fe0e910ab6a25f42ffd01",
            "evaluation.md": "aa18788cf34aa7ba34e27c31f0126311bc48663432e7f97cb8203495aeadba91",
            "audit.json": "3ec44450a4164479f6b81518a41ea5ea7dbffdb442a6d41e16839feb2b23b21f",
        }.items():
            assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


# ---------------------------------------------------------------- audit


class TestCmdAudit:
    def test_audit_reports_both_attacks(self, generated, capsys):
        path, out = generated
        assert main(["audit", "--config", str(path),
                     "--synthetic", str(out / "synthetic.jsonl")]) == 0
        report = read_json(out / "audit.json")
        assert set(report) == {"baseline", "private", "advantage_delta", "verdict"}
        assert report["verdict"] in ("reduced-leakage", "no-reduction")
        assert -1.0 <= report["baseline"]["advantage"] <= 1.0
        stdout = capsys.readouterr().out
        assert "baseline advantage" in stdout and "verdict:" in stdout

    def test_member_nonmember_overlap_surfaces(self, tmp_path, capsys):
        # a dataset whose records repeat verbatim puts identical text in
        # both splits; the audit must refuse rather than silently dedupe
        data = tmp_path / "dupes.jsonl"
        rows = []
        for label in LABELS:
            for _ in range(4):
                rows.append(json.dumps({
                    "Title": f"{label.value} headline",
                    "Description": "same text every time.",
                    "Class_Label": label.value,
                }))
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        path = write_config(tmp_path, dataset_path=str(data), n_train=8, n_test=8)
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["audit", "--config", str(path),
                     "--synthetic", str(tmp_path / "out" / "synthetic.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "stage 'mia'" in err
        assert "member and non-member" in err


@pytest.mark.parametrize("corruption", ["truncated", "epsilon-not-a-number", "no-budget-ledger",
                                        "no-outputs", "no-config"])
@pytest.mark.parametrize("command, report", [("evaluate", "evaluation.json"),
                                             ("audit", "audit.json")])
def test_corrupt_generate_manifest_fails_in_the_load_stage(generated, capsys, corruption,
                                                           command, report):
    # Only a missing manifest, or one naming another file, means "provenance
    # unknown"; one that cannot be read as outputs and a ledger must stop the
    # run before any model is trained.
    path, out = generated
    manifest = out / "manifest_generate.json"
    data = read_json(manifest)
    key = corruption.removeprefix("no-").replace("-", "_")
    if corruption == "truncated":
        manifest.write_text(manifest.read_text(encoding="utf-8")[:60], encoding="utf-8")
    elif corruption == "epsilon-not-a-number":
        data["budget_ledger"]["entries"][0]["epsilon"] = "abc"
        manifest.write_text(json.dumps(data), encoding="utf-8")
    else:
        del data[key]
        manifest.write_text(json.dumps(data), encoding="utf-8")
    argv = [command, "--config", str(path), "--synthetic", str(out / "synthetic.jsonl")]
    assert main(argv + (["--models", "mnb"] if command == "evaluate" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'load-synthetic': ") and err.count("\n") == 1
    if corruption.startswith("no-"):
        assert err.endswith(f": {manifest} has no key {key!r}\n")
    assert not (out / report).exists()


@pytest.mark.parametrize("argv, key", [(["--seed", "8"], "seed"), (["--n-train", "20"], "n_train")])
@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_synthetic_file_from_another_split_fails_in_the_load_stage(generated, capsys, command,
                                                                   argv, key):
    # mock:<N> is drawn from the seed and the split from the seed and sizes,
    # so another seed or size would attack or score records the release never saw.
    path, out = generated
    assert main([command, "--config", str(path), "--synthetic", str(out / "synthetic.jsonl"),
                 *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'load-synthetic': ") and err.count("\n") == 1
    assert err.endswith(f"{out / 'manifest_generate.json'} records another split: {key}\n")
    assert not (out / f"manifest_{command}.json").exists()


# ---------------------------------------------------------------- noise subtraction


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: the dp-noise stream is derived from the seed that "
    "manifest_generate.json publishes, so the released noise can be rebuilt"))
@pytest.mark.parametrize("argv", [
    ["--mechanism", "laplace", "--epsilon", "1"],
    ["--mechanism", "gaussian", "--epsilon", "0.5"],
], ids=["laplace-eps1", "gaussian-eps0.5"])
def test_released_noise_cannot_be_subtracted(tmp_path, monkeypatch, argv):
    true = []
    build = cli_module.build_histogram

    def spy(*args, **kwargs):
        true.append(build(*args, **kwargs))
        return true[-1]

    monkeypatch.setattr(cli_module, "build_histogram", spy)
    path = write_config(tmp_path, dataset_path="mock:96", n_train=48, n_test=48,
                        gen={"total_records": 32, "batch_size": 8})
    assert main(["generate", "--config", str(path), *argv]) == 0
    # The attacker reads only the two published files.
    released = read_json(tmp_path / "out" / "histogram_noisy.json")
    seed = read_json(tmp_path / "out" / "manifest_generate.json")["config"]["seed"]
    params = PrivacyParams(released["params"]["epsilon"], released["params"]["delta"],
                           Mechanism(released["params"]["mechanism"]))
    scale = noise_scale(params, SensitivityBound(**released["sensitivity"]))
    sample = sample_laplace if params.mechanism is Mechanism.LAPLACE else sample_gaussian
    cells = [(label, token, count) for label in LABELS
             for token, count in sorted(released["per_class"][label.value].items())]
    noise = sample(sub_rng(seed, "dp-noise"), scale, size=len(cells))
    # A released 0 may be a clamped cell, which gives only an upper bound.
    unclamped = recovered = 0
    for (label, token, count), draw in zip(cells, noise):
        if count > 0:
            unclamped += 1
            recovered += round(count - draw) == true[0].per_class[label][token]
    assert len(true) == 1 and unclamped > 0
    assert recovered <= 0.05 * unclamped, f"recovered {recovered} of {unclamped} cells"


# ---------------------------------------------------------------- http replay


@contextmanager
def local_chat_server(fail_after=None):
    """Chat-completions stub whose content is a function of the request's seed.

    With ``fail_after``, every request after that many answers gets a 400.
    """
    counter = {"n": 0}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            m = re.search(r"Now generate (\d+) different", body["messages"][0]["content"])
            k = int(m.group(1)) if m else 8
            seed = body["seed"]
            counter["n"] += 1
            rows = [
                {"Title": f"Srv{seed} item{i}", "Description": f"payload {seed} {i}.",
                 "Class_Label": LABELS[i % 4].value}
                for i in range(k)
            ]
            status, payload = 200, json.dumps(
                {"choices": [{"message": {"content": json.dumps(rows)}}]}
            ).encode()
            if fail_after is not None and counter["n"] > fail_after:
                status, payload = 400, b'{"error": "bad request"}'
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    try:
        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    except (OSError, PermissionError) as exc:
        pytest.skip(f"cannot bind a local test server: {exc}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", counter
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHttpGeneration:
    def test_second_run_replays_with_zero_http_calls(self, tmp_path, capsys):
        with local_chat_server() as (url, counter):
            common = dict(
                backend={"kind": "http", "endpoint_url": url, "model_name": "local-stub"},
                cache_dir=str(tmp_path / "cache"),
            )
            path_a = write_config(tmp_path, name="a.json",
                                  output_dir=str(tmp_path / "a"), **common)
            path_b = write_config(tmp_path, name="b.json",
                                  output_dir=str(tmp_path / "b"), **common)
            assert main(["generate", "--config", str(path_a)]) == 0
            first = read_json(tmp_path / "a" / "manifest_generate.json")
            assert first["backend_stats"]["http_requests"] == 2
            assert counter["n"] == 2

            assert main(["generate", "--config", str(path_b)]) == 0
            second = read_json(tmp_path / "b" / "manifest_generate.json")
            assert second["backend_stats"]["http_requests"] == 0
            assert second["backend_stats"]["cache_hits"] == 2
            assert counter["n"] == 2  # server never touched again
            assert (tmp_path / "a" / "synthetic.jsonl").read_bytes() == \
                (tmp_path / "b" / "synthetic.jsonl").read_bytes()
            assert "sends original-data text" in capsys.readouterr().err

    def test_rerun_after_a_failed_run_pays_only_for_missing_calls(self, tmp_path, capsys):
        # docs/http-backend.md, "Reruns and replay": a run that dies midway
        # is recovered by rerunning it over the same cache directory.
        def generate(url, name, cache):
            path = write_config(
                tmp_path, name=f"{name}.json", gen={"total_records": 16, "batch_size": 4},
                backend={"kind": "http", "endpoint_url": url, "model_name": "local-stub"},
                cache_dir=str(tmp_path / cache), output_dir=str(tmp_path / name))
            return main(["generate", "--config", str(path)])

        with local_chat_server() as (url, counter):
            assert generate(url, "whole", "cache-whole") == 0
        calls, good = counter["n"], 2
        assert calls > good
        with local_chat_server(fail_after=good) as (url, counter):
            assert generate(url, "cut", "cache") == 1
        assert counter["n"] == good + 1
        assert "backend returned status 400" in capsys.readouterr().err
        with local_chat_server() as (url, counter):
            assert generate(url, "rerun", "cache") == 0
        assert counter["n"] == calls - good
        stats = read_json(tmp_path / "rerun" / "manifest_generate.json")["backend_stats"]
        assert stats == {"mock_calls": 0, "http_requests": calls - good, "cache_hits": good}
        assert (tmp_path / "rerun" / "synthetic.jsonl").read_bytes() == \
            (tmp_path / "whole" / "synthetic.jsonl").read_bytes()

    def test_concurrent_generation_is_deterministic(self, tmp_path, monkeypatch):
        # Like a shared endpoint, the transport answers generation requests
        # in order of arrival, after a random delay, so which call gets which
        # answer changes from run to run; the corpus must not.
        lock = threading.Lock()
        state = {"arrived": 0, "in_flight": 0, "peak": 0}
        jitter = random.Random(0)

        def transport(url, headers, body):
            with lock:
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
                delay = jitter.uniform(0, 0.004)
            time.sleep(delay)
            with lock:
                n = state["arrived"]
                state["arrived"] += 1
            time.sleep(0.002)
            rows = [{"Title": f"Arrival {n} item {i}", "Description": f"Story {n}-{i}.",
                     "Class_Label": LABELS[(n + i) % 4].value} for i in range(5)]
            content = "not json" if n % 5 == 3 else json.dumps(rows)
            with lock:
                state["in_flight"] -= 1
            return 200, json.dumps({"choices": [{"message": {"content": content}}]})

        monkeypatch.setattr("dpsynth.synth.backends._default_transport", transport)

        def generate(name, cache):
            state["arrived"] = 0  # every run is answered from the same sequence
            path = write_config(
                tmp_path, name=f"{name}.json", gen={"total_records": 32, "batch_size": 8},
                backend={"kind": "http", "endpoint_url": "http://unit.test/v1",
                         "model_name": "m", "max_concurrent": 2},
                cache_dir=str(tmp_path / cache), output_dir=str(tmp_path / name))
            assert main(["generate", "--config", str(path)]) == 0
            return (tmp_path / name / "synthetic.jsonl").read_bytes()

        first = generate("a", "cache-a")
        assert generate("b", "cache-b") == first
        assert state["peak"] == 2
        assert generate("warm", "cache-a") == first
        assert state["arrived"] == 0
        stats = read_json(tmp_path / "warm" / "manifest_generate.json")["backend_stats"]
        assert stats["http_requests"] == 0

    def test_no_cache_flag_always_hits_the_network(self, tmp_path):
        with local_chat_server() as (url, counter):
            path = write_config(
                tmp_path,
                backend={"kind": "http", "endpoint_url": url, "model_name": "local-stub"},
                cache_dir=str(tmp_path / "cache"),
            )
            assert main(["generate", "--config", str(path), "--no-cache"]) == 0
            assert main(["generate", "--config", str(path), "--no-cache",
                         "--out", str(tmp_path / "out2")]) == 0
            assert counter["n"] == 4


# ---------------------------------------------------------------- programmatic API


class TestProgrammaticGenerate:
    def test_cmd_generate_returns_manifest(self, tmp_path):
        config = load_config(None, {
            "dataset_path": "mock:32", "n_train": 24, "n_test": 8,
            "vocab_limit": 30, "seed": 2,
            "gen": {"total_records": 16, "batch_size": 8},
            "output_dir": str(tmp_path / "prog"),
        })
        manifest = cmd_generate(config)
        assert manifest["command"] == "generate"
        assert manifest["config_fingerprint"] == config.fingerprint()
        assert Path(manifest["outputs"]["synthetic"]).exists()
        assert manifest == read_json(tmp_path / "prog" / "manifest_generate.json")


# ---------------------------------------------------------------- tokenize once


class TestTokenizeOnce:
    """Each corpus a command handles is tokenized at most once.

    Every dpsynth module's ``tokenize`` is replaced by a counting spy except
    reconciliation's, whose working tokenization is its own business (its
    recount reads the corpus's matrix like everything else), and the mock
    backend's, which parses prompts rather than records. The corpora a
    command handles are caught where ``dpsynth.cli`` obtains them.
    """

    @pytest.fixture()
    def spy(self, monkeypatch):
        calls: Counter = Counter()
        corpora: list = []
        real = corpus_module.tokenize

        def counting(text):
            calls[text] += 1
            return real(text)

        exempt = ("dpsynth.synth.reconcile", "dpsynth.synth.mock")
        for name, module in list(sys.modules.items()):
            if (name.startswith("dpsynth") and name not in exempt
                    and getattr(module, "tokenize", None) is real):
                monkeypatch.setattr(module, "tokenize", counting)

        def keep(result):
            for item in result if isinstance(result, tuple) else (result,):
                if isinstance(item, Corpus):
                    corpora.append(item)
            return result

        for name in ("sample_split", "load_agnews", "run_generation", "reconcile_corpus"):
            original = getattr(cli_module, name)
            monkeypatch.setattr(cli_module, name,
                                lambda *a, _f=original, **k: keep(_f(*a, **k)))
        return calls, corpora

    @staticmethod
    def check(calls, corpora, must_cover):
        allowed: Counter = Counter()
        for corpus in corpora:
            allowed.update(f for r in corpus.records for f in (r.title, r.description))
        extra = {t: n for t, n in calls.items() if n > allowed[t]}
        assert not extra, f"tokenized more often than the corpora hold them: {extra}"
        for corpus in must_cover:
            assert all(calls[r.title] and calls[r.description] for r in corpus.records)

    def config(self, generated, **extra):
        path, out = generated
        return load_config(str(path), {"output_dir": str(out), **extra})

    def test_evaluate(self, generated, spy):
        calls, corpora = spy
        cmd_evaluate(self.config(generated, models=("mnb", "svm")),
                     generated[1] / "synthetic.jsonl")
        self.check(calls, corpora, must_cover=corpora)

    def test_audit(self, generated, spy):
        calls, corpora = spy
        cmd_audit(self.config(generated), generated[1] / "synthetic.jsonl")
        self.check(calls, corpora, must_cover=corpora)

    def test_two_epsilon_sweep(self, generated, spy):
        calls, corpora = spy
        cmd_sweep(self.config(generated, epsilons=(0.5, 10.0), models=("mnb", "svm")))
        _train, test, *released = corpora
        assert len(released) == 3  # the raw corpus, then one per epsilon
        self.check(calls, corpora, must_cover=[test, *released])
