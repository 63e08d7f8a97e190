"""End-to-end benchmark of the dpsynth command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mock-paper --seed 1 --seconds 20 --trace 0

Each command runs as a fresh ``dpsynth`` process on inputs built here from
``--seed`` before any timing starts. A round runs every command of the
workload once, one after another (a closed loop of one client); rounds
repeat until ``--seconds`` have passed, and an untraced run makes at least
MIN_ROUNDS of them. With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics, each the median over the rounds. With
``--trace 1`` each round runs the commands untraced and then again under
``tracer.py``, checks that both produce the same bytes, and reports the
per-layer metrics.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from endpoint import FakeEndpoint  # noqa: E402
from inputs import ClassModel, write_agnews_csv  # noqa: E402

EPSILON = 1.0         # every workload releases at epsilon 1
EPSILON_FLOOR = 0.05  # dpsynth's default epsilon_floor, used for a requested 0
ICL_SHOTS = (0, 2, 4)
MIN_ROUNDS = 2  # untraced rounds per run, so that each figure is a median

# Runs the console entry point after writing the time at which the
# interpreter has finished importing dpsynth.cli (CLOCK_MONOTONIC is shared
# by all processes, so the parent can subtract its spawn time).
LAUNCHER = (
    "import sys, time\n"
    "from dpsynth.cli import main\n"
    "ready = time.monotonic()\n"
    "open(sys.argv[1], 'w').write(repr(ready))\n"
    "sys.exit(main(sys.argv[2:]))\n"
)

# Fixed for every child so that timings do not depend on the caller's shell.
# Children load dpsynth from a fresh copy of src/ compiled before timing
# starts, so no __pycache__ left in the checkout changes what they read.
CHILD_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONUNBUFFERED": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NO_PROXY": "127.0.0.1,localhost",
}
_DROPPED_ENV = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy", "https_proxy",
                "all_proxy", "DPSYNTH_CACHE_DIR", "PYTHONPATH", "PYTHONHASHSEED")

COMMANDS = ("generate", "generate_warm", "evaluate", "audit", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset_rows: int            # 0: the built-in mock:<N> corpus
    n_train: int
    n_test: int
    total_records: int
    vocab_limit: int
    eval_models: tuple[str, ...]
    sweep_epsilons: tuple[float, ...]
    sweep_seeds: int = 1
    backend: str = "mock"
    latency_s: float = 0.0
    cache: bool = True
    min_original_accuracy: float = 0.0


WORKLOADS = {
    w.name: w for w in (
        # The paper's offline pipeline on the built-in mock corpus.
        # Two sweep seeds average the epsilon floor's noise, whose
        # reconciliation cost otherwise swings from seed to seed.
        Workload("mock-paper", 0, 2000, 500, 200, 500, ("mnb", "svm"),
                 (0.0, 0.5, 1.0, 10.0), sweep_seeds=2, min_original_accuracy=0.99),
        # One wide release from a Zipf CSV in the AGNews format: reconciliation heavy.
        Workload("zipf-release", 30000, 400, 100, 400, 250, ("mnb", "svm"),
                 (10.0, 100.0), backend="http", cache=False),
        # Live-backend path: injected latency, response cache, ICL thread pool.
        Workload("http-replay", 2000, 800, 32, 800, 50, ("icl",),
                 (1.0, 10.0), backend="http", latency_s=0.025),
    )
}


class CommandFailed(Exception):
    pass


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    endpoint_requests: int = 0
    endpoint_wait_s: float = 0.0
    endpoint_max_in_flight: int = 0
    answer_log: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.work = root / "perfbench" / ".work" / f"{workload.name}-{seed}-{int(trace)}"
        self.endpoint: FakeEndpoint | None = None
        self.env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
        self.src = root / "src"
        self.env.update(CHILD_ENV, PYTHONPATH=str(self.work / "src"))
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------ inputs

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # Installed packages ship compiled bytecode; so does this copy.
        shutil.copytree(self.src, self.work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        if not compileall.compile_dir(self.work / "src", quiet=1):
            raise CommandFailed("compiling the copy of src/ failed")
        w = self.w
        self.original_keys: dict = {}
        model = ClassModel(self.seed)
        if w.dataset_rows:
            dataset = self.work / "agnews_train.csv"
            self.original_keys = write_agnews_csv(dataset, model, self.seed, w.dataset_rows)
            dataset_path = str(dataset)
        else:
            dataset_path = f"mock:{w.n_train + w.n_test}"
        if w.backend == "http":
            self.endpoint = FakeEndpoint(model, self.seed, w.latency_s, self.original_keys)
            backend = {"kind": "http", "endpoint_url": self.endpoint.url,
                       "model_name": "perfbench-fake", "max_concurrent": 2}
        else:
            backend = {"kind": "mock"}
        config = {
            "dataset_path": dataset_path, "n_train": w.n_train, "n_test": w.n_test,
            "epsilon": EPSILON, "epsilons": list(w.sweep_epsilons),
            "vocab_limit": w.vocab_limit, "seed": self.seed, "sweep_seeds": w.sweep_seeds,
            "icl_shots": list(ICL_SHOTS), "backend": backend,
            "gen": {"total_records": w.total_records, "batch_size": 16},
        }
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    # ------------------------------------------------------------ commands

    def round_argv(self, out: Path) -> dict[str, list[str]]:
        cache = ["--cache-dir", str(out / "cache")] + ([] if self.w.cache else ["--no-cache"])
        common = ["--config", str(self.config)] + cache
        synthetic = str(out / "generate" / "synthetic.jsonl")
        return {
            "generate": ["generate", *common, "--out", str(out / "generate")],
            "generate_warm": ["generate", *common, "--out", str(out / "generate_warm")],
            "evaluate": ["evaluate", *common, "--synthetic", synthetic,
                         "--models", ",".join(self.w.eval_models), "--out", str(out / "evaluate")],
            "audit": ["audit", *common, "--synthetic", synthetic, "--out", str(out / "audit")],
            "sweep": ["sweep", *common, "--models", "mnb", "--out", str(out / "sweep")],
        }

    def run_command(self, argv: list[str], out: Path, trace_file: Path | None) -> Sample:
        ready = out / "ready"
        if trace_file is None:
            cmd = [sys.executable, "-c", LAUNCHER, str(ready), *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *argv]
        if self.endpoint is not None:
            self.endpoint.reset()
        self.attempted += 1
        log = out / "commands.log"
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"$ dpsynth {' '.join(argv)}\n")
            fh.flush()
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=out, stdout=fh, stderr=fh)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            raise CommandFailed(f"dpsynth {argv[0]} exited with {proc.returncode}; see {log}")
        sample = Sample(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                        setup_s=None if trace_file else float(ready.read_text()) - start)
        if self.endpoint is not None:
            e = self.endpoint
            sample.endpoint_requests = e.requests
            sample.endpoint_wait_s = e.wait_s
            sample.endpoint_max_in_flight = e.max_in_flight
            sample.answer_log = list(e.icl_log)
        return sample

    def run_round(self, out: Path, traced: bool) -> dict[str, Sample]:
        out.mkdir(parents=True)
        samples = {}
        for name, argv in self.round_argv(out).items():
            trace_file = out / f"trace_{name}.json" if traced else None
            samples[name] = self.run_command(argv, out, trace_file)
        return samples

    # ------------------------------------------------------------ checks

    def load_outputs(self, out: Path, samples: dict[str, Sample]) -> dict:
        """Everything checks.check_all needs about one round."""
        w = self.w
        gen = out / "generate"
        return {
            "records": checks.read_jsonl(gen / "synthetic.jsonl"),
            "histogram": checks.read_json(gen / "histogram_noisy.json"),
            "total_records": w.total_records,
            "cold": (gen / "synthetic.jsonl").read_bytes(),
            "warm": (out / "generate_warm" / "synthetic.jsonl").read_bytes(),
            "manifests": {name: checks.read_json(out / name / f"manifest_{argv[0]}.json")
                          for name, argv in self.round_argv(out).items()},
            "requests": {name: s.endpoint_requests for name, s in samples.items()},
            "epsilon": EPSILON,
            "cached": w.cache and w.backend == "http",
            "evaluation": checks.read_json(out / "evaluate" / "evaluation.json"),
            "answer_log": samples["evaluate"].answer_log,
            "original_keys": self.original_keys,
            "icl_shots": ICL_SHOTS,
            "eval_models": w.eval_models,
            "min_original_accuracy": w.min_original_accuracy,
            "audit": checks.read_json(out / "audit" / "audit.json"),
            "sweep": checks.read_json(out / "sweep" / "sweep.json"),
            "epsilons": w.sweep_epsilons,
            "sweep_seeds": w.sweep_seeds,
            "floor": EPSILON_FLOOR,
            "n_train": w.n_train,
            "n_test": w.n_test,
        }


# ---------------------------------------------------------------- metrics

def end_to_end(rounds: list[dict[str, Sample]]) -> dict:
    median = statistics.median
    metrics = {f"{name}_s": (median(r[name].wall_s for r in rounds), "s") for name in COMMANDS}
    metrics["setup_s"] = (median(s.setup_s for r in rounds for s in r.values()), "s")
    metrics["peak_rss_mb"] = (max(s.rss_mb for r in rounds for s in r.values()), "MB")
    return metrics


SPAN_METRICS = (
    "corpus.load", "corpus.split", "corpus.histogram", "corpus.save_jsonl", "dp.perturb",
    "synth.generate.run", "synth.backends.complete", "synth.backends.cache_get",
    "synth.backends.cache_put", "synth.reconcile.run", "synth.reconcile.recount",
    "evaluation.features.fit", "evaluation.features.transform", "evaluation.mnb.train",
    "evaluation.svm.train", "evaluation.report.evaluate", "evaluation.icl.evaluate",
    "audit.collect", "audit.attack",
)
STAGES = (
    "config", "load-dataset", "split", "generate-records", "histogram", "dp-noise",
    "reconcile", "write-output", "load-synthetic", "train-mnb", "train-svm", "icl",
    "train-models", "mia", "evaluate-mnb", "report",
)
COUNT_METRICS = (
    "corpus.records_loaded", "corpus.histogram_cells", "dp.cells_clamped", "dp.mass_added",
    "synth.generate.calls", "synth.generate.records_kept", "synth.backends.http_requests",
    "synth.backends.cache_hits", "synth.backends.cache_bytes_read",
    "synth.reconcile.insertions", "synth.reconcile.deletions",
    "synth.reconcile.records_touched", "evaluation.features.transform_calls",
    "evaluation.report.predictions", "evaluation.icl.queries",
)


def self_times(spans: list[list]) -> dict[str, float]:
    """Span duration minus the union of its children's intervals, summed by name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def per_layer(out: Path, traced: dict[str, Sample],
              untraced: dict[str, Sample]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and its spans by command."""
    spans_by_command = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    stage_s: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    for name in COMMANDS:
        data = checks.read_json(out / f"trace_{name}.json")
        spans_by_command[name] = data["spans"]
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in data["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)
        for span_name, start, end, _parent in data["spans"]:
            if span_name.startswith("cli.stage."):
                stage_s[span_name] = stage_s.get(span_name, 0.0) + end - start
        for span_name, seconds in self_times(data["spans"]).items():
            layer_s[span_name] = layer_s.get(span_name, 0.0) + seconds

    m: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = (stage_s.get(f"cli.stage.{stage}", 0.0), "s")
    m["trace.overhead_s"] = (sum(s.wall_s for s in traced.values())
                             - sum(s.wall_s for s in untraced.values()), "s")
    for span in SPAN_METRICS:
        m[f"{span}_s"] = (layer_s.get(span, 0.0), "s")
    for key in COUNT_METRICS:
        m[key] = (counts.get(key, 0), "count")
    parsed = counts.get("synth.generate.records_parsed", 0)
    m["synth.generate.kept_ratio"] = (
        counts.get("synth.generate.records_kept", 0) / parsed if parsed else 0.0, "ratio")
    m["evaluation.features.n_features"] = (maxima.get("evaluation.features.n_features", 0),
                                           "count")
    m["endpoint.requests"] = (sum(s.endpoint_requests for s in traced.values()), "count")
    m["endpoint.wait_s"] = (sum(s.endpoint_wait_s for s in traced.values()), "s")
    m["endpoint.max_in_flight"] = (max(s.endpoint_max_in_flight for s in traced.values()),
                                   "count")
    return m, spans_by_command


def median_metrics(per_round: list[dict]) -> dict:
    return {k: (statistics.median(r[k][0] for r in per_round), per_round[0][k][1])
            for k in per_round[0]}


# ---------------------------------------------------------------- entry point

COMPARED_OUTPUTS = ("generate/synthetic.jsonl", "generate/histogram_noisy.json",
                    "generate_warm/synthetic.jsonl", "evaluate/evaluation.json",
                    "audit/audit.json", "sweep/sweep.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dpsynth" / "cli.py").is_file():
        print("error: run from the repository root (src/dpsynth/cli.py not found)",
              file=sys.stderr)
        return 2

    bench = Bench(root, WORKLOADS[args.workload], args.seed, bool(args.trace))
    correct = True
    problems: list[str] = []
    untraced_rounds: list[dict[str, Sample]] = []
    layer_rounds: list[dict] = []
    first_outputs = None
    try:
        bench.prepare()
        started = time.monotonic()
        min_rounds = 1 if args.trace else MIN_ROUNDS
        while (len(untraced_rounds) < min_rounds
               or time.monotonic() - started < args.seconds):
            k = len(untraced_rounds)
            out = bench.work / f"round{k}"
            samples = bench.run_round(out, traced=False)
            untraced_rounds.append(samples)
            outputs = bench.load_outputs(out, samples)
            first_outputs = first_outputs or outputs
            checks.check_all(outputs)
            if outputs["cold"] != first_outputs["cold"]:
                raise checks.CheckFailed(f"round {k} synthetic.jsonl differs from round 0")
            if args.trace:
                traced_out = bench.work / f"round{k}-traced"
                traced = bench.run_round(traced_out, traced=True)
                for rel in COMPARED_OUTPUTS:
                    if (out / rel).read_bytes() != (traced_out / rel).read_bytes():
                        raise checks.CheckFailed(f"traced {rel} differs from the untraced run")
                checks.check_all(bench.load_outputs(traced_out, traced))
                metrics, spans = per_layer(traced_out, traced, samples)
                layer_rounds.append(metrics)
        missed = checks.self_test(first_outputs)
        if missed:
            raise checks.CheckFailed(f"checks accepted corrupted outputs: {missed}")
    except checks.CheckFailed as exc:
        correct = False
        problems.append(str(exc))
    except CommandFailed as exc:
        problems.append(str(exc))
    finally:
        bench.close()

    if not untraced_rounds or (args.trace and not layer_rounds):
        print("error: " + "; ".join(problems or ["no round completed"]), file=sys.stderr)
        return 1
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    metrics = median_metrics(layer_rounds) if args.trace else end_to_end(untraced_rounds)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    if args.trace:
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(spans), encoding="utf-8")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, rounds=len(untraced_rounds), problems=problems,
                        synthetic_sha256=hashlib.sha256(first_outputs["cold"]).hexdigest(),
                        wall_s_by_round={name: [r[name].wall_s for r in untraced_rounds]
                                         for name in COMMANDS}),
                   indent=2),
        encoding="utf-8")
    if correct and not problems:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
