"""Output checks computed apart from dpsynth, and their corrupted fixtures.

Every check takes parsed outputs and raises CheckFailed on a violation. The
tokenizer below is the benchmark's own copy of the documented rule
(lowercase, runs of letters and digits, tokens of length >= 2), so the
recount does not trust the code it checks. ``self_test`` feeds each check a
deliberately corrupted copy of real outputs and fails if any check accepts
its corruption.
"""
from __future__ import annotations

import copy
import json
import math
import re
from collections import Counter
from pathlib import Path

from inputs import CLASSES

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


# The benchmark sweeps one model.
SWEEP_MODELS = ("mnb",)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- checks

def release(records: list[dict], histogram: dict, total_records: int) -> None:
    """Record count, class balance, and an exact recount of every released
    (class, token) cell in the synthetic text."""
    require(len(records) == total_records,
            f"synthetic.jsonl holds {len(records)} records, expected {total_records}")
    by_class = Counter(r["Class_Label"] for r in records)
    want = {c: total_records // 4 for c in CLASSES}
    require(dict(by_class) == want, f"class balance {dict(by_class)} != {want}")
    for label in CLASSES:
        cells = histogram["per_class"][label]
        counts = Counter()
        for r in records:
            if r["Class_Label"] == label:
                counts.update(tokenize(r["Title"]) + tokenize(r["Description"]))
        wrong = [t for t, c in cells.items() if counts[t] != c]
        require(not wrong, f"{label}: {len(wrong)} cells do not recount, e.g. "
                f"{wrong[0] if wrong else ''!r}")


def ledger(manifest: dict, expected_epsilon: float) -> None:
    spent = manifest["budget_ledger"]["spent_epsilon"]
    require(math.isclose(spent, expected_epsilon, rel_tol=1e-12, abs_tol=1e-12),
            f"{manifest['command']}: ledger spent {spent}, expected {expected_epsilon}")


def requests(manifest: dict, endpoint_requests: int) -> None:
    told = manifest["backend_stats"].get("http_requests", 0)
    require(told == endpoint_requests,
            f"{manifest['command']}: manifest says {told} http requests, "
            f"endpoint served {endpoint_requests}")


def replay(cold: bytes, warm: bytes, cold_manifest: dict, warm_manifest: dict,
           warm_endpoint_requests: int, cached: bool) -> None:
    """The rerun is byte-identical; with a cache it replays every cold
    response and reaches the endpoint zero times."""
    require(cold == warm, "rerun synthetic.jsonl differs from the first run")
    if cached:
        require(warm_endpoint_requests == 0,
                f"warm rerun made {warm_endpoint_requests} endpoint requests")
        hits = warm_manifest["backend_stats"]["cache_hits"]
        sent = cold_manifest["backend_stats"]["http_requests"]
        require(hits == sent and sent > 0,
                f"warm cache hits {hits} != cold http requests {sent}")


def icl(reports: list[dict], answer_log: list, original_keys, n_test: int,
        shots: tuple[int, ...]) -> None:
    """Recompute each ICL row from the endpoint's answer log.

    Log entries are (demo block, query key, true class, class answered or
    None). A run is identified by its demo block; its shot count is the
    number of demonstrations and its source is where the first one lives.
    """
    runs: dict[str, list] = {}
    for demos, _key, true_class, given in answer_log:
        runs.setdefault(demos, []).append((true_class, given))
    expected: dict[tuple[int, str], tuple[float, int]] = {}
    for demos, answers in runs.items():
        titles = re.findall(r"^Title: (.*)\nDescription: (.*)$", demos, re.M)
        n_shots = len(titles)
        source = "Original" if not titles or tuple(titles[0]) in original_keys else "Synthetic"
        require(len(answers) == n_test, f"{n_shots}-shot {source}: {len(answers)} "
                f"answers logged for {n_test} queries")
        correct = sum(1 for t, g in answers if t is not None and g == t)
        unparsed = sum(1 for _, g in answers if g is None)
        expected[(n_shots, source)] = (correct / n_test, unparsed)
    want_runs = sum(1 if s == 0 else 2 for s in shots)
    require(len(expected) == want_runs, f"{len(expected)} ICL runs logged, expected {want_runs}")
    rows = [r for r in reports if r["model_tag"].startswith("icl-")]
    require(len(rows) == 2 * len(shots), f"{len(rows)} ICL rows in evaluation.json")
    for row in rows:
        n_shots = int(row["model_tag"][4:-4])
        source = "Original" if n_shots == 0 else row["train_source"]
        require((n_shots, source) in expected, f"no logged run for {row['model_tag']} {source}")
        accuracy, unparsed = expected[(n_shots, source)]
        require(row["accuracy"] == accuracy,
                f"{row['model_tag']} {row['train_source']}: accuracy {row['accuracy']} "
                f"!= {accuracy} from the answer log")
        if row["train_source"] == source:  # the 0-shot Synthetic row copies Original
            require(row["n_unparseable"] == unparsed,
                    f"{row['model_tag']}: n_unparseable {row['n_unparseable']} != {unparsed}")
        require(0.0 < accuracy < 1.0, f"{row['model_tag']}: accuracy {accuracy} is 0 or 1")


def audit(report: dict, n_train: int, n_test: int) -> None:
    size = min(n_train, n_test)
    for side in ("baseline", "private"):
        r = report[side]
        require(r["n_members"] == r["n_nonmembers"] == size,
                f"{side}: {r['n_members']} members / {r['n_nonmembers']} non-members, "
                f"expected {size} each")
        require(0.0 <= r["auc"] <= 1.0, f"{side}: auc {r['auc']} outside [0, 1]")
        require(r["auc"] - 0.5 <= r["advantage"] + 1e-12,
                f"{side}: auc - 0.5 = {r['auc'] - 0.5} exceeds advantage {r['advantage']}")
    delta = report["baseline"]["advantage"] - report["private"]["advantage"]
    require(math.isclose(report["advantage_delta"], delta, abs_tol=1e-12),
            f"advantage_delta {report['advantage_delta']} != {delta}")
    verdict = "reduced-leakage" if delta > 0 else "no-reduction"
    require(report["verdict"] == verdict, f"verdict {report['verdict']!r} for delta {delta}")


def sweep(rows: list[dict], epsilons: tuple[float, ...], models: tuple[str, ...],
          floor: float, seeds: int) -> None:
    want = [(e, m) for e in epsilons for m in models]
    got = [(r["epsilon_requested"], r["model"]) for r in rows]
    require(got == want, f"sweep rows {got} != {want}")
    for r in rows:
        floored = r["epsilon_requested"] == 0.0
        require(r["floored"] is floored, f"eps {r['epsilon_requested']}: floored {r['floored']}")
        used = floor if floored else r["epsilon_requested"]
        require(r["epsilon_used"] == used, f"eps {r['epsilon_requested']}: ran at "
                f"{r['epsilon_used']}, expected {used}")
        accs = r["accuracies"]
        require(len(accs) == seeds == r["n_seeds"], f"eps {r['epsilon_requested']}: "
                f"{len(accs)} accuracies for {seeds} seeds")
        require(all(0.0 <= a <= 1.0 for a in accs), f"accuracy outside [0, 1]: {accs}")
        require(math.isclose(r["accuracy_mean"], sum(accs) / len(accs), abs_tol=1e-12),
                f"eps {r['epsilon_requested']}: mean {r['accuracy_mean']} of {accs}")


def original_accuracy(reports: list[dict], models: tuple[str, ...], minimum: float) -> None:
    for m in models:
        rows = [r for r in reports if r["model_tag"] == m and r["train_source"] == "Original"]
        require(len(rows) == 1, f"{m}: {len(rows)} Original rows")
        require(rows[0]["accuracy"] >= minimum,
                f"{m} on original data: accuracy {rows[0]['accuracy']} < {minimum}")


def check_all(o: dict) -> None:
    """Every check on one round's outputs, as gathered by run.Bench.load_outputs."""
    release(o["records"], o["histogram"], o["total_records"])
    manifests = o["manifests"]
    replay(o["cold"], o["warm"], manifests["generate"], manifests["generate_warm"],
           o["requests"]["generate_warm"], o["cached"])
    for name, manifest in manifests.items():
        requests(manifest, o["requests"][name])
        ledger(manifest, o["sweep_seeds"] * sum(e or o["floor"] for e in o["epsilons"])
               if name == "sweep" else o["epsilon"])
    if "icl" in o["eval_models"]:
        icl(o["evaluation"], o["answer_log"], o["original_keys"], o["n_test"], o["icl_shots"])
    if o["min_original_accuracy"]:
        original_accuracy(o["evaluation"], o["eval_models"], o["min_original_accuracy"])
    audit(o["audit"], o["n_train"], o["n_test"])
    sweep(o["sweep"], o["epsilons"], SWEEP_MODELS, o["floor"], o["sweep_seeds"])


# ---------------------------------------------------------------- self-test

def _flip_token(records: list[dict], histogram: dict) -> list[dict]:
    """Replace one released token of one record by a token outside the vocabulary."""
    out = copy.deepcopy(records)
    for r in out:
        vocab = histogram["per_class"][r["Class_Label"]]
        for tok in tokenize(r["Description"]):
            if tok in vocab:
                r["Description"] = re.sub(rf"\b{tok}\b", "qqcorrupted", r["Description"],
                                          count=1, flags=re.I)
                return out
    raise ValueError("no released token to flip in synthetic.jsonl")


def corruptions(o: dict) -> list[tuple[str, object]]:
    """(name, thunk) pairs; each thunk runs one check on corrupted outputs."""
    cold, warm = o["manifests"]["generate"], o["manifests"]["generate_warm"]
    flipped_verdict = {"reduced-leakage": "no-reduction",
                       "no-reduction": "reduced-leakage"}[o["audit"]["verdict"]]
    cases = [
        ("release: one token flipped",
         lambda: release(_flip_token(o["records"], o["histogram"]), o["histogram"],
                         o["total_records"])),
        ("release: one record dropped",
         lambda: release(o["records"][:-1], o["histogram"], o["total_records"])),
        ("ledger: epsilon altered",
         lambda: ledger(cold, o["epsilon"] * 2)),
        ("replay: one replayed record altered",
         lambda: replay(o["cold"], o["warm"].replace(b'"Title": "', b'"Title": "x', 1),
                        cold, warm, 0, o["cached"])),
        ("requests: one request unaccounted",
         lambda: requests(cold, o["requests"]["generate"] + 1)),
        ("audit: verdict flipped",
         lambda: audit(dict(o["audit"], verdict=flipped_verdict), o["n_train"], o["n_test"])),
        ("sweep: floor flag flipped",
         lambda: sweep([dict(o["sweep"][0], floored=not o["sweep"][0]["floored"])]
                       + o["sweep"][1:], o["epsilons"], SWEEP_MODELS, o["floor"],
                       o["sweep_seeds"])),
    ]
    if o["cached"]:
        cases.append(("replay: warm run reached the endpoint",
                      lambda: replay(o["cold"], o["warm"], cold, warm, 1, True)))
    if "icl" in o["eval_models"]:
        def altered_log():
            log = list(o["answer_log"])
            demos, key, true_class, given = log[0]
            log[0] = (demos, key, true_class, None if given is not None else true_class)
            return log
        cases.append(("icl: one logged answer altered",
                      lambda: icl(o["evaluation"], altered_log(), o["original_keys"],
                                  o["n_test"], o["icl_shots"])))
    if o["min_original_accuracy"]:
        def lowered():
            rows = list(o["evaluation"])
            i = next(i for i, r in enumerate(rows) if r["train_source"] == "Original")
            rows[i] = dict(rows[i], accuracy=o["min_original_accuracy"] - 0.01)
            return rows
        cases.append(("original accuracy: one row lowered",
                      lambda: original_accuracy(lowered(), o["eval_models"],
                                                o["min_original_accuracy"])))
    return cases


def self_test(outputs: dict) -> list[str]:
    """Names of corruptions that some check failed to reject."""
    missed = []
    for name, thunk in corruptions(outputs):
        try:
            thunk()
        except CheckFailed:
            continue
        missed.append(name)
    return missed
