#!/usr/bin/env python3
"""The orbitspan benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

With ``--trace 0`` it measures the end-to-end metrics: every step runs in a
fresh interpreter (cold caches, as a user's command), untraced, and passes of
the workload repeat while another pass still fits in ``--seconds``.  With
``--trace 1`` it makes one untraced pass and one traced, single-threaded
replay, and reports the per-layer metrics.  Every verdict is checked against
a known answer in both modes.  The last line of stdout is one JSON object;
the lines before it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from hashlib import sha256

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PROBES = 3  # extra set-up-only processes per run, so setup_s is a median of several

CATALOG_ARGV = ["verify", "--all", "--bound", "12", "--format", "json", "--verbose"]
# Split rungs grow the greedy loop with rank; rank-one rungs enumerate tens of
# thousands of partitions of which at most 3 match.
RUNGS = [
    ("sl(20,R)", "sl20R"),
    ("sl(24,R)", "sl24R"),
    ("sl(26,R)", "sl26R"),
    ("sp(14,R)", "sp14R"),
    ("so(14,14)", "so14_14"),
    ("su(31,1)", "su31_1"),
    ("su(35,1)", "su35_1"),
    ("so(34,1)", "so34_1"),
    ("sp(18,1)", "sp18_1"),
]
RANK_ONE_RUNGS = {"su(31,1)", "su(35,1)", "so(34,1)", "sp(18,1)"}
CERTIFY_TYPES = [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
# E6 is left out: one {0,1} sweep there takes up to 12 s and would decide the run.
REJECT_TYPES = [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("F", 4)]
REJECT_PER_TYPE = 40


@functools.cache
def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference() -> dict:
    """Output digests and input sizes recorded from the seed commit."""
    return _load(os.path.join(HERE, "reference.json"))


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer``, in
    BENCHMARK.json at the checkout root."""
    return {m["name"]: m["unit"] for m in _load(os.path.join(ROOT, "BENCHMARK.json"))[kind]}


class WorkerError(RuntimeError):
    pass


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz), as in Numerical Recipes' betai/betacf."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(log_front) * f / a


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted average of
    all order statistics.  On this benchmark's few, noisy per-item times it
    varies far less from run to run than any single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


class Runner:
    """Spawns worker processes one at a time and stops each before returning."""

    def __init__(self, deadline: float, trace_dir: str | None = None):
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
        self._traces = itertools.count()

    def spawn(self, spec: dict, traced: bool = False) -> dict:
        if traced:
            spec = dict(spec, trace_path=os.path.join(self.trace_dir, f"spans-{next(self._traces)}.json"))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("run time limit reached")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            text=True,
        )
        try:
            out, err = proc.communicate(json.dumps(spec), timeout=timeout)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["t_entry"] - t_spawn
        return result


# -- workloads ----------------------------------------------------------------
# A workload turns a seed into inputs, lists the worker steps of one pass,
# checks one pass's results against known answers, and names its items.  A
# pass's wall time is the sum over its steps of first call to last verdict.


class Catalog:
    """``orbitspan verify --all --bound 12 --format json --verbose`` with the
    CLI's default ``--jobs``: the headline command, the only one whose labels
    share cached work and the only one through the CLI's worker pool."""

    name = "catalog"

    def inputs(self, seed: int) -> dict:
        ref = reference()["catalog"]
        return {"labels": ref["labels"], "diagrams": ref["diagrams"], "vectors": 0}

    def steps(self, data: dict) -> list[dict]:
        return [{"kind": "cli", "argv": CATALOG_ARGV}]

    def check(self, data: dict, results: list[dict]) -> tuple[int, int, list[str]]:
        ref = reference()["catalog"]
        return _check_cli_records(results[0], ref["sha256"], ref["records"])

    def items(self, results: list[dict]) -> list[float]:
        return [r["t_done"] - r["t_entry"] for r in results]

    def verdicts(self, results: list[dict]) -> list:
        return [r.get("output") for r in results]


class Ladder(Catalog):
    """Single large classical labels, one ``orbitspan verify <label> --format
    json --verbose`` per rung, each rung in a fresh interpreter."""

    name = "ladder"

    def inputs(self, seed: int) -> dict:
        ref = reference()["ladder"]
        return {"labels": len(RUNGS), "diagrams": sum(ref[label]["diagrams"] for label, _ in RUNGS), "vectors": 0}

    def steps(self, data: dict) -> list[dict]:
        return [{"kind": "cli", "argv": ["verify", label, "--format", "json", "--verbose"]} for label, _ in RUNGS]

    def check(self, data: dict, results: list[dict]) -> tuple[int, int, list[str]]:
        failed, notes = 0, []
        for (label, _), result in zip(RUNGS, results):
            ref = reference()["ladder"][label]
            _, bad, why = _check_cli_records(result, ref["sha256"], {label: None})
            failed += bad
            notes += why
        return len(RUNGS), failed, notes


class OracleCertify(Catalog):
    """``build_chevalley(t, max_rank=8)`` for G2, F4, E6, E7, E8, then
    ``is_characteristic`` on every row of ``exceptional_table(t)``: the accept
    path.  The seed shuffles the decision order across types, so the
    per-decision percentiles do not hang on one stretch of the run."""

    name = "oracle_certify"
    types = CERTIFY_TYPES
    max_rank = 8

    def inputs(self, seed: int) -> dict:
        _import_library()
        from orbitspan.nilorbits import exceptional_table
        from orbitspan.rootcore import SimpleType

        items = [
            [k, [int(w) for w in od.diagram.weights]]
            for k, (fam, rank) in enumerate(self.types)
            for od in exceptional_table(SimpleType(fam, rank))
        ]
        random.Random(seed).shuffle(items)
        return self._data(items, [True] * len(items), sum(reference()["oracle_certify"]["rows"].values()))

    def _data(self, items: list, expected: list[bool], attempted: int) -> dict:
        return {"labels": len(self.types), "diagrams": len(items), "vectors": len(items),
                "items": items, "expected": expected, "attempted": attempted}

    def steps(self, data: dict) -> list[dict]:
        return [{"kind": "oracle", "types": self.types, "max_rank": self.max_rank, "items": data["items"]}]

    def check(self, data: dict, results: list[dict]) -> tuple[int, int, list[str]]:
        verdicts = results[0]["verdicts"]
        expected = data["expected"]
        wrong = [i for i, want in enumerate(expected) if i >= len(verdicts) or verdicts[i] is not want]
        notes = results[0]["errors"][:5]
        for i in wrong[:5]:
            k, weights = data["items"][i]
            got = verdicts[i] if i < len(verdicts) else None
            notes.append(f"{''.join(map(str, self.types[k]))} {weights}: got {got}, want {expected[i]}")
        missing_rows = abs(data["attempted"] - len(expected))
        if missing_rows:
            notes.append(f"{len(expected)} inputs where the reference has {data['attempted']}")
        return data["attempted"], min(data["attempted"], len(wrong) + missing_rows), notes

    def items(self, results: list[dict]) -> list[float]:
        return results[0]["item_s"]

    def verdicts(self, results: list[dict]) -> list:
        return results[0]["verdicts"]


class OracleReject(OracleCertify):
    """A seeded draw of distinct nonzero {0,1,2}-weight vectors, at most 40 per
    type, for A5, B3, C3, D4, F4, in a seeded order.  About 84% are not
    characteristics, so the oracle runs its probabilistic reject path: many
    small solves in small models."""

    name = "oracle_reject"
    types = REJECT_TYPES
    max_rank = 6

    def inputs(self, seed: int) -> dict:
        items, expected = draw_reject_vectors(seed)
        return self._data(items, expected, len(items))


WORKLOADS = {w.name: w for w in (Catalog(), Ladder(), OracleCertify(), OracleReject())}


def _check_cli_records(result: dict, digest: str, records: dict) -> tuple[int, int, list[str]]:
    """Exit code 0, every record's verdict fields true, and the output bytes
    (and, where given, each record's bytes) equal to the seed commit's."""
    attempted = len(records)
    if result.get("exit_code") != 0:
        return attempted, attempted, [f"exit code {result.get('exit_code')} {result.get('error') or ''}".strip()]
    output = result["output"]
    bad = set()
    seen = set()
    for line in output.splitlines():
        try:
            rec = json.loads(line)
            label = rec["label"]
        except (ValueError, KeyError, TypeError):
            bad.add(line[:40])
            continue
        seen.add(label)
        if not (rec.get("theorem_holds") is True and rec.get("easy_inclusion") is True
                and rec.get("paper_basis_verified") is True):
            bad.add(label)
        want = records.get(label)
        if label not in records or (want is not None and sha256(line.encode()).hexdigest()[:16] != want):
            bad.add(label)
    bad |= set(records) - seen
    notes = [f"record differs from the reference: {label}" for label in sorted(bad)[:5]]
    if not bad and sha256(output.encode()).hexdigest() != digest:
        bad.add("<output>")
        notes.append("output bytes differ from the reference (order or framing)")
    return attempted, min(len(bad), attempted), notes


def _import_library() -> None:
    """Make the checkout's ``orbitspan`` importable here, caching bytecode under
    ``.bench_build`` as the workers do."""
    sys.pycache_prefix = os.path.join(BUILD, "pycache")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def draw_reject_vectors(seed: int) -> tuple[list, list[bool]]:
    """Distinct nonzero {0,1,2}-vectors per type, at most REJECT_PER_TYPE each.

    The draw is stratified: candidates are grouped by (is a characteristic,
    k = number of roots of degree 2 in the grading the vector defines), which
    sets the cost of a decision (the reject path runs 20 trials and then
    2^k - 1 sweep solves),
    and each group gets its proportional share of the draw.  So the amount of
    work hardly depends on the seed; which vectors are drawn, and their order,
    do.  Membership in ``enumerate_complex_characteristics(t)`` is the expected
    verdict.  Returns items ``[type index, weights]`` and expected verdicts.
    """
    _import_library()
    from orbitspan.nilorbits import enumerate_complex_characteristics
    from orbitspan.rootcore import SimpleType, build_root_system

    rng = random.Random(seed)
    drawn = []
    for k, (fam, rank) in enumerate(REJECT_TYPES):
        t = SimpleType(fam, rank)
        chars = {tuple(int(w) for w in od.diagram.weights) for od in enumerate_complex_characteristics(t)}
        positives = build_root_system(t).positive_roots
        groups = defaultdict(list)
        for v in itertools.product((0, 1, 2), repeat=rank):
            if any(v):
                degree2 = sum(1 for beta in positives if sum(m * w for m, w in zip(beta, v)) == 2)
                groups[(v in chars, degree2)].append(v)
        pool = sum(len(g) for g in groups.values())
        take = min(REJECT_PER_TYPE, pool)
        quota = {key: len(g) * take / pool for key, g in groups.items()}
        share = {key: int(q) for key, q in quota.items()}
        by_remainder = sorted(groups, key=lambda key: (share[key] - quota[key], key))
        for key in by_remainder[: take - sum(share.values())]:
            share[key] += 1
        for key in sorted(groups):
            drawn += [([k, list(v)], v in chars) for v in rng.sample(groups[key], share[key])]
    rng.shuffle(drawn)
    return [item for item, _ in drawn], [want for _, want in drawn]


# -- measurement --------------------------------------------------------------


def run_pass(runner: Runner, workload, data: dict, traced: bool = False) -> dict:
    results = [runner.spawn(step, traced) for step in workload.steps(data)]
    attempted, failed, notes = workload.check(data, results)
    wall = sum(r["t_done"] - r["t_entry"] for r in results)
    return {"results": results, "attempted": attempted, "failed": failed, "notes": notes, "wall_s": wall}


def measure(workload, data: dict, seconds: int, runner: Runner) -> dict:
    """Untraced: set-up probes, then passes while another one fits in ``seconds``."""
    start = time.monotonic()
    probe = dict(workload.steps(data)[0], probe=True)
    setups = [runner.spawn(probe)["setup_s"] for _ in range(PROBES)]
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(runner, workload, data))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    setups += [r["setup_s"] for p in passes for r in p["results"]]
    items = [x for p in passes for x in workload.items(p["results"])]
    wall = statistics.median(p["wall_s"] for p in passes)
    peak_kb = statistics.median(max(r["peak_rss_kb"] for r in p["results"]) for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "diagrams_per_s": data["diagrams"] / wall,
        "item_p50_s": _quantile(items, 0.5),
        "item_p90_s": _quantile(items, 0.9),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {"metrics": metrics, "passes": passes, "samples": {"setup": len(setups), "items": len(items)}}


def layer_metrics(workload, untraced: dict, traced: dict) -> tuple[dict, list[str], dict]:
    """Merge the traced workers' summaries into the per-layer metrics; a metric
    whose wrapped function or cache_info() is gone is left out and named."""
    summaries = [r["trace"] for r in traced["results"]]
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    wrapped = set(summaries[0]["wrapped"])
    missing = set(summaries[0]["missing"])
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["counts"].items():
            counts[k] += v
    out, gone = {}, []

    def put(metric, needs, value):
        if all(n in wrapped for n in needs) and value is not None:
            out[metric] = value
        else:
            gone.append(metric)

    def ratio(a, b):
        return a / b if b else 0.0

    put("spanverify.greedy_s", ["spanverify.greedy"], self_s["spanverify.greedy"])
    put("spanverify.greedy_candidates", ["spanverify.greedy"], counts["spanverify.greedy_candidates"])
    put("spanverify.greedy_picked", ["spanverify.greedy"], counts["spanverify.greedy_picked"])
    put("spanverify.greedy_useful_ratio", ["spanverify.greedy"],
        ratio(counts["spanverify.greedy_picked"], counts["spanverify.greedy_candidates"]))
    for fn in ("rref", "nullspace", "solve"):
        put(f"rational.{fn}_calls", [f"rational.{fn}"], calls[f"rational.{fn}"])
        put(f"rational.{fn}_s", [f"rational.{fn}"], self_s[f"rational.{fn}"])
    put("rational.rref_cells", ["rational.rref"], counts["rational.rref_cells"])
    put("rational.solve_cells", ["rational.solve"], counts["rational.solve_cells"])
    put("nilorbits.enumerate_s", ["nilorbits.enumerate"], self_s["nilorbits.enumerate"])
    put("nilorbits.diagrams", ["nilorbits.enumerate"],
        None if counts["nilorbits.diagrams_unsized"] else counts["nilorbits.diagrams"])
    for metric, span in (("rootcore.root_system_s", "rootcore.root_system"), ("rootcore.opposition_s", "rootcore.opposition"),
                         ("satake.b_subspace_s", "satake.b_subspace"), ("satake.catalog_s", "satake.catalog"),
                         ("satake.filter_s", "satake.filter"), ("spanverify.inclusion_s", "spanverify.inclusion"),
                         ("spanverify.paper_basis_s", "spanverify.paper_basis"),
                         ("sl2oracle.model_build_s", "sl2oracle.model_build"), ("sl2oracle.bracket_s", "sl2oracle.bracket"),
                         ("sl2oracle.decide_s", "sl2oracle.decide")):
        put(metric, [span], self_s[span])
    put("satake.matched", ["satake.filter"], counts["satake.matched"])
    put("satake.match_ratio", ["satake.filter"], ratio(counts["satake.matched"], counts["satake.filter_in"]))
    caches = [s["cache"] for s in summaries]
    hits = None if None in caches else sum(c["hits"] for c in caches)
    misses = None if None in caches else sum(c["misses"] for c in caches)
    put("cache.hits", [], hits)
    put("cache.misses", [], misses)
    put("cache.hit_ratio", [], None if hits is None else ratio(hits, hits + misses))
    cli_selfs = [s["cli_self_s"] for s in summaries]
    put("cli.self_s", [], None if None in cli_selfs else sum(cli_selfs))
    put("cli.output_bytes", [], sum(len(r.get("output", "").encode()) for r in traced["results"]))
    put("sl2oracle.bracket_calls", ["sl2oracle.bracket"], calls["sl2oracle.bracket"])
    verdicts = counts["sl2oracle.accepted"] + counts["sl2oracle.rejected"]
    put("sl2oracle.solves_per_verdict", ["rational.solve", "sl2oracle.decide"], ratio(calls["rational.solve"], verdicts))
    put("sl2oracle.accepted", ["sl2oracle.decide"], counts["sl2oracle.accepted"])
    put("sl2oracle.rejected", ["sl2oracle.decide"], counts["sl2oracle.rejected"])
    rung_walls = {}
    if workload.name == "ladder":
        rung_walls = {label: r["t_done"] - r["t_entry"] for (label, _), r in zip(RUNGS, untraced["results"])}
    for label, tag in RUNGS:
        out[f"rung.{tag}_s"] = rung_walls.get(label, 0.0)
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    names = metric_units("per_layer")
    gone += [metric for metric in names if metric not in out and metric not in gone]
    out = {metric: out[metric] for metric in names if metric in out}
    detail = {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts),
              "missing_targets": sorted(missing), "per_step": summaries}
    return out, gone, detail


def check_predictions(workload, traced: dict, layers: dict) -> list[str]:
    """The stated expectations about where the time goes, checked on this
    trace; one that cannot be checked because its metrics are missing says so."""
    lines = []

    def verdict(text, needs, share):
        if not all(m in layers for m in needs):
            lines.append(f"prediction: {text}: not checked, {', '.join(m for m in needs if m not in layers)} missing")
            return
        value = share()
        lines.append(f"prediction: {text}: {value:.1%} of traced wall -> {'holds' if value >= 0.5 else 'CONTRADICTED'}")

    def rank_one_share():
        busy = wall = 0.0
        for (label, _), r in zip(RUNGS, traced["results"]):
            if label in RANK_ONE_RUNGS:
                s = r["trace"]["self_s"]
                busy += sum(s.get(k, 0.0) for k in ("nilorbits.enumerate", "rootcore.root_system", "rootcore.opposition"))
                wall += r["t_done"] - r["t_entry"]
        return busy / wall

    if workload.name == "catalog":
        verdict("greedy plus rref dominate catalog", ["spanverify.greedy_s", "rational.rref_s"],
                lambda: (layers["spanverify.greedy_s"] + layers["rational.rref_s"]) / traced["wall_s"])
    if workload.name == "ladder":
        verdict("nilorbits plus rootcore dominate the rank-one rungs",
                ["nilorbits.enumerate_s", "rootcore.root_system_s", "rootcore.opposition_s"], rank_one_share)
    if workload.name == "oracle_certify":
        verdict("rational.solve (with the rref it calls) dominates oracle_certify", ["rational.solve_s"],
                lambda: traced["results"][0]["trace"]["solve_inclusive_s"] / traced["wall_s"])
    return lines


def same_verdicts(workload, a: dict, b: dict) -> bool:
    return workload.verdicts(a["results"]) == workload.verdicts(b["results"])


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    data = workload.inputs(seed)
    sizes = {"labels": data["labels"], "diagrams": data["diagrams"], "vectors": data["vectors"]}
    report = {"workload": name, "seed": seed, "inputs": sizes, "notes": []}
    if not trace:
        m = measure(workload, data, seconds, Runner(deadline))
        passes = m["passes"]
        report.update(metrics=m["metrics"], units=metric_units("end_to_end"), samples=m["samples"], passes=len(passes))
    else:
        trace_dir = os.path.join(BUILD, "trace", f"{name}-seed{seed}")
        os.makedirs(trace_dir, exist_ok=True)
        runner = Runner(deadline, trace_dir)
        untraced = run_pass(runner, workload, data)
        traced = run_pass(runner, workload, data, traced=True)
        passes = [untraced, traced]
        metrics, gone, detail = layer_metrics(workload, untraced, traced)
        if not same_verdicts(workload, untraced, traced):
            traced["failed"] = max(traced["failed"], 1)
            report["notes"].append("traced verdicts differ from the untraced run's")
        report.update(metrics=metrics, units=metric_units("per_layer"), missing=gone,
                      predictions=check_predictions(workload, traced, metrics))
        with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
            json.dump(dict(report, layers=detail, span_files=sorted(os.listdir(trace_dir))), fh, indent=1)
    report["attempted"] = sum(p["attempted"] for p in passes)
    report["failed"] = sum(p["failed"] for p in passes)
    report["notes"] += [n for p in passes for n in p["notes"]]
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  inputs {json.dumps(report['inputs'])}")
    for key in ("passes", "samples"):
        if key in report:
            print(f"  {key}: {report[key]}")
    for metric, value in report["metrics"].items():
        print(f"  {metric:34s} {value:14.6g} {report['units'][metric]}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'failed_ratio':34s} {ratio:14.6g} ratio ({report['failed']}/{report['attempted']})")
    for metric in report.get("missing", []):
        print(f"  {metric:34s} missing (its wrapped function or cache_info() is gone)")
    for line in report.get("predictions", []) + report["notes"]:
        print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so Runner.spawn kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "orbitspan", "cli.py")):
        print(f"error: no orbitspan sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
        for r in reports
        for k, v in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
