#!/usr/bin/env python3
"""End-to-end benchmark of the question path, one workload per process.

    python3 qabench/run.py --workload qald_cold --seed 1 --seconds 10 --trace 0

A single closed-loop client keeps one request outstanding.  The run sets
the workload up several times, then attempts whole rounds of operations
until ``--seconds`` have passed, checks every output against
expectations computed apart from the program, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when a
check fails.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces the
set-ups and rounds 1 and 2 (every other round runs untraced): it wraps
each layer's public entry point in spans, reports the per-layer metrics
and writes the spans to ``.qabench/trace-<workload>-seed<seed>.json`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".qabench")

#: The rounds a traced run traces.  Every per-layer figure covers the
#: same operations in every run on one seed, however fast the program
#: is, so the counters repeat exactly and the busy times are comparable.
TRACED_ROUNDS = (1, 2)

#: Program counters read as per-operation deltas in traced rounds.
COUNTERS = (
    "kb.segments.scans",
    "kb.shard_cache.hits",
    "kb.shard_cache.misses",
    "similarity.memo.hits",
    "similarity.memo.misses",
    "mapping.scan_pruned",
    "execute.candidates_run",
    "sparql.result_cache.hits",
    "sparql.result_cache.misses",
    "sparql.plan_cache.hits",
    "sparql.plan_cache.misses",
    "sparql.scatter.shards_scanned",
    "sparql.scatter.rows_gathered",
    "sparql.columnar.rows_in",
    "bench.execute_calls",
    "bench.generated_candidates",
    "bench.winners",
)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB (Linux ``/proc/self/status``)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(deltas: dict, family: str) -> float:
    hits, misses = deltas[f"{family}.hits"], deltas[f"{family}.misses"]
    return _ratio(hits, hits + misses)


def run(workload_cls, seed: int, seconds: float, trace: bool,
        corrupt: bool, workdir: str) -> dict:
    from tracing import Recorder

    rec = Recorder()  # records nothing unless installed (traced rounds)
    workload = workload_cls(seed, rec, workdir)
    latencies = {False: [], True: []}
    rounds = []  # (latencies, passed) of every untraced round
    deltas = dict.fromkeys(COUNTERS, 0)
    attempted = passed = 0
    try:
        workload.prepare()
        if trace:
            rec.install()
        workload.setup()
        if trace:
            rec.uninstall()
        start = time.perf_counter()
        index = 0
        while (index < workload.MIN_ROUNDS
               or time.perf_counter() - start < seconds):
            traced = trace and index in TRACED_ROUNDS
            if traced:
                rec.install()
            operations = workload.begin_round(index)
            raws = []
            for key, call in operations:
                if traced:
                    before = _counters(workload, rec)
                    rec.next_op()
                    rec.in_op = True
                    with rec.span("op"):
                        begin = time.perf_counter()
                        raw = call()
                        elapsed = time.perf_counter() - begin
                    rec.in_op = False
                    after = _counters(workload, rec)
                    for name in COUNTERS:
                        deltas[name] += after[name] - before[name]
                else:
                    begin = time.perf_counter()
                    raw = call()
                    elapsed = time.perf_counter() - begin
                latencies[traced].append(elapsed)
                raws.append((key, raw))
            if traced:
                rec.uninstall()
            outputs = [(key, workload.canonical(raw)) for key, raw in raws]
            if corrupt and index == 1:
                outputs[0] = (outputs[0][0], workload.corrupt(outputs[0][1]))
            checks = workload.check(index, outputs)
            attempted += len(checks)
            passed += sum(checks)
            if not traced:
                rounds.append((latencies[False][-len(raws):], sum(checks)))
            index += 1
            if index == workload.MIN_ROUNDS:
                rss_mb = peak_rss_mb()
    finally:
        if trace:
            rec.uninstall()
        workload.close()

    for error in workload.errors:
        print(f"check failed: {error}", file=sys.stderr)
    failed = attempted - passed
    result = {
        "correct": failed == 0 and not workload.errors,
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        windows = _windows(rounds, workload.WINDOW_ROUNDS)
        figures = {
            "setup_s": statistics.median(workload.setup_samples),
            "latency_p50_ms": percentile(latencies[False], 0.50) * 1000.0,
            "latency_p99_ms": statistics.median(
                percentile(samples, 0.99) for samples, __ in windows
            ) * 1000.0,
            "goodput_ops_s": statistics.median(
                ok / sum(samples) for samples, ok in windows
            ),
            "peak_rss_mb": rss_mb,
        }
        result["metrics"] = _declared(figures, "end_to_end")
        return result

    summary = rec.summary()
    figures = layer_figures(rec, summary, workload, deltas, latencies)
    os.makedirs(OUT, exist_ok=True)
    rec.write(
        os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json"),
        summary,
        {"workload": workload.name, "seed": seed, "per_layer": figures},
    )
    result["metrics"] = _declared(figures, "per_layer")
    return result


def _windows(rounds: list[tuple], size: int) -> list[tuple]:
    """Consecutive rounds grouped ``size`` at a time; a short remainder
    joins the window before it.  Tail latency and goodput are medians over
    these windows, so a burst of load from outside the process that slows
    one window does not move the run's figure."""
    windows = []
    for start in range(0, len(rounds), size):
        group = rounds[start:start + size]
        samples = [value for latencies, __ in group for value in latencies]
        ok = sum(passed for __, passed in group)
        if windows and len(group) < size:
            previous_samples, previous_ok = windows.pop()
            samples, ok = previous_samples + samples, previous_ok + ok
        windows.append((samples, ok))
    return windows


def _declared(figures: dict, kind: str) -> dict:
    """The figures of every metric ``BENCHMARK.json`` declares as
    ``kind``, with their declared units; a missing figure is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {
        metric["name"]: {"value": figures[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def _counters(workload, rec) -> dict:
    counters = dict(workload.counters())
    counters.update(rec.calls)
    return {name: counters.get(name, 0) for name in COUNTERS}


def layer_figures(rec, summary, workload, deltas, latencies) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    d = deltas
    ops = len(latencies[True])
    queries = d["bench.execute_calls"]
    serve_overhead = summary.outside_ms("serve", "answer")
    figures = {
        "kb.load_s": summary.per_setup_s("kb.load"),
        "kb.build_segments_s": 0.0,
        "kb.scans_per_op": _ratio(d["kb.segments.scans"], ops),
        "kb.shard_cache.hit_ratio": _hit_ratio(d, "kb.shard_cache"),
        "construct.patterns_s": summary.per_setup_s("construct.patterns"),
        "construct.wordnet_s": summary.per_setup_s("construct.wordnet"),
        "construct.kb_index_s": summary.per_setup_s("construct.kb_index"),
        "annotate.busy_s": summary.busy_s("annotate"),
        "annotate.p50_ms": summary.p50_ms("annotate"),
        "extract.busy_s": summary.busy_s("extract"),
        "map.busy_s": summary.busy_s("map"),
        "map.p50_ms": summary.p50_ms("map"),
        "map.similarity_memo.hit_ratio": _hit_ratio(d, "similarity.memo"),
        "map.scan_pruned_per_op": _ratio(d["mapping.scan_pruned"], ops),
        "generate.busy_s": summary.busy_s("generate"),
        "generate.candidates_per_op": _ratio(
            d["bench.generated_candidates"], ops
        ),
        "execute.busy_s": summary.busy_s("execute"),
        "execute.p50_ms": summary.p50_ms("execute"),
        "execute.queries_per_op": _ratio(queries, ops),
        "execute.productive_ratio": _ratio(
            d["bench.winners"], d["execute.candidates_run"]
        ),
        "sparql.result_cache.hit_ratio": _hit_ratio(d, "sparql.result_cache"),
        "sparql.plan_cache.hit_ratio": _hit_ratio(d, "sparql.plan_cache"),
        "sparql.scatter.shards_scanned_per_query": _ratio(
            d["sparql.scatter.shards_scanned"], queries
        ),
        "sparql.scatter.rows_gathered_per_query": _ratio(
            d["sparql.scatter.rows_gathered"], queries
        ),
        "sparql.columnar.rows_in_per_query": _ratio(
            d["sparql.columnar.rows_in"], queries
        ),
        "typecheck.busy_s": summary.busy_s("typecheck"),
        "serve.overhead_p50_ms": (
            statistics.median(serve_overhead) if serve_overhead else 0.0
        ),
        "runtime.gc_pause_s": rec.gc_pause_s,
        "runtime.gc_collections": rec.gc_collections,
        "trace.overhead_p50_ms": (
            percentile(latencies[True], 0.5) - percentile(latencies[False], 0.5)
        ) * 1000.0,
    }
    figures.update(workload.layer_figures)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test only: corrupt the first output of round 1",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"qabench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"qabench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.corrupt, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
