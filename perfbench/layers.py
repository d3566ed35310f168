"""The per-layer metrics a traced run reports, and how they are derived.

Counts are per operation and times are self time per operation (raw
seconds, not probe-scaled). A layer that a workload does not exercise
reads 0.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, Mapping

#: (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("lang.tokenize_calls", "count"),
    ("lang.tokens", "count"),
    ("lang.tokenize_s", "s"),
    ("lang.tokens_per_s", "1/s"),
    ("lang.parse_s", "s"),
    ("analysis.artifact_builds", "count"),
    ("analysis.file_record_calls", "count"),
    ("analysis.file_record_s", "s"),
    ("analysis.callgraph_s", "s"),
    ("analysis.oo_s", "s"),
    ("surface.rasq_s", "s"),
    ("surface.attack_graph_s", "s"),
    ("core.merge_calls", "count"),
    ("core.merge_s", "s"),
    ("engine.file_lookups", "count"),
    ("engine.file_hit_ratio", "ratio"),
    ("engine.files_recomputed", "count"),
    ("engine.row_hits", "count"),
    ("engine.cache_io_s", "s"),
    ("engine.digest_s", "s"),
    ("gate.report_s", "s"),
    ("model.assess_calls", "count"),
    ("model.assess_s", "s"),
    ("trace.ops", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

#: The serving layers, which only ``serve-mixed`` exercises. That workload
#: is not in BENCHMARK.json (see the README), so they are printed by its
#: traced run only.
SERVE_LAYERS = (
    ("serve.http_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.encode_s", "s"),
    ("serve.tree_read_ms", "ms"),
    ("serve.pool_ipc_ms", "ms"),
    ("serve.task_bytes", "bytes"),
)

#: Span name -> self-time metric.
SELF_TIME = {
    "lang.tokenize": "lang.tokenize_s",
    "lang.parse": "lang.parse_s",
    "analysis.file_record": "analysis.file_record_s",
    "analysis.callgraph": "analysis.callgraph_s",
    "analysis.oo": "analysis.oo_s",
    "surface.rasq": "surface.rasq_s",
    "surface.attack_graph": "surface.attack_graph_s",
    "core.merge": "core.merge_s",
    "engine.cache_io": "engine.cache_io_s",
    "engine.digest": "engine.digest_s",
    "gate.report": "gate.report_s",
    "model.assess": "model.assess_s",
    "serve.encode": "serve.encode_s",
}

#: Work counts reported per operation as they were counted.
COUNTS = ("lang.tokenize_calls", "lang.tokens", "analysis.artifact_builds",
          "analysis.file_record_calls", "core.merge_calls",
          "engine.file_lookups", "engine.row_hits", "model.assess_calls")


def per_op(selfs: Mapping[str, float], counts: Mapping[str, float],
           n_ops: int) -> Dict[str, float]:
    """Self times and counts of ``n_ops`` operations, per operation."""
    out: Dict[str, float] = {}
    for span, metric in SELF_TIME.items():
        if span in selfs:
            out[metric] = selfs[span] / n_ops
    for name in COUNTS:
        if counts.get(name):
            out[name] = counts[name] / n_ops
    tokenize_s = selfs.get("lang.tokenize", 0.0)
    if tokenize_s > 0:
        out["lang.tokens_per_s"] = counts.get("lang.tokens", 0) / tokenize_s
    lookups = counts.get("engine.file_lookups", 0)
    if lookups:
        hits = counts.get("engine.file_hits", 0)
        out["engine.file_hit_ratio"] = hits / lookups
        out["engine.files_recomputed"] = (lookups - hits) / n_ops
    return out


def overhead_share(times, traced) -> float:
    """Traced over untraced time of the same inputs, minus 1.

    ``traced`` pairs each time with (was traced, input key); each input's
    mean traced and untraced times are compared, inputs weighted equally.
    A run too short for any input to run both ways compares all traced
    operations with all untraced ones.
    """
    sums = {}
    for elapsed, (on, key) in zip(times, traced):
        bucket = sums.setdefault(key, {True: [], False: []})
        bucket[on].append(elapsed)
    both = [b for b in sums.values() if b[True] and b[False]]
    if not both:
        both = [{on: [t for t, (o, _) in zip(times, traced) if o == on]
                 for on in (True, False)}]
        if not (both[0][True] and both[0][False]):
            return 0.0
    on = sum(statistics.mean(b[True]) for b in both)
    off = sum(statistics.mean(b[False]) for b in both)
    return on / off - 1.0


def op_layers(rec, times, traced) -> Dict[str, float]:
    """Per-layer metrics of a workload whose operations are ``op`` spans."""
    n_ops = sum(1 for on, _ in traced if on)
    selfs = rec.self_times().get("op", {})
    values = per_op(selfs, rec.counts, n_ops)
    values["trace.ops"] = n_ops
    values["trace.unattributed_share"] = (
        selfs.get("op", 0.0) / sum(rec.durations("op")))
    values["trace.overhead_share"] = overhead_share(times, traced)
    return values


def report(result, values: Mapping[str, float], extra=()) -> None:
    """Every per-layer metric (and ``extra`` ones) into ``result``;
    absent layers read 0."""
    for name, unit in PER_LAYER + tuple(extra):
        result.metric(name, values.get(name, 0.0), unit)


def write_spans(rec, workload: str, seed: int) -> str:
    """Dump the run's spans next to the other run outputs."""
    from common import WORK_ROOT

    directory = os.path.join(WORK_ROOT, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.tsv")
    rec.write(path)
    return path
