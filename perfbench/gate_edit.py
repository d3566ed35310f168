"""gate-edit: warm re-assessment of a mixed-language tree after one edit.

Each operation is ``repro.gate_tree(base, head, model=...)`` through a
feature cache, as a CI gate runs it: the base is the previous head (so
its file records are warm) and the head carries one seeded edit to one
file. This is the incremental path: cache lookups, one file's analyzers,
and the tree-level merge, which today re-lexes both trees in full.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import layers
from common import (
    App,
    SpeedScale,
    count_lines,
    in_child,
    median_setup,
    quantile,
    sample_apps,
    seeded_subset,
    self_peak_rss_mb,
    train_model,
)

SETUP_REPEATS = 3
#: Line budget of the one app per language the monorepo is made of; about
#: 30 files and 4 kLoC, sized so that a 30 s run holds MIN_GATES gates.
TREE_BUDGETS = {"c": 1000, "cpp": 700, "java": 1000, "python": 700}
#: The run goes on past its seconds until this many gates are done, so
#: that ten gates lie beyond the 90th percentile.
MIN_GATES = 100
#: Gates re-checked untimed against cold, uncached extractions.
SUBSET = 3

_BENIGN = {
    "c": ("int perfbench_edit_{k}(int value) {{\n"
          "    int total = value * {a};\n"
          "    if (total > {b}) {{\n"
          "        total -= {c};\n"
          "    }}\n"
          "    return total;\n"
          "}}\n"),
    "java": ("class PerfbenchEdit{k} {{\n"
             "    public int run(int value) {{\n"
             "        int total = value * {a};\n"
             "        if (total > {b}) {{\n"
             "            total -= {c};\n"
             "        }}\n"
             "        return total;\n"
             "    }}\n"
             "}}\n"),
    "python": ("def perfbench_edit_{k}(value):\n"
               "    total = value * {a}\n"
               "    if total > {b}:\n"
               "        total -= {c}\n"
               "    return total\n"),
}
_RISKY = {
    "c": ("void perfbench_edit_{k}(char *input) {{\n"
          "    char buf[{a}];\n"
          "    strcpy(buf, input);\n"
          "    system(input);\n"
          "}}\n"),
    "java": ("class PerfbenchEdit{k} {{\n"
             "    public void run(String key) {{\n"
             "        stmt.query(\"SELECT * FROM t WHERE k=\" + key);\n"
             "        Runtime.exec(key);\n"
             "    }}\n"
             "}}\n"),
    "python": ("def perfbench_edit_{k}(value):\n"
               "    eval(value)\n"
               "    return value + {a}\n"),
}


def _language(path: str) -> str:
    if path.endswith(".py"):
        return "python"
    if path.endswith(".java"):
        return "java"
    return "c"  # C and C++ share the template


def edit(texts, k: int, rng: random.Random) -> str:
    """Append one seeded function to one seeded file; returns its path."""
    path = rng.choice(sorted(texts))
    templates = _RISKY if rng.random() < 0.3 else _BENIGN
    snippet = templates[_language(path)].format(
        k=k, a=rng.randint(2, 64), b=rng.randint(10, 500),
        c=rng.randint(1, 9))
    text = texts[path]
    texts[path] = text + ("" if text.endswith("\n") else "\n") \
        + "\n" + snippet
    return path


def build_tree(seed: int) -> App:
    """One seeded app per language, each in its own directory.

    The line budget of each language's app is fixed (``TREE_BUDGETS``), so
    every seed gives a tree of the same size; the merge's cost, and with it
    the gate's, grows with the whole tree.
    """
    files = []
    for app in sample_apps(seed):
        if app.budget == TREE_BUDGETS[app.language]:
            files.extend((f"{app.name}/{path}", text)
                         for path, text in app.files)
    return App("monorepo", "mixed", files)


def new_file_records(cache_dir: str, seen: dict) -> int:
    """Per-file analyzer records written to the cache since the last call.

    A file's record is stored exactly when its analyzers ran, so after a
    one-file edit the gate should have written one. Reads the filesystem
    cache's ``<key[:2]>/<key>.json`` entries (each write replaces the
    file, so a rewrite shows as a new inode); file records are the
    entries with a ``record``.
    """
    written = 0
    for shard in os.scandir(cache_dir):
        if not shard.is_dir():
            continue
        for entry in os.scandir(shard.path):
            if not entry.name.endswith(".json"):
                continue
            stamp = (entry.inode(), entry.stat().st_mtime_ns)
            if seen.get(entry.path) != stamp:
                seen[entry.path] = stamp
                with open(entry.path) as fh:
                    written += "record" in json.load(fh)
    return written


def codebase(texts):
    from repro.lang import Codebase, SourceFile

    return Codebase("monorepo", [SourceFile(path, text)
                                 for path, text in texts.items()])


def run(args, result, work, imports) -> None:
    import repro
    from repro.engine import EngineConfig, ExtractionEngine

    count = [0]

    def setup():
        count[0] += 1
        tree = build_tree(args.seed)
        model = in_child(train_model, args.seed)
        config = EngineConfig(
            workers=1, cache_dir=os.path.join(work, f"cache-{count[0]}"))
        config.build().extract_with_records(codebase(dict(tree.files)))
        return (tree, model, config), None

    setup_times, (tree, model, config) = median_setup(SETUP_REPEATS, setup)
    rng = random.Random(f"perfbench:{args.seed}:edits")
    head = dict(tree.files)
    checked = set(seeded_subset(args.seed, range(MIN_GATES), SUBSET,
                                "gate-subset"))
    saved = []
    seen = {}
    new_file_records(config.cache_dir, seen)

    rec = patches = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        patches = tracing.install(rec)

    tree_lines = [tree.lines]

    def gate(k, trace_op=False):
        base = dict(head)
        path = edit(head, k + 1, rng)  # the warm-up gate is k = -1
        tree_lines[0] += count_lines(head[path]) - count_lines(base[path])
        base_cb, head_cb = codebase(base), codebase(head)
        speed.measure()
        if trace_op:
            misses = rec.counts.get("engine.file_lookups", 0) \
                - rec.counts.get("engine.file_hits", 0)
            rec.active = True
            root = rec.begin("op")
        start = time.perf_counter()
        report = repro.gate_tree(base_cb, head_cb, model=model,
                                 config=config)
        elapsed = time.perf_counter() - start
        if trace_op:
            rec.end(root)
            rec.active = False
            recomputed = rec.counts.get("engine.file_lookups", 0) \
                - rec.counts.get("engine.file_hits", 0) - misses
            result.check(recomputed == 1,
                         f"gate {k}: {recomputed} files recomputed")
        written = new_file_records(config.cache_dir, seen)
        result.check(written == 1,
                     f"gate {k}: {written} file records written, expected 1")
        counts = report.counts
        result.check(
            counts.get("changed") == 1 and counts.get("added") == 0
            and counts.get("removed") == 0,
            f"gate {k}: expected one changed file, got {counts}")
        result.check([f.path for f in report.files] == [path],
                     f"gate {k}: report names "
                     f"{[f.path for f in report.files]}, edited {path}")
        if k in checked:
            saved.append((k, base, dict(head), report))
        return elapsed

    speed = SpeedScale()
    gate(-1)  # warm-up, untimed
    raw, traced = [], []
    lines = 0
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < MIN_GATES or time.perf_counter() < deadline:
        trace_op = rec is not None and k % 2 == 1
        elapsed = gate(k, trace_op)
        result.op("gate")
        raw.append(elapsed)
        lines += tree_lines[0]
        # Consecutive gates see nearly the same tree, so neighbours pair.
        traced.append((trace_op, k // 2))
        k += 1
    speed.measure()
    peak_rss = self_peak_rss_mb()
    scaled = speed.scaled(raw)
    if patches is not None:
        patches.restore()

    cold = ExtractionEngine(workers=1)
    warm = config.build()
    for index, base, head_texts, report in saved:
        for side, texts, risk in (("base", base, report.risk_before),
                                  ("head", head_texts, report.risk_after)):
            cold_row = cold.extract_one(codebase(texts))
            warm_row, _ = warm.extract_with_records(codebase(texts))
            result.check(repr(cold_row) == repr(warm_row),
                         f"gate {index}: {side} row differs from cold row")
            result.check(model.assess(cold_row).overall_risk == risk,
                         f"gate {index}: {side} risk differs from the "
                         f"model's overall_risk on the cold row")
        result.check(report.risk_delta == report.risk_after
                     - report.risk_before, f"gate {index}: risk delta")

    result.info("inputs", {"files": len(head), "kloc": tree.lines / 1000.0,
                           "gates": len(raw)})
    result.info("probe", speed.summary())
    if rec is None:
        raw_ms = [s * 1e3 for s in raw]
        ms = [s * 1e3 for s in scaled]
        result.info("gate (raw)", {"p50_ms": statistics.median(raw_ms),
                                   "p90_ms": quantile(raw_ms, 90)})
        result.metric("latency_p50_ms", statistics.median(ms), "ms")
        result.metric("latency_p90_ms", quantile(ms, 90), "ms")
        result.metric("kloc_per_s", lines / 1000.0 / sum(scaled),
                      "kLoC/s")
        result.setup_metric(setup_times, imports)
        result.metric("peak_rss_mb", peak_rss, "MB")
        return
    values = layers.op_layers(rec, scaled, traced)
    path = layers.write_spans(rec, args.workload, args.seed)
    result.info("spans", {"count": len(rec.spans), "file": path})
    layers.report(result, values)
