"""corpus-cold: serial, uncached feature extraction of whole apps.

The path under ``repro analyze`` and ``repro train --no-cache``: an
``ExtractionEngine(workers=1)`` with no cache, each operation extracting
one app from fresh ``SourceFile`` objects (``FileArtifact`` caches tokens,
functions and CFGs on the ``SourceFile``, so reused objects would skip
the lexer). Lexing, parsing and the per-file analyzers do nearly all the
work; the tree-level merge is a small share; cache, gate and serve idle.
"""

from __future__ import annotations

import os
import statistics
import time

import layers
from common import (
    LANGUAGES,
    quantile,
    SpeedScale,
    median_setup,
    sample_apps,
    seeded_subset,
    self_peak_rss_mb,
)

SETUP_REPEATS = 3
#: Apps re-extracted untimed for the order and warm-replay checks.
SUBSET = 3


def _line_split_total(row) -> int:
    """Physical lines implied by the row's code/comment/blank split."""
    code = row["size.sample_loc"]
    comment_ratio = row["size.comment_ratio"]
    blank_ratio = row["size.blank_ratio"]
    comment = round(comment_ratio * code / (1.0 - comment_ratio))
    return round((code + comment) / (1.0 - blank_ratio))


#: Per-rule and per-CWE finding densities are sparse by design: a row
#: carries them only for rules that fired (the feature table zero-fills).
SPARSE_PREFIXES = ("bugs.rule.", "bugs.cwe.")


def dense_names(row) -> tuple:
    return tuple(name for name in row
                 if not name.startswith(SPARSE_PREFIXES))


def _check_row(result, row, names, app) -> None:
    result.check(dense_names(row) == names,
                 f"{app.name}: feature names differ from the first row")
    result.check(all(name.endswith("_per_kloc") for name in row
                     if name.startswith(SPARSE_PREFIXES)),
                 f"{app.name}: malformed per-rule feature name")
    result.check(_line_split_total(row) == app.lines,
                 f"{app.name}: code+comment+blank = "
                 f"{_line_split_total(row)}, counted {app.lines} lines")
    onehot = {lang: row[f"lang.{lang}"] for lang in LANGUAGES}
    expected = {lang: float(lang == app.language) for lang in LANGUAGES}
    result.check(onehot == expected,
                 f"{app.name}: lang one-hot {onehot}, generated as "
                 f"{app.language}")


def _same(a, b) -> bool:
    return repr(list(a.items())) == repr(list(b.items()))


def _subset_checks(result, apps, seed, work) -> None:
    """Order independence and warm replay, untimed, on a seeded subset."""
    from repro.engine import ExtractionEngine, FeatureCache

    cold = ExtractionEngine(workers=1)
    for app in seeded_subset(seed, apps, SUBSET, "corpus-subset"):
        reference = cold.extract_one(app.codebase())
        reversed_row = cold.extract_one(app.codebase(reverse=True))
        result.check(_same(reference, reversed_row),
                     f"{app.name}: row changes with file order")
        cache_dir = os.path.join(work, f"cache-{app.name}")
        cached = ExtractionEngine(workers=1, cache=FeatureCache(cache_dir))
        stored = cached.extract_one(app.codebase())
        warm = cached.extract_one(app.codebase())
        result.check(_same(reference, stored) and _same(reference, warm),
                     f"{app.name}: warm replay differs from cold row")


def run(args, result, work, imports) -> None:
    from repro.engine import ExtractionEngine

    setup_times, apps = median_setup(
        SETUP_REPEATS, lambda: (sample_apps(args.seed), None))
    engine = ExtractionEngine(workers=1)
    rec = patches = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        patches = tracing.install(rec)

    names = dense_names(engine.extract_one(apps[0].codebase()))  # warm-up
    raw, traced = [], []
    speed = SpeedScale()
    lines = 0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    # Whole rounds over the sample, so every run has the same app mix.
    while True:
        for index, app in enumerate(apps):
            codebase = app.codebase()
            trace_op = rec is not None and (index + rounds) % 2 == 1
            speed.measure()
            if trace_op:
                rec.active = True
                root = rec.begin("op")
            start = time.perf_counter()
            row = engine.extract_one(codebase)
            elapsed = time.perf_counter() - start
            if trace_op:
                rec.end(root)
                rec.active = False
            result.op("app")
            _check_row(result, row, names, app)
            raw.append(elapsed)
            traced.append((trace_op, index))
            lines += app.lines
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    speed.measure()
    peak_rss = self_peak_rss_mb()
    scaled = speed.scaled(raw)
    if patches is not None:
        patches.restore()
    _subset_checks(result, apps, args.seed, work)

    result.info("inputs", {
        "apps": len(apps), "files": sum(len(a.files) for a in apps),
        "kloc": sum(a.lines for a in apps) / 1000.0, "rounds": rounds})
    result.info("probe", speed.summary())
    if rec is None:
        _report_end_to_end(result, raw, scaled, lines, peak_rss)
        result.setup_metric(setup_times, imports)
    else:
        _report_layers(result, rec, scaled, traced, args)


def _report_end_to_end(result, raw, scaled, lines, peak_rss) -> None:
    ms = [s * 1e3 for s in scaled]
    raw_ms = [s * 1e3 for s in raw]
    result.info("extract (raw)", {
        "p50_ms": statistics.median(raw_ms), "p90_ms": quantile(raw_ms, 90),
        "kloc_per_s": lines / 1000.0 / sum(raw)})
    result.metric("latency_p50_ms", statistics.median(ms), "ms")
    result.metric("latency_p90_ms", quantile(ms, 90), "ms")
    result.metric("kloc_per_s", lines / 1000.0 / sum(scaled), "kLoC/s")
    result.metric("peak_rss_mb", peak_rss, "MB")


def _report_layers(result, rec, scaled, traced, args) -> None:
    values = layers.op_layers(rec, scaled, traced)
    files = rec.counts.get("analysis.file_record_calls", 0)
    result.check(rec.counts.get("lang.tokenize_calls", 0) == files,
                 f"tokenize calls {rec.counts.get('lang.tokenize_calls')} "
                 f"!= files extracted {files}")
    path = layers.write_spans(rec, args.workload, args.seed)
    result.info("spans", {"count": len(rec.spans), "file": path})
    layers.report(result, values)
