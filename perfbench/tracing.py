"""Benchmark-owned tracing: wrappers around the program's public layers.

The traced run patches each layer's public function or method on its
class or module (and on every ``repro`` module that imported the function
by name), so every caller goes through the wrapper. Wrappers record
spans (name, start, end, parent) in memory and a few work counts; they do
nothing while the recorder is inactive, so a traced run can interleave
traced and untraced operations and report the tracing overhead from
the difference. Nothing is added inside ``src/``.

A span's self time is its duration minus its children's durations;
children are the spans opened on the same thread while it was open.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Modules imported before patching, so that every module that imported a
#: wrapped function by name is loaded and gets the wrapper too.
_MODULES = (
    "repro.lang.lexer", "repro.lang.parser", "repro.lang.sourcefile",
    "repro.analysis.artifact", "repro.analysis.callgraph",
    "repro.analysis.oo", "repro.surface.rasq",
    "repro.surface.attack_graph", "repro.core.features",
    "repro.core.model", "repro.engine.cache", "repro.engine.digest",
    "repro.engine.scheduler", "repro.gate.delta", "repro.serve.payloads",
    "repro.serve.handlers", "repro.serve.batching",
    "repro.serve.enginepool", "repro.serve.server", "repro.serve.aio",
)


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Recorder:
    """In-memory spans and counts; written out once the run ends."""

    def __init__(self):
        self.active = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float) -> Span:
        """A span timed elsewhere, parented to this thread's open span."""
        stack = self._stack()
        span = Span(name, start, stack[-1] if stack else None)
        span.end = end
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Summed self time per root span name, then per span name.

        Grouping by root keeps apart the work of different request
        kinds (``op``, ``serve.handler./predict``, ...).
        """
        child_total: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_total[id(span.parent)] += span.end - span.start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = root.parent
            totals[root.name][span.name] += (span.end - span.start
                                             - child_total[id(span)])
        return totals

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """One line per span: name, start, end, parent line (-1: root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                parent = -1 if span.parent is None \
                    else index.get(id(span.parent), -1)
                fh.write(f"{span.name}\t{span.start:.9f}\t"
                         f"{span.end:.9f}\t{parent}\n")


def _wrapper(rec: Recorder, name, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    """``name`` is the span name, or a function of the call's arguments."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            after(args, result)
        return result
    return wrapped


class Patches:
    """Installs wrappers and puts the originals back on :meth:`restore`."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: List[tuple] = []

    def function(self, module: str, attr: str, name: str,
                 after: Optional[Callable] = None) -> None:
        original = getattr(sys.modules[module], attr)
        wrapped = _wrapper(self.rec, name, original, after)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def method(self, cls: type, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrapper(self.rec, name, raw.__func__,
                                           after))
        else:
            wrapped = _wrapper(self.rec, name, raw, after)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder) -> Patches:
    """Wrap every layer the per-layer metrics name."""
    for module in _MODULES:
        importlib.import_module(module)
    from repro.analysis.artifact import FileArtifact
    from repro.core.model import SecurityModel
    from repro.engine.cache import FeatureCache
    from repro.lang.lexer import Lexer
    from repro.lang.sourcefile import Codebase
    from repro.serve.batching import MicroBatcher
    from repro.serve.enginepool import EnginePool

    count = rec.count
    p = Patches(rec)
    p.method(Lexer, "tokenize", "lang.tokenize",
             lambda a, r: (count("lang.tokenize_calls"),
                           count("lang.tokens", len(r))))
    p.function("repro.lang.parser", "extract_functions", "lang.parse")
    p.function("repro.lang.parser", "extract_classes", "lang.parse")
    p.method(FileArtifact, "__init__", "analysis.artifact",
             lambda a, r: count("analysis.artifact_builds"))
    p.function("repro.core.features", "extract_features_with_records",
               "analysis.file_record",
               lambda a, r: count("analysis.file_record_calls", len(a[0])))
    p.function("repro.core.features", "file_record",
               "analysis.file_record",
               lambda a, r: count("analysis.file_record_calls"))
    p.function("repro.core.features", "merge_records", "core.merge",
               lambda a, r: count("core.merge_calls"))
    p.function("repro.analysis.callgraph", "measure_codebase",
               "analysis.callgraph")
    p.function("repro.analysis.oo", "measure_codebase", "analysis.oo")
    p.function("repro.surface.rasq", "measure_file", "surface.rasq")
    p.function("repro.surface.rasq", "measure_codebase", "surface.rasq")
    p.function("repro.surface.attack_graph", "measure_codebase",
               "surface.attack_graph")
    p.function("repro.engine.digest", "file_digest", "engine.digest")
    p.function("repro.engine.digest", "task_digest", "engine.digest")
    p.method(FeatureCache, "get", "engine.cache_io",
             lambda a, r: count("engine.row_hits", r is not None))
    p.method(FeatureCache, "get_file", "engine.cache_io",
             lambda a, r: (count("engine.file_lookups"),
                           count("engine.file_hits", r is not None)))
    for attr in ("put", "put_file", "get_manifest", "put_manifest"):
        p.method(FeatureCache, attr, "engine.cache_io")
    p.function("repro.gate.delta", "build_gate_report", "gate.report")
    p.method(SecurityModel, "assess", "model.assess",
             lambda a, r: count("model.assess_calls"))
    p.function("repro.serve.handlers", "handle_request",
               lambda a: f"serve.handler.{a[2]}")
    for attr in ("prediction_payload", "analysis_payload", "dump_payload"):
        p.function("repro.serve.payloads", attr, "serve.encode")
    p.method(Codebase, "from_directory", "serve.tree_read")
    p.method(EnginePool, "extract_one", "serve.pool")

    submit = MicroBatcher.__dict__["submit"]

    @functools.wraps(submit)
    def timed_submit(self, item):
        future = submit(self, item)
        if rec.active:
            # The handler thread blocks on this future: the wait from
            # submit to result is a child of its open handler span.
            now = time.perf_counter()
            span = rec.add("serve.batch_wait", now, now)

            def close(_future, span=span):
                span.end = time.perf_counter()
            future.add_done_callback(close)
        return future

    MicroBatcher.submit = timed_submit
    p._undo.append((MicroBatcher, "submit", submit))
    return p
