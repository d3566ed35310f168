"""Shared pieces of the benchmark: inputs, the speed probe, statistics.

Everything here runs in the benchmark process and calls the program only
through its public entry points. Inputs are made from the seed alone, so
one seed always gives the same trees, edits and feature rows.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs from, and the program's sources in it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated trees, caches, models and span dumps.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

LANGUAGES = ("c", "cpp", "java", "python")

#: Line budgets the app sampler hands the generator, per language. The
#: profiles and the code come from the seed, but every draw has the same
#: size profile, so the per-app latency distribution (and its median)
#: does not shift with the seed. Each language spans small to large apps.
APP_LINE_BUDGETS = (400, 550, 700, 850, 1000, 1150, 1300, 1450, 1600)

#: Iterations of the speed probe's loop; about 3 ms on the reference host.
PROBE_ITERS = 20000
#: The probe's time on the reference host (2-core x86-64, Python 3.11).
#: Scaled time = raw time * PROBE_REF_S / probe time around the op.
PROBE_REF_S = 0.0033


def probe() -> float:
    """Time a fixed pure-Python loop that allocates no GC-tracked objects.

    The loop touches only small ints, so it measures how fast this
    process runs Python right now and nothing about the program.
    """
    x = 1
    start = time.perf_counter()
    for _ in range(PROBE_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - start


def scaled_time(fn) -> Tuple[float, float, object]:
    """Run ``fn()``; its raw seconds, its scaled seconds and its result.

    The scaled time divides by the mean of probes taken just before and
    just after the call, like :class:`SpeedScale` does for operations.
    """
    before = probe()
    start = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - start
    return raw, raw * PROBE_REF_S * 2 / (before + probe()), value


class SpeedScale:
    """Scales each operation's time by the host speed around it.

    ``measure()`` times the probe immediately before each operation, in
    the same thread, and once more after the last one. An operation's
    probe is the mean of the probes on either side of it, and its scaled
    time is ``raw * PROBE_REF_S / probe``: reference-host time.
    """

    def __init__(self):
        self.probes: List[float] = []

    def measure(self) -> None:
        self.probes.append(probe())

    def scaled(self, raw: Sequence[float]) -> List[float]:
        """Scaled times of ``raw``, the operations after the first probe.

        Needs one probe more than there are operations.
        """
        first = len(self.probes) - len(raw) - 1
        return [elapsed * PROBE_REF_S * 2
                / (self.probes[first + i] + self.probes[first + i + 1])
                for i, elapsed in enumerate(raw)]

    def summary(self) -> Dict[str, float]:
        """The probe's median and its own spread (IQR / median)."""
        q1, median, q3 = statistics.quantiles(self.probes, n=4)
        return {"median_ms": median * 1e3, "spread": (q3 - q1) / median,
                "ref_ms": PROBE_REF_S * 1e3}


def count_lines(text: str) -> int:
    """Physical lines as ``str.splitlines`` counts them."""
    return len(text.splitlines())


class App:
    """One generated app as plain text: what the program is handed."""

    def __init__(self, name: str, language: str,
                 files: Sequence[Tuple[str, str]], budget: int = 0):
        self.name = name
        self.language = language
        self.budget = budget
        self.files = list(files)
        self.lines = sum(count_lines(text) for _, text in self.files)

    def codebase(self, reverse: bool = False):
        """A fresh ``Codebase`` of fresh ``SourceFile`` objects."""
        from repro.lang import Codebase, SourceFile

        files = self.files[::-1] if reverse else self.files
        return Codebase(self.name, [SourceFile(path, text)
                                    for path, text in files])


def sample_apps(seed: int) -> List[App]:
    """A seeded, size-controlled sample of synthetic apps in all languages.

    For each language, seeded profiles are generated with each line
    budget in turn, so every seed yields different code of the same size.
    A language with fewer profiles than budgets (Python has six) reuses
    them with another generator seed.
    """
    from repro.synth.appgen import GeneratorConfig, generate_app
    from repro.synth.cvegen import generate_profiles

    profiles = generate_profiles(seed=seed)
    rng = random.Random(f"perfbench:{seed}:apps")
    chosen: List[App] = []
    for language in LANGUAGES:
        pool = [p for p in profiles if p.language == language]
        rng.shuffle(pool)
        for index, budget in enumerate(APP_LINE_BUDGETS):
            profile = pool[index % len(pool)]
            reuse = index // len(pool)
            config = GeneratorConfig(min_lines=budget, max_lines=budget)
            app = generate_app(profile, seed=seed + 7919 * reuse,
                               config=config)
            name = profile.name + (f"-{reuse}" if reuse else "")
            chosen.append(App(name, language,
                              [(f.path, f.text) for f in app.codebase.files],
                              budget))
    return chosen


#: The model trained in set-up: this many apps of this many lines, with
#: this many cross-validation folds. Fixed app sizes keep the training
#: cost (part of set-up) and its memory peak the same for every seed.
MODEL_APPS = 8
MODEL_APP_LINES = 700
MODEL_FOLDS = 2


def train_model(seed: int):
    """Train the security model through the public training pipeline."""
    from repro.core.pipeline import train
    from repro.engine import ExtractionEngine
    from repro.synth import build_corpus
    from repro.synth.appgen import GeneratorConfig

    config = GeneratorConfig(min_lines=MODEL_APP_LINES,
                             max_lines=MODEL_APP_LINES)
    corpus = build_corpus(seed=seed, limit=MODEL_APPS, config=config,
                          workers=1)
    return train(corpus, k=MODEL_FOLDS, seed=seed,
                 engine=ExtractionEngine(workers=1)).model


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process; returns its result.

    Work the benchmark does for itself (training the set-up model,
    computing expected outputs) runs here, so that this process's peak
    RSS covers only the inputs and the measured operations.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(fn, *args).result()


# -- statistics ---------------------------------------------------------


def quantile(values: Sequence[float], q: int, n: int = 100) -> float:
    """The ``q``-th of ``n`` quantiles (``statistics.quantiles`` cut)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=n)[q - 1]


def summary_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 in milliseconds and the sample count."""
    ms = [s * 1e3 for s in seconds]
    return {"n": len(ms), "p50": statistics.median(ms),
            "p90": quantile(ms, 90), "p99": quantile(ms, 99),
            "max": max(ms)}


# -- memory ---------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MB, so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and every live descendant."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    pending.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return total_kb / 1024.0


# -- output ---------------------------------------------------------------


class Result:
    """Operation accounting, checks and metrics of one benchmark run."""

    def __init__(self):
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.check_failures: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}

    def op(self, kind: str, ok: bool = True) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def check(self, condition: bool, message: str) -> bool:
        """Record a failed output check (the first few are printed)."""
        if not condition:
            if len(self.check_failures) < 5:
                print(f"CHECK FAILED: {message}", file=sys.stderr)
            self.check_failures.append(message)
        return condition

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def setup_metric(self, setup: Tuple[float, float],
                     imports: Tuple[float, float]) -> None:
        """``setup_s``: imports plus the median set-up, probe-scaled.

        Both arguments are ``(raw, scaled)`` seconds; the raw sum is
        printed beside the metric.
        """
        self.info("setup (raw)", {"s": setup[0] + imports[0]})
        self.metric("setup_s", setup[1] + imports[1], "s")

    def info(self, label: str, values: Dict[str, object]) -> None:
        """A human-readable line ahead of the final JSON object."""
        parts = []
        for key, value in values.items():
            if isinstance(value, float):
                value = f"{value:.4g}"
            parts.append(f"{key}={value}")
        print(f"# {label}: {' '.join(parts)}", flush=True)

    def emit(self) -> int:
        for kind in sorted(self.attempted):
            self.info("ops", {"kind": kind,
                              "attempted": self.attempted[kind],
                              "failed": self.failed.get(kind, 0)})
        correct = not self.check_failures
        if not correct:
            self.info("checks", {"failed": len(self.check_failures)})
        print(json.dumps({
            "correct": correct,
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
            "metrics": self.metrics,
        }), flush=True)
        return 0 if correct else 1


def median_setup(repeats: int, setup) -> Tuple[Tuple[float, float], object]:
    """Run ``setup()`` ``repeats`` times; median (raw, scaled) seconds
    and the last state.

    ``setup`` returns ``(state, cleanup)``; every state but the last is
    cleaned up untimed straight after its repetition. Each repetition is
    scaled by the probes on either side of it (:func:`scaled_time`).
    """
    raw: List[float] = []
    scaled: List[float] = []
    state: Optional[object] = None
    for index in range(repeats):
        elapsed, elapsed_scaled, (state, cleanup) = scaled_time(setup)
        raw.append(elapsed)
        scaled.append(elapsed_scaled)
        if index < repeats - 1 and cleanup is not None:
            cleanup()
    return (statistics.median(raw), statistics.median(scaled)), state


def seeded_subset(seed: int, items: Iterable, k: int, tag: str) -> list:
    """``k`` items chosen by the seed, in their original order."""
    items = list(items)
    rng = random.Random(f"perfbench:{seed}:{tag}")
    picked = sorted(rng.sample(range(len(items)), min(k, len(items))))
    return [items[i] for i in picked]
