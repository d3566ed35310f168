"""serve-mixed: ``/analyze`` and ``/predict`` side by side on one daemon.

Run by hand; not in BENCHMARK.json, because its raw wall-time figures
follow the shared host's speed too closely to hold a bound (README).

``repro serve`` runs with its defaults (async tier, default pool size)
plus ``--no-cache`` (a rotating set of trees would otherwise measure
cache hits) and the model trained in set-up. One benchmark process drives
it over loopback keep-alive connections:

- a closed-loop ``/analyze`` client cycling over seeded app trees on disk
  (tree read, pool checkout and IPC, extraction: CPU-heavy);
- an open-loop ``/predict`` stream of seeded Poisson arrivals at a fixed
  rate below the daemon's capacity, spread over several connections so
  that requests share micro-batches, each request timed from when it was
  due (HTTP framing, admission, the micro-batcher, model scoring,
  encoding: latency-bound). Open loop, so a faster ``/predict`` does not
  turn into extra load that takes CPU from ``/analyze``.

Latencies are raw wall time: they include the batch window (a timed
wait) and work in other processes, which a probe in this process cannot
pair with. The traced run hosts the daemon's public server class in this
process instead, so the wrappers see its handlers.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
from common import (
    SRC,
    in_child,
    median_setup,
    process_tree_peak_rss_mb,
    quantile,
    sample_apps,
    self_peak_rss_mb,
    train_model,
    summary_ms,
)

SETUP_REPEATS = 3
#: Open-loop /predict rate (requests per second): about 30% of the
#: daemon's closed-loop /predict capacity with the /analyze client
#: running (about 650/s on the reference host; see the README), so a
#: 10 ms batch window collects a few requests and no backlog builds.
PREDICT_RATE = 200
#: Connections the /predict stream is spread over (request i on connection
#: i mod N). One keep-alive connection carries one request at a time, so a
#: single one would never put two requests in the same micro-batch, and
#: with too few a request waits for its connection's previous one: with
#: 16, two requests on one connection are less than 30 ms apart in 0.05%
#: of cases (8 gave 26%).
PREDICT_CONNECTIONS = 16
BOOT_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_JSON = {"Content-Type": "application/json"}


class Tree:
    """One app written to disk, with the bytes ``/analyze`` must return."""

    def __init__(self, app, directory: str):
        self.app = app
        self.directory = directory
        self.lines = app.lines
        for path, text in app.files:
            full = os.path.join(directory, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.body = json.dumps({"path": directory}).encode()
        self.row = None
        self.expected = b""


class Daemon:
    """``repro serve`` as a child process, stopped with SIGTERM."""

    def __init__(self, model_path: str, work: str):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log_path = os.path.join(work, f"serve-{time.time_ns()}.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", model_path,
             "--port", "0", "--no-cache"],
            env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=self._log)
        self.host, self.port = self._wait_ready()

    def _wait_ready(self):
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        address = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if address is None:
                with open(self.log_path) as fh:
                    match = _LISTENING.search(fh.read())
                if match:
                    address = match.group(1), int(match.group(2))
            if address is not None:
                try:
                    conn = http.client.HTTPConnection(*address, timeout=5)
                    conn.request("GET", "/healthz")
                    ok = conn.getresponse().status == 200
                    conn.close()
                    if ok:
                        return address
                except OSError:
                    pass
            time.sleep(0.02)
        self.stop()
        with open(self.log_path) as fh:
            raise RuntimeError(f"daemon did not become healthy:\n{fh.read()}")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and its pool workers."""
        return process_tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _analyze_client(host, port, trees, deadline, rec, out) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=120)
    k = 0
    try:
        while time.perf_counter() < deadline:
            index = k % len(trees)
            traced = rec is not None and (k + k // len(trees)) % 2 == 1
            if rec is not None:
                rec.active = traced
            start = time.perf_counter()
            try:
                conn.request("POST", "/analyze", trees[index].body, _JSON)
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                status, body = -1, repr(exc).encode()
                conn.close()
            out.append((index, start, time.perf_counter(), status, body,
                        traced))
            k += 1
    finally:
        conn.close()


def arrivals(seed: int, seconds: float):
    """Seeded Poisson arrival offsets of the open-loop ``/predict`` stream.

    The count is fixed by the rate and the run length, so every run
    attempts the same number of requests.
    """
    rng = random.Random(f"perfbench:{seed}:predict")
    offsets, t = [], 0.0
    for _ in range(int(round(PREDICT_RATE * seconds))):
        t += rng.expovariate(PREDICT_RATE)
        offsets.append(t)
    return offsets


def _predict_client(host, port, bodies, t0, offsets, lane, rec,
                    out) -> None:
    """Every ``PREDICT_CONNECTIONS``-th request, from ``lane`` on."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        for i in range(lane, len(offsets), PREDICT_CONNECTIONS):
            due = t0 + offsets[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            on = rec is not None and rec.active
            try:
                conn.request("POST", "/predict", bodies[i % len(bodies)],
                             _JSON)
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                status, body = -1, repr(exc).encode()
                conn.close()
            done = time.perf_counter()
            traced = on and rec.active
            out.append((i % len(bodies), due, sent, done, status, body,
                        traced))
    finally:
        conn.close()


def drive(host, port, trees, bodies, offsets, seconds, rec=None):
    """Both clients for ``seconds``; returns their per-request records."""
    analyze, predict = [], []
    t0 = time.perf_counter() + 0.05
    deadline = t0 + seconds
    threads = [threading.Thread(target=_analyze_client,
                                args=(host, port, trees, deadline, rec,
                                      analyze))]
    threads += [threading.Thread(target=_predict_client,
                                 args=(host, port, bodies, t0, offsets,
                                       lane, rec, predict))
                for lane in range(PREDICT_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return analyze, predict, t0


def batch_sizes(host, port) -> dict:
    """The daemon's ``serve.batch_size`` summary, from ``GET /metricz``."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metricz")
        doc = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    return doc["histograms"].get("serve.batch_size", {"count": 0,
                                                       "mean": 0.0})


def expected_outputs(directories, model):
    """Rows and response bodies of an in-process, uncached extraction."""
    from repro.engine import ExtractionEngine
    from repro.lang import Codebase
    from repro.serve.payloads import (
        analysis_payload,
        dump_payload,
        prediction_payload,
    )

    engine = ExtractionEngine(workers=1)
    out = []
    for directory in directories:
        codebase = Codebase.from_directory(directory)
        row = engine.extract_one(codebase)
        # The /predict body's row goes through JSON, as the client sends it.
        sent = json.loads(json.dumps(row))
        out.append((row,
                    dump_payload(analysis_payload(codebase, row)).encode(),
                    dump_payload(prediction_payload(model, sent)).encode()))
    return out


def run(args, result, work, imports) -> None:
    count = [0]
    hosted = bool(args.trace)

    def setup():
        count[0] += 1
        root = os.path.join(work, f"setup-{count[0]}")
        trees = [Tree(app, os.path.join(root, "trees", app.name))
                 for app in sample_apps(args.seed)]
        model = in_child(train_model, args.seed)
        model_path = os.path.join(root, "model.pkl")
        with open(model_path, "wb") as fh:
            pickle.dump(model, fh)
        server = _host(model_path) if hosted else Daemon(model_path, root)

        def cleanup():
            server.stop()
            shutil.rmtree(root, ignore_errors=True)
        return (trees, model, server), cleanup

    setup_times, (trees, model, server) = median_setup(
        1 if hosted else SETUP_REPEATS, setup)
    rec = patches = None
    try:
        # The oracle: in-process, uncached extraction of the same trees,
        # in a child process unless the hosted server's threads run here.
        directories = [t.directory for t in trees]
        if hosted:
            oracle = expected_outputs(directories, model)
        else:
            oracle = in_child(expected_outputs, directories, model)
        expected_predict = []
        for tree, (row, analyzed, predicted) in zip(trees, oracle):
            tree.row, tree.expected = row, analyzed
            expected_predict.append(predicted)
        bodies = [json.dumps({"features": t.row}).encode() for t in trees]
        offsets = arrivals(args.seed, args.seconds)
        if hosted:
            import tracing

            rec = tracing.Recorder()
            patches = tracing.install(rec)
        analyze, predict, t0 = drive(server.host, server.port, trees,
                                     bodies, offsets, args.seconds, rec)
        peak_rss = self_peak_rss_mb() + (
            0.0 if hosted else server.peak_rss_mb())
        batches = batch_sizes(server.host, server.port)
    finally:
        if rec is not None:
            rec.active = False
        server.stop()

    # Every response must be a 200 with the expected body; a run with any
    # other fails its checks, so no metric comes from the survivors only.
    for index, _, _, status, body, _ in analyze:
        result.op("analyze", status == 200)
        result.check(status == 200, f"/analyze {trees[index].app.name}: "
                                    f"status {status}")
        result.check(status != 200 or body == trees[index].expected,
                     f"/analyze {trees[index].app.name}: body differs "
                     f"from the in-process analysis_payload")
    for index, _, _, _, status, body, _ in predict:
        result.op("predict", status == 200)
        result.check(status == 200, f"/predict row {index}: status {status}")
        result.check(status != 200 or body == expected_predict[index],
                     f"/predict row {index}: body differs from "
                     f"prediction_payload")
    if not result.check(bool(analyze and predict), "no request completed"):
        return

    analyze_s = [end - start for _, start, end, _, _, _ in analyze]
    predict_s = [done - due for _, due, _, done, _, _, _ in predict]
    late = [sent - due for _, due, sent, _, _, _, _ in predict]
    span = max(a[2] for a in analyze) - t0
    lines = sum(trees[a[0]].lines for a in analyze)
    files = sum(len(t.app.files) for t in trees)
    result.info("inputs", {
        "trees": len(trees), "files": files,
        "kloc": sum(t.lines for t in trees) / 1000.0,
        "predict_rate": PREDICT_RATE,
        "predict_connections": PREDICT_CONNECTIONS, "hosted": hosted})
    p = summary_ms(predict_s)
    result.info("predict", {"n": p["n"], "p50_ms": p["p50"],
                            "p90_ms": p["p90"], "p99_ms": p["p99"],
                            "max_ms": p["max"]})
    result.info("predict send delay", {
        "p99_ms": quantile(late, 99) * 1e3, "max_ms": max(late) * 1e3})
    result.info("predict batches", {"count": batches["count"],
                                    "mean_size": batches["mean"]})
    a = summary_ms(analyze_s)
    result.info("analyze", {"n": a["n"], "p50_ms": a["p50"],
                            "p90_ms": a["p90"],
                            "kloc_per_s": lines / 1000.0 / span})
    if not hosted:
        # Latency is the latency-bound stream's, throughput the CPU-bound
        # one's: each side of the mix has a bounded metric.
        result.metric("latency_p50_ms", p["p50"], "ms")
        result.metric("latency_p90_ms", p["p90"], "ms")
        result.metric("kloc_per_s", lines / 1000.0 / span, "kLoC/s")
        result.setup_metric(setup_times, imports)
        result.metric("peak_rss_mb", peak_rss, "MB")
        return

    try:
        _report_layers(result, rec, trees, analyze, predict, batches, args)
    finally:
        patches.restore()


def _host(model_path):
    """The daemon's public server class, hosted in this process."""
    from repro.engine import EngineConfig
    from repro.serve import AsyncPredictionServer, ModelStore

    server = AsyncPredictionServer(
        ModelStore.from_specs([model_path]),
        config=EngineConfig(no_cache=True), port=0)
    server.start(warm=True)  # pool workers fork before any wrapper exists
    return server


def _report_layers(result, rec, trees, analyze, predict, batches, args):
    """Per-layer metrics of the hosted daemon plus an in-process replay.

    Extraction runs in the pool's worker processes, out of the wrappers'
    reach, so each tree is replayed once in-process under the wrappers
    for the lex/parse/analyzer/merge figures; the pool's IPC cost is the
    pool call time minus that in-process extraction time.
    """
    from repro.engine import ExtractionEngine
    from repro.lang import Codebase
    from repro.serve.enginepool import _pool_extract

    engine = ExtractionEngine(workers=1)
    task_bytes, inproc = [], []
    for tree in trees:
        codebase = Codebase.from_directory(tree.directory)
        task_bytes.append(len(pickle.dumps(
            (_pool_extract, (codebase, False, False, None), {}))))
        start = time.perf_counter()
        engine.extract_one(codebase)
        inproc.append(time.perf_counter() - start)
        rec.active = True
        root = rec.begin("op")
        engine.extract_one(Codebase.from_directory(tree.directory))
        rec.end(root)
        rec.active = False

    selfs = rec.self_times()
    analyze_root = selfs.get("serve.handler./analyze", {})
    predict_root = selfs.get("serve.handler./predict", {})
    n_an = len(rec.durations("serve.handler./analyze"))
    n_pr = len(rec.durations("serve.handler./predict"))
    values = layers.per_op(selfs.get("op", {}), rec.counts, len(trees))
    traced_an = [a for a in analyze if a[5]]
    traced_pr = [p for p in predict if p[6]]
    if n_pr and traced_pr:
        client = statistics.mean(done - sent
                                 for _, _, sent, done, _, _, _ in traced_pr)
        handler = statistics.mean(rec.durations("serve.handler./predict"))
        values["serve.http_ms"] = (client - handler) * 1e3
        values["serve.batch_wait_ms"] = statistics.mean(
            rec.durations("serve.batch_wait")) * 1e3
        collector = selfs.get("serve.encode", {})
        values["serve.encode_s"] = (predict_root.get("serve.encode", 0.0)
                                    + collector.get("serve.encode", 0.0)) / n_pr
        values["model.assess_s"] = collector.get("model.assess", 0.0) / n_pr
        values["model.assess_calls"] = \
            rec.counts.get("model.assess_calls", 0) / n_pr
    if n_an and traced_an:
        values["serve.tree_read_ms"] = \
            analyze_root.get("serve.tree_read", 0.0) / n_an * 1e3
        pool = analyze_root.get("serve.pool", 0.0) / n_an
        extraction = statistics.mean(inproc[a[0]] for a in traced_an)
        values["serve.pool_ipc_ms"] = (pool - extraction) * 1e3
    values["serve.task_bytes"] = statistics.mean(task_bytes)
    values["serve.batch_size"] = batches["mean"]
    handler_self = (analyze_root.get("serve.handler./analyze", 0.0)
                    + predict_root.get("serve.handler./predict", 0.0))
    handler_total = sum(rec.durations("serve.handler./analyze")) \
        + sum(rec.durations("serve.handler./predict"))
    values["trace.ops"] = n_an + n_pr
    values["trace.unattributed_share"] = handler_self / handler_total
    values["trace.overhead_share"] = layers.overhead_share(
        [a[2] - a[1] for a in analyze], [(a[5], a[0]) for a in analyze])
    path = layers.write_spans(rec, args.workload, args.seed)
    result.info("spans", {"count": len(rec.spans), "file": path})
    layers.report(result, values, layers.SERVE_LAYERS)
