"""Steadiness check: run one workload N times and compare sets of runs.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py run --workload gate-edit --runs 10 --out a.json
    python3 perfbench/steady.py run --workload gate-edit --runs 10 --first-seed 100 --out b.json
    python3 perfbench/steady.py compare a.json b.json

``run`` gives every run its own seed (``--first-seed`` onwards) and the
run length ``run_seconds`` from ``BENCHMARK.json``, and prints, per
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
against the metric's bound in ``BENCHMARK.json``. ``compare`` prints how
far the second set's median moved from the first's, in the worse
direction, against the same bound, and whether the share of failed
operations is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import ROOT


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metric_specs() -> dict:
    return {m["name"]: m for m in _benchmark()["end_to_end"]}


def run_set(workload: str, runs: int, first_seed: int) -> dict:
    seconds = _benchmark()["run_seconds"]
    results = []
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        doc = json.loads(lines[-1])
        doc["seed"] = seed
        doc["info"] = [line for line in lines[:-1] if line.startswith("#")]
        results.append(doc)
        values = " ".join(f"{k}={v['value']:.4g}"
                          for k, v in doc["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)
    return {"workload": workload, "seconds": seconds, "runs": results}


def spread_table(doc: dict) -> None:
    specs = _metric_specs()
    print(f"{doc['workload']}: {len(doc['runs'])} runs")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in doc["runs"][0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in doc["runs"]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = specs[name]["bound"]
        flag = ""
        if name != "setup_s":  # the bounds do not cover set-up's spread
            flag = " OK" if spread <= bound / 3 else (
                " WIDE" if spread <= bound else " OVER")
        print(f"{name:28} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.2%} {bound:>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in doc["runs"]}
    print(f"failed share: {sorted(shares)}")


def compare(first: dict, second: dict) -> int:
    specs = _metric_specs()
    worst = 0
    print(f"{'metric':28} {'median 1':>12} {'median 2':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in first["runs"][0]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"]
                              for r in first["runs"])
        b = statistics.median(r["metrics"][name]["value"]
                              for r in second["runs"])
        spec = specs[name]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        bound = spec["bound"]
        worst |= worse > bound
        print(f"{name:28} {a:12.5g} {b:12.5g} {worse:9.2%} {bound:>6} "
              f"{'OK' if worse <= bound else 'REGRESSED'}")
    shares = [{r["failed"] / r["attempted"] for r in doc["runs"]}
              for doc in (first, second)]
    same = shares[0] == shares[1] and len(shares[0]) == 1
    print(f"failed share identical: {same} {shares}")
    return 1 if worst or not same else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "run":
        doc = run_set(args.workload, args.runs, args.first_seed)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
        spread_table(doc)
        return 0
    with open(args.first) as fh:
        first = json.load(fh)
    with open(args.second) as fh:
        second = json.load(fh)
    return compare(first, second)


if __name__ == "__main__":
    sys.exit(main())
