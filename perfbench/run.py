"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the benchmark's layer wrappers installed and prints the
per-layer metrics. The last line of standard output is the JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it that
start with ``#`` are for people. A failed output check exits with 1.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import signal
import sys
import tempfile

from common import SRC, WORK_ROOT, Result, scaled_time

WORKLOADS = ("corpus-cold", "gate-edit", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The engine reads these; the benchmark sets every engine knob itself.
    for var in ("REPRO_WORKERS", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)
    # Timed as part of set-up: (raw, scaled) seconds.
    imports = scaled_time(lambda: importlib.import_module("repro"))[:2]

    if args.workload == "corpus-cold":
        import corpus_cold as workload
    elif args.workload == "gate-edit":
        import gate_edit as workload
    else:
        import serve_mixed as workload

    # SIGTERM unwinds like Ctrl-C, so a started daemon is still stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    result = Result()
    try:
        workload.run(args, result, work, imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result.emit()


if __name__ == "__main__":
    sys.exit(main())
