#!/usr/bin/env python3
"""motkit benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload sort-crowd --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The line before it, prefixed ``bench-meta``, holds run metadata. When the
benchmark cannot run (for example, there is no ``src/motkit`` next to it) it
exits non-zero without printing a result line.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before anything imports numpy.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Pin glibc malloc's mmap and trim thresholds at the ceilings its own dynamic
# adjustment moves them towards (32 MiB and twice that on 64-bit). Left
# dynamic, whether a large numpy temporary is reused from the heap or mapped
# afresh and page-faulted depends on the allocation history of the process,
# which makes identical runs differ by a fifth or more in op time.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINS = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def pin_malloc() -> dict:
    """Apply MALLOC_PINS; returns those that took (none off glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {}
    options = {"mmap_threshold": M_MMAP_THRESHOLD, "trim_threshold": M_TRIM_THRESHOLD}
    return {k: v for k, v in MALLOC_PINS.items() if mallopt(options[k], v) == 1}


MALLOC_PINNED = pin_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sort-crowd", "detect-eval", "streamline-graphs", "fifo-sweep")


def import_motkit() -> float:
    """Import motkit from this checkout's src/ and return the import time."""
    pkg = ROOT / "src" / "motkit" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"bench: no motkit sources at {pkg.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import motkit  # noqa: F401
    from motkit import dataflow, decode, metrics, streamline, synthetic, tracker  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(motkit.__file__).resolve().parent != pkg.parent.resolve():
        raise SystemExit(f"bench: imported motkit from {motkit.__file__}, not {pkg.parent}")
    return elapsed


def _run_all(args) -> int:
    """Run every workload, each in its own process, and print a table."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
    print()
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)

    import_s = import_motkit()
    import harness

    result, meta = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    meta["import_s"] = import_s
    meta["malloc_pins"] = MALLOC_PINNED
    print("bench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
