#!/usr/bin/env python3
"""Toy-size self-check of the benchmark; runs in seconds.

    python3 bench/selfcheck.py

For every workload, on a few inputs: pass one plus one repeated pass must
have no failed op; corrupting one op's output must make at least one op
fail (on streamline-graphs also a pipeline that rewrites nothing); and a
traced pass must run, cover its ops with top-level spans, and
record a wrapped name that does not exist as absent instead of crashing.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import sys

import run as bench_run

bench_run.import_motkit()

import harness  # noqa: E402
import tracing  # noqa: E402
from motkit import streamline  # noqa: E402

TOY = {
    "sort-crowd": {"sequences": 1},
    "detect-eval": {"images": 4},
    "streamline-graphs": {"graphs": 4},
    "fifo-sweep": {"designs": 4},
}
CORRUPT_OP = 1


def _shift_thresholds(fn):
    """run_pipeline whose output has its last MultiThreshold never firing."""

    def corrupted(*args, **kwargs):
        g = fn(*args, **kwargs)
        for node in reversed(g.nodes.values()):
            if node.kind == "MultiThreshold":
                node.attrs["thresholds"] = node.attrs["thresholds"] + 1e6
                break
        return g

    return corrupted


def _no_rewrites(g, *args, **kwargs):
    return g


def _with_pipeline(fn, pipeline):
    """The op fn run with streamline.run_pipeline replaced by pipeline."""

    def patched(*a):
        original = streamline.run_pipeline
        streamline.run_pipeline = pipeline
        try:
            return fn(*a)
        finally:
            streamline.run_pipeline = original

    return patched


def _corrupt(name: str, fn):
    """The op fn with its output (or, for streamlining, its program step)
    corrupted."""
    if name == "sort-crowd":
        return lambda *a: fn(*a)[1:]
    if name == "detect-eval":
        return lambda *a: (lambda r: (r[0], r[1][1:]))(fn(*a))
    if name == "fifo-sweep":

        def deeper(*a):
            report, depths = fn(*a)
            first = sorted(depths)[0]
            return report, {**depths, first: depths[first] + 1}

        return deeper
    if name == "streamline-graphs-noop":
        return _with_pipeline(fn, _no_rewrites)
    return _with_pipeline(fn, _shift_thresholds(streamline.run_pipeline))


def _workload(name):
    w = harness.WORKLOADS[name](seed=1, **TOY[name])
    w.setup()
    w.warm_up()
    return w


def _two_passes(w, corrupt_name=None):
    run = harness.Run(w)
    ops = w.ops

    def maybe_corrupted():
        for i, (fn, args) in enumerate(ops()):
            yield (_corrupt(corrupt_name, fn) if corrupt_name and i == CORRUPT_OP else fn), args

    w.ops = maybe_corrupted
    run.first_pass()
    for i, (fn, args) in enumerate(w.ops()):
        run.repeat_op(i, fn, args)
    w.ops = ops
    return run


def _check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> None:
    for name in harness.WORKLOADS:
        w = _workload(name)
        clean = _two_passes(w)
        _check(clean.failed == 0, f"{name}: {clean.attempted} ops, none failed")
        w.score()

        bad = _two_passes(w, corrupt_name=name)
        _check(bad.failed > 0, f"{name}: corrupting op {CORRUPT_OP} fails {bad.failed} op(s)")
        if name == "streamline-graphs":
            bad = _two_passes(w, corrupt_name="streamline-graphs-noop")
            _check(bad.failed > 0, f"{name}: a pipeline that rewrites nothing fails {bad.failed} op(s)")

        tracer = tracing.Tracer()
        targets = tracing.OP_TARGETS + (("motkit.kalman", "no_such_fn", "x.y", "span", None),)
        run = harness.Run(w)
        run.first_pass()
        untraced = len(run.op_times)
        run.tracer = tracer
        tracer.install(targets)
        try:
            for i, (fn, args) in enumerate(w.ops()):
                run.repeat_op(i, fn, args)
        finally:
            tracer.uninstall()
        coverage = tracer.summary()[2] / sum(run.op_times[untraced:])
        _check(run.failed == 0, f"{name}: traced ops reproduce pass one")
        _check(coverage >= 0.95, f"{name}: top-level spans cover {coverage:.1%} of op time")
        absent = "motkit.kalman.no_such_fn" in tracer.absent
        _check(absent, f"{name}: missing target recorded as absent")


if __name__ == "__main__":
    main()
