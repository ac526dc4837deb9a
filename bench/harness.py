"""Closed-loop runner shared by every workload.

One process, one thread, one op after another with no rate limit. A timed
run:

1. sets up (input generation plus warm-up ops) the inputs it runs on;
2. runs the workload's fixed op list once and checks every output against
   the workload's oracle (pass one);
3. keeps cycling over the same op list until ``--seconds`` have passed
   since pass one began; each of these ops must reproduce pass one's output
   for the same op. ``SIDE_SAMPLES`` times spread evenly over the rest of
   the run it also scores pass one's output for at least ``SIDE_SAMPLE_S``,
   and every ``SETUP_EVERY``-th time it sets up a spare copy of the
   workload. On workloads without a simulator of their
   own it runs the simulator probe once every ``PROBE_EVERY_S`` between ops.

Between ops the reference kernel of ``calib.py`` is timed every
``calib.EVERY_S`` seconds, and every time the run measures (each op, each
set-up, each scoring, each simulation) is divided by the machine's speed
factor around it. ``setup_s`` and ``score_s`` are the medians of their
normalised samples, the op statistics are taken over the normalised op
times, and the wall-clock figures go to the metadata (``wall``).

The traced run sets up once, runs one untraced pass, then the same pass and
one scoring with the tracer installed; its per-layer metrics come from the
traced part. Metrics a workload does not produce itself come from the
small fixed probes in ``probes.py``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

import calib
import probes
import tracing
from wl_detect import DetectEval
from wl_fifo import FifoSweep
from wl_sort import SortCrowd
from wl_streamline import StreamlineGraphs

WORKLOADS = {
    "sort-crowd": SortCrowd,
    "detect-eval": DetectEval,
    "streamline-graphs": StreamlineGraphs,
    "fifo-sweep": FifoSweep,
}

SIDE_SAMPLES = 15
SIDE_SAMPLE_S = 0.3
SETUP_EVERY = 3
PROBE_EVERY_S = 0.25

# (metric, unit, better) for every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("score_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_op_share", "ratio", "higher"),
    ("mota", "1", "higher"),
    ("map", "1", "higher"),
)


class Run:
    """Runs, times and checks the ops of one workload."""

    def __init__(self, workload, tracer=None, between=None):
        self.w = workload
        self.tracer = tracer
        # Called after every op, outside its timing (calibration samples).
        self.between = between
        self.first_keys: list = []
        self.first_failed: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.op_starts: list[float] = []
        self.op_times: list[float] = []
        self.errors: list[str] = []

    def _call(self, i: int, fn, args):
        """Time one op; returns (result, ok). An op that raises has failed."""
        if self.tracer is not None:
            self.tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            ok = True
        except Exception as exc:  # an op that raises is a failed op
            result, ok = None, False
            self._note(i, exc)
        self.op_times.append(time.perf_counter() - t0)
        self.op_starts.append(t0)
        if self.tracer is not None:
            self.tracer.op_id = -1
        if self.between is not None:
            self.between()
        self.attempted += 1
        return result, ok

    def _note(self, i: int, exc: Exception) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")

    def _key(self, i: int, fn, *args):
        """fn(*args), the key of an op's output; None when it cannot be read."""
        try:
            return fn(*args)
        except Exception as exc:  # an output that cannot be checked is a failed op
            self._note(i, exc)
            return None

    def first_pass(self) -> None:
        """Run pass one and check it with the workload's oracle."""
        self.w.begin_first_pass()
        for i, (fn, args) in enumerate(self.w.ops()):
            result, ok = self._call(i, fn, args)
            key = self._key(i, self.w.record, i, result) if ok else None
            self.first_keys.append(key)
            if key is None:
                self.first_failed.add(i)
        self.first_failed |= self.w.bad_ops()
        self.failed += len(self.first_failed)

    def repeat_op(self, i: int, fn, args) -> None:
        """Run one op again; it must reproduce pass one's output."""
        result, ok = self._call(i, fn, args)
        same = ok and i not in self.first_failed
        if not (same and self._key(i, self.w.key, result) == self.first_keys[i]):
            self.failed += 1

    def repeats(self):
        """(op index, fn, args) over passes two, three, ... without end."""
        while True:
            yield from ((i, fn, args) for i, (fn, args) in enumerate(self.w.ops()))


def _side_sample(fn):
    """Call fn until SIDE_SAMPLE_S have passed; returns (start, end, calls,
    last result)."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        t1 = time.perf_counter()
        if t1 - t0 >= SIDE_SAMPLE_S:
            return t0, t1, calls, result


class _SimProbe:
    """Runs the simulator probe once every PROBE_EVERY_S between ops and
    appends (start, end, cycles) of each call to `calls`."""

    def __init__(self, calls: list):
        self.calls = calls
        self.next = 0.0

    def maybe_run(self) -> None:
        t0 = time.perf_counter()
        if t0 >= self.next:
            cycles = probes.sim_cycles()
            t1 = time.perf_counter()
            self.calls.append((t0, t1, cycles))
            self.next = t1 + PROBE_EVERY_S


def _freeze() -> None:
    """Move everything alive now (inputs, pass one's outputs) out of the
    cyclic collector's reach. The harness holds these for the whole run; a
    program run would not, so they should not slow every full collection."""
    gc.collect()
    gc.freeze()


def _setup(workload) -> tuple[float, float]:
    """Set the workload up; returns the (start, end) of the set-up."""
    t0 = time.perf_counter()
    workload.setup()
    workload.warm_up()
    return t0, time.perf_counter()


def _src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _meta(name, seed, seconds, trace, root, workload, run) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_pins": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "src_lines": _src_lines(root),
        "inputs": workload.describe(),
        "ops_per_pass": workload.ops_per_pass(),
        "ops_timed": len(run.op_times),
        "failed_op_share": run.failed / run.attempted,
        "op_errors": run.errors,
    }


def _timed(name, seed, seconds, root):
    cal = calib.Calibration()
    for _ in range(calib.WINDOW):
        cal.sample()
    w = WORKLOADS[name](seed)
    setups = [_setup(w)]
    _freeze()

    # (start, end, cycles) of each simulation, the workload's own or the probe's.
    sims = getattr(w, "sim_calls", None)
    probed_sim = sims is None
    if probed_sim:
        sims = []
        probe = _SimProbe(sims)

        def between():
            cal.maybe_sample()
            probe.maybe_run()

    else:
        between = cal.maybe_sample

    run = Run(w, between=between)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    run.first_pass()
    _freeze()
    scores = []  # (start, end, calls) of each scoring sample
    quality = {}
    next_side = time.perf_counter()
    interval = (deadline - next_side) / SIDE_SAMPLES
    for i, fn, args in run.repeats():
        now = time.perf_counter()
        if now >= next_side:
            cal.sample()
            t0, t1, calls, quality = _side_sample(w.score)
            scores.append((t0, t1, calls))
            if len(scores) % SETUP_EVERY == 0:
                spare = WORKLOADS[name](seed)
                setups.append(_setup(spare))
                del spare
            cal.sample()
            next_side = max(next_side + interval, now)
        if time.perf_counter() >= deadline:
            break
        run.repeat_op(i, fn, args)
    cal.sample()
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    quality = dict(quality)
    probed = ["sim_cycles_per_s"] if probed_sim else []
    for key, probe in (("mota", probes.mota), ("map", probes.coco_map)):
        if key not in quality:
            quality[key] = probe()
            probed.append(key)

    def normalised(intervals):
        """Seconds of each (start, end, calls) interval per call, at the
        reference speed, and as measured."""
        t0, t1, calls = (np.array(col, dtype=float) for col in zip(*intervals))
        wall_s = (t1 - t0) / calls
        return wall_s / cal.factor(t0, t1), wall_s

    starts, times = np.array(run.op_starts), np.array(run.op_times)
    op_factor = cal.factor(starts, starts + times)
    times_ms = times / op_factor * 1e3
    setup_s, setup_wall = normalised([(t0, t1, 1) for t0, t1 in setups])
    score_s, score_wall = normalised(scores)
    sim_s, sim_wall = normalised([(t0, t1, 1) for t0, t1, _ in sims])
    cycles = sum(c for _, _, c in sims)
    values = {
        "setup_s": np.median(setup_s),
        "ops_per_s": len(times_ms) / (times_ms.sum() / 1e3),
        "op_ms_p50": np.percentile(times_ms, 50),
        "op_ms_p90": np.percentile(times_ms, 90),
        "score_s": np.median(score_s),
        "sim_cycles_per_s": cycles / sim_s.sum(),
        "peak_rss_mb": peak_rss_mb,
        "ok_op_share": 1.0 - run.failed / run.attempted,
        "mota": quality["mota"],
        "map": quality["map"],
    }
    metrics = {m: {"value": float(values[m]), "unit": unit} for m, unit, _ in END_TO_END}
    meta = _meta(name, seed, seconds, False, root, w, run)
    factors = np.array(cal.factors)
    meta.update(
        passes=len(run.op_times) / w.ops_per_pass(),
        timed_wall_s=wall,
        probed_metrics=probed,
        quality={k: v for k, v in quality.items() if k not in probed},
        speed_factor={
            "samples": len(factors),
            "p10": float(np.percentile(factors, 10)),
            "p50": float(np.median(factors)),
            "p90": float(np.percentile(factors, 90)),
        },
        wall={
            "setup_runs_s": setup_wall.tolist(),
            "score_runs_s": score_wall.tolist(),
            "ops_per_s": len(times) / times.sum(),
            "op_ms_p50": float(np.percentile(times, 50) * 1e3),
            "op_ms_p90": float(np.percentile(times, 90) * 1e3),
            "sim_cycles_per_s": cycles / sim_wall.sum(),
        },
    )
    return run, metrics, meta


def _traced(name, seed, seconds, root):
    w = WORKLOADS[name](seed)
    tracer = tracing.Tracer()
    tracer.install(tracing.SETUP_TARGETS)
    try:
        t0, t1 = _setup(w)
    finally:
        tracer.uninstall()
    _freeze()

    run = Run(w)
    run.first_pass()
    _freeze()
    untraced = sum(run.op_times)
    run.tracer = tracer
    tracer.install(tracing.OP_TARGETS)
    try:
        for i, (fn, args) in enumerate(w.ops()):
            run.repeat_op(i, fn, args)
        w.score()
    finally:
        tracer.uninstall()
    traced = sum(run.op_times) - untraced
    coverage = tracer.summary()[2] / traced
    values = tracing.layer_metrics(tracer, traced / untraced, coverage)
    metrics = {m: {"value": float(values[m]), "unit": unit} for m, unit, _ in tracing.PER_LAYER}

    out = root / ".bench_out" / f"trace-{name}-seed{seed}.npz"
    tracer.write(out)
    meta = _meta(name, seed, seconds, True, root, w, run)
    meta.update(
        setup_s=t1 - t0,
        untraced_op_s=untraced,
        traced_op_s=traced,
        trace_file=str(out.relative_to(root)),
        spans=len(tracer.end),
        absent=tracer.absent,
        hook_errors=dict(tracer.hook_errors),
    )
    return run, metrics, meta


def run(name: str, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload; returns (result line dict, metadata dict)."""
    run_, metrics, meta = (_traced if trace else _timed)(name, seed, seconds, root)
    result = {
        "correct": run_.failed == 0,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "metrics": metrics,
    }
    return result, meta
