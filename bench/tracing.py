"""Span tracer that wraps motkit's public functions from outside.

Each target is patched under the name its caller looks it up by (module
attribute, class attribute, or an entry of ``streamline.PASS_PIPELINE``).
A "span" target records name, start, end, parent span and op id; a "count"
target only counts calls, for leaf functions hit millions of times. Spans
stay in memory in flat arrays and are written out when the run ends.

A target that no longer exists is recorded as absent and skipped, and a
counter hook that no longer fits the program's data is recorded as a hook
error, so refactors of motkit never crash the traced run.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# -- counter hooks --------------------------------------------------------------
# Each hook class defines any of: before(args) -> state;
# after(counts, args, result, state); error(counts, exc).


def _track_ids(trk) -> set:
    return {t.id for t in trk.tracks}


class _TrackerStep:
    @staticmethod
    def before(args):
        return _track_ids(args[0])

    @staticmethod
    def after(counts, args, result, before):
        after = _track_ids(args[0])
        counts["tracker.spawned"] += len(after - before)
        counts["tracker.killed"] += len(before - after)
        counts["tracker.reported"] += len(result)


class _Associate:
    @staticmethod
    def after(counts, args, result, _):
        counts["assignment.matches"] += len(result.matches)
        counts["assignment.detections"] += len(args[1])


class _SolveLap:
    @staticmethod
    def before(args):
        m, n = np.shape(args[0])
        return m * n

    @staticmethod
    def after(counts, args, result, cells):
        counts["assignment.lap_cells"] += cells


class _Update:
    """Counts updates the tracker drops: FilterNumericalError raised by update."""

    @staticmethod
    def error(counts, exc):
        if type(exc).__name__ == "FilterNumericalError":
            counts["kalman.dropped_updates"] += 1


def _len_counter(key):
    class _Len:
        @staticmethod
        def after(counts, args, result, _):
            counts[key] += len(result)

    return _Len


class _Simulate:
    @staticmethod
    def after(counts, args, result, _):
        counts["dataflow.sim_cycles"] += result.cycles
        counts["dataflow.deadlocks"] += result.outcome == "deadlock"
        counts["dataflow.stall_cycles"] += sum(result.stall_cycles.values())


# -- targets ----------------------------------------------------------------------
# (owner, attribute, span name, mode, hook). Owner is a module path, optionally
# followed by ":Class". Mode "passes" wraps each entry of a pass tuple.

SETUP_TARGETS = (("motkit.synthetic", "generate_sequence", "synthetic.generate", "span", None),)

OP_TARGETS = (
    ("motkit.tracker:SortTracker", "step", "tracker.step", "span", _TrackerStep),
    ("motkit.kalman", "predict", "kalman.predict", "span", None),
    ("motkit.kalman", "update", "kalman.update", "span", _Update),
    ("motkit.kalman", "state_to_box", "kalman.state_to_box", "span", None),
    ("motkit.tracker", "associate", "assignment.associate", "span", _Associate),
    ("motkit.assignment", "solve_lap", "assignment.solve_lap", "span", _SolveLap),
    ("motkit.metrics:MotAccumulator", "step", "metrics.mot_step", "span", None),
    ("motkit.metrics", "solve_lap", "metrics.solve_lap", "span", None),
    ("motkit.metrics", "coco_map", "metrics.coco_map", "span", None),
    ("motkit.metrics", "average_precision", "metrics.ap", "count", None),
    ("motkit.metrics", "iou", "metrics.iou", "count", None),
    ("motkit.decode", "reduce_dfl", "decode.reduce_dfl", "span", None),
    ("motkit.decode", "decode_heads", "decode.decode_heads", "span",
     _len_counter("decode.candidates")),
    ("motkit.decode", "nms", "decode.nms", "span", _len_counter("decode.nms_kept")),
    ("motkit.decode", "iou", "geometry.iou", "count", None),
    ("motkit.streamline", "run_pipeline", "streamline.run_pipeline", "span", None),
    ("motkit.streamline", "PASS_PIPELINE", "streamline.pass", "passes", None),
    ("motkit.streamline", "interpret", "streamline.interpret", "span", None),
    ("motkit.streamline:OpGraph", "copy", "streamline.graph_copy", "count", None),
    ("motkit.streamline:OpGraph", "in_edges", "streamline.edge_query", "count", None),
    ("motkit.streamline:OpGraph", "out_edges", "streamline.edge_query", "count", None),
    ("motkit.quantcore", "conv2d", "quantcore.conv2d", "span", None),
    ("motkit.quantcore", "mt_apply", "quantcore.mt_apply", "span", None),
    ("motkit.dataflow", "simulate", "dataflow.simulate", "span", _Simulate),
    ("motkit.dataflow", "size_fifos", "dataflow.size_fifos", "span", None),
    ("motkit.dataflow:StreamGraph", "in_edges", "dataflow.edge_query", "count", None),
    ("motkit.dataflow:StreamGraph", "out_edges", "dataflow.edge_query", "count", None),
)

PASS_NAMES = (
    "move_scale_past_conv",
    "push_affine_through_fork",
    "merge_affine_at_join",
    "absorb_affine",
)


def _resolve(owner: str):
    module_path, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_path)
    except ImportError:
        return None
    return getattr(obj, cls_name, None) if cls_name else obj


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.pass_calls = 0
        self.pipeline_len = 0

    # -- installing --------------------------------------------------------------

    def install(self, targets) -> None:
        for owner, attr, name, mode, hook in targets:
            obj = _resolve(owner)
            original = None if obj is None else vars(obj).get(attr)
            if mode == "passes" and isinstance(original, (tuple, list)):
                self._install_passes(obj, attr, name, original)
                continue
            if not callable(original):
                self.absent.append(f"{owner}.{attr}")
                continue
            if mode == "span":
                self._patch(obj, attr, self._span(original, name, hook))
            else:
                self._patch(obj, attr, self._count(original, name))

    def _install_passes(self, owner, attr: str, name: str, pipeline) -> None:
        """Wrap each pass of a pass pipeline as its own span."""
        present = set()
        wrapped = []
        for fn in pipeline:
            short = getattr(fn, "__name__", "pass").removeprefix("pass_")
            present.add(short)
            wrapped.append(self._span(fn, f"{name}.{short}", None, counts_pass=True))
        self.absent.extend(f"motkit.streamline.pass_{n}" for n in PASS_NAMES if n not in present)
        self.pipeline_len = len(wrapped)
        self._patch(owner, attr, type(pipeline)(wrapped))

    def _patch(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    # -- wrappers ----------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _run_hook(self, hook, stage: str, *args):
        fn = getattr(hook, stage, None)
        if fn is None:
            return None
        try:
            return fn(*args)
        except (AttributeError, TypeError, ValueError, KeyError):
            self.hook_errors[f"{hook.__name__}.{stage}"] += 1
            return None

    def _span(self, fn, name: str, hook, counts_pass: bool = False):
        tracer = self
        nid = self._nid(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack,
        )

        def wrapper(*args, **kwargs):
            state = tracer._run_hook(hook, "before", args) if hook else None
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if hook:
                    tracer._run_hook(hook, "error", tracer.counts, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if counts_pass:
                tracer.pass_calls += 1
            if hook:
                tracer._run_hook(hook, "after", tracer.counts, args, result, state)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def summary(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time and call count per span name, and top-level op span time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        self_by = np.bincount(a["name"], weights=self_time, minlength=k)
        calls_by = np.bincount(a["name"], minlength=k)
        top = (~has_parent) & (a["op"] >= 0)
        return (
            {n: float(self_by[i]) for i, n in enumerate(self.names)},
            {n: int(calls_by[i]) for i, n in enumerate(self.names)},
            float(dur[top].sum()),
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


# (metric, unit, better) for every per-layer metric; values come from layer_metrics.
PER_LAYER = (
    ("kalman.predict_s", "s", "lower"),
    ("kalman.predict_calls", "count", "lower"),
    ("kalman.update_s", "s", "lower"),
    ("kalman.update_calls", "count", "lower"),
    ("kalman.state_to_box_s", "s", "lower"),
    ("kalman.dropped_updates", "count", "lower"),
    ("assignment.associate_s", "s", "lower"),
    ("assignment.solve_lap_s", "s", "lower"),
    ("assignment.lap_cells", "count", "lower"),
    ("assignment.match_ratio", "ratio", "higher"),
    ("metrics.mot_step_s", "s", "lower"),
    ("metrics.mot_frames", "count", "lower"),
    ("tracker.step_s", "s", "lower"),
    ("tracker.spawned", "count", "lower"),
    ("tracker.killed", "count", "lower"),
    ("tracker.reported", "count", "higher"),
    ("decode.reduce_dfl_s", "s", "lower"),
    ("decode.decode_heads_s", "s", "lower"),
    ("decode.candidates", "count", "lower"),
    ("decode.nms_s", "s", "lower"),
    ("decode.nms_kept", "count", "lower"),
    ("decode.nms_keep_ratio", "ratio", "lower"),
    ("geometry.iou_calls", "count", "lower"),
    ("metrics.coco_map_s", "s", "lower"),
    ("metrics.ap_calls", "count", "lower"),
    ("metrics.iou_calls", "count", "lower"),
    ("streamline.run_pipeline_s", "s", "lower"),
    *((f"streamline.pass_s.{n}", "s", "lower") for n in PASS_NAMES),
    ("streamline.rounds", "count", "lower"),
    ("streamline.graph_copies", "count", "lower"),
    ("streamline.edge_queries", "count", "lower"),
    ("streamline.interpret_s", "s", "lower"),
    ("quantcore.conv2d_s", "s", "lower"),
    ("quantcore.mt_apply_s", "s", "lower"),
    ("dataflow.simulate_s", "s", "lower"),
    ("dataflow.simulate_calls", "count", "lower"),
    ("dataflow.sim_cycles", "count", "lower"),
    ("dataflow.edge_queries", "count", "lower"),
    ("dataflow.size_fifos_s", "s", "lower"),
    ("dataflow.deadlocks", "count", "lower"),
    ("dataflow.stall_cycles", "count", "lower"),
    ("synthetic.generate_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float, coverage: float) -> dict[str, float]:
    """Every PER_LAYER metric from the tracer's spans and counts."""
    self_s, calls, _ = tracer.summary()
    c = tracer.counts
    values = {
        "kalman.predict_s": self_s.get("kalman.predict", 0.0),
        "kalman.predict_calls": calls.get("kalman.predict", 0),
        "kalman.update_s": self_s.get("kalman.update", 0.0),
        "kalman.update_calls": calls.get("kalman.update", 0),
        "kalman.state_to_box_s": self_s.get("kalman.state_to_box", 0.0),
        "kalman.dropped_updates": c["kalman.dropped_updates"],
        "assignment.associate_s": self_s.get("assignment.associate", 0.0),
        "assignment.solve_lap_s": self_s.get("assignment.solve_lap", 0.0),
        "assignment.lap_cells": c["assignment.lap_cells"],
        "assignment.match_ratio": _ratio(c["assignment.matches"], c["assignment.detections"]),
        "metrics.mot_step_s": self_s.get("metrics.mot_step", 0.0),
        "metrics.mot_frames": calls.get("metrics.mot_step", 0),
        "tracker.step_s": self_s.get("tracker.step", 0.0),
        "tracker.spawned": c["tracker.spawned"],
        "tracker.killed": c["tracker.killed"],
        "tracker.reported": c["tracker.reported"],
        "decode.reduce_dfl_s": self_s.get("decode.reduce_dfl", 0.0),
        "decode.decode_heads_s": self_s.get("decode.decode_heads", 0.0),
        "decode.candidates": c["decode.candidates"],
        "decode.nms_s": self_s.get("decode.nms", 0.0),
        "decode.nms_kept": c["decode.nms_kept"],
        "decode.nms_keep_ratio": _ratio(c["decode.nms_kept"], c["decode.candidates"]),
        "geometry.iou_calls": c["geometry.iou"],
        "metrics.coco_map_s": self_s.get("metrics.coco_map", 0.0),
        "metrics.ap_calls": c["metrics.ap"],
        "metrics.iou_calls": c["metrics.iou"],
        "streamline.run_pipeline_s": self_s.get("streamline.run_pipeline", 0.0),
        "streamline.rounds": _ratio(tracer.pass_calls, tracer.pipeline_len),
        "streamline.graph_copies": c["streamline.graph_copy"],
        "streamline.edge_queries": c["streamline.edge_query"],
        "streamline.interpret_s": self_s.get("streamline.interpret", 0.0),
        "quantcore.conv2d_s": self_s.get("quantcore.conv2d", 0.0),
        "quantcore.mt_apply_s": self_s.get("quantcore.mt_apply", 0.0),
        "dataflow.simulate_s": self_s.get("dataflow.simulate", 0.0),
        "dataflow.simulate_calls": calls.get("dataflow.simulate", 0),
        "dataflow.sim_cycles": c["dataflow.sim_cycles"],
        "dataflow.edge_queries": c["dataflow.edge_query"],
        "dataflow.size_fifos_s": self_s.get("dataflow.size_fifos", 0.0),
        "dataflow.deadlocks": c["dataflow.deadlocks"],
        "dataflow.stall_cycles": c["dataflow.stall_cycles"],
        "synthetic.generate_s": self_s.get("synthetic.generate", 0.0),
        "trace.overhead": overhead,
        "trace.coverage": coverage,
    }
    for n in PASS_NAMES:
        values[f"streamline.pass_s.{n}"] = self_s.get(f"streamline.pass.{n}", 0.0)
    return values
