"""The benchmark's toy-size self-check runs clean against this checkout.

The benchmark builds OpGraph, StreamGraph and SortTracker directly, so a
change to those classes can break it without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import conv_block_graph
from motkit import quantcore
from motkit.dataflow import StreamGraph
from motkit.streamline import OpGraph, interpret

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))
import tracing  # noqa: E402


def test_bench_selfcheck_passes_and_traces_graph_methods():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The tracer resolves a class target through vars(cls): a method the
    # class only inherits would read as absent and count nothing.
    classes = {"motkit.streamline:OpGraph": OpGraph, "motkit.dataflow:StreamGraph": StreamGraph}
    targets = [(owner, attr) for owner, attr, *_ in tracing.OP_TARGETS if owner in classes]
    assert targets
    for owner, attr in targets:
        assert attr in vars(classes[owner]), f"{owner}.{attr}"


# The tracking layers' tracer targets; the other layers' targets wait on
# the bench's own maintenance (decode.iou, metrics.iou and PASS_PIPELINE no
# longer exist).
TRACKING_OWNERS = ("motkit.tracker", "motkit.assignment", "motkit.kalman")


def test_tracking_tracer_targets_resolve():
    """A rename in the tracking layers must not leave the tracer counting
    nothing: each target resolves, as the tracer looks it up, to a callable."""
    targets = [
        (owner, attr) for owner, attr, *_ in tracing.OP_TARGETS
        if owner.partition(":")[0] in TRACKING_OWNERS or (owner, attr) == ("motkit.metrics", "solve_lap")
    ]
    assert len(targets) == 7
    for owner, attr in targets:
        obj = tracing._resolve(owner)
        assert obj is not None and callable(vars(obj).get(attr)), f"{owner}.{attr}"


STREAMLINE_TARGETS = [
    ("motkit.streamline", "run_pipeline"),
    ("motkit.streamline", "interpret"),
    ("motkit.streamline:OpGraph", "copy"),
    ("motkit.streamline:OpGraph", "in_edges"),
    ("motkit.streamline:OpGraph", "out_edges"),
    ("motkit.quantcore", "conv2d"),
    ("motkit.quantcore", "mt_apply"),
]


def test_streamline_tracer_targets_resolve():
    """Likewise for the op-graph layers (PASS_PIPELINE aside)."""
    targets = [
        (owner, attr) for owner, attr, *_ in tracing.OP_TARGETS
        if owner.partition(":")[0] in ("motkit.streamline", "motkit.quantcore")
        and attr != "PASS_PIPELINE"
    ]
    assert sorted(targets) == sorted(STREAMLINE_TARGETS)
    for owner, attr in targets:
        obj = tracing._resolve(owner)
        assert obj is not None and callable(vars(obj).get(attr)), f"{owner}.{attr}"


DATAFLOW_TARGETS = [
    ("motkit.dataflow", "simulate"),
    ("motkit.dataflow", "size_fifos"),
    ("motkit.dataflow:StreamGraph", "in_edges"),
    ("motkit.dataflow:StreamGraph", "out_edges"),
]


def test_dataflow_tracer_targets_resolve():
    """Likewise for the FIFO simulator and sizing."""
    targets = [
        (owner, attr) for owner, attr, *_ in tracing.OP_TARGETS
        if owner.partition(":")[0] == "motkit.dataflow"
    ]
    assert sorted(targets) == sorted(DATAFLOW_TARGETS)
    for owner, attr in targets:
        obj = tracing._resolve(owner)
        assert obj is not None and callable(vars(obj).get(attr)), f"{owner}.{attr}"


def test_setup_tracer_targets_resolve():
    """Likewise for the set-up span around the synthetic sequence generator."""
    targets = [(owner, attr) for owner, attr, *_ in tracing.SETUP_TARGETS]
    assert targets == [("motkit.synthetic", "generate_sequence")]
    for owner, attr in targets:
        obj = tracing._resolve(owner)
        assert obj is not None and callable(vars(obj).get(attr)), f"{owner}.{attr}"


DECODE_TARGETS = [
    ("motkit.decode", "reduce_dfl"),
    ("motkit.decode", "decode_heads"),
    ("motkit.decode", "nms"),
    ("motkit.metrics", "coco_map"),
    ("motkit.metrics:MotAccumulator", "step"),
]


def test_decode_tracer_targets_resolve():
    """Likewise for the decode and scoring spans (decode.iou and metrics.iou
    are gone; their counters wait on the bench's own maintenance)."""
    targets = [
        (owner, attr) for owner, attr, _, mode, _ in tracing.OP_TARGETS
        if owner.partition(":")[0] in ("motkit.decode", "motkit.metrics") and mode == "span"
        and attr != "solve_lap"
    ]
    assert sorted(targets) == sorted(DECODE_TARGETS)
    for owner, attr in targets:
        obj = tracing._resolve(owner)
        assert obj is not None and callable(vars(obj).get(attr)), f"{owner}.{attr}"


def test_interpret_calls_the_traced_quantcore_names(monkeypatch):
    """interpret looks conv2d and mt_apply up on quantcore at call time, so
    the tracer's wrappers see every call."""
    calls = {"conv2d": 0, "mt_apply": 0}

    def counting(name):
        fn = getattr(quantcore, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(quantcore, name, counting(name))
    interpret(conv_block_graph(), np.ones((2, 4, 4)))
    assert calls == {"conv2d": 1, "mt_apply": 1}
