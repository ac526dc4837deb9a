"""The benchmark's toy-size self-check runs clean against this checkout.

The benchmark builds OpGraph, StreamGraph and SortTracker directly, so a
change to those classes can break it without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

from motkit.dataflow import StreamGraph
from motkit.streamline import OpGraph

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
