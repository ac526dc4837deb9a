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
