"""Small fixed probes for end-to-end metrics a workload does not produce.

Every workload prints every end-to-end metric. ``mota`` belongs to
sort-crowd, ``map`` to detect-eval and ``sim_cycles_per_s`` to fifo-sweep;
on the other workloads these values come from the fixed inputs below, so
they never depend on the seed. ``mota`` and ``map`` are computed once after
the timed phase; the simulator probe runs between ops every few tenths of
a second, outside op timing, and ``sim_cycles_per_s`` is its rate over all
those calls, normalised to the reference speed like every time of a run.
Probes are never traced and never count as ops.
"""

from __future__ import annotations

from motkit import dataflow, metrics, synthetic
from motkit.dataflow import StreamGraph
from motkit.tracker import SortTracker

SIM_TOKENS = 128


def mota() -> float:
    """MOTA of SORT on one fixed 20-object, 40-frame sequence."""
    gt_frames, det_frames = synthetic.generate_sequence(20, 40, 2.0, 0)
    trk = SortTracker()
    hyp = {}
    for frame in sorted(det_frames):
        reported = trk.step([box for _, box in det_frames[frame]], frame)
        hyp[frame] = [(tid, box) for tid, box, _ in reported]
    return metrics.mota(metrics.evaluate_sequence(gt_frames, hyp))


def coco_map() -> float:
    """COCO mAP of decode + NMS on four fixed detect-eval images."""
    from wl_detect import DetectEval

    w = DetectEval(seed=0, images=4)
    w.setup()
    w.begin_first_pass()
    for i, (fn, args) in enumerate(w.ops()):
        w.record(i, fn(*args))
    return w.score()["map"]


def sim_cycles() -> int:
    """Simulate a fixed 8-stage chain once; returns its cycle count."""
    g = StreamGraph()
    prev = "src"
    g.add_node(prev)
    for k in range(8):
        burst = 2 if k % 4 == 0 else 1
        g.add_node(f"s{k}", consume=burst, produce=burst)
        g.connect(prev, f"s{k}", depth=2)
        prev = f"s{k}"
    g.add_node("sink")
    g.connect(prev, "sink", depth=2)
    return dataflow.simulate(g, SIM_TOKENS).cycles
