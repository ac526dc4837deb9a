"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Dataset-scale numbers (COCO mAP, MOT15 MOTA, fps) are out of desk scope:
they need the trained 4-bit network, the datasets and the hardware. The
end-to-end substitute below exercises track + eval-mot on user-supplied
MOT-format files; the metric tests certify the scoring code itself.
"""

import itertools
import time

import numpy as np

from conftest import (
    FORK_JOIN_WORKLOAD,
    burst_stream_graph,
    conv_block_graph,
    fork_join_stream_graph,
)
from motkit.assignment import solve_lap
from motkit.cli import main
from motkit.dataflow import Folding, StreamGraph, simulate, size_fifos, throughput
from motkit.decode import HeadMap, decode_heads, nms
from motkit.geometry import BoundingBox, box_rows
from motkit.metrics import MotAccumulator, evaluate_sequence, mota
from motkit.quantcore import MultiThresholdOp, absorb_affine, conv_int, multithreshold
from motkit.streamline import interpret, run_pipeline
from motkit.synthetic import generate_sequence
from motkit.tracker import SortConfig, SortTracker


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget"
            print(f"ACCEPT {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPT {self.name}: FAIL")
        return False


def box(x, y, size=10.0, score=1.0):
    return BoundingBox(x, y, x + size, y + size, score, 0)


def test_mota_equation_exact_on_hand_counted_scenario():
    """3 frames, hand-counted FN/FP/IDSW/g, exact rational MOTA."""
    with Budget("mota-equation", 1.0):
        a, b = box(0, 0), box(20, 20)
        far = box(100, 100)
        acc = MotAccumulator()
        # frame 1: both matched             -> FN 0, FP 0, IDSW 0, g 2
        acc.step([(1, a), (2, b)], [(10, a), (20, b)])
        # frame 2: B missed, stray track 9  -> FN 1, FP 1, IDSW 0, g 2
        acc.step([(1, a), (2, b)], [(10, a), (9, far)])
        # frame 3: A switches 10 -> 30      -> FN 0, FP 0, IDSW 1, g 2
        acc.step([(1, a), (2, b)], [(30, a), (20, b)])
        assert (acc.fn, acc.fp, acc.idsw, acc.g) == (1, 1, 1, 6)
        # MOTA = 1 - (1 + 1 + 1)/6 = 1/2, exact in binary floating point
        assert mota(acc) == 1.0 - 3.0 / 6.0 == 0.5


def test_perfect_tracking_fixed_point():
    """10 objects x 200 noiseless frames: MOTA 1.0, no switches, stable ids."""
    with Budget("perfect-tracking", 5.0):
        gt_frames, det_frames = generate_sequence(10, 200, noise=0.0, seed=42)
        tracker = SortTracker(SortConfig())
        hyp_frames = {}
        id_by_object = {}
        for frame in sorted(det_frames):
            reported = tracker.step([b for _, b in det_frames[frame]], frame)
            hyp_frames[frame] = [(tid, bx) for tid, bx, _ in reported]
        acc = evaluate_sequence(gt_frames, hyp_frames)
        assert mota(acc) == 1.0
        assert acc.idsw == 0
        # id set never changes after the first frame
        id_sets = {frozenset(t for t, _ in rows) for rows in hyp_frames.values()}
        assert len(id_sets) == 1 and len(id_sets.pop()) == 10


def test_assignment_optimality_1000_random_5x5():
    """solve_lap total equals the exhaustive 5! minimum, every trial."""
    with Budget("assignment-optimality", 5.0):
        rng = np.random.default_rng(123)
        perms = list(itertools.permutations(range(5)))
        for _ in range(1000):
            cost = rng.integers(0, 100, size=(5, 5)).astype(float)
            pairs = solve_lap(cost)
            total = sum(cost[r, c] for r, c in pairs)
            best = min(sum(cost[i, p[i]] for i in range(5)) for p in perms)
            assert total == best


def test_multithreshold_absorption_bit_exact():
    """200 random (T, a, b), a != 0, x in [-64, 64]: bit-exact, negative a too."""
    with Budget("multithreshold-absorption", 5.0):
        rng = np.random.default_rng(7)
        grid = np.arange(-64, 65, dtype=float)
        for trial in range(200):
            thresholds = np.sort(rng.uniform(-50.0, 50.0, size=7))
            while np.any(np.diff(thresholds) <= 0):
                thresholds = np.sort(rng.uniform(-50.0, 50.0, size=7))
            a = 0.0
            while a == 0.0:
                a = rng.uniform(-4.0, 4.0)
            if trial % 2:  # force a dense negative-a population
                a = -abs(a)
            b = rng.uniform(-20.0, 20.0)
            op = MultiThresholdOp(thresholds, out_bits=3)
            absorbed = absorb_affine(op, a, b)
            direct = multithreshold(a * grid + b, op, 0)
            via = multithreshold(grid, absorbed, 0)
            assert np.array_equal(direct, via)


def test_convolution_im2col_equals_naive_oracle():
    """100 random integer cases (<= 8 channels, k in {1,2,3}) plus the
    2x2-kernel / 2-channel / 2x3-input worked configuration."""
    from test_quantcore import naive_conv

    with Budget("conv-equivalence", 10.0):
        rng = np.random.default_rng(99)
        x = rng.integers(0, 16, size=(2, 2, 3)).astype(np.int64)
        w = rng.integers(-8, 8, size=(2, 2, 2, 2)).astype(np.int64)
        assert np.array_equal(conv_int(x, w), naive_conv(x, w))
        for _ in range(100):
            in_ch = int(rng.integers(1, 9))
            out_ch = int(rng.integers(1, 9))
            k = int(rng.choice([1, 2, 3]))
            h = int(rng.integers(k, 8))
            wdt = int(rng.integers(k, 8))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.choice([0, 1]))
            x = rng.integers(0, 16, size=(in_ch, h, wdt)).astype(np.int64)
            wts = rng.integers(-8, 8, size=(out_ch, in_ch, k, k)).astype(np.int64)
            assert np.array_equal(
                conv_int(x, wts, stride, pad), naive_conv(x, wts, stride, pad)
            )


def test_nms_matches_quadratic_oracle():
    """500 random 50-box sets: greedy NMS equals the O(n^2) reference."""
    from test_decode import brute_force_nms, random_boxes

    with Budget("nms-oracle", 10.0):
        rng = np.random.default_rng(17)
        for _ in range(500):
            boxes = random_boxes(rng, 50)
            assert nms(boxes, 0.45).tolist() == box_rows(brute_force_nms(boxes, 0.45)).tolist()


def test_decode_candidate_count_320x192():
    """320x192 input: 40*24 + 20*12 + 10*6 = 1260 pre-threshold candidates."""
    with Budget("decode-candidates", 5.0):
        rng = np.random.default_rng(3)
        maps = [
            HeadMap(stride, rng.normal(size=(84, 192 // stride, 320 // stride)))
            for stride in (8, 16, 32)
        ]
        assert len(decode_heads(maps, score_thresh=0.0)) == 1260


def test_streamline_conv_block_equivalence():
    """Full pass pipeline on the conv block: interpreter-equal on 256 random
    integer inputs; no affine left except the output scale."""
    with Budget("streamline-equivalence", 30.0):
        g = conv_block_graph()
        streamlined = run_pipeline(g)
        rng = np.random.default_rng(31)
        for _ in range(256):
            x = rng.integers(-8, 8, size=(2, 4, 4)).astype(float)
            (before,) = interpret(g, x).values()
            (after,) = interpret(streamlined, x).values()
            assert np.array_equal(before, after)
        affines = [n for n in streamlined.nodes.values() if n.kind in ("Mul", "Add")]
        assert len(affines) == 1
        (out_edge,) = streamlined.out_edges(affines[0].id)
        assert streamlined.nodes[out_edge.dst].kind == "Output"


def test_fifo_sizing_deadlock_and_burst():
    """Fork/join fixture deadlocks below the recommended depths and completes
    at them; the burst-8 edge recommendation is exactly 8."""
    with Budget("fifo-sizing", 10.0):
        assert simulate(fork_join_stream_graph(), FORK_JOIN_WORKLOAD).outcome == "deadlock"
        rec = size_fifos(fork_join_stream_graph(), FORK_JOIN_WORKLOAD)
        sized = simulate(fork_join_stream_graph(rec), FORK_JOIN_WORKLOAD)
        assert sized.completed
        below = dict(rec)
        below["e2"] = 1  # back at the fixture's under-provisioned short branch
        assert simulate(fork_join_stream_graph(below), FORK_JOIN_WORKLOAD).outcome == "deadlock"
        assert size_fifos(burst_stream_graph(1), 16)["e1"] == 8


def test_throughput_folding_formula():
    """(in/simd)*(out/pe)*k^2 per output x 100 outputs: 6400 -> 100 cycles."""
    with Budget("throughput-folding", 1.0):
        g = StreamGraph()
        g.add_node("src")
        g.add_node("m", folding=Folding(1, 1, 8, 8, 1), outputs_per_frame=100)
        g.connect("src", "m")
        assert throughput(g) == 6400
        g.nodes["m"].folding = Folding(8, 8, 8, 8, 1)
        assert throughput(g) == 100


def test_end_to_end_mot_files(tmp_path):
    """Substitute for the dataset-scale runs: user-style MOT ground truth +
    detection files through track + eval-mot, pooled-sum aggregation."""
    with Budget("end-to-end-files", 10.0):
        gt_frames, det_frames = generate_sequence(4, 30, noise=0.8, seed=5)
        from motkit.io import write_mot

        gt_path = tmp_path / "gt.txt"
        det_path = tmp_path / "dets.txt"
        res_path = tmp_path / "res.txt"
        csv_path = tmp_path / "metrics.csv"
        write_mot(gt_frames, gt_path)
        write_mot(det_frames, det_path)
        assert main(["track", "--detections", str(det_path), "-o", str(res_path)]) == 0
        assert main(["eval-mot", str(gt_path), str(res_path), "--csv", str(csv_path)]) == 0
        header, values = csv_path.read_text().splitlines()
        assert header == "MOTA,FN,FP,IDSW,GT"
        scored = dict(zip(header.split(","), values.split(",")))
        assert float(scored["MOTA"]) > 0.9
        assert int(scored["GT"]) == 120
