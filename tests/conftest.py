"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from motkit.dataflow import StreamGraph
from motkit.geometry import BoundingBox
from motkit.streamline import OpGraph


def translated(box: BoundingBox, dx: float, dy: float) -> BoundingBox:
    """`box` moved by (dx, dy), score and class kept."""
    return BoundingBox(
        box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy, box.score, box.class_id
    )


def conv_block_graph() -> OpGraph:
    """Conv block as imported from training code, before streamlining.

    Input -> Mul(incoming scale) -> Conv -> Mul(bn scale) -> Add(bn bias)
    -> MultiThreshold -> Mul(output scale) -> Output. Scales are powers of
    two and weights/thresholds integers, so interpreter equivalence checks
    can demand bitwise equality.
    """
    g = OpGraph()
    g.add_node("in", "Input")
    g.add_node("mul_in", "Mul", scale=0.5)
    g.add_node(
        "conv",
        "Conv",
        weights=np.arange(-8.0, 8.0).reshape(2, 2, 2, 2),
        stride=1,
        pad=1,
    )
    g.add_node("bn_mul", "Mul", scale=[0.5, 2.0])
    g.add_node("bn_add", "Add", bias=[1.0, -3.0])
    g.add_node(
        "mt",
        "MultiThreshold",
        thresholds=np.array([[-24.0, 0.0, 24.0], [-96.0, 0.0, 96.0]]),
        out_bits=2,
    )
    g.add_node("mul_out", "Mul", scale=0.25)
    g.add_node("out", "Output")
    prev = "in"
    for nid in ("mul_in", "conv", "bn_mul", "bn_add", "mt", "mul_out", "out"):
        g.connect(prev, nid)
        prev = nid
    return g


def fork_join_graph() -> OpGraph:
    """C2f-style fork/join: an affine before a fanout, EltwiseAdd join."""
    g = OpGraph()
    g.add_node("in", "Input")
    g.add_node("pre", "Mul", scale=0.5)
    g.add_node("branch_conv", "Conv", weights=np.eye(2).reshape(2, 2, 1, 1) * 2.0)
    g.add_node("join", "EltwiseAdd")
    g.add_node("out", "Output")
    g.connect("in", "pre")
    g.connect("pre", "branch_conv")  # branch 1: through a conv
    g.connect("pre", "join", dst_in=1)  # branch 2: skip connection
    g.connect("branch_conv", "join", dst_in=0)
    g.connect("join", "out")
    return g


def mul_conv_chain_graph(graph_cls=OpGraph) -> OpGraph:
    """Four Mul -> Conv sites: the first scale is per-channel and not
    uniform, so it cannot move; the other three can, and each move makes
    another site. Moving them all takes six rewrites, so the pass rescans
    the stuck site seven times."""
    g = graph_cls()
    g.add_node("in", "Input")
    prev = "in"
    for i, scale in enumerate(([0.5, 2.0], 0.5, 2.0, 0.25)):
        g.add_node(f"m{i}", "Mul", scale=scale)
        g.add_node(f"conv{i}", "Conv", weights=np.ones((2, 2, 1, 1)))
        g.connect(prev, f"m{i}")
        g.connect(f"m{i}", f"conv{i}")
        prev = f"conv{i}"
    g.add_node("out", "Output")
    g.connect(prev, "out")
    return g


def fork_add_chain(blocks: int) -> OpGraph:
    """Input -> Mul -> `blocks` fork/adds (a Conv branch and a skip into an
    EltwiseAdd) -> MultiThreshold -> Output: the C2f bottleneck chain. The Mul
    forks, moves past each branch Conv and merges at each join, then folds
    into the thresholds."""
    g = OpGraph()
    g.add_node("in", "Input")
    g.add_node("pre", "Mul", scale=2.0)
    g.connect("in", "pre")
    tail = "pre"
    for i in range(blocks):
        g.add_node(f"conv{i}", "Conv", weights=np.ones((2, 2, 1, 1)))
        g.add_node(f"add{i}", "EltwiseAdd")
        g.connect(tail, f"conv{i}")
        g.connect(f"conv{i}", f"add{i}", dst_in=0)
        g.connect(tail, f"add{i}", dst_in=1)
        tail = f"add{i}"
    g.add_node("mt", "MultiThreshold", thresholds=np.array([[0.0, 1, 2]] * 2), out_bits=2)
    g.add_node("out", "Output")
    g.connect(tail, "mt")
    g.connect("mt", "out")
    return g


def yolov8_graph() -> OpGraph:
    """The datapath ops of a YOLOv8 backbone and neck on a 2-channel input
    (Ultralytics YOLOv8), every conv followed by a requant (Mul, Add,
    MultiThreshold, Mul):

    * stem: 3x3 Conv to 4 channels;
    * C2f: Split into halves; a bottleneck (two 3x3 Convs) on the second
      half, added back to it by an EltwiseAdd residual; Concat of both halves
      and the bottleneck, then a 1x1 Conv;
    * down: 3x3 stride-2 Conv, 8x8 to 4x4;
    * SPPF: three chained stride-1 3x3 MaxPools, Concat of the four maps,
      then a 1x1 Conv. The IR's MaxPool has no padding, so a pad-1 identity
      Conv stands in for Ultralytics' pad-1 pooling: its input counts
      thresholds, so it is >= 0 and a zero border changes no maximum;
    * neck: nearest Resize x2 of the SPPF output, Concat with the C2f
      output, then a 1x1 Conv.

    Scales are powers of two and weights, biases and thresholds integers, so
    streamlining must keep the output bit-exact. Takes a (2, 8, 8) input."""
    g = OpGraph()
    rng = np.random.default_rng(8)
    n = 0

    def add(kind, *srcs, **attrs):
        nonlocal n
        n += 1
        nid = f"{kind.lower()}{n}"
        g.add_node(nid, kind, **attrs)
        for slot, src in enumerate(srcs):  # a node id, or (node id, output slot)
            src, src_out = src if isinstance(src, tuple) else (src, 0)
            g.connect(src, nid, src_out=src_out, dst_in=slot)
        return nid

    def conv(src, c_in, c_out, k=1, stride=1, pad=0):
        src = add("Mul", src, scale=2.0)
        w = rng.integers(-2, 3, (c_out, c_in, k, k)).astype(float)
        src = add("Conv", src, weights=w, stride=stride, pad=pad)
        src = add("Mul", src, scale=rng.choice((-1.0, 1.0, 2.0), c_out).tolist())
        src = add("Add", src, bias=rng.integers(-3, 4, c_out).astype(float).tolist())
        rows = np.sort(rng.choice(np.arange(-12.0, 13.0), (c_out, 3), replace=False), axis=1)
        src = add("MultiThreshold", src, thresholds=rows, out_bits=2)
        return add("Mul", src, scale=0.5)

    x = conv(add("Input"), 2, 4, k=3, pad=1)
    split = add("Split", x, sizes=[2, 2])
    half = (split, 1)
    bottleneck = conv(conv(half, 2, 2, k=3, pad=1), 2, 2, k=3, pad=1)
    residual = add("EltwiseAdd", bottleneck, half)
    c2f = conv(add("Concat", (split, 0), half, residual), 6, 4)
    pooled = [conv(c2f, 4, 4, k=3, stride=2, pad=1)]
    for _ in range(3):
        padded = add("Conv", pooled[-1], weights=np.eye(4).reshape(4, 4, 1, 1), pad=1)
        pooled.append(add("MaxPool", padded, kernel=3, stride=1))
    sppf = conv(add("Concat", *pooled), 16, 4)
    neck = conv(add("Concat", add("Resize", sppf, factor=2), c2f), 8, 4)
    add("Output", neck)
    return g


def chain_stream_graph(depths: dict[str, int] | None = None) -> StreamGraph:
    """Rate-matched 3-stage linear pipeline, one token per firing."""
    d = depths or {}
    g = StreamGraph()
    g.add_node("src")
    g.add_node("mid")
    g.add_node("sink")
    g.connect("src", "mid", depth=d.get("e0", 1), edge_id="e0")
    g.connect("mid", "sink", depth=d.get("e1", 1), edge_id="e1")
    return g


def burst_stream_graph(burst_depth: int = 2) -> StreamGraph:
    """Producer accumulating 8 tokens then bursting 8 into a 1/cycle reader."""
    g = StreamGraph()
    g.add_node("src")
    g.add_node("producer", consume=8, produce=8)
    g.add_node("consumer")
    g.add_node("sink")
    g.connect("src", "producer", depth=8, edge_id="e0")
    g.connect("producer", "consumer", depth=burst_depth, edge_id="e1")
    g.connect("consumer", "sink", depth=2, edge_id="e2")
    return g


FORK_JOIN_WORKLOAD = 32


def fork_join_stream_graph(depths: dict[str, int] | None = None) -> StreamGraph:
    """Fork/join deadlock fixture.

    The short branch is a unit-rate unit-latency node; the long branch
    accumulates 8 tokens before producing its burst (latency matching its
    8-cycle token period, so the pipeline is rate-matched end to end). At
    the default short-branch depth the fork exhausts the short side's
    capacity before the accumulator ever reaches 8 inputs, the join
    starves, and everything freezes.
    """
    d = depths or {}
    g = StreamGraph()
    g.add_node("src")
    g.add_node("fork")
    g.add_node("bshort")
    g.add_node("acc", consume=8, produce=8, latency=8)
    g.add_node("join", consume=1)
    g.add_node("sink")
    g.connect("src", "fork", depth=d.get("e_in", 2), edge_id="e_in")
    g.connect("fork", "bshort", depth=d.get("e1", 2), edge_id="e1")
    g.connect("bshort", "join", depth=d.get("e2", 1), edge_id="e2")
    g.connect("fork", "acc", depth=d.get("e3", 16), edge_id="e3")
    g.connect("acc", "join", depth=d.get("e4", 8), edge_id="e4")
    g.connect("join", "sink", depth=d.get("e5", 2), edge_id="e5")
    return g
