"""streamline-graphs: streamline quantized conv graphs, check bit-exactness.

One op is ``interpret`` of one quantized conv graph on a seeded integer
input, ``run_pipeline`` on that graph, then ``interpret`` of the streamlined
graph on the same input; the two outputs must be bit-exact. The original is
interpreted before the pipeline runs, so a pipeline that rewrites its input
in place is still checked against the untouched graph. Graphs have
``MIN_BLOCKS``-``MAX_BLOCKS`` blocks (see ``block_count``) and follow the
conv-block and C2f patterns:

* conv block: Mul(scale) -> Conv -> Mul(bn scale) -> Add(bn bias)
  -> MultiThreshold -> Mul(output scale);
* fork/add: Mul -> {Conv branch, skip} -> EltwiseAdd;
* fork/concat: Mul -> {Conv branch, skip} -> Concat -> 1x1 Conv;
* split/concat: Split -> {Conv on one half, other half} -> Concat.

Scales are signed powers of two and weights, biases and thresholds are
integers, so every rewrite is exact in float64 and equality is demanded.
The pool holds ``VARIANTS`` graphs of each of ``GRAPHS`` sizes (block
count and channels), and a run takes one variant of each size, so every
seed runs the same sizes. Each op's output
digest and the number of float affines (Mul/Add) left in its streamlined
graph must also match the values recorded for its pool graph in
``digests.json``, so a pipeline that rewrites nothing fails. Scoring
validates each streamlined graph and counts its affines.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from motkit import streamline
from motkit.streamline import OpGraph

import digests
import strata

POOL = 240
GRAPHS = 40
VARIANTS = POOL // GRAPHS
MIN_BLOCKS = 5
MAX_BLOCKS = 80
SPATIAL = 6
CHANNELS = (2, 3, 4)
KIND_SHARES = (0.55, 0.15, 0.15, 0.15)  # conv_block, fork_add, fork_concat, split_concat
WARM_UP_GRAPHS = 2
SALT = 0x57E


class _BlockChain:
    """Appends blocks to an OpGraph, threading the current tensor through."""

    def __init__(self, rng: np.random.Generator, channels: int, kernels: list[int]):
        self.rng = rng
        self.c = channels
        self.kernels = iter(kernels)
        self.g = OpGraph()
        self.g.add_node("in", "Input")
        self.tail = ("in", 0)
        self.n = 0

    def _id(self, kind: str) -> str:
        self.n += 1
        return f"{kind.lower()}{self.n}"

    def node(self, kind: str, src=None, dst_in: int = 0, **attrs) -> str:
        nid = self._id(kind)
        self.g.add_node(nid, kind, **attrs)
        src_id, src_out = src or self.tail
        self.g.connect(src_id, nid, src_out=src_out, dst_in=dst_in)
        self.tail = (nid, 0)
        return nid

    def scale(self) -> float:
        return float(2.0 ** self.rng.integers(-2, 2))

    def conv(self, c_in: int, c_out: int, src=None) -> str:
        k = next(self.kernels)
        w = self.rng.integers(-3, 4, (c_out, c_in, k, k)).astype(float)
        return self.node("Conv", src, weights=w, stride=1, pad=k // 2)

    def requant(self, c: int) -> None:
        """BN affine, 2-bit MultiThreshold and output scale on the tail."""
        signs = self.rng.choice((-1.0, 1.0), c, p=(0.2, 0.8))
        self.node("Mul", scale=(signs * 2.0 ** self.rng.integers(-1, 2, c)).tolist())
        self.node("Add", bias=self.rng.integers(-4, 5, c).astype(float).tolist())
        levels = self.rng.choice(np.arange(-24.0, 25.0), (c, 3), replace=False, shuffle=False)
        self.node("MultiThreshold", thresholds=np.sort(levels, axis=1), out_bits=2)
        self.node("Mul", scale=self.scale())

    def conv_block(self) -> None:
        self.node("Mul", scale=self.scale())
        self.conv(self.c, self.c)
        self.requant(self.c)

    def fork_add(self) -> None:
        pre = self.node("Mul", scale=self.scale())
        branch = self.conv(self.c, self.c, src=(pre, 0))
        join = self._id("EltwiseAdd")
        self.g.add_node(join, "EltwiseAdd")
        self.g.connect(branch, join, dst_in=0)
        self.g.connect(pre, join, dst_in=1)
        self.tail = (join, 0)
        self.requant(self.c)

    def fork_concat(self) -> None:
        pre = self.node("Mul", scale=self.scale())
        branch = self.conv(self.c, self.c, src=(pre, 0))
        join = self._id("Concat")
        self.g.add_node(join, "Concat")
        self.g.connect(branch, join, dst_in=0)
        self.g.connect(pre, join, dst_in=1)
        self.tail = (join, 0)
        self.conv(2 * self.c, self.c)
        self.requant(self.c)

    def split_concat(self) -> None:
        half = self.c // 2
        split = self.node("Split", sizes=[half, self.c - half])
        branch = self.conv(half, half, src=(split, 0))
        join = self._id("Concat")
        self.g.add_node(join, "Concat")
        self.g.connect(branch, join, dst_in=0)
        self.g.connect(split, join, src_out=1, dst_in=1)
        self.tail = (join, 0)
        self.requant(self.c)

    def finish(self) -> OpGraph:
        self.node("Output")
        return self.g


def block_count(q: float) -> int:
    """Block count at quantile q of a density proportional to blocks**-1.5
    on [MIN_BLOCKS, MAX_BLOCKS]: most graphs are small, a tenth are large."""
    lo, hi = MIN_BLOCKS**-0.5, (MAX_BLOCKS + 1) ** -0.5
    return int((lo - q * (lo - hi)) ** -2)


def pool_blocks(index: int) -> int:
    """Block count of pool graph `index`: VARIANTS graphs at each of GRAPHS
    evenly spaced quantiles of block_count, in index order."""
    return block_count((index // VARIANTS + 0.5) / GRAPHS)


def make_graph(index: int):
    """(graph, integer input, block count) of pool graph `index`. Block kinds
    come in fixed shares (see KIND_SHARES) in seeded order, and so do conv
    kernel sizes (half 1x1, half 3x3); channel counts cycle over the sizes."""
    rng = np.random.default_rng([SALT, index])
    blocks = pool_blocks(index)
    channels = CHANNELS[index // VARIANTS % len(CHANNELS)]
    counts = [int(blocks * share) for share in KIND_SHARES[1:]]
    kinds = ["conv_block"] * (blocks - sum(counts))
    for kind, n in zip(("fork_add", "fork_concat", "split_concat"), counts):
        kinds += [kind] * n
    convs = blocks + kinds.count("fork_concat")
    kernels = [int(k) for k in rng.permutation([1] * (convs - convs // 2) + [3] * (convs // 2))]
    b = _BlockChain(rng, channels, kernels)
    for kind in rng.permutation(kinds):
        getattr(b, str(kind))()
    x = rng.integers(-8, 8, (channels, SPATIAL, SPATIAL)).astype(float)
    return b.finish(), x, blocks


def affines(g: OpGraph) -> int:
    return sum(node.kind in ("Mul", "Add") for node in g.nodes.values())


def streamline_op(g: OpGraph, x: np.ndarray):
    """Interpret g on x, streamline it, interpret the result on x; returns
    (streamlined graph, bit-exact flag, output digest)."""
    want = streamline.interpret(g, x)
    out = streamline.run_pipeline(g)
    got = streamline.interpret(out, x)
    exact = want.keys() == got.keys() and all(np.array_equal(want[k], got[k]) for k in want)
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(got[k]).tobytes() for k in sorted(got)))
    return out, exact, digest.hexdigest()


class StreamlineGraphs:
    def __init__(self, seed: int, graphs: int = GRAPHS):
        self.expected = digests.load("streamline-graphs")
        costs = [pool_blocks(i) for i in range(POOL)]
        self.indices = strata.pick(np.random.default_rng(seed), costs, graphs)
        self.n_graphs = graphs

    def setup(self) -> None:
        self.graphs = [make_graph(i) for i in self.indices]

    def warm_up(self) -> None:
        for g, x, _ in sorted(self.graphs, key=lambda item: item[2])[:WARM_UP_GRAPHS]:
            streamline_op(copy.deepcopy(g), x)

    def ops_per_pass(self) -> int:
        return self.n_graphs

    def ops(self):
        for g, x, _ in self.graphs:
            yield streamline_op, (copy.deepcopy(g), x)

    def begin_first_pass(self) -> None:
        self.outputs = {}
        self.bad = set()

    def record(self, i: int, result):
        out, exact, digest = result
        if [digest, affines(out)] != self.expected[str(self.indices[i])] or not exact:
            self.bad.add(i)
        self.outputs[i] = out
        return exact, digest

    def key(self, result):
        return result[1], result[2]

    def bad_ops(self) -> set[int]:
        return self.bad

    def score(self) -> dict:
        before = after = 0
        for i, out in self.outputs.items():
            out.validate()
            before += affines(self.graphs[i][0])
            after += affines(out)
        return {"affines_before": before, "affines_after": after}

    def describe(self) -> dict:
        return {
            "pool_indices": self.indices,
            "blocks": [blocks for _, _, blocks in self.graphs],
            "nodes": [len(g.nodes) for g, _, _ in self.graphs],
            "spatial": SPATIAL,
        }


def record_digests() -> dict[str, list]:
    """[output digest, affines left] of every pool graph at the current
    motkit commit."""
    out = {}
    for index in range(POOL):
        g, x, _ = make_graph(index)
        streamlined, exact, digest = streamline_op(g, x)
        if not exact:
            raise SystemExit(f"streamline-graphs: pool graph {index} is not bit-exact")
        out[str(index)] = [digest, affines(streamlined)]
    return out
