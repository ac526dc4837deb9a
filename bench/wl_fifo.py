"""fifo-sweep: design points of a FIFO-sizing sweep on the cycle simulator.

One op is one design point: ``simulate`` at the design's given FIFO depths
(a deadlock is a correct result), then ``size_fifos`` (probe run plus
verification run). Designs are chains and fork/joins of
``MIN_STAGES``-``MAX_STAGES`` stages with bursty stages, drawn by the seed
from a pool of ``POOL`` designs. About a third are under-buffered and
deadlock at their given depths; a minority carry long-latency stages and
sit idle in most cycles. The pool is ordered by each design's simulated
work and a run takes one design from each of ``DESIGNS`` equal strata,
among the ``CHOICES`` designs at the stratum's middle, so every seed runs
light and heavy designs of nearly the same work. The ``SimReport`` fields and
recommended depths of every op must match the digest recorded for its pool
design in ``digests.json``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time

import numpy as np

from motkit import dataflow
from motkit.dataflow import StreamGraph

import digests
import strata

POOL = 2048
DESIGNS = 192
# Pool designs around the middle of each stratum a run draws from.
CHOICES = 8
MIN_STAGES = 4
MAX_STAGES = 24
LONG_LATENCY_SHARE = 0.2
UNDER_BUFFERED_SHARE = 0.35
WARM_UP_DESIGNS = 2
SALT = 0xF1F0
REPORT_FIELDS = (
    "outcome",
    "cycles",
    "delivered",
    "max_occupancy",
    "stall_cycles",
    "blocked_nodes",
    "full_edges",
    "empty_edges",
)


def _stage(rng, g: StreamGraph, nid: str, long_latency: bool) -> int:
    """Add one stage; returns its burst size."""
    burst = int(rng.choice((1, 1, 1, 2, 4, 8)))
    latency = burst if burst > 1 else 1
    if long_latency and rng.random() < 0.3:
        latency = int(rng.integers(8, 33))
    g.add_node(nid, consume=burst, produce=burst, latency=latency)
    return burst


def make_design(index: int):
    """(graph at its given depths, workload tokens, kind) of pool design `index`."""
    rng = np.random.default_rng([SALT, index])
    long_latency = rng.random() < LONG_LATENCY_SHARE
    under = rng.random() < UNDER_BUFFERED_SHARE
    stages = int(rng.integers(MIN_STAGES, MAX_STAGES + 1))
    g = StreamGraph()
    g.add_node("src")
    bursts = [1]
    if rng.random() < 0.5:
        kind = "chain"
        prev = "src"
        for k in range(stages):
            nid = f"s{k}"
            bursts.append(_stage(rng, g, nid, long_latency))
            g.connect(prev, nid, depth=2)
            prev = nid
        g.add_node("sink")
        g.connect(prev, "sink", depth=2)
    else:
        kind = "fork_join"
        pre = max(1, stages // 4)
        prev = "src"
        for k in range(pre):
            nid = f"p{k}"
            bursts.append(_stage(rng, g, nid, long_latency))
            g.connect(prev, nid, depth=2)
            prev = nid
        g.add_node("fork")
        g.connect(prev, "fork", depth=2)
        g.add_node("join")
        rest = stages - pre
        long_len = max(1, rest // 2)
        for branch, length in (("a", rest - long_len), ("b", long_len)):
            prev = "fork"
            for k in range(max(1, length)):
                nid = f"{branch}{k}"
                bursts.append(_stage(rng, g, nid, long_latency))
                g.connect(prev, nid, depth=2)
                prev = nid
            g.connect(prev, "join", depth=2)
        g.add_node("sink")
        g.connect("join", "sink", depth=2)
    # Give each edge room for one burst of its consumer, so the design runs...
    for e in g.edges.values():
        e.depth = max(g.nodes[e.dst].consume, g.nodes[e.src].produce, 2)
    lcm = int(np.lcm.reduce(bursts))
    tokens = lcm * int(rng.integers(max(1, 32 // lcm), max(2, 192 // lcm) + 1))
    if long_latency:
        tokens = lcm * max(1, tokens // (4 * lcm))
    # ...unless it is under-buffered: one edge too shallow for its consumer,
    # or the short side of a fork one slot deep.
    if under:
        bursty = sorted(eid for eid, e in g.edges.items() if g.nodes[e.dst].consume > 1)
        if bursty:
            e = g.edges[bursty[int(rng.integers(len(bursty)))]]
            e.depth = g.nodes[e.dst].consume - 1
        if kind == "fork_join":
            g.edges["fork->a0"].depth = 1
    return g, tokens, kind


def report_key(report, depths) -> str:
    fields = {f: getattr(report, f) for f in REPORT_FIELDS}
    fields = {k: (sorted(v.items()) if isinstance(v, dict) else v) for k, v in fields.items()}
    return json.dumps({"report": fields, "depths": sorted(depths.items())}, default=list)


def report_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class FifoSweep:
    def __init__(self, seed: int, designs: int = DESIGNS):
        self.expected = digests.load("fifo-sweep")
        costs = [self.expected[str(i)][1] for i in range(POOL)]
        self.indices = strata.pick(np.random.default_rng(seed), costs, designs, CHOICES)
        # (start, end, cycles) of every simulate call at given depths.
        self.sim_calls: list[tuple[float, float, int]] = []

    def setup(self) -> None:
        self.designs = [make_design(i) for i in self.indices]

    def sweep_point(self, g: StreamGraph, tokens: int):
        t0 = time.perf_counter()
        report = dataflow.simulate(g, tokens)
        self.sim_calls.append((t0, time.perf_counter(), report.cycles))
        return report, dataflow.size_fifos(g, tokens)

    def warm_up(self) -> None:
        lightest = sorted(self.indices, key=lambda i: self.expected[str(i)][1])
        for index in lightest[:WARM_UP_DESIGNS]:
            g, tokens, _ = self.designs[self.indices.index(index)]
            self.sweep_point(copy.deepcopy(g), tokens)
        self.sim_calls.clear()

    def ops_per_pass(self) -> int:
        return len(self.designs)

    def ops(self):
        for g, tokens, _ in self.designs:
            yield self.sweep_point, (copy.deepcopy(g), tokens)

    def begin_first_pass(self) -> None:
        self.results = {}
        self.bad = set()

    def record(self, i: int, result):
        key = report_key(*result)
        if report_digest(key) != self.expected[str(self.indices[i])][0]:
            self.bad.add(i)
        self.results[i] = result
        return key

    def key(self, result):
        return report_key(*result)

    def bad_ops(self) -> set[int]:
        return self.bad

    def score(self) -> dict:
        """Validate each design and model its initiation interval; neither
        depends on FIFO depths, so the recommended depths are only summed."""
        depth_total = 0
        ii = []
        for i, (report, depths) in self.results.items():
            g = self.designs[i][0]
            g.validate()
            ii.append(dataflow.throughput(g))
            depth_total += sum(depths.values())
        deadlocks = sum(r.outcome == "deadlock" for r, _ in self.results.values())
        return {
            "deadlock_share": deadlocks / len(self.results),
            "recommended_depth_total": depth_total,
            "initiation_interval_max": max(ii),
        }

    def describe(self) -> dict:
        return {
            "pool_indices": self.indices,
            "kinds": [kind for _, _, kind in self.designs],
            "stages": [len(g.nodes) for g, _, _ in self.designs],
            "tokens": [tokens for _, tokens, _ in self.designs],
        }


def record_digests() -> dict[str, list]:
    """[digest, work] of every pool design at the current motkit commit.

    Work is simulated cycles (given depths, plus twice a run at the
    recommended depths for the sizing probe and check) times edge count.
    """
    out = {}
    for index in range(POOL):
        g, tokens, _ = make_design(index)
        report = dataflow.simulate(g, tokens)
        depths = dataflow.size_fifos(g, tokens)
        sized = copy.deepcopy(g)
        for eid, depth in depths.items():
            sized.edges[eid].depth = depth
        cycles = report.cycles + 2 * dataflow.simulate(sized, tokens).cycles
        out[str(index)] = [report_digest(report_key(report, depths)), cycles * len(g.edges)]
    return out
