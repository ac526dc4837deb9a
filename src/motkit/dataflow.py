"""Cycle-level simulation of a streaming pipeline with bounded FIFOs.

Node firing model: a node fires when every input FIFO holds `consume`
tokens and its previous burst has fully left the staging buffer; it then
occupies `latency` cycles and stages `produce` tokens per output edge.
Staged tokens drain into each FIFO as space allows, and the node cannot
start a new firing until the whole burst has fit - this reproduces the
stall of a producer whose burst is too large for its consumer to absorb
in time. Sources fire against a finite token workload; sinks swallow
tokens. Everything is deterministic: one event loop, fixed node order.

Cycles in which only latency countdowns run are skipped in one step (see
`simulate`); every reported count is the one a cycle-by-cycle run gives.

FIFO sizing follows the probe procedure: run once with effectively
unbounded depths, read off each FIFO's largest saturation, then verify a
run at exactly those depths completes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .io import check_int, graph_specs

DEFAULT_CYCLE_CAP = 10_000_000


class GraphError(ValueError):
    """Malformed stream graph; distinct from a simulated deadlock."""


@dataclass(frozen=True)
class Folding:
    """SIMD/PE folding of a matrix operator.

    Output channels are distributed across PEs and input channels across
    SIMD lanes, so both must divide evenly.
    """

    simd: int
    pe: int
    in_ch: int
    out_ch: int
    k: int = 1

    def cycles_per_output(self) -> int:
        if self.in_ch % self.simd != 0:
            raise GraphError(f"in_ch {self.in_ch} not a multiple of simd {self.simd}")
        if self.out_ch % self.pe != 0:
            raise GraphError(f"out_ch {self.out_ch} not a multiple of pe {self.pe}")
        return (self.in_ch // self.simd) * (self.out_ch // self.pe) * self.k * self.k


@dataclass(slots=True)
class StreamNode:
    """One pipeline stage: firing rates, latency, optional folding."""

    id: str
    consume: int = 1
    produce: int = 1
    latency: int = 1
    folding: Folding | None = None
    outputs_per_frame: int = 1


@dataclass(slots=True)
class FifoEdge:
    id: str
    src: str
    dst: str
    depth: int = 1


@dataclass
class SimReport:
    """Simulation outcome plus per-edge saturation and stall accounting."""

    outcome: str  # "completed" | "deadlock" | "cap_exceeded"
    cycles: int
    max_occupancy: dict[str, int]
    delivered: int
    stall_cycles: dict[str, int]
    blocked_nodes: tuple[str, ...] = ()
    full_edges: tuple[str, ...] = ()
    empty_edges: tuple[str, ...] = ()

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "completed": self.completed,
            "cycles": self.cycles,
            "delivered": self.delivered,
            "max_occupancy": dict(sorted(self.max_occupancy.items())),
            "stall_cycles": dict(sorted(self.stall_cycles.items())),
            "blocked_nodes": list(self.blocked_nodes),
            "full_edges": list(self.full_edges),
            "empty_edges": list(self.empty_edges),
        }


class StreamGraph:
    """Nodes joined by bounded FIFO edges; sources feed, sinks drain."""

    def __init__(self):
        self.nodes: dict[str, StreamNode] = {}
        self.edges: dict[str, FifoEdge] = {}
        # each node's edges in connection order (tuples: small, and the
        # shared empty one costs nothing); edges are never removed
        self._in: dict[str, tuple[FifoEdge, ...]] = {}
        self._out: dict[str, tuple[FifoEdge, ...]] = {}

    def add_node(self, node_id: str, **kwargs) -> StreamNode:
        if node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        node = StreamNode(node_id, **kwargs)
        for name in ("consume", "produce", "latency"):
            check_int(f"node {node_id}: {name}", getattr(node, name), 1, GraphError)
        self.nodes[node_id] = node
        self._in[node_id] = ()
        self._out[node_id] = ()
        return node

    def connect(self, src: str, dst: str, depth: int = 1, edge_id: str | None = None) -> FifoEdge:
        if src not in self.nodes or dst not in self.nodes:
            raise GraphError(f"edge references unknown node: {src} -> {dst}")
        if edge_id is None:
            edge_id = f"{src}->{dst}"
        if not isinstance(edge_id, str):
            raise GraphError(f"edge id must be a string, got {edge_id!r}")
        if edge_id in self.edges:
            raise GraphError(f"duplicate edge id {edge_id!r}")
        check_int(f"edge {edge_id}: depth", depth, 0, GraphError)
        edge = FifoEdge(edge_id, src, dst, depth)
        self.edges[edge_id] = edge
        self._out[src] += (edge,)
        self._in[dst] += (edge,)
        return edge

    def in_edges(self, node_id: str) -> list[FifoEdge]:
        return list(self._in[node_id])

    def out_edges(self, node_id: str) -> list[FifoEdge]:
        return list(self._out[node_id])

    def sources(self) -> list[str]:
        return [nid for nid, ins in self._in.items() if not ins]

    def sinks(self) -> list[str]:
        return [nid for nid, outs in self._out.items() if not outs]

    def topo_order(self) -> list[str]:
        indeg = {nid: len(ins) for nid, ins in self._in.items()}
        order = [nid for nid, d in indeg.items() if d == 0]
        for nid in order:  # first in, first out: the list grows as nodes get ready
            for e in self._out[nid]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    order.append(e.dst)
        if len(order) != len(self.nodes):
            raise GraphError("stream graph contains a cycle")
        return order

    def validate(self) -> None:
        if not self.nodes:
            raise GraphError("empty stream graph")
        sources, sinks = self.sources(), self.sinks()
        if not sources:
            raise GraphError("no source node (node without inputs)")
        if not sinks:
            raise GraphError("no sink node (node without outputs)")
        isolated = set(sources) & set(sinks)
        if isolated:
            raise GraphError(f"isolated nodes: {sorted(isolated)}")
        order = self.topo_order()
        # every node must sit on some source->sink path
        reach_fwd = set(sources)
        for nid in order:
            if nid in reach_fwd:
                reach_fwd.update(e.dst for e in self._out[nid])
        reach_bwd = set(sinks)
        for nid in reversed(order):
            if nid in reach_bwd:
                reach_bwd.update(e.src for e in self._in[nid])
        stranded = set(self.nodes) - (reach_fwd & reach_bwd)
        if stranded:
            raise GraphError(f"nodes not on any source->sink path: {sorted(stranded)}")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": [asdict(n) for n in self.nodes.values()],
            "edges": [asdict(e) for e in self.edges.values()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> StreamGraph:
        """Build a graph from its JSON form; anything malformed is a GraphError."""
        g = cls()
        optional = ("consume", "produce", "latency", "outputs_per_frame")
        for spec in graph_specs(doc, "nodes", ("id",), GraphError):
            fold = spec.get("folding")
            try:
                folding = Folding(**fold) if fold else None
            except TypeError as exc:
                raise GraphError(f"node {spec['id']}: bad folding {fold!r}") from exc
            g.add_node(spec["id"], folding=folding, **{k: spec[k] for k in optional if k in spec})
        for spec in graph_specs(doc, "edges", ("src", "dst"), GraphError):
            g.connect(spec["src"], spec["dst"], spec.get("depth", 1), spec.get("id"))
        return g


def save_stream_graph(g: StreamGraph, path, workload: int | None = None) -> None:
    doc = g.to_json_dict()
    if workload is not None:
        doc["workload"] = workload
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_stream_graph(path) -> tuple[StreamGraph, int | None]:
    with open(path) as fh:
        doc = json.load(fh)
    return StreamGraph.from_json_dict(doc), doc.get("workload")


def simulate(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> SimReport:
    """Run the pipeline on `workload` source tokens.

    Per cycle: (1) busy nodes advance, completions stage their burst;
    (2) staged tokens drain into FIFOs up to free space; (3) occupancy
    peaks are sampled; (4) idle nodes with empty staging and sufficient
    inputs fire. Deadlock is declared the first cycle nothing changes
    while work remains - the state would then be frozen forever.

    Skip rule: after a cycle that drains and fires nothing while some node
    is busy, the next `min(busy) - 1` cycles (never past `cycle_cap`) pass
    in one step: busy nodes count down by that many, idle nodes with a
    stuck burst stall that many. It relies on staging, occupancy and the
    source counters staying frozen until a busy node completes, which
    whole-cycle latencies make exact. With no node busy nothing is skipped.
    """
    g.validate()
    check_int("workload", workload, 1, GraphError)
    check_int("cycle_cap", cycle_cap, 1, GraphError)
    for src in g.sources():
        if workload % g.nodes[src].produce != 0:
            raise GraphError(
                f"workload {workload} not a multiple of source {src} burst "
                f"{g.nodes[src].produce}"
            )

    # Each phase touches only a node's own state and edges, so the visiting
    # order is free; insertion order is the key order of the report's dicts.
    pos = {nid: i for i, nid in enumerate(g.nodes)}
    eids = list(g.edges)
    eidx = {eid: k for k, eid in enumerate(eids)}
    ins = [[eidx[e.id] for e in g.in_edges(nid)] for nid in g.nodes]
    outs = [[eidx[e.id] for e in g.out_edges(nid)] for nid in g.nodes]
    consume = [node.consume for node in g.nodes.values()]
    produce = [node.produce for node in g.nodes.values()]
    latency = [node.latency for node in g.nodes.values()]
    depth = [e.depth for e in g.edges.values()]
    edge_src = [pos[e.src] for e in g.edges.values()]
    n, m = len(pos), len(eids)

    occupancy, max_occ = [0] * m, [0] * m
    staged = [0] * m  # tokens of an edge's burst not yet in its FIFO
    node_staged = [0] * n  # the same, summed over a node's output edges
    busy, stall = [0] * n, [0] * n
    remaining = [0 if ins[i] else workload // produce[i] for i in range(n)]
    # Running totals; the run is complete when all three are zero.
    left, busy_nodes, held = sum(remaining), 0, 0  # held: staged or in a FIFO
    delivered = 0

    cycles = 0
    outcome = "cap_exceeded"
    while cycles < cycle_cap:
        cycles += 1
        advanced = busy_nodes > 0

        # 1) advance busy nodes; completed firings stage their burst
        for i in range(n):
            b = busy[i]
            if b:
                busy[i] = b - 1
                if b == 1:
                    busy_nodes -= 1
                    for k in outs[i]:
                        staged[k] += produce[i]
                    node_staged[i] += produce[i] * len(outs[i])
                    held += produce[i] * len(outs[i])

        # 2) drain staging into FIFOs as far as space allows; 3) sample the
        # post-drain peak (the "largest saturation") - only drains raise it
        drained = False
        for k in range(m):
            s = staged[k]
            if s:
                amount = min(s, depth[k] - occupancy[k])
                if amount > 0:
                    staged[k] = s - amount
                    node_staged[edge_src[k]] -= amount
                    occ = occupancy[k] = occupancy[k] + amount
                    if occ > max_occ[k]:
                        max_occ[k] = occ
                    drained = True

        # 4) fire idle nodes whose burst has fully left and inputs suffice
        fired = False
        for i in range(n):
            if busy[i]:
                continue
            if node_staged[i]:
                stall[i] += 1  # burst still stuck in staging
                continue
            inputs = ins[i]
            if not inputs:  # source
                if remaining[i]:
                    remaining[i] -= 1
                    left -= 1
                    busy[i] = latency[i]
                    busy_nodes += 1
                    fired = True
                continue
            need = consume[i]
            for k in inputs:
                if occupancy[k] < need:
                    break
            else:
                for k in inputs:
                    occupancy[k] -= need
                held -= need * len(inputs)
                if not outs[i]:  # sink swallows
                    delivered += need * len(inputs)
                busy[i] = latency[i]
                busy_nodes += 1
                fired = True

        if not (left or busy_nodes or held):
            outcome = "completed"
            break
        if not (advanced or drained or fired):
            outcome = "deadlock"
            break
        if busy_nodes and not (drained or fired):  # skip rule
            skip = min(min(filter(None, busy)) - 1, cycle_cap - cycles)
            cycles += skip
            for i in range(n):
                if busy[i]:
                    busy[i] -= skip
                elif node_staged[i]:
                    stall[i] += skip

    blocked, full, empty = [], [], []
    if outcome == "deadlock":
        for nid in g.topo_order():
            i = pos[nid]
            occs = [occupancy[k] for k in ins[i]]
            starved = bool(occs) and max(occs) > 0 and min(occs) < consume[i]
            if node_staged[i] or remaining[i] or starved:
                blocked.append(nid)
        full = sorted(eid for k, eid in enumerate(eids) if occupancy[k] >= depth[k])
        empty = sorted(eid for k, eid in enumerate(eids) if occupancy[k] == 0)

    return SimReport(
        outcome=outcome,
        cycles=cycles,
        max_occupancy=dict(zip(eids, max_occ)),
        delivered=delivered,
        stall_cycles=dict(zip(g.nodes, stall)),
        blocked_nodes=tuple(blocked),
        full_edges=tuple(full),
        empty_edges=tuple(empty),
    )


def _token_bound(g: StreamGraph, workload: int) -> dict[str, int]:
    """Upper bound on tokens ever entering each edge (probe depths)."""
    out_tokens: dict[str, int] = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        ins = g.in_edges(nid)
        if not ins:
            out_tokens[nid] = workload
            continue
        arriving = max(out_tokens[e.src] for e in ins)
        firings = math.ceil(arriving / node.consume)
        out_tokens[nid] = firings * node.produce
    return {e.id: max(1, out_tokens[e.src]) for e in g.edges.values()}


def _with_depths(g: StreamGraph, depths: dict[str, int]) -> StreamGraph:
    """A copy of `g` whose edges have the given depths."""
    h = StreamGraph()
    for n in g.nodes.values():
        h.add_node(n.id, consume=n.consume, produce=n.produce, latency=n.latency,
                   folding=n.folding, outputs_per_frame=n.outputs_per_frame)
    for e in g.edges.values():
        h.connect(e.src, e.dst, depths[e.id], e.id)
    return h


def size_fifos(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> dict[str, int]:
    """Recommend per-edge FIFO depths: probe deep, read the saturation.

    The probe run uses depths no achievable occupancy can exceed; each
    edge's recommendation is its observed maximum. A verification run at
    exactly the recommended depths must complete, otherwise something is
    wrong with the graph and we raise.
    """
    report = simulate(_with_depths(g, _token_bound(g, workload)), workload, cycle_cap)
    if not report.completed:
        raise GraphError(f"probe run did not complete: {report.outcome}")
    recommended = dict(report.max_occupancy)

    verify = simulate(_with_depths(g, recommended), workload, cycle_cap)
    if not verify.completed:
        raise GraphError(f"verification at recommended depths failed: {verify.outcome}")
    return recommended


def throughput(g: StreamGraph) -> int:
    """Steady-state initiation interval in cycles per input frame.

    Each node needs cycles-per-output x outputs-per-frame; folded matrix
    nodes get cycles-per-output from (in_ch/simd) * (out_ch/pe) * k^2. The
    slowest node sets the interval.
    """
    if not g.nodes:
        raise GraphError("empty stream graph")
    worst = 0
    for node in g.nodes.values():
        if node.folding is not None:
            per_output = node.folding.cycles_per_output()
            cycles = per_output * node.outputs_per_frame
        else:
            cycles = node.latency * math.ceil(node.outputs_per_frame / node.produce)
        worst = max(worst, cycles)
    return worst
