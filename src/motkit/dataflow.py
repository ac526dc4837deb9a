"""Cycle-level simulation of a streaming pipeline with bounded FIFOs.

Node firing model: a node fires when every input FIFO holds `consume`
tokens and its previous burst has fully left the staging buffer; it then
occupies `latency` cycles (a folded node: its folding's cycles per output,
as in `throughput`) and stages `produce` tokens per output edge.
Staged tokens drain into each FIFO as space allows, and the node cannot
start a new firing until the whole burst has fit - this reproduces the
stall of a producer whose burst is too large for its consumer to absorb
in time. Sources fire against a finite token workload; sinks swallow
tokens. Everything is deterministic: one event loop, fixed node order.

A stepped cycle sweeps one record per node, built once per run, and cycles
in which only latency countdowns run are skipped in one step (see
`simulate`); every reported count is the one a cycle-by-cycle run gives.

FIFO sizing follows the probe procedure: each FIFO's depth is its largest
saturation in a run at depths no occupancy can exceed, where no node stalls,
so `probe_fifos` computes that run in closed form. It is its own verification
(replay lemma): a run at depths `D` with peaks `M <= D` repeats cycle for
cycle at any depths `D'` with `M <= D' <= D`, since from equal states every
advance and firing acts alike and every drain moves `min(staged, depth - occ)`
alike, as the first run kept `occ + amount <= M <= D'` or filled up
(`M = D = D'`). The probe's `D` lies past any occupancy, so its run repeats
at any depths that hold its peaks. It reads no depth, so a graph computes it
once and reuses it while its rates, latencies and edges are unchanged.

`simulate` returns that run where the given depths hold its peaks, report for
report (zero stalls included). An O(E) burst test first steps at once any
design with an edge shallower than its producer's `produce` or its consumer's
`consume`, since every edge of a completed run peaks at least that high.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .graph import Graph, GraphError, graph_specs, read_doc, write_doc
from .io import check_int

DEFAULT_CYCLE_CAP = 10_000_000


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

    def __post_init__(self):
        for name in ("simd", "pe", "in_ch", "out_ch", "k"):
            check_int(f"folding {name}", getattr(self, name), 1, GraphError)

    def cycles_per_output(self) -> int:
        if self.in_ch % self.simd != 0:
            raise GraphError(f"in_ch {self.in_ch} not a multiple of simd {self.simd}")
        if self.out_ch % self.pe != 0:
            raise GraphError(f"out_ch {self.out_ch} not a multiple of pe {self.pe}")
        return (self.in_ch // self.simd) * (self.out_ch // self.pe) * self.k * self.k


@dataclass(slots=True)
class StreamNode:
    """One pipeline stage: firing rates, latency, optional folding. A folded
    node fires in its folding's cycles per output, which a given latency must
    equal; a latency of `None` is not given (1 on an unfolded node)."""

    id: str
    consume: int = 1
    produce: int = 1
    latency: int | None = None
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


class StreamGraph(Graph):
    """Nodes joined by bounded FIFO edges; sources feed, sinks drain. Edges
    are never removed, and adjacency queries list them in connection order."""

    _closed = None  # (key, run) of its last closed-form run; see `_closed_form`

    def add_node(self, node_id: str, **kwargs) -> StreamNode:
        node = StreamNode(node_id, **kwargs)
        if node.latency is None and node.folding is None:
            node.latency = 1
        for name in ("consume", "produce", "latency", "outputs_per_frame"):
            if name != "latency" or node.latency is not None:  # None: a folded node's cycles
                check_int(f"node {node_id}: {name}", getattr(node, name), 1, GraphError)
        if node.folding is not None and node.latency is not None:
            _firing_latency(node)  # a given latency must match the folding
        return self._add_node(node)

    def connect(self, src: str, dst: str, depth: int = 1, edge_id: str | None = None) -> FifoEdge:
        if edge_id is None:
            edge_id = f"{src}->{dst}"
        if not isinstance(edge_id, str):
            raise GraphError(f"edge id must be a string, got {edge_id!r}")
        check_int(f"edge {edge_id}: depth", depth, 0, GraphError)
        return self._add_edge(FifoEdge(edge_id, src, dst, depth))

    def in_edges(self, node_id: str) -> list[FifoEdge]:
        return [self.edges[eid] for eid in self._ins[node_id]]

    def out_edges(self, node_id: str) -> list[FifoEdge]:
        return [self.edges[eid] for eid in self._outs[node_id]]

    def sources(self) -> list[str]:
        return [nid for nid, ins in self._ins.items() if not ins]

    def sinks(self) -> list[str]:
        return [nid for nid, outs in self._outs.items() if not outs]

    def validate(self) -> list[str]:
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
        # Acyclic, so every node lies on a source->sink path: its in-edges
        # lead back to a source and its out-edges on to a sink.
        return self.topo_order()

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": [asdict(n) for n in self.nodes.values()],
            "edges": [asdict(e) for e in self.edges.values()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> StreamGraph:
        """Build a graph from its JSON form; anything malformed is a GraphError.
        A node without a folding, or with a null one, is unfolded."""
        g = cls()
        optional = ("consume", "produce", "latency", "outputs_per_frame")
        for spec in graph_specs(doc, "nodes", ("id",)):
            fold = spec.get("folding")
            try:
                folding = None if fold is None else Folding(**fold)
            except TypeError as exc:
                raise GraphError(f"node {spec['id']}: bad folding {fold!r}") from exc
            g.add_node(spec["id"], folding=folding, **{k: spec[k] for k in optional if k in spec})
        for spec in graph_specs(doc, "edges", ("src", "dst")):
            g.connect(spec["src"], spec["dst"], spec.get("depth", 1), spec.get("id"))
        return g


def save_stream_graph(g: StreamGraph, path, workload: int | None = None) -> None:
    doc = g.to_json_dict()
    if workload is not None:
        doc["workload"] = workload
    write_doc(doc, path)


def load_stream_graph(path) -> tuple[StreamGraph, int | None]:
    doc = read_doc(path)
    return StreamGraph.from_json_dict(doc), doc.get("workload")


def _firing_latency(node: StreamNode) -> int:
    """Cycles one firing of `node` occupies: its folding's cycles per output
    when folded, else its latency; a GraphError if a given latency disagrees."""
    if node.folding is None:
        return node.latency
    cycles = node.folding.cycles_per_output()
    if node.latency not in (None, cycles):
        raise GraphError(f"node {node.id}: latency {node.latency} disagrees with its "
                         f"folding's {cycles} cycles per output")
    return cycles


def _run_latencies(g: StreamGraph, workload: int, cycle_cap: int) -> tuple[list[str], list[int]]:
    """Check a run's inputs; return the topological order and node-order latencies."""
    order = g.validate()
    check_int("workload", workload, 1, GraphError)
    check_int("cycle_cap", cycle_cap, 1, GraphError)
    for src in g.sources():
        burst = g.nodes[src].produce
        if workload % burst != 0:
            raise GraphError(f"workload {workload} not a multiple of source {src} burst {burst}")
    return order, [_firing_latency(node) for node in g.nodes.values()]


def simulate(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> SimReport:
    """Run the pipeline on `workload` source tokens.

    Each cycle visits the nodes once, in topological order: a busy node
    advances, and a completed firing stages its burst; staged tokens drain
    into the node's FIFOs up to free space, and their peaks are sampled; an
    idle node with empty staging and sufficient inputs fires. Producers come
    first, so each FIFO fills before its one consumer fires. Deadlock is
    declared the first cycle nothing changes while work remains - the state
    would then be frozen forever. Where the given depths pass the burst test
    and hold the closed-form run's peaks, that run is the report (replay lemma).
    The sweep reads one visit record per node, built once per call in sweep
    order: its index, input and output edge indices, `consume`, `produce`,
    `produce` times its outputs, and firing latency.

    Skip rule: after a cycle that drains and fires nothing while some node
    is busy, the next `min(busy) - 1` cycles (never past `cycle_cap`) pass
    in one step: busy nodes count down by that many, idle nodes with a
    stuck burst stall that many. It relies on staging, occupancy and the
    source counters staying frozen until a busy node completes, which
    whole-cycle latencies make exact. With no node busy nothing is skipped.
    """
    order, latency = _run_latencies(g, workload, cycle_cap)
    nodes, edges = g.nodes, g.edges.values()
    if all(e.depth >= max(nodes[e.src].produce, nodes[e.dst].consume) for e in edges):
        run = _closed_form(g, order, latency, workload, cycle_cap)  # burst test passed
        if not isinstance(run, str) and all(run.max_occupancy[e.id] <= e.depth for e in edges):
            return run

    # The visit records; nodes and edges keep insertion indices, the key order
    # of the report's dicts.
    pos = {nid: i for i, nid in enumerate(nodes)}
    eidx = {eid: k for k, eid in enumerate(g.edges)}
    visits = []
    for nid in order:
        node, i, outputs = nodes[nid], pos[nid], [eidx[eid] for eid in g._outs[nid]]
        visits.append((i, [eidx[eid] for eid in g._ins[nid]], outputs, node.consume,
                       node.produce, node.produce * len(outputs), latency[i]))
    depth = [e.depth for e in edges]
    n, m = len(pos), len(eidx)

    occupancy, max_occ = [0] * m, [0] * m
    staged = [0] * m  # tokens of an edge's burst not yet in its FIFO
    node_staged = [0] * n  # the same, summed over a node's output edges
    busy, stall = [0] * n, [0] * n
    remaining = [0 if g._ins[nid] else workload // node.produce for nid, node in nodes.items()]
    busy_nodes, delivered = 0, 0

    cycles = 0
    outcome = "cap_exceeded"
    while cycles < cycle_cap:
        cycles += 1
        advanced = busy_nodes > 0
        drained = fired = False
        for i, inputs, outputs, need, burst, total, lat in visits:
            b = busy[i]
            if b:  # a busy node has nothing staged
                busy[i] = b - 1
                if b > 1:
                    continue
                busy_nodes -= 1  # the firing completes: stage its burst
                for k in outputs:
                    staged[k] = burst
                node_staged[i] = total

            # drain into the node's FIFOs as far as space allows; sample the
            # post-drain peak (the "largest saturation") - only drains raise it
            left = node_staged[i]
            if left:
                for k in outputs:
                    s = staged[k]
                    if s:
                        occ = occupancy[k]
                        room = depth[k] - occ
                        if room > 0:
                            amount = s if s < room else room
                            staged[k] = s - amount
                            left -= amount
                            occ = occupancy[k] = occ + amount
                            if occ > max_occ[k]:
                                max_occ[k] = occ
                            drained = True
                node_staged[i] = left
                if left:
                    stall[i] += 1  # burst still stuck in staging
                    continue

            # fire if inputs suffice; their producers drained earlier in the sweep
            if not inputs:  # source
                if remaining[i]:
                    remaining[i] -= 1
                    busy[i] = lat
                    busy_nodes += 1
                    fired = True
                continue
            for k in inputs:
                if occupancy[k] < need:
                    break
            else:
                for k in inputs:
                    occupancy[k] -= need
                if not outputs:  # sink swallows
                    delivered += need * len(inputs)
                busy[i] = lat
                busy_nodes += 1
                fired = True

        # a node that fired is still busy, so the scans run only on an idle cycle
        if not (busy_nodes or any(remaining) or any(node_staged) or any(occupancy)):
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
        for nid, (i, inputs, _, need, *_) in zip(order, visits):
            occs = [occupancy[k] for k in inputs]
            starved = bool(occs) and max(occs) > 0 and min(occs) < need
            if node_staged[i] or remaining[i] or starved:
                blocked.append(nid)
        full = sorted(eid for eid, d, occ in zip(eidx, depth, occupancy) if occ >= d)
        empty = sorted(eid for eid, occ in zip(eidx, occupancy) if occ == 0)

    return SimReport(outcome, cycles, dict(zip(eidx, max_occ)), delivered, dict(zip(nodes, stall)),
                     tuple(blocked), tuple(full), tuple(empty))


def _closed_form(g: StreamGraph, order: list[str], latency: list[int], workload: int,
                 cycle_cap: int) -> SimReport | str:
    """The completed run at depths no occupancy can exceed, or the outcome ("deadlock"
    or "cap_exceeded") of one that does not, for `order` and `latency` from `_run_latencies`.
    `g` keeps its last run, keyed on all the run reads; each caller gets its own dicts."""
    key = (workload, cycle_cap, latency, [(n.id, n.consume, n.produce) for n in g.nodes.values()],
           [(e.id, e.src, e.dst) for e in g.edges.values()])
    if g._closed is None or g._closed[0] != key:
        g._closed = key, _closed_form_run(g, order, latency, workload, cycle_cap)
    run = g._closed[1]
    return run if isinstance(run, str) else SimReport(
        run.outcome, run.cycles, dict(run.max_occupancy), run.delivered, dict(run.stall_cycles))


def _closed_form_run(g: StreamGraph, order: list[str], latency: list[int], workload: int,
                     cycle_cap: int) -> SimReport | str:
    """`_closed_form` afresh. A source's j-th firing (from 0) is at cycle
    `1 + j*L`; any other node's at the later of its previous firing plus `L`
    and the landing of the last of the `(j+1)*consume` tokens it needs on each
    input. An edge peaks as a burst lands, before that cycle's firings consume.
    The run completes as the last firing ends if every token was consumed, else
    deadlocks a cycle later."""
    latency = dict(zip(g.nodes, latency))
    cap = min(cycle_cap, 2**60)  # past 2**60 cycles a run exceeds any cap; int64 holds it
    done, fires, left_over = {}, {}, False  # cycles each node's firings end (and land), start
    for nid in order:
        c, lat, ins = g.nodes[nid].consume, latency[nid], g.in_edges(nid)
        n = (min(len(done[e.src]) * g.nodes[e.src].produce for e in ins) // c if ins
             else workload // g.nodes[nid].produce)
        if n * lat > cap:  # its last firing ends past the cap
            return "cap_exceeded"
        if not ins:
            done[nid] = np.arange(1 + lat, 2 + n * lat, lat)
            continue
        needed = []  # the landing of each firing's last token, per input
        for e in ins:
            p, landed = g.nodes[e.src].produce, done[e.src]
            needed.append(landed[c // p - 1:n * c // p:c // p] if c % p == 0
                          else landed[np.arange(c - 1, n * c, c) // p])
            left_over |= len(landed) * p != n * c
        steps = np.arange(0, n * lat, lat)
        fire = fires[nid] = reduce(np.maximum, needed) - steps
        np.maximum.accumulate(fire, out=fire)
        fire += steps
        done[nid] = fire + lat
        if n and done[nid][-1] > cap:  # a firing ends past the cap
            return "cap_exceeded"
    last = max(int(d[-1]) for d in done.values() if len(d))
    if left_over or last > cap:
        return "cap_exceeded" if last + left_over > cap else "deadlock"
    edges = g.edges.values()  # each edge's peak, over all edges in one pass
    sizes = [len(done[e.src]) for e in edges]
    starts = np.cumsum(sizes) - sizes
    taken = np.concatenate([fires[e.dst].searchsorted(done[e.src]) for e in edges])
    bursts = np.arange(1, len(taken) + 1) - starts.repeat(sizes)
    rates = np.array([(g.nodes[e.src].produce, g.nodes[e.dst].consume) for e in edges])
    rates = rates.repeat(sizes, axis=0)
    peaks = np.maximum.reduceat(rates[:, 0] * bursts - rates[:, 1] * taken, starts).tolist()
    delivered = sum(len(fires[nid]) * g.nodes[nid].consume * len(g.in_edges(nid))
                    for nid in g.sinks())
    return SimReport("completed", last, dict(zip(g.edges, peaks)), delivered,
                     dict.fromkeys(g.nodes, 0))


def probe_fifos(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> SimReport:
    """`simulate`'s report for `g` at depths no occupancy can exceed, in
    closed form (`_closed_form`); a GraphError unless that run completes."""
    run = _closed_form(g, *_run_latencies(g, workload, cycle_cap), workload, cycle_cap)
    if isinstance(run, str):
        raise GraphError(f"probe run did not complete: {run}")
    return run


def size_fifos(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> dict[str, int]:
    """Recommend per-edge FIFO depths: each edge's peak in `probe_fifos`.

    By the replay lemma (module docstring) a run at these depths repeats the
    probe, report and all, so it completes; sizing simulates nothing."""
    return probe_fifos(g, workload, cycle_cap).max_occupancy


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
            cycles = _firing_latency(node) * node.outputs_per_frame
        else:
            cycles = node.latency * math.ceil(node.outputs_per_frame / node.produce)
        worst = max(worst, cycles)
    return worst
