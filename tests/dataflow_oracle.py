"""Frozen reference FIFO simulator for the differential tests.

``simulate`` below is motkit's original cycle-by-cycle stepper, copied
verbatim: it advances every cycle one at a time and scans the edge list for
each adjacency query. ``size_fifos`` and ``_token_bound`` are the sizing
procedure on top of it. ``motkit.dataflow`` must return the same
``SimReport`` (fields and dict key order) and the same recommended depths.

``in_edges``, ``out_edges``, ``topo_order`` and ``validate`` are
``StreamGraph``'s own graph checks from before it shared ``motkit.graph``'s
core, written over the public ``nodes`` and ``edges`` dicts: edges are never
removed, so a node's edges in connection order are its edges in ``edges``
order. Only the cycle message has changed since.

``_closed_form`` is ``motkit.dataflow``'s closed-form run as it was before it
was kept per graph and computed in fewer numpy calls, copied verbatim: per
node it gathers each input's landings by a fancy index, clamps every firing
at the cap and takes each in-edge's peak as it goes. ``order`` and
``latency`` come from ``motkit.dataflow._run_latencies``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from motkit.dataflow import DEFAULT_CYCLE_CAP, GraphError, SimReport, StreamGraph


def simulate(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> SimReport:
    """Run the pipeline on `workload` source tokens.

    Per cycle: (1) busy nodes advance, completions stage their burst;
    (2) staged tokens drain into FIFOs up to free space; (3) occupancy
    peaks are sampled; (4) idle nodes with empty staging and sufficient
    inputs fire. Deadlock is declared the first cycle nothing changes
    while work remains - the state would then be frozen forever.
    """
    g.validate()
    if workload <= 0:
        raise GraphError(f"workload must be positive, got {workload}")
    if cycle_cap <= 0:
        raise GraphError(f"cycle_cap must be positive, got {cycle_cap}")
    for src in g.sources():
        if workload % g.nodes[src].produce != 0:
            raise GraphError(
                f"workload {workload} not a multiple of source {src} burst "
                f"{g.nodes[src].produce}"
            )

    order = g.topo_order()
    occupancy = {eid: 0 for eid in g.edges}
    max_occ = {eid: 0 for eid in g.edges}
    staging: dict[str, dict[str, int]] = {
        nid: {e.id: 0 for e in g.out_edges(nid)} for nid in g.nodes
    }
    busy = {nid: 0 for nid in g.nodes}
    stall = {nid: 0 for nid in g.nodes}
    remaining = {src: workload // g.nodes[src].produce for src in g.sources()}
    delivered = 0

    def quiescent() -> bool:
        return (
            all(r == 0 for r in remaining.values())
            and all(b == 0 for b in busy.values())
            and all(v == 0 for s in staging.values() for v in s.values())
            and all(v == 0 for v in occupancy.values())
        )

    cycles = 0
    outcome = "cap_exceeded"
    while cycles < cycle_cap:
        cycles += 1
        progress = False

        # 1) advance busy nodes; completed firings stage their burst
        for nid in order:
            if busy[nid] > 0:
                busy[nid] -= 1
                progress = True
                if busy[nid] == 0:
                    for e in g.out_edges(nid):
                        staging[nid][e.id] += g.nodes[nid].produce

        # 2) drain staging into FIFOs as far as space allows
        for nid in order:
            for e in g.out_edges(nid):
                amount = min(staging[nid][e.id], e.depth - occupancy[e.id])
                if amount > 0:
                    staging[nid][e.id] -= amount
                    occupancy[e.id] += amount
                    progress = True

        # 3) sample the post-drain peak (the "largest saturation")
        for eid, occ in occupancy.items():
            if occ > max_occ[eid]:
                max_occ[eid] = occ

        # 4) fire idle nodes whose burst has fully left and inputs suffice
        for nid in order:
            node = g.nodes[nid]
            if busy[nid] > 0:
                continue
            if any(v > 0 for v in staging[nid].values()):
                stall[nid] += 1  # burst still stuck in staging
                continue
            ins = g.in_edges(nid)
            if not ins:  # source
                if remaining[nid] > 0:
                    remaining[nid] -= 1
                    busy[nid] = node.latency
                    progress = True
                continue
            if all(occupancy[e.id] >= node.consume for e in ins):
                for e in ins:
                    occupancy[e.id] -= node.consume
                if not g.out_edges(nid):  # sink swallows
                    delivered += node.consume * len(ins)
                busy[nid] = node.latency
                progress = True

        if quiescent():
            outcome = "completed"
            break
        if not progress:
            outcome = "deadlock"
            break

    blocked: list[str] = []
    full: list[str] = []
    empty: list[str] = []
    if outcome == "deadlock":
        for nid in order:
            node = g.nodes[nid]
            stuck_staging = any(v > 0 for v in staging[nid].values())
            pending_source = not g.in_edges(nid) and remaining.get(nid, 0) > 0
            starved = any(occupancy[e.id] > 0 for e in g.in_edges(nid)) and not all(
                occupancy[e.id] >= node.consume for e in g.in_edges(nid)
            )
            if stuck_staging or pending_source or starved:
                blocked.append(nid)
        full = sorted(eid for eid, occ in occupancy.items() if occ >= g.edges[eid].depth)
        empty = sorted(eid for eid, occ in occupancy.items() if occ == 0)

    return SimReport(
        outcome=outcome,
        cycles=cycles,
        max_occupancy=max_occ,
        delivered=delivered,
        stall_cycles=stall,
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


def size_fifos(g: StreamGraph, workload: int, cycle_cap: int = DEFAULT_CYCLE_CAP) -> dict[str, int]:
    """Recommend per-edge FIFO depths: probe deep, read the saturation.

    The probe run uses depths no achievable occupancy can exceed; each
    edge's recommendation is its observed maximum. A verification run at
    exactly the recommended depths must complete, otherwise something is
    wrong with the graph and we raise.
    """
    probe = StreamGraph.from_json_dict(g.to_json_dict())
    for eid, bound in _token_bound(g, workload).items():
        probe.edges[eid].depth = bound
    report = simulate(probe, workload, cycle_cap)
    if not report.completed:
        raise GraphError(f"probe run did not complete: {report.outcome}")
    recommended = dict(report.max_occupancy)

    check = StreamGraph.from_json_dict(g.to_json_dict())
    for eid, depth in recommended.items():
        check.edges[eid].depth = depth
    verify = simulate(check, workload, cycle_cap)
    if not verify.completed:
        raise GraphError(f"verification at recommended depths failed: {verify.outcome}")
    return recommended


def in_edges(g: StreamGraph, nid: str) -> list:
    return [e for e in g.edges.values() if e.dst == nid]


def out_edges(g: StreamGraph, nid: str) -> list:
    return [e for e in g.edges.values() if e.src == nid]


def topo_order(g: StreamGraph) -> list[str]:
    indeg = {nid: len(in_edges(g, nid)) for nid in g.nodes}
    order = [nid for nid, d in indeg.items() if d == 0]
    for nid in order:  # first in, first out: the list grows as nodes get ready
        for e in out_edges(g, nid):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                order.append(e.dst)
    if len(order) != len(g.nodes):
        raise GraphError("stream graph contains a cycle")
    return order


def validate(g: StreamGraph) -> None:
    if not g.nodes:
        raise GraphError("empty stream graph")
    sources = [nid for nid in g.nodes if not in_edges(g, nid)]
    sinks = [nid for nid in g.nodes if not out_edges(g, nid)]
    if not sources:
        raise GraphError("no source node (node without inputs)")
    if not sinks:
        raise GraphError("no sink node (node without outputs)")
    isolated = set(sources) & set(sinks)
    if isolated:
        raise GraphError(f"isolated nodes: {sorted(isolated)}")
    order = topo_order(g)
    # every node must sit on some source->sink path
    reach_fwd = set(sources)
    for nid in order:
        if nid in reach_fwd:
            reach_fwd.update(e.dst for e in out_edges(g, nid))
    reach_bwd = set(sinks)
    for nid in reversed(order):
        if nid in reach_bwd:
            reach_bwd.update(e.src for e in in_edges(g, nid))
    stranded = set(g.nodes) - (reach_fwd & reach_bwd)
    if stranded:
        raise GraphError(f"nodes not on any source->sink path: {sorted(stranded)}")


def _closed_form(g: StreamGraph, order: list[str], latency: list[int], workload: int,
                 cycle_cap: int) -> SimReport | str:
    """The completed run at depths no occupancy can exceed, or the outcome
    ("deadlock" or "cap_exceeded") of a run that does not complete; `order`
    and `latency` as `_run_latencies` returns them.

    A source's j-th firing (from 0) is at cycle `1 + j*L`; any other node's is
    at the later of its previous firing plus `L` and the landing of the last
    of the `(j+1)*consume` tokens it needs on each input. An edge peaks as a
    burst lands, before that cycle's firings consume. The run completes as the
    last firing ends if every token was consumed, else deadlocks a cycle later.
    A run past 2**60 cycles exceeds any cap."""
    latency = dict(zip(g.nodes, latency))
    cap = min(cycle_cap, 2**60)  # cycles saturate past it, so int64 holds them
    done: dict[str, np.ndarray] = {}  # cycles each node's firings end and land
    max_occupancy, delivered, left_over = dict.fromkeys(g.edges, 0), 0, False
    for nid in order:
        c, lat, ins = g.nodes[nid].consume, latency[nid], g.in_edges(nid)
        n = (min(len(done[e.src]) * g.nodes[e.src].produce for e in ins) // c if ins
             else workload // g.nodes[nid].produce)
        if n * lat > cap:  # its last firing ends past the cap
            return "cap_exceeded"
        if not ins:
            done[nid] = 1 + lat * np.arange(1, n + 1)
            continue
        need = np.arange(c - 1, n * c, c)  # index of each firing's last token
        ready = reduce(np.maximum, [done[e.src][need // g.nodes[e.src].produce] for e in ins])
        steps = np.arange(0, n * lat, lat)
        fire = steps + np.maximum.accumulate(ready - steps)
        for e in ins:
            p, landed = g.nodes[e.src].produce, done[e.src]
            held = np.arange(p, (len(landed) + 1) * p, p) - c * fire.searchsorted(landed)
            max_occupancy[e.id] = int(held.max(initial=0))
            left_over |= len(landed) * p != n * c
        if not g.out_edges(nid):
            delivered += n * c * len(ins)
        done[nid] = np.minimum(fire + lat, cap + 1)
    last = max(int(d[-1]) for d in done.values() if len(d))
    if left_over or last > cap:
        return "cap_exceeded" if last + left_over > cap else "deadlock"
    return SimReport("completed", last, max_occupancy, delivered, dict.fromkeys(g.nodes, 0))
