"""The DAG core shared by motkit's two graph IRs.

`streamline.OpGraph` (operator graphs) and `dataflow.StreamGraph` (FIFO
pipelines) both subclass `Graph`: nodes and edges in id-keyed dicts in
insertion order, and per node the ids of its in- and out-edges in connection
order. Each IR brings its record types, the order its `in_edges` and
`out_edges` report edges in (which `topo_order` follows) and its `validate`.
"""

from __future__ import annotations

import json


class GraphError(ValueError):
    """Malformed graph: bad document, unknown or duplicate id, cycle, or a
    rule of its IR broken; distinct from a simulated deadlock."""


class Graph:
    """Node records (with an ``id``) joined by edge records (``id``, ``src``,
    ``dst``); subclasses define ``in_edges`` and ``out_edges``."""

    def __init__(self):
        self.nodes: dict = {}
        self.edges: dict = {}
        self._ins: dict[str, list[str]] = {}
        self._outs: dict[str, list[str]] = {}

    def _add_node(self, node):
        if node.id in self.nodes:
            raise GraphError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        self._ins[node.id] = []
        self._outs[node.id] = []
        return node

    def _add_edge(self, edge):
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise GraphError(f"edge references unknown node: {edge.src} -> {edge.dst}")
        if edge.id in self.edges:
            raise GraphError(f"duplicate edge id {edge.id!r}")
        self.edges[edge.id] = edge
        self._outs[edge.src].append(edge.id)
        self._ins[edge.dst].append(edge.id)
        return edge

    def _with_records(self, nodes: dict, edges: dict):
        """A graph of this class holding `nodes` and `edges`, which must have
        the ids and ends of this graph's, with a copy of its adjacency."""
        g = type(self)()
        g.nodes, g.edges = nodes, edges
        g._ins = {nid: ids.copy() for nid, ids in self._ins.items()}
        g._outs = {nid: ids.copy() for nid, ids in self._outs.items()}
        return g

    def topo_order(self) -> list[str]:
        """Kahn's order: ready nodes first in, first out, starting from the
        inputless nodes in insertion order and releasing consumers in
        `out_edges` order; a GraphError on a cycle."""
        indeg = {nid: len(ids) for nid, ids in self._ins.items()}
        order = [nid for nid, d in indeg.items() if d == 0]
        for nid in order:  # the list grows as nodes get ready
            for e in self.out_edges(nid):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    order.append(e.dst)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        return order


def graph_specs(doc, key: str, names: tuple[str, ...]) -> list[dict]:
    """The node or edge specs of a graph document, each naming `names` by a string."""
    if not isinstance(doc, dict):
        raise GraphError("graph must be a JSON object")
    specs = doc.get(key, [])
    if not isinstance(specs, list):
        raise GraphError(f"{key!r} must be a list")
    for spec in specs:
        if not isinstance(spec, dict):
            raise GraphError(f"{key} entry {spec!r} is not an object")
        for name in names:
            if not isinstance(spec.get(name), str):
                raise GraphError(f"{key} entry {spec!r} needs a string {name!r}")
    return specs


def write_doc(doc: dict, path) -> None:
    """Write a graph document as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)
