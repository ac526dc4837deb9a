"""Frozen reference streamlining passes for the differential tests.

``OpGraph``, the pass helpers, the four passes and ``run_pipeline`` below are
motkit's original implementation, copied verbatim: every adjacency query
scans the whole edge list, every pass deep-copies the graph and restarts
its scan after each rewrite, and the pipeline compares ``canonical_json``
before and after each round to find the fixed point. ``motkit.streamline``
must produce the same graph (node and edge ids, attributes and edge order),
the same interpreter output and the same errors; its diagnostics are this
list with repeats removed.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from motkit import quantcore
from motkit.streamline import (
    _ARRAY_ATTRS,
    _SINGLE_INPUT_KINDS,
    NODE_KINDS,
    Edge,
    GraphError,
    Node,
    _mt_from_attrs,
)


class OpGraph:
    """Mutable DAG of operator nodes joined by tensor edges."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        self._counter = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, kind: str, **attrs) -> Node:
        if kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {kind!r}")
        if node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        node = Node(node_id, kind, attrs)
        self.nodes[node_id] = node
        return node

    def connect(
        self,
        src: str,
        dst: str,
        src_out: int = 0,
        dst_in: int = 0,
        edge_id: str | None = None,
        scale: float | None = None,
        bits: int | None = None,
        signed: bool | None = None,
        shape: tuple[int, ...] | None = None,
    ) -> Edge:
        if src not in self.nodes or dst not in self.nodes:
            raise GraphError(f"edge references unknown node: {src} -> {dst}")
        if edge_id is None:
            edge_id = self.fresh_id("e")
        if edge_id in self.edges:
            raise GraphError(f"duplicate edge id {edge_id!r}")
        edge = Edge(edge_id, src, dst, src_out, dst_in, scale, bits, signed, shape)
        self.edges[edge_id] = edge
        return edge

    def fresh_id(self, prefix: str) -> str:
        while True:
            self._counter += 1
            cand = f"{prefix}{self._counter}"
            if cand not in self.nodes and cand not in self.edges:
                return cand

    def remove_edge(self, edge_id: str) -> None:
        del self.edges[edge_id]

    def remove_node(self, node_id: str) -> None:
        if any(e.src == node_id or e.dst == node_id for e in self.edges.values()):
            raise GraphError(f"node {node_id!r} still has edges")
        del self.nodes[node_id]

    def copy(self) -> OpGraph:
        return copy.deepcopy(self)

    # -- queries -----------------------------------------------------------

    def in_edges(self, node_id: str) -> list[Edge]:
        return sorted(
            (e for e in self.edges.values() if e.dst == node_id),
            key=lambda e: (e.dst_in, e.id),
        )

    def out_edges(self, node_id: str) -> list[Edge]:
        return sorted(
            (e for e in self.edges.values() if e.src == node_id),
            key=lambda e: (e.src_out, e.id),
        )

    def validate(self) -> list[str]:
        # returns the order, which motkit.streamline.interpret runs in
        if not self.nodes:
            raise GraphError("empty graph")
        for edge in self.edges.values():
            if edge.src not in self.nodes or edge.dst not in self.nodes:
                raise GraphError(f"edge {edge.id} references missing node")
        for node in self.nodes.values():
            n_in = len(self.in_edges(node.id))
            if node.kind == "Input" and n_in != 0:
                raise GraphError(f"Input node {node.id} has inputs")
            if node.kind in _SINGLE_INPUT_KINDS and n_in != 1:
                raise GraphError(f"{node.kind} node {node.id} needs exactly 1 input, has {n_in}")
            if node.kind in ("Concat", "EltwiseAdd") and n_in < 2:
                raise GraphError(f"{node.kind} node {node.id} needs >= 2 inputs")
            if node.kind == "Output" and self.out_edges(node.id):
                raise GraphError(f"Output node {node.id} has outputs")
        return self.topo_order()  # raises on cycles

    def topo_order(self) -> list[str]:
        indeg = {nid: 0 for nid in self.nodes}
        for e in self.edges.values():
            indeg[e.dst] += 1
        # insertion order keeps evaluation deterministic
        ready = [nid for nid in self.nodes if indeg[nid] == 0]
        order = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for e in self.out_edges(nid):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        return order

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self.nodes.values():
            attrs = {}
            for key, val in node.attrs.items():
                attrs[key] = val.tolist() if isinstance(val, np.ndarray) else val
            nodes.append({"id": node.id, "kind": node.kind, "attrs": attrs})
        edges = [
            {
                "id": e.id,
                "src": e.src,
                "src_out": e.src_out,
                "dst": e.dst,
                "dst_in": e.dst_in,
                "scale": e.scale,
                "bits": e.bits,
                "signed": e.signed,
                "shape": list(e.shape) if e.shape is not None else None,
            }
            for e in self.edges.values()
        ]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json_dict(cls, doc: dict) -> OpGraph:
        g = cls()
        for spec in doc.get("nodes", []):
            attrs = dict(spec.get("attrs", {}))
            for key in _ARRAY_ATTRS & attrs.keys():
                attrs[key] = np.asarray(attrs[key], dtype=float)
            g.add_node(spec["id"], spec["kind"], **attrs)
        for spec in doc.get("edges", []):
            shape = spec.get("shape")
            g.connect(
                spec["src"],
                spec["dst"],
                src_out=spec.get("src_out", 0),
                dst_in=spec.get("dst_in", 0),
                edge_id=spec["id"],
                scale=spec.get("scale"),
                bits=spec.get("bits"),
                signed=spec.get("signed"),
                shape=tuple(shape) if shape is not None else None,
            )
        return g

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# -- pass helpers -------------------------------------------------------------


def _affine_params(node: Node) -> tuple[np.ndarray, np.ndarray]:
    if node.kind == "Mul":
        a = np.asarray(node.attrs["scale"], dtype=float)
        return a, np.zeros_like(a)
    b = np.asarray(node.attrs["bias"], dtype=float)
    return np.ones_like(b), b


def _bypass_single_node(g: OpGraph, node_id: str) -> None:
    """Remove a 1-in/1-out node, reconnecting its input edge to its consumer."""
    in_e = g.in_edges(node_id)[0]
    out_e = g.out_edges(node_id)[0]
    in_e.dst = out_e.dst
    in_e.dst_in = out_e.dst_in
    g.remove_edge(out_e.id)
    g.remove_node(node_id)


def _insert_after(g: OpGraph, node_id: str, kind: str, attrs: dict) -> Node:
    """Insert a fresh 1-in/1-out node between node_id and all its consumers."""
    new = g.add_node(g.fresh_id(f"{kind.lower()}_m"), kind, **attrs)
    for e in g.out_edges(node_id):
        e.src = new.id
        e.src_out = 0
    g.connect(node_id, new.id)
    return new


def _note(diagnostics: list[str] | None, message: str) -> None:
    if diagnostics is not None:
        diagnostics.append(message)


# -- passes -------------------------------------------------------------------


def pass_absorb_affine(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Fold Mul/Add nodes directly preceding a MultiThreshold into its
    thresholds (t <- (t - b) / a) and drop them from the graph."""
    g = g.copy()
    changed = True
    while changed:
        changed = False
        for node in list(g.nodes.values()):
            if node.kind not in ("Mul", "Add"):
                continue
            outs = g.out_edges(node.id)
            if len(outs) != 1:
                continue
            consumer = g.nodes[outs[0].dst]
            if consumer.kind != "MultiThreshold":
                continue
            a, b = _affine_params(node)
            if np.any(a == 0.0):
                raise GraphError(f"node {node.id}: zero scale cannot be absorbed")
            op = quantcore.absorb_affine(_mt_from_attrs(consumer.attrs), a, b)
            consumer.attrs["thresholds"] = op.thresholds
            consumer.attrs["count_above"] = op.count_above
            _bypass_single_node(g, node.id)
            changed = True
            break
    return g


def pass_move_scale_past_conv(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Relocate a scalar Mul from before a Conv to after it (exact by
    linearity). Per-channel scales that actually differ would mix under the
    convolution, so those sites are skipped with a diagnostic."""
    g = g.copy()
    changed = True
    while changed:
        changed = False
        for node in list(g.nodes.values()):
            if node.kind != "Mul":
                continue
            outs = g.out_edges(node.id)
            if len(outs) != 1 or g.nodes[outs[0].dst].kind != "Conv":
                continue
            conv = g.nodes[outs[0].dst]
            scale = np.asarray(node.attrs["scale"], dtype=float)
            if scale.ndim > 0 and np.unique(scale).size > 1:
                _note(
                    diagnostics,
                    f"node {node.id}: per-channel scale before Conv {conv.id} "
                    "is not uniform; cannot move past a channel-mixing op",
                )
                continue
            s = float(scale.flat[0]) if scale.ndim else float(scale)
            _bypass_single_node(g, node.id)
            _insert_after(g, conv.id, "Mul", {"scale": s})
            changed = True
            break
    return g


def pass_push_affine_through_fork(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Copy an affine node feeding a fork (output fanout >= 2) onto the head
    of each branch so it can keep moving down independently."""
    g = g.copy()
    changed = True
    while changed:
        changed = False
        for node in list(g.nodes.values()):
            if node.kind not in ("Mul", "Add"):
                continue
            outs = g.out_edges(node.id)
            if len(outs) < 2:
                continue
            in_e = g.in_edges(node.id)[0]
            for branch_edge in outs:
                branch = g.add_node(
                    g.fresh_id(f"{node.kind.lower()}_f"), node.kind, **copy.deepcopy(node.attrs)
                )
                g.connect(in_e.src, branch.id, src_out=in_e.src_out)
                branch_edge.src = branch.id
                branch_edge.src_out = 0
            g.remove_edge(in_e.id)
            g.remove_node(node.id)
            changed = True
            break
    return g


def pass_merge_affine_at_join(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Move one shared affine past a join (Concat/EltwiseAdd) when every
    input carries a bit-identical copy; mismatching branches are reported
    and left alone (the training-time shared-scale constraint is what would
    make them identical)."""
    g = g.copy()
    changed = True
    while changed:
        changed = False
        for join in list(g.nodes.values()):
            if join.kind not in ("Concat", "EltwiseAdd"):
                continue
            ins = g.in_edges(join.id)
            srcs = [g.nodes[e.src] for e in ins]
            if not all(s.kind in ("Mul", "Add") for s in srcs):
                continue
            kinds = {s.kind for s in srcs}
            if len(kinds) != 1 or len({s.id for s in srcs}) != len(srcs):
                continue
            if any(len(g.out_edges(s.id)) != 1 for s in srcs):
                continue
            kind = srcs[0].kind
            attr_key = "scale" if kind == "Mul" else "bias"
            params = [np.asarray(s.attrs[attr_key], dtype=float) for s in srcs]
            if not all(np.array_equal(params[0], p) for p in params[1:]):
                _note(
                    diagnostics,
                    f"join {join.id}: branch affines differ; training-time "
                    "shared quantization scales would be required to merge",
                )
                continue
            if join.kind == "EltwiseAdd" and kind == "Add":
                _note(
                    diagnostics,
                    f"join {join.id}: additive bias does not commute with "
                    "elementwise add; left in place",
                )
                continue
            if join.kind == "Concat" and params[0].ndim > 0:
                merged = np.concatenate(params)
            else:
                merged = params[0] if params[0].ndim else float(params[0])
            for s in srcs:
                _bypass_single_node(g, s.id)
            _insert_after(g, join.id, kind, {attr_key: merged})
            changed = True
            break
    return g


PASS_PIPELINE = (
    pass_move_scale_past_conv,
    pass_push_affine_through_fork,
    pass_merge_affine_at_join,
    pass_absorb_affine,
)


def run_pipeline(
    g: OpGraph, max_iters: int = 20, diagnostics: list[str] | None = None
) -> OpGraph:
    """Apply the pass pipeline to a fixed point (bounded iteration count)."""
    for _ in range(max_iters):
        before = g.canonical_json()
        for p in PASS_PIPELINE:
            g = p(g, diagnostics)
        if g.canonical_json() == before:
            break
    return g

