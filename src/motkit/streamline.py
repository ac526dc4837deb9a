"""Graph IR and normalization passes for quantized conv graphs.

The passes relocate floating-point affine operations (Mul/Add left over
from batch norm and quantization scales) down the graph until they are
absorbed into MultiThreshold nodes or parked as the final output scale:

  * move a scalar scale past a convolution (linearity),
  * copy an affine onto each branch of a fork (tensor fanout),
  * merge identical affines sitting on every input of a join,
  * fold an affine directly preceding a MultiThreshold into its thresholds.

Every pass preserves the reference interpreter's output exactly; the
interpreter doubles as the equivalence oracle in tests. A pass rewrites its
graph in place; ``run_pipeline`` copies its input once and streamlines the
copy, as FINN's ``ModelWrapper.transform`` does. Graphs serialize
to a plain JSON document so fixtures and golden files stay language
agnostic.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import quantcore
from .io import check_int, graph_specs
from .quantcore import MultiThresholdOp

NODE_KINDS = frozenset(
    {
        "Input",
        "Output",
        "Conv",
        "Mul",
        "Add",
        "MultiThreshold",
        "Split",
        "Concat",
        "EltwiseAdd",
        "MaxPool",
        "Resize",
    }
)

_SINGLE_INPUT_KINDS = frozenset(
    {"Output", "Conv", "Mul", "Add", "MultiThreshold", "Split", "MaxPool", "Resize"}
)

_ARRAY_ATTRS = {"weights", "thresholds"}


class GraphError(ValueError):
    """Malformed graph: unknown kind, bad arity, cycle, dangling reference."""


@dataclass
class Node:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)


@dataclass
class Edge:
    """Directed tensor edge with optional shape/quantization annotations."""

    id: str
    src: str
    dst: str
    src_out: int = 0
    dst_in: int = 0
    scale: float | None = None
    bits: int | None = None
    signed: bool | None = None
    shape: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ScaleGroup:
    """Edges required to share one quantization scale (e.g. 'red', 'green')."""

    tag: str
    edge_ids: tuple[str, ...]


@dataclass(frozen=True)
class ScaleViolation:
    tag: str
    edge_id: str
    expected: float | None
    found: float | None


class OpGraph:
    """Mutable DAG of operator nodes joined by tensor edges. Each node keeps
    the ids of its in- and out-edges, so adjacency queries cost O(degree);
    change edge ends only through connect, reroute and remove_edge."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        self._ins: dict[str, list[str]] = {}
        self._outs: dict[str, list[str]] = {}
        self._counter = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, kind: str, **attrs) -> Node:
        if kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {kind!r}")
        if node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        node = Node(node_id, kind, attrs)
        self.nodes[node_id] = node
        self._ins[node_id] = []
        self._outs[node_id] = []
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
        self._outs[src].append(edge_id)
        self._ins[dst].append(edge_id)
        return edge

    def reroute(
        self, edge: Edge, src: str | None = None, src_out: int = 0,
        dst: str | None = None, dst_in: int = 0,
    ) -> None:
        """Move the source end of `edge` to (src, src_out) and/or its
        destination end to (dst, dst_in)."""
        if src is not None:
            self._outs[edge.src].remove(edge.id)
            self._outs[src].append(edge.id)
            edge.src, edge.src_out = src, src_out
        if dst is not None:
            self._ins[edge.dst].remove(edge.id)
            self._ins[dst].append(edge.id)
            edge.dst, edge.dst_in = dst, dst_in

    def fresh_id(self, prefix: str) -> str:
        while True:
            self._counter += 1
            cand = f"{prefix}{self._counter}"
            if cand not in self.nodes and cand not in self.edges:
                return cand

    def remove_edge(self, edge_id: str) -> None:
        edge = self.edges.pop(edge_id)
        self._outs[edge.src].remove(edge_id)
        self._ins[edge.dst].remove(edge_id)

    def remove_node(self, node_id: str) -> None:
        if self._ins[node_id] or self._outs[node_id]:
            raise GraphError(f"node {node_id!r} still has edges")
        del self.nodes[node_id], self._ins[node_id], self._outs[node_id]

    def copy(self) -> OpGraph:
        """Independent copy with the same ids, order and id counter."""
        g = OpGraph()
        g.nodes = {
            nid: Node(nid, n.kind, copy.deepcopy(n.attrs)) for nid, n in self.nodes.items()
        }
        g.edges = {
            eid: Edge(eid, e.src, e.dst, e.src_out, e.dst_in, e.scale, e.bits, e.signed, e.shape)
            for eid, e in self.edges.items()
        }
        g._ins = {nid: ids.copy() for nid, ids in self._ins.items()}
        g._outs = {nid: ids.copy() for nid, ids in self._outs.items()}
        g._counter = self._counter
        return g

    # -- queries -----------------------------------------------------------

    def in_edges(self, node_id: str) -> list[Edge]:
        ids = self._ins.get(node_id, ())
        return sorted((self.edges[eid] for eid in ids), key=lambda e: (e.dst_in, e.id))

    def out_edges(self, node_id: str) -> list[Edge]:
        ids = self._outs.get(node_id, ())
        return sorted((self.edges[eid] for eid in ids), key=lambda e: (e.src_out, e.id))

    def validate(self) -> list[str]:
        """Check kinds, arities and acyclicity; return the topological order."""
        if not self.nodes:
            raise GraphError("empty graph")
        for edge in self.edges.values():
            if edge.src not in self.nodes or edge.dst not in self.nodes:
                raise GraphError(f"edge {edge.id} references missing node")
        for node in self.nodes.values():
            n_in = len(self._ins[node.id])
            if node.kind == "Input" and n_in != 0:
                raise GraphError(f"Input node {node.id} has inputs")
            if node.kind in _SINGLE_INPUT_KINDS and n_in != 1:
                raise GraphError(f"{node.kind} node {node.id} needs exactly 1 input, has {n_in}")
            if node.kind in ("Concat", "EltwiseAdd") and n_in < 2:
                raise GraphError(f"{node.kind} node {node.id} needs >= 2 inputs")
            if node.kind == "Output" and self._outs[node.id]:
                raise GraphError(f"Output node {node.id} has outputs")
        return self.topo_order()  # raises on cycles

    def topo_order(self) -> list[str]:
        indeg = {nid: len(ids) for nid, ids in self._ins.items()}
        # insertion order keeps evaluation deterministic; `order` is the FIFO queue
        order = [nid for nid in self.nodes if indeg[nid] == 0]
        for nid in order:
            for e in self.out_edges(nid):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    order.append(e.dst)
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
        """Build a graph from its JSON form; a malformed document is a GraphError."""
        g = cls()
        for spec in graph_specs(doc, "nodes", ("id", "kind"), GraphError):
            if not isinstance(spec.get("attrs", {}), dict):
                raise GraphError(f"node {spec['id']}: attrs must be an object")
            attrs = dict(spec.get("attrs", {}))
            for key in _ARRAY_ATTRS & attrs.keys():
                attrs[key] = np.asarray(attrs[key], dtype=float)
            g.add_node(spec["id"], spec["kind"], **attrs)
        for spec in graph_specs(doc, "edges", ("id", "src", "dst"), GraphError):
            for port in ("src_out", "dst_in"):
                check_int(f"edge {spec['id']}: {port}", spec.get(port, 0), 0, GraphError)
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


def save_graph(g: OpGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> OpGraph:
    with open(path) as fh:
        return OpGraph.from_json_dict(json.load(fh))


# -- interpreter -------------------------------------------------------------


def _per_channel(value, channels: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1, 1)
    if arr.shape == (channels,):
        return arr.reshape(channels, 1, 1)
    raise GraphError(f"affine parameter shape {arr.shape} does not fit {channels} channels")


def _mt_from_attrs(attrs: dict) -> MultiThresholdOp:
    return MultiThresholdOp(
        np.asarray(attrs["thresholds"], dtype=float),
        int(attrs["out_bits"]),
        int(attrs.get("out_bias", 0)),
        attrs.get("count_above"),
    )


def _maxpool(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    slabs = [
        x[:, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
        for ky in range(kernel)
        for kx in range(kernel)
    ]
    return np.maximum.reduce(slabs)


def interpret(g: OpGraph, inputs) -> dict[str, np.ndarray]:
    """Reference executor: deterministic topological evaluation.

    `inputs` maps Input node id -> [C][H][W] array (a bare array is
    accepted when the graph has exactly one Input). Returns a map of
    Output node id -> value. This is the oracle every pass is checked
    against.
    """
    order = g.validate()
    input_ids = [nid for nid, n in g.nodes.items() if n.kind == "Input"]
    if not isinstance(inputs, dict):
        if len(input_ids) != 1:
            raise GraphError(f"graph has {len(input_ids)} inputs; pass a dict")
        inputs = {input_ids[0]: inputs}

    values: dict[tuple[str, int], np.ndarray] = {}
    outputs: dict[str, np.ndarray] = {}
    for nid in order:
        node = g.nodes[nid]
        ins = [values[(e.src, e.src_out)] for e in g.in_edges(nid)]
        if node.kind == "Input":
            if nid not in inputs:
                raise GraphError(f"no value supplied for input {nid!r}")
            values[(nid, 0)] = np.asarray(inputs[nid], dtype=float)
        elif node.kind == "Output":
            outputs[nid] = ins[0]
        elif node.kind == "Mul":
            values[(nid, 0)] = ins[0] * _per_channel(node.attrs["scale"], ins[0].shape[0])
        elif node.kind == "Add":
            values[(nid, 0)] = ins[0] + _per_channel(node.attrs["bias"], ins[0].shape[0])
        elif node.kind == "Conv":
            values[(nid, 0)] = quantcore.conv2d(
                ins[0],
                np.asarray(node.attrs["weights"], dtype=float),
                int(node.attrs.get("stride", 1)),
                int(node.attrs.get("pad", 0)),
            )
        elif node.kind == "MultiThreshold":
            values[(nid, 0)] = quantcore.mt_apply(_mt_from_attrs(node.attrs), ins[0]).astype(float)
        elif node.kind == "Split":
            sizes = list(node.attrs["sizes"])
            if sum(sizes) != ins[0].shape[0]:
                raise GraphError(f"Split {nid}: sizes {sizes} vs {ins[0].shape[0]} channels")
            start = 0
            for slot, size in enumerate(sizes):
                values[(nid, slot)] = ins[0][start : start + size]
                start += size
        elif node.kind == "Concat":
            values[(nid, 0)] = np.concatenate(ins, axis=0)
        elif node.kind == "EltwiseAdd":
            acc = ins[0]
            for other in ins[1:]:
                acc = acc + other
            values[(nid, 0)] = acc
        elif node.kind == "MaxPool":
            values[(nid, 0)] = _maxpool(
                ins[0], int(node.attrs["kernel"]), int(node.attrs.get("stride", node.attrs["kernel"]))
            )
        elif node.kind == "Resize":
            f = int(node.attrs["factor"])
            values[(nid, 0)] = np.repeat(np.repeat(ins[0], f, axis=1), f, axis=2)
        else:  # pragma: no cover - guarded by validate()
            raise GraphError(f"unhandled kind {node.kind}")
    return outputs


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
    g.reroute(in_e, dst=out_e.dst, dst_in=out_e.dst_in)
    g.remove_edge(out_e.id)
    g.remove_node(node_id)


def _insert_after(g: OpGraph, node_id: str, kind: str, attrs: dict) -> Node:
    """Insert a fresh 1-in/1-out node between node_id and all its consumers."""
    new = g.add_node(g.fresh_id(f"{kind.lower()}_m"), kind, **attrs)
    for e in g.out_edges(node_id):
        g.reroute(e, src=new.id, src_out=0)
    g.connect(node_id, new.id)
    return new


def _to_fixed_point(g: OpGraph, diagnostics: list[str] | None, rewrite) -> bool:
    """Rewrite the first site, in node insertion order, where `rewrite(g, node,
    notes)` applies (returns True) and rescan until none is left; that order
    fixes the fresh ids the rewrites draw. `notes` is an ordered set, so a site
    skipped on every rescan is reported once."""
    notes: dict[str, None] = {}
    changed = False
    try:
        while any(rewrite(g, node, notes) for node in list(g.nodes.values())):
            changed = True
    finally:  # a pass that raises still reports what it noted
        if diagnostics is not None:
            diagnostics.extend(notes)
    return changed


# -- passes -------------------------------------------------------------------
# Each pass rewrites g in place to its own fixed point; True if it changed it.


def pass_absorb_affine(g: OpGraph, diagnostics: list[str] | None = None) -> bool:
    """Fold Mul/Add nodes directly preceding a MultiThreshold into its
    thresholds (t <- (t - b) / a) and drop them from the graph."""
    return _to_fixed_point(g, diagnostics, _absorb_affine_at)


def _absorb_affine_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    if node.kind not in ("Mul", "Add"):
        return False
    outs = g.out_edges(node.id)
    if len(outs) != 1:
        return False
    consumer = g.nodes[outs[0].dst]
    if consumer.kind != "MultiThreshold":
        return False
    a, b = _affine_params(node)
    if np.any(a == 0.0):
        raise GraphError(f"node {node.id}: zero scale cannot be absorbed")
    op = quantcore.absorb_affine(_mt_from_attrs(consumer.attrs), a, b)
    consumer.attrs["thresholds"] = op.thresholds
    consumer.attrs["count_above"] = op.count_above
    _bypass_single_node(g, node.id)
    return True


def pass_move_scale_past_conv(g: OpGraph, diagnostics: list[str] | None = None) -> bool:
    """Relocate a scalar Mul from before a Conv to after it (exact by
    linearity). Per-channel scales that actually differ would mix under the
    convolution, so those sites are skipped with a diagnostic."""
    return _to_fixed_point(g, diagnostics, _move_scale_past_conv_at)


def _move_scale_past_conv_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    if node.kind != "Mul":
        return False
    outs = g.out_edges(node.id)
    if len(outs) != 1 or g.nodes[outs[0].dst].kind != "Conv":
        return False
    conv = g.nodes[outs[0].dst]
    scale = np.asarray(node.attrs["scale"], dtype=float)
    if scale.ndim > 0 and np.unique(scale).size > 1:
        notes[
            f"node {node.id}: per-channel scale before Conv {conv.id} "
            "is not uniform; cannot move past a channel-mixing op"
        ] = None
        return False
    s = float(scale.flat[0]) if scale.ndim else float(scale)
    _bypass_single_node(g, node.id)
    _insert_after(g, conv.id, "Mul", {"scale": s})
    return True


def pass_push_affine_through_fork(g: OpGraph, diagnostics: list[str] | None = None) -> bool:
    """Copy an affine node feeding a fork (output fanout >= 2) onto the head
    of each branch so it can keep moving down independently."""
    return _to_fixed_point(g, diagnostics, _push_affine_through_fork_at)


def _push_affine_through_fork_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    if node.kind not in ("Mul", "Add"):
        return False
    outs = g.out_edges(node.id)
    if len(outs) < 2:
        return False
    in_e = g.in_edges(node.id)[0]
    for branch_edge in outs:
        branch = g.add_node(
            g.fresh_id(f"{node.kind.lower()}_f"), node.kind, **copy.deepcopy(node.attrs)
        )
        g.connect(in_e.src, branch.id, src_out=in_e.src_out)
        g.reroute(branch_edge, src=branch.id, src_out=0)
    g.remove_edge(in_e.id)
    g.remove_node(node.id)
    return True


def pass_merge_affine_at_join(g: OpGraph, diagnostics: list[str] | None = None) -> bool:
    """Move one shared affine past a join (Concat/EltwiseAdd) when every
    input carries a bit-identical copy; mismatching branches are reported
    and left alone (the training-time shared-scale constraint is what would
    make them identical)."""
    return _to_fixed_point(g, diagnostics, _merge_affine_at_join_at)


def _merge_affine_at_join_at(g: OpGraph, join: Node, notes: dict[str, None]) -> bool:
    if join.kind not in ("Concat", "EltwiseAdd"):
        return False
    ins = g.in_edges(join.id)
    srcs = [g.nodes[e.src] for e in ins]
    if not all(s.kind in ("Mul", "Add") for s in srcs):
        return False
    kinds = {s.kind for s in srcs}
    if len(kinds) != 1 or len({s.id for s in srcs}) != len(srcs):
        return False
    if any(len(g.out_edges(s.id)) != 1 for s in srcs):
        return False
    kind = srcs[0].kind
    attr_key = "scale" if kind == "Mul" else "bias"
    params = [np.asarray(s.attrs[attr_key], dtype=float) for s in srcs]
    if not all(np.array_equal(params[0], p) for p in params[1:]):
        notes[
            f"join {join.id}: branch affines differ; training-time "
            "shared quantization scales would be required to merge"
        ] = None
        return False
    if join.kind == "EltwiseAdd" and kind == "Add":
        notes[
            f"join {join.id}: additive bias does not commute with "
            "elementwise add; left in place"
        ] = None
        return False
    if join.kind == "Concat" and params[0].ndim > 0:
        merged = np.concatenate(params)
    else:
        merged = params[0] if params[0].ndim else float(params[0])
    for s in srcs:
        _bypass_single_node(g, s.id)
    _insert_after(g, join.id, kind, {attr_key: merged})
    return True


PASS_PIPELINE = (
    pass_move_scale_past_conv,
    pass_push_affine_through_fork,
    pass_merge_affine_at_join,
    pass_absorb_affine,
)


# A cap on pipeline rounds, in case passes ever undo each other's rewrites.
MAX_ROUNDS = 20


def run_pipeline(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Streamline a copy of `g`, leaving `g` untouched: run every pass of
    PASS_PIPELINE in turn until a round rewrites nothing or MAX_ROUNDS rounds
    have run. Each distinct diagnostic is reported once, in first-seen order."""
    g = g.copy()
    notes: list[str] = []
    try:
        for _ in range(MAX_ROUNDS):
            if not any([p(g, notes) for p in PASS_PIPELINE]):  # a list: every pass runs
                break
    finally:
        if diagnostics is not None:
            diagnostics.extend(dict.fromkeys(notes))
    return g


def validate_scale_groups(g: OpGraph, groups: list[ScaleGroup]) -> list[ScaleViolation]:
    """Check that every edge of each group carries the group's common scale.

    The expected scale is the group's most frequent annotation, so a single
    perturbed edge yields exactly one violation. Empty result means all
    groups are consistent.
    """
    violations = []
    for group in groups:
        for eid in group.edge_ids:
            if eid not in g.edges:
                raise GraphError(f"scale group {group.tag!r}: dangling edge id {eid!r}")
        found = [g.edges[eid].scale for eid in group.edge_ids]
        counts = Counter(found)
        top = max(counts.values())
        expected = sorted(
            (s for s, c in counts.items() if c == top),
            key=lambda s: (s is None, s),
        )[0]
        for eid, scale in zip(group.edge_ids, found):
            if scale != expected:
                violations.append(ScaleViolation(group.tag, eid, expected, scale))
    return violations
