"""Graph IR and normalization passes for quantized conv graphs.

The passes relocate floating-point affine operations (Mul/Add left over
from batch norm and quantization scales) down the graph until they are
absorbed into MultiThreshold nodes or parked as the final output scale:

  * move a scalar scale past a convolution (linearity),
  * copy an affine onto each branch of a fork (tensor fanout),
  * merge identical affines sitting on every input of a join,
  * fold an affine directly preceding a MultiThreshold into its thresholds.

Every pass preserves the reference interpreter's output exactly; the
interpreter doubles as the equivalence oracle in tests. ``KINDS`` is the one
description of each node kind: its input arity, the attrs it requires and the
function that evaluates it, read by ``add_node``, ``validate`` and
``interpret``. ``PASSES`` lists the passes in pipeline order, each as a site
check and the node kinds it is tried at. ``apply_passes`` runs named passes
in place; ``run_pipeline`` copies its input once, as FINN's
``ModelWrapper.transform`` does, and streamlines the copy with one worklist
that tries every pass at each site. Graphs serialize to a plain JSON document
so fixtures and golden files stay language agnostic.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import quantcore
from .graph import Graph, GraphError, graph_specs, read_doc, write_doc
from .io import check_int
from .quantcore import MultiThresholdOp

_ARRAY_ATTRS = {"weights", "thresholds"}

_AFFINE_KINDS = frozenset({"Mul", "Add"})


@dataclass(slots=True)
class Node:
    id: str
    kind: str
    attrs: dict = field(default_factory=dict)


def _copied(v):
    """`v` with every array, list and dict in it copied; other values shared."""
    if isinstance(v, dict):
        return {k: _copied(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_copied(x) for x in v]
    return v.copy() if isinstance(v, np.ndarray) else v


@dataclass(slots=True)
class Edge:
    """Directed tensor edge with optional quantization annotations."""

    id: str
    src: str
    dst: str
    src_out: int = 0
    dst_in: int = 0
    scale: float | None = None
    bits: int | None = None
    signed: bool | None = None


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


class OpGraph(Graph):
    """Mutable DAG of operator nodes joined by tensor edges. Adjacency
    queries cost O(degree) and list edges by port, then id; change edge ends
    only through connect, reroute and remove_edge.

    While a pass runs, ``_touched`` maps every node that add_node or an edge
    mutator touched to whether add_node made it, in first-touch order with
    added nodes in the order they were added; otherwise it is None."""

    def __init__(self):
        super().__init__()
        self._counter = 0
        self._touched: dict[str, bool] | None = None

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, kind: str, **attrs) -> Node:
        if kind not in KINDS:
            raise GraphError(f"unknown node kind {kind!r}")
        node = self._add_node(Node(node_id, kind, attrs))
        if self._touched is not None:  # the id may be one this rewrite removed
            self._touched.pop(node_id, None)
            self._touched[node_id] = True
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
    ) -> Edge:
        if edge_id is None:
            edge_id = self.fresh_id("e")
        edge = self._add_edge(Edge(edge_id, src, dst, src_out, dst_in, scale, bits, signed))
        self._touch(src, dst)
        return edge

    def reroute(
        self, edge: Edge, src: str | None = None, src_out: int = 0,
        dst: str | None = None, dst_in: int = 0,
    ) -> None:
        """Move the source end of `edge` to (src, src_out) and/or its
        destination end to (dst, dst_in); an unknown end is a GraphError."""
        for end in (src, dst):
            if end is not None and end not in self.nodes:
                raise GraphError(f"reroute of edge {edge.id!r} to unknown node {end!r}")
        self._touch(edge.src, edge.dst)
        if src is not None:
            self._outs[edge.src].remove(edge.id)
            self._outs[src].append(edge.id)
            edge.src, edge.src_out = src, src_out
        if dst is not None:
            self._ins[edge.dst].remove(edge.id)
            self._ins[dst].append(edge.id)
            edge.dst, edge.dst_in = dst, dst_in
        self._touch(edge.src, edge.dst)

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
        self._touch(edge.src, edge.dst)

    def _touch(self, *node_ids: str) -> None:
        if self._touched is not None:
            for nid in node_ids:
                self._touched.setdefault(nid, False)

    def remove_node(self, node_id: str) -> None:
        if self._ins[node_id] or self._outs[node_id]:
            raise GraphError(f"node {node_id!r} still has edges")
        del self.nodes[node_id], self._ins[node_id], self._outs[node_id]

    def copy(self) -> OpGraph:
        """Independent copy with the same ids, order and id counter."""
        g = self._with_records(
            {nid: Node(nid, n.kind, _copied(n.attrs)) for nid, n in self.nodes.items()},
            {eid: Edge(eid, e.src, e.dst, e.src_out, e.dst_in, e.scale, e.bits, e.signed)
             for eid, e in self.edges.items()},
        )
        g._counter = self._counter
        return g

    # -- queries -----------------------------------------------------------

    def in_edges(self, node_id: str) -> list[Edge]:
        edges = [self.edges[eid] for eid in self._ins.get(node_id, ())]
        if len(edges) > 1:
            edges.sort(key=lambda e: (e.dst_in, e.id))
        return edges

    def out_edges(self, node_id: str) -> list[Edge]:
        edges = [self.edges[eid] for eid in self._outs.get(node_id, ())]
        if len(edges) > 1:
            edges.sort(key=lambda e: (e.src_out, e.id))
        return edges

    def validate(self) -> list[str]:
        """Check kinds, arities, required attrs and acyclicity; return the
        topological order."""
        if not self.nodes:
            raise GraphError("empty graph")
        for edge in self.edges.values():
            if edge.src not in self.nodes or edge.dst not in self.nodes:
                raise GraphError(f"edge {edge.id} references missing node")
        for node in self.nodes.values():
            arity, required, _ = KINDS[node.kind]
            n_in = len(self._ins[node.id])
            if arity == 0 and n_in != 0:
                raise GraphError(f"{node.kind} node {node.id} has inputs")
            if arity == 1 and n_in != 1:
                raise GraphError(f"{node.kind} node {node.id} needs exactly 1 input, has {n_in}")
            if arity is None and n_in < 2:
                raise GraphError(f"{node.kind} node {node.id} needs >= 2 inputs")
            if node.kind == "Output" and self._outs[node.id]:
                raise GraphError(f"Output node {node.id} has outputs")
            for attr in required:
                if attr not in node.attrs:
                    raise GraphError(f"{node.kind} node {node.id} lacks attr {attr!r}")
        return self.topo_order()  # raises on cycles

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
            }
            for e in self.edges.values()
        ]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json_dict(cls, doc: dict) -> OpGraph:
        """Build a graph from its JSON form; a malformed document is a GraphError.
        An optional ``fresh_id`` entry restores the id counter (default 0)."""
        g = cls()
        for spec in graph_specs(doc, "nodes", ("id", "kind")):
            if not isinstance(spec.get("attrs", {}), dict):
                raise GraphError(f"node {spec['id']}: attrs must be an object")
            attrs = dict(spec.get("attrs", {}))
            for key in _ARRAY_ATTRS & attrs.keys():
                attrs[key] = np.asarray(attrs[key], dtype=float)
            g.add_node(spec["id"], spec["kind"], **attrs)
            if spec["kind"] == "MultiThreshold" and {"thresholds", "out_bits"} <= attrs.keys():
                try:  # the one threshold rule, where a document is read
                    _mt_from_attrs(attrs)
                except (TypeError, ValueError) as exc:
                    raise GraphError(f"node {spec['id']}: {exc}") from exc
        for spec in graph_specs(doc, "edges", ("id", "src", "dst")):
            eid, scale, bits, signed = (spec.get(k) for k in ("id", "scale", "bits", "signed"))
            for port in ("src_out", "dst_in"):
                check_int(f"edge {eid}: {port}", spec.get(port, 0), 0, GraphError)
            if scale is not None and (isinstance(scale, bool) or not isinstance(scale, (int, float))):
                raise GraphError(f"edge {eid}: scale must be null or a number, got {scale!r}")
            if bits is not None:
                check_int(f"edge {eid}: bits", bits, 1, GraphError)
            if signed is not None and not isinstance(signed, bool):
                raise GraphError(f"edge {eid}: signed must be null or a bool, got {signed!r}")
            g.connect(
                spec["src"],
                spec["dst"],
                src_out=spec.get("src_out", 0),
                dst_in=spec.get("dst_in", 0),
                edge_id=eid,
                scale=scale,
                bits=bits,
                signed=signed,
            )
        g._counter = doc.get("fresh_id", 0)
        check_int("fresh_id", g._counter, 0, GraphError)
        return g

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def save_graph(g: OpGraph, path) -> None:
    """Write g's JSON form plus its id counter, so a reloaded graph draws the
    same fresh ids."""
    write_doc({**g.to_json_dict(), "fresh_id": g._counter}, path)


def load_graph(path) -> OpGraph:
    return OpGraph.from_json_dict(read_doc(path))


# -- interpreter -------------------------------------------------------------
# An evaluator takes a node and the values on its input slots, in slot order,
# and returns the values on its output slots.


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


def _mul(node: Node, ins: list) -> list:
    return [ins[0] * _per_channel(node.attrs["scale"], ins[0].shape[0])]


def _add(node: Node, ins: list) -> list:
    return [ins[0] + _per_channel(node.attrs["bias"], ins[0].shape[0])]


def _conv(node: Node, ins: list) -> list:
    weights = np.asarray(node.attrs["weights"], dtype=float)
    stride, pad = int(node.attrs.get("stride", 1)), int(node.attrs.get("pad", 0))
    return [quantcore.conv2d(ins[0], weights, stride, pad)]


def _multithreshold(node: Node, ins: list) -> list:
    return [quantcore.mt_apply(_mt_from_attrs(node.attrs), ins[0]).astype(float)]


def _split(node: Node, ins: list) -> list:
    sizes = list(node.attrs["sizes"])
    if sum(sizes) != ins[0].shape[0]:
        raise GraphError(f"Split {node.id}: sizes {sizes} vs {ins[0].shape[0]} channels")
    bounds = [0, *accumulate(sizes)]
    return [ins[0][start:end] for start, end in zip(bounds, bounds[1:])]


def _concat(node: Node, ins: list) -> list:
    if len({x.shape[1:] for x in ins}) > 1:
        raise GraphError(f"Concat {node.id}: inputs {[x.shape for x in ins]} differ in H x W")
    return [np.concatenate(ins, axis=0)]


def _eltwise_add(node: Node, ins: list) -> list:
    if len({x.shape for x in ins}) > 1:
        raise GraphError(f"EltwiseAdd {node.id}: inputs {[x.shape for x in ins]} differ in shape")
    return [sum(ins[1:], ins[0])]  # ((a + b) + c) ..., in slot order


def _maxpool(node: Node, ins: list) -> list:
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs.get("stride", kernel))
    x = ins[0]
    out_h = (x.shape[1] - kernel) // stride + 1
    out_w = (x.shape[2] - kernel) // stride + 1
    slabs = [
        x[:, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
        for ky in range(kernel)
        for kx in range(kernel)
    ]
    return [np.maximum.reduce(slabs)]


def _resize(node: Node, ins: list) -> list:
    f = int(node.attrs["factor"])
    return [np.repeat(np.repeat(ins[0], f, axis=1), f, axis=2)]


# The one description of each node kind: (arity, required attrs, evaluate).
# Arity is the exact input count, or None for a join of two or more; the
# required attrs are those interpret and the passes read. Input and Output
# have no evaluator: interpret reads `inputs` and writes its result for them.
KINDS = {
    "Input": (0, (), None),
    "Output": (1, (), None),
    "Conv": (1, ("weights",), _conv),
    "Mul": (1, ("scale",), _mul),
    "Add": (1, ("bias",), _add),
    "MultiThreshold": (1, ("thresholds", "out_bits"), _multithreshold),
    "Split": (1, ("sizes",), _split),
    "Concat": (None, (), _concat),
    "EltwiseAdd": (None, (), _eltwise_add),
    "MaxPool": (1, ("kernel",), _maxpool),
    "Resize": (1, ("factor",), _resize),
}
_JOIN_KINDS = frozenset(kind for kind, (arity, _, _) in KINDS.items() if arity is None)


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
        else:
            for slot, value in enumerate(KINDS[node.kind][2](node, ins)):
                values[(nid, slot)] = value
    return outputs


# -- pass helpers -------------------------------------------------------------


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


# Absorbing may overflow thresholds to inf, which is allowed (inf - inf then
# reads as ascending): numpy's warnings for it are off once per run, not
# per absorb.
@np.errstate(over="ignore", invalid="ignore")
def _to_fixed_point(g: OpGraph, diagnostics: list[str] | None, checks) -> bool:
    """Rewrite g in place until no site is left; True if it changed g.
    `checks` holds (check, kinds) pairs: ``check(g, node, notes)`` is True
    when it rewrote at `node`, and is only tried at nodes of `kinds`. At each
    node the checks of its kind are tried in order until one rewrites.

    A heap worklist keyed by node insertion rank starts with every node of a
    checked kind and always yields the lowest-ranked one, so rewrites happen
    at the same sites, in the same order and with the same fresh ids as
    rescanning the whole graph after every rewrite would. A site's verdict
    depends only on its own edges, its neighbours' kinds and attrs, and, for a
    join, its producers' out-degree. So after a rewrite only the nodes it
    added or attached an edge end to (``OpGraph._touched``), and their
    consumers, go back on the heap. `notes` is an ordered set: each skipped
    site is reported once, in the order a rescan would first meet it."""
    by_kind: dict[str, list] = {}
    for check, kinds in checks:
        for kind in kinds:
            by_kind.setdefault(kind, []).append(check)
    rank = {nid: i for i, (nid, node) in enumerate(g.nodes.items()) if node.kind in by_kind}
    heap = [(i, nid) for nid, i in rank.items()]  # sorted, so already a heap
    queued = set(rank.values())
    next_rank = len(g.nodes)
    notes: dict[str, None] = {}
    changed = False
    g._touched = touched = {}
    try:
        while heap:
            r, nid = heapq.heappop(heap)
            queued.discard(r)
            # a stale rank belongs to a removed node whose id came back
            node = g.nodes.get(nid) if rank[nid] == r else None
            if node is None or not any(c(g, node, notes) for c in by_kind[node.kind]):
                continue
            changed = True
            dirty = [t for t in touched if t in g.nodes]
            for t in dirty:
                if touched[t]:  # new: after every older node
                    rank[t] = next_rank
                    next_rank += 1
            dirty += [g.edges[eid].dst for t in dirty for eid in g._outs[t]]
            for t in dirty:
                if g.nodes[t].kind in by_kind and rank[t] not in queued:
                    queued.add(rank[t])
                    heapq.heappush(heap, (rank[t], t))
            touched.clear()
    finally:  # a pass that raises still reports what it noted
        g._touched = None
        if diagnostics is not None:
            diagnostics.extend(notes)
    return changed


# -- passes -------------------------------------------------------------------
# A pass is a site check and the node kinds it is tried at, one row of PASSES.
# A check rewrites g in place at one node, returning True, or leaves it alone.


def _absorb_affine_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    """Fold a Mul/Add directly preceding a MultiThreshold into its thresholds
    (t <- (t - b) / a) and drop it from the graph. Its parameter must fit the
    threshold rows, as interpret requires."""
    outs = g.out_edges(node.id)
    if len(outs) != 1:
        return False
    consumer = g.nodes[outs[0].dst]
    if consumer.kind != "MultiThreshold":
        return False
    op = _mt_from_attrs(consumer.attrs)
    p = _per_channel(node.attrs["scale" if node.kind == "Mul" else "bias"], op.channels).squeeze()
    a, b = (p, np.zeros_like(p)) if node.kind == "Mul" else (np.ones_like(p), p)
    if (a == 0.0).any():
        raise GraphError(f"node {node.id}: zero scale cannot be absorbed")
    op = quantcore.absorb_affine(op, a, b)
    consumer.attrs.update(thresholds=op.thresholds, count_above=op.count_above)
    _bypass_single_node(g, node.id)
    return True


def _move_scale_past_conv_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    """Relocate a scalar Mul from before a Conv to after it (exact by
    linearity). The scale must fit the Conv's input channels, as interpret
    requires; per-channel scales that actually differ would mix under the
    convolution, so those sites are skipped with a diagnostic."""
    outs = g.out_edges(node.id)
    if len(outs) != 1 or g.nodes[outs[0].dst].kind != "Conv":
        return False
    conv = g.nodes[outs[0].dst]
    weights = np.shape(conv.attrs["weights"])
    if len(weights) != 4:
        raise GraphError(f"Conv {conv.id}: weights of shape {weights} are not (out, in, k, k)")
    scale = _per_channel(node.attrs["scale"], weights[1])
    if scale.size > 1 and np.unique(scale).size > 1:
        notes[
            f"node {node.id}: per-channel scale before Conv {conv.id} "
            "is not uniform; cannot move past a channel-mixing op"
        ] = None
        return False
    _bypass_single_node(g, node.id)
    _insert_after(g, conv.id, "Mul", {"scale": float(scale.flat[0])})
    return True


def _push_affine_through_fork_at(g: OpGraph, node: Node, notes: dict[str, None]) -> bool:
    """Copy an affine node feeding a fork (output fanout >= 2) onto the head
    of each branch so it can keep moving down independently."""
    outs = g.out_edges(node.id)
    if len(outs) < 2:
        return False
    in_e = g.in_edges(node.id)[0]
    for branch_edge in outs:
        branch = g.add_node(g.fresh_id(f"{node.kind.lower()}_f"), node.kind, **_copied(node.attrs))
        g.connect(in_e.src, branch.id, src_out=in_e.src_out)
        g.reroute(branch_edge, src=branch.id, src_out=0)
    g.remove_edge(in_e.id)
    g.remove_node(node.id)
    return True


def _merge_affine_at_join_at(g: OpGraph, join: Node, notes: dict[str, None]) -> bool:
    """Move one shared affine past a join (Concat/EltwiseAdd) when every
    input carries a bit-identical copy; mismatching branches are reported
    and left alone (the training-time shared-scale constraint is what would
    make them identical)."""
    ins = g.in_edges(join.id)
    srcs = [g.nodes[e.src] for e in ins]
    if not all(s.kind in _AFFINE_KINDS for s in srcs):
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


PASSES = {  # pipeline order; at most one applies at a node
    "move_scale_past_conv": (_move_scale_past_conv_at, frozenset({"Mul"})),
    "push_affine_through_fork": (_push_affine_through_fork_at, _AFFINE_KINDS),
    "merge_affine_at_join": (_merge_affine_at_join_at, _JOIN_KINDS),
    "absorb_affine": (_absorb_affine_at, _AFFINE_KINDS),
}


def apply_passes(g: OpGraph, names: list[str], diagnostics: list[str] | None = None) -> bool:
    """Run the named passes in place, in the given order, each to its own
    fixed point; True if any changed g. Every name is checked before g is."""
    for name in names:
        if name not in PASSES:
            raise ValueError(f"unknown pass {name!r}; choose from {sorted(PASSES)}")
    changed = [_to_fixed_point(g, diagnostics, [PASSES[name]]) for name in names]
    return any(changed)


def run_pipeline(g: OpGraph, diagnostics: list[str] | None = None) -> OpGraph:
    """Streamline a copy of `g`, leaving `g` untouched, with one worklist for
    all of PASSES: rewrites, fresh ids, diagnostics and errors are those of
    rescanning from the first node after every rewrite. It ends, as each
    rewrite removes an affine (absorb), moves one strictly past a Conv or a
    join (move, merge), or splits a fork's affine into copies of out-degree 1,
    which cannot fork again until a move gives them new consumers."""
    g = g.copy()
    _to_fixed_point(g, diagnostics, PASSES.values())
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
