"""Differential test: the indexed, in-place passes, the threshold code and
the interpreter against the frozen oracle.

Graphs are chains of the four block kinds of a quantized YOLOv8 backbone
(conv block, fork/add, fork/concat, split/concat) plus twin-affine joins,
with the awkward sites mixed in: per-channel Mul scales that are not uniform
before a Conv, joins whose branch affines differ, Adds into an EltwiseAdd,
Adds that feed a fork, and identity and zero scales. Every graph is built
twice by the same calls, once as ``motkit.streamline.OpGraph`` and once as
the oracle's, so fresh ids start from the same counter. Each single pass
must give the same ``canonical_json`` (ids, attributes and edge order),
bit-exact ``interpret`` output on integer inputs and the same
``GraphError``, and diagnostics must be the oracle's with repeats removed.
``run_pipeline`` is held to the two rules of ``check_pipeline``. Live
``interpret`` must match the oracle's byte for byte on these graphs, the
fixtures and every streamline-graphs pool graph, before and after
``run_pipeline``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import streamline_oracle as oracle
from conftest import conv_block_graph, fork_join_graph, mul_conv_chain_graph, yolov8_graph
from motkit import quantcore, streamline
from motkit.streamline import GraphError, OpGraph, interpret

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import wl_streamline  # noqa: E402

SPATIAL = 4
# Powers of two keep every rewrite exact in float64; 1.0 is the identity.
SCALES = (0.5, 2.0, -1.0, 1.0, 0.25, -2.0, 4.0, -0.5)


class _Chain:
    """Records the add_node/connect calls that build a block chain."""

    def __init__(self, draw, channels: int):
        self.draw = draw
        self.c = channels
        self.calls: list[tuple[str, tuple, dict]] = []
        self.n = 0
        self.tail = (self.add("Input"), 0)

    def add(self, kind: str, **attrs) -> str:
        self.n += 1
        nid = f"{kind.lower()}{self.n}"
        self.calls.append(("add_node", (nid, kind), attrs))
        return nid

    def link(self, src: tuple[str, int], dst: str, dst_in: int = 0) -> None:
        self.calls.append(("connect", (src[0], dst), {"src_out": src[1], "dst_in": dst_in}))

    def node(self, kind: str, src=None, **attrs) -> str:
        nid = self.add(kind, **attrs)
        self.link(src or self.tail, nid)
        self.tail = (nid, 0)
        return nid

    def join(self, kind: str, srcs) -> None:
        nid = self.add(kind)
        for slot, src in enumerate(srcs):
            self.link(src, nid, dst_in=slot)
        self.tail = (nid, 0)

    def scale(self, zero: bool = False):
        return self.draw(st.sampled_from(SCALES + ((0.0,) if zero else ())))

    def channel_scales(self, c: int) -> list[float]:
        """Per-channel scales, uniform or not."""
        if self.draw(st.booleans()):
            return [self.scale()] * c
        return [self.scale() for _ in range(c)]

    def pre_scale(self):
        """The scale in front of a block: scalar (possibly 0 or 1) or, at an
        awkward site, per-channel."""
        if self.draw(st.integers(0, 3)) == 0:
            return self.channel_scales(self.c)
        return self.scale(zero=True)

    def fork_head(self) -> tuple[str, int]:
        """The affine that feeds a fork: a Mul, or at times a bias Add, which
        the fork pass copies onto the branches just the same."""
        if self.draw(st.integers(0, 3)) == 0:
            bias = self.draw(st.lists(st.integers(-4, 4), min_size=self.c, max_size=self.c))
            return (self.node("Add", bias=bias), 0)
        return (self.node("Mul", scale=self.pre_scale()), 0)

    def conv(self, c_in: int, c_out: int, src=None) -> str:
        k = self.draw(st.sampled_from((1, 3)))
        w = self.draw(st.lists(st.integers(-3, 3), min_size=c_out * c_in * k * k,
                               max_size=c_out * c_in * k * k))
        weights = np.array(w, dtype=float).reshape(c_out, c_in, k, k)
        return self.node("Conv", src, weights=weights, stride=1, pad=k // 2)

    def requant(self) -> None:
        c = self.c
        self.node("Mul", scale=self.channel_scales(c))
        self.node("Add", bias=self.draw(st.lists(st.integers(-4, 4), min_size=c, max_size=c)))
        rows = [
            sorted(self.draw(st.lists(st.integers(-24, 24), min_size=3, max_size=3, unique=True)))
            for _ in range(c)
        ]
        self.node("MultiThreshold", thresholds=np.array(rows, dtype=float), out_bits=2)
        self.node("Mul", scale=self.scale())

    def conv_block(self) -> None:
        self.node("Mul", scale=self.pre_scale())
        self.conv(self.c, self.c)
        self.requant()

    def fork_add(self) -> None:
        pre = self.fork_head()
        branch = (self.conv(self.c, self.c, src=pre), 0)
        if self.draw(st.booleans()):  # a branch scale the skip may not share
            branch = (self.node("Mul", src=branch, scale=self.scale()), 0)
        self.join("EltwiseAdd", [branch, pre])
        self.requant()

    def fork_concat(self) -> None:
        pre = self.fork_head()
        branch = (self.conv(self.c, self.c, src=pre), 0)
        self.join("Concat", [branch, pre])
        self.conv(2 * self.c, self.c)
        self.requant()

    def split_concat(self) -> None:
        half = self.c // 2
        split = self.node("Split", sizes=[half, self.c - half])
        branch = (self.conv(half, half, src=(split, 0)), 0)
        self.join("Concat", [branch, (split, 1)])
        self.requant()

    def twin_join(self) -> None:
        """Two affines on one tensor meeting at a join: equal or different
        parameters, Mul or Add, into an EltwiseAdd or a Concat."""
        kind = self.draw(st.sampled_from(("Mul", "Add")))
        join = self.draw(st.sampled_from(("EltwiseAdd", "Concat")))
        fork = self.tail
        first = None
        srcs = []
        for _ in range(2):
            if first is None or self.draw(st.booleans()):
                first = (
                    {"scale": self.channel_scales(self.c)}
                    if kind == "Mul"
                    else {"bias": self.draw(st.lists(st.integers(-2, 2), min_size=self.c,
                                                     max_size=self.c))}
                )
            srcs.append((self.node(kind, src=fork, **first), 0))
        self.join(join, srcs)
        if join == "Concat":
            self.conv(2 * self.c, self.c)
        self.requant()


@st.composite
def graph_cases(draw, min_blocks: int = 1, max_blocks: int = 5):
    """(recorded build calls, integer input) of a random block chain."""
    chain = _Chain(draw, draw(st.integers(2, 3)))
    blocks = ("conv_block", "fork_add", "fork_concat", "split_concat", "twin_join")
    kinds = st.lists(st.sampled_from(blocks), min_size=min_blocks, max_size=max_blocks)
    for kind in draw(kinds):
        getattr(chain, kind)()
    chain.node("Output")
    x = np.array(
        draw(st.lists(st.integers(-8, 8), min_size=chain.c * SPATIAL**2,
                      max_size=chain.c * SPATIAL**2)),
        dtype=float,
    ).reshape(chain.c, SPATIAL, SPATIAL)
    return chain.calls, x


def build(graph_cls, calls):
    g = graph_cls()
    for method, args, kwargs in calls:
        getattr(g, method)(*args, **copy.deepcopy(kwargs))
    return g


def outcome(fn, *args):
    """(result, None) or (None, GraphError message)."""
    try:
        return fn(*args), None
    except GraphError as exc:
        return None, str(exc)


def assert_same_outputs(g_new, g_old, x):
    want = interpret(g_old, x)
    got = interpret(g_new, x)
    assert want.keys() == got.keys()
    assert all(np.array_equal(want[k], got[k]) for k in want)


FRESH_ID = re.compile(r"(mul|add)_[fm]\d+")
# more rounds than any graph here needs: the frozen pipeline stops when one
# rewrites nothing
SETTLED = 10_000


def masked(message: str | None) -> str | None:
    return None if message is None else FRESH_ID.sub("<fresh>", message)


def id_free(g, held) -> tuple[list, list]:
    """g's nodes and edges with edge ids dropped and every node not in `held`
    named by its place in the graph: its kind and attrs, refined by its
    neighbours' names, ports and edge annotations until no class splits."""
    doc = g.to_json_dict()
    attrs = {n["id"]: json.dumps([n["kind"], n["attrs"]], sort_keys=True) for n in doc["nodes"]}
    edges = [
        (e["src"], e["src_out"], e["dst"], e["dst_in"],
         json.dumps([e["scale"], e["bits"], e["signed"]]))
        for e in doc["edges"]
    ]
    names = {nid: nid if nid in held else a for nid, a in attrs.items()}
    while True:
        around = {nid: [] for nid in names}
        for src, src_out, dst, dst_in, note in edges:
            around[src].append(("out", src_out, names[dst], dst_in, note))
            around[dst].append(("in", src_out, names[src], dst_in, note))
        refined = {
            nid: nid if nid in held
            else hashlib.sha1(repr((name, sorted(around[nid]))).encode()).hexdigest()
            for nid, name in names.items()
        }
        if len(set(refined.values())) == len(set(names.values())):
            break
        names = refined
    return (
        sorted((names[nid], a) for nid, a in attrs.items()),
        sorted((names[src], src_out, names[dst], dst_in, note)
               for src, src_out, dst, dst_in, note in edges),
    )


def check_pipeline(g_new, g_old, x):
    """run_pipeline, which must leave its input untouched, against two references.

    (a) Exactly against ``oracle.rescan_pipeline``, which rescans from the
    first node after every rewrite: the same ``canonical_json``, diagnostics
    and ``GraphError``.
    (b) Up to fresh ids against the frozen round pipeline run until it
    settles, which rewrites in another order: the same ``GraphError`` message
    once fresh ids are masked; on success bit-exact ``interpret`` output, the
    same graph up to renaming the nodes the input did not hold, and the same
    set of diagnostics once fresh ids are masked."""
    before = g_new.canonical_json()
    held = set(g_new.nodes)
    d_new, d_ref, d_old = [], [], []
    out_new, err_new = outcome(lambda: streamline.run_pipeline(g_new, diagnostics=d_new))
    assert g_new.canonical_json() == before
    out_ref, err_ref = outcome(lambda: oracle.rescan_pipeline(g_new, diagnostics=d_ref))
    assert (err_new, d_new) == (err_ref, d_ref)
    out_old, err_old = outcome(lambda: oracle.run_pipeline(g_old, SETTLED, d_old))
    assert masked(err_new) == masked(err_old)
    if err_old is None:
        assert out_new.canonical_json() == out_ref.canonical_json()
        assert set(map(masked, d_new)) == set(map(masked, d_old))
        assert id_free(out_new, held) == id_free(out_old, held)
        assert_same_outputs(out_new, out_old, x)
        # streamlining itself is exact on these graphs
        assert_same_outputs(out_new, g_new, x)


def check_passes(g_new, g_old, x, rounds: int = 2):
    """Each pass alone on the unstreamlined graph, then the pipeline's passes
    in order, checking after every call. ``PASSES`` names the oracle's
    passes, in the oracle's order."""
    pairs = [(p.__name__.removeprefix("pass_"), p) for p in oracle.PASS_PIPELINE]
    assert list(streamline.PASSES) == [name for name, _ in pairs]
    for name, old_pass in pairs:
        check_pass(g_new.copy(), g_old, x, name, old_pass)
    for _ in range(rounds):
        for name, old_pass in pairs:
            g_old = check_pass(g_new, g_old, x, name, old_pass)
            if g_old is None:
                return


def check_pass(g_new, g_old, x, name, old_pass):
    """Run the pass called `name` in place on g_new and old_pass on g_old;
    return the oracle's graph, or None after the same GraphError."""
    before = g_new.canonical_json()
    d_new, d_old = [], []
    changed, err_new = outcome(streamline.apply_passes, g_new, [name], d_new)
    out_old, err_old = outcome(old_pass, g_old, d_old)
    assert err_new == err_old
    if err_old is not None:
        return None
    assert g_new.canonical_json() == out_old.canonical_json()
    assert g_new.topo_order() == out_old.topo_order()
    assert changed == (out_old.canonical_json() != before)
    assert d_new == list(dict.fromkeys(d_old))
    assert_same_outputs(g_new, out_old, x)
    return out_old


@settings(max_examples=100, deadline=None)
@given(graph_cases())
def test_matches_oracle(case):
    calls, x = case
    check_pipeline(build(OpGraph, calls), build(oracle.OpGraph, calls), x)
    check_passes(build(OpGraph, calls), build(oracle.OpGraph, calls), x)


# Longer chains: a rewrite late in the chain can make an earlier site
# eligible, which is where the worklist's rank order matters.
@settings(max_examples=30, deadline=None)
@given(graph_cases(min_blocks=6, max_blocks=15))
def test_long_chains_match_oracle(case):
    calls, x = case
    check_pipeline(build(OpGraph, calls), build(oracle.OpGraph, calls), x)
    check_passes(build(OpGraph, calls), build(oracle.OpGraph, calls), x)


def reused_id_graph(graph_cls):
    """Two Mul -> Conv chains off one input. The first Mul is named like the
    first fresh id, so moving it frees "mul_m1" and the move draws that id for
    the Mul it inserts: the node now under that id is new and must rank after
    the second chain's Mul, which therefore moves next."""
    g = graph_cls()
    g.add_node("in", "Input")
    w = np.ones((2, 2, 1, 1))
    for chain, ids in enumerate((("mul_m1", "ca", "cb", "oa"), ("x", "cc", "ob"))):
        prev = "in"
        for nid in ids:
            kind = {"m": "Mul", "x": "Mul", "c": "Conv", "o": "Output"}[nid[0]]
            attrs = {"Mul": {"scale": 2.0}, "Conv": {"weights": w}}.get(kind, {})
            g.add_node(nid, kind, **attrs)
            g.connect(prev, nid, edge_id=f"to_{nid}")
            prev = nid
    return g


def test_fixture_graphs_match_oracle():
    x = np.random.default_rng(0).integers(-8, 8, (2, SPATIAL, SPATIAL)).astype(float)
    for make in (conv_block_graph, fork_join_graph):
        doc = make().to_json_dict()
        for check in (check_pipeline, check_passes):
            check(OpGraph.from_json_dict(doc), oracle.OpGraph.from_json_dict(doc), x)
    for make in (mul_conv_chain_graph, reused_id_graph):
        for check in (check_pipeline, check_passes):
            check(make(OpGraph), make(oracle.OpGraph), x)


# Site checks run_pipeline may spend per rewrite beyond one check of every
# node it starts with.
CHECKS_PER_REWRITE = 12


@contextlib.contextmanager
def counted_sites():
    """Count run_pipeline's site checks (node visits: calls of the first
    check of a node's kind) and the rewrites among them."""
    counts = Counter()
    passes = streamline.PASSES
    first = {}
    for name, (_, kinds) in passes.items():
        for kind in kinds:
            first.setdefault(kind, name)

    def counted(name, check):
        def wrapped(g, node, notes):
            counts["checks"] += first[node.kind] == name
            rewrote = check(g, node, notes)
            counts["rewrites"] += rewrote
            return rewrote

        return wrapped

    streamline.PASSES = {name: (counted(name, check), kinds)
                         for name, (check, kinds) in passes.items()}
    try:
        yield counts
    finally:
        streamline.PASSES = passes


# fixed examples, no shrinking: a budget breach shows on any chain this long
@pytest.mark.parametrize("blocks", [20, 40])
@settings(max_examples=5, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=st.data())
def test_site_checks_within_budget(blocks, data):
    """A rewrite re-checks only the sites it touched: one check per node of
    the input, plus a constant per rewrite."""
    calls, _ = data.draw(graph_cases(min_blocks=blocks, max_blocks=blocks))
    g = build(OpGraph, calls)
    nodes = len(g.nodes)
    with counted_sites() as counts:
        try:
            streamline.run_pipeline(g)
        except GraphError:  # a zero scale before a MultiThreshold
            pass
    assert counts["rewrites"] > 0
    assert counts["checks"] <= nodes + CHECKS_PER_REWRITE * counts["rewrites"]


# -- interpreter ----------------------------------------------------------------
# interpret against the frozen one-branch-per-kind interpreter: the same output
# keys in the same order, each with the same dtype, shape and bytes, or the same
# GraphError message.


def assert_same_interpret(g, x):
    """Run both interpreters on (g, x); return the live outputs, or None after
    the same GraphError."""
    got, err = outcome(interpret, g, x)
    want, err_want = outcome(oracle.interpret, g, x)
    assert err == err_want
    if err is None:
        assert list(got) == list(want)
        for k, a in got.items():
            b = want[k]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), k
    return got


def assert_interpret_holds_through_pipeline(g, x):
    """interpret like the frozen one on g and, if it streamlines, on the
    streamlined graph, whose output must be bit-exact to g's."""
    before = assert_same_interpret(g, x)
    out, err = outcome(streamline.run_pipeline, g)
    if err is None:
        after = assert_same_interpret(out, x)
        assert before.keys() == after.keys()
        assert all(before[k].tobytes() == after[k].tobytes() for k in before)


@settings(max_examples=100, deadline=None)
@given(graph_cases())
def test_interpret_matches_frozen_interpreter(case):
    calls, x = case
    assert_interpret_holds_through_pipeline(build(OpGraph, calls), x)


def three_way_graph() -> OpGraph:
    """A 3-slot Split into a 3-input EltwiseAdd, then a MaxPool at its
    default stride, and into a 3-input Concat in another slot order, then a
    MultiThreshold: two Outputs, one fed by the MultiThreshold itself."""
    g = OpGraph()
    g.add_node("in", "Input")
    g.add_node("split", "Split", sizes=[1, 1, 1])
    g.add_node("sum", "EltwiseAdd")
    g.add_node("pool", "MaxPool", kernel=2)
    g.add_node("cat", "Concat")
    g.add_node("mt", "MultiThreshold", thresholds=np.array([[-1.0, 0.0, 1.0]] * 3), out_bits=2)
    g.add_node("out_pool", "Output")
    g.add_node("out_mt", "Output")
    g.connect("in", "split")
    for slot in range(3):
        g.connect("split", "sum", src_out=slot, dst_in=slot)
        g.connect("split", "cat", src_out=(slot + 2) % 3, dst_in=slot)
    for src, dst in (("sum", "pool"), ("pool", "out_pool"), ("cat", "mt"), ("mt", "out_mt")):
        g.connect(src, dst)
    return g


def test_fixture_graphs_interpret_like_frozen():
    rng = np.random.default_rng(0)
    for make, shape in ((conv_block_graph, (2, 4, 4)), (fork_join_graph, (2, 4, 4)),
                        (yolov8_graph, (2, 8, 8)), (three_way_graph, (3, 4, 4))):
        for x in (np.ones(shape), rng.integers(-8, 8, shape).astype(float)):
            assert_interpret_holds_through_pipeline(make(), x)
    # sums of non-integers show the order of a join's additions
    assert_same_interpret(three_way_graph(), rng.standard_normal((3, 4, 4)))


def test_pool_graphs_interpret_like_frozen():
    """Every streamline-graphs pool graph, before and after run_pipeline."""
    for index in range(wl_streamline.POOL):
        g, x, _ = wl_streamline.make_graph(index)
        assert_interpret_holds_through_pipeline(g, x)


def _split_graph(sizes):
    g = OpGraph()
    g.add_node("in", "Input")
    g.add_node("split", "Split", sizes=sizes)
    g.add_node("cat", "Concat")
    g.add_node("out", "Output")
    g.connect("in", "split")
    for slot in range(len(sizes)):
        g.connect("split", "cat", src_out=slot, dst_in=slot)
    g.connect("cat", "out")
    return g


def _mul_graph(scale, inputs=("in",)):
    g = OpGraph()
    for nid in inputs:
        g.add_node(nid, "Input")
    g.add_node("mul", "Mul", scale=scale)
    g.add_node("out", "Output")
    g.connect(inputs[0], "mul")
    g.connect("mul", "out")
    return g


@pytest.mark.parametrize(
    "g, inputs, message",
    [
        (_split_graph([1, 1]), np.ones((3, 2, 2)), "Split split: sizes [1, 1] vs 3 channels"),
        (_mul_graph(1.0), {}, "no value supplied for input 'in'"),
        (_mul_graph(1.0, ("in", "in2")), np.ones((2, 2, 2)), "graph has 2 inputs; pass a dict"),
        (_mul_graph([1.0, 2.0, 3.0]), np.ones((2, 2, 2)),
         "affine parameter shape (3,) does not fit 2 channels"),
    ],
    ids=["split_sizes", "missing_input", "bare_array_two_inputs", "affine_shape"],
)
def test_interpret_errors_match_frozen(g, inputs, message):
    with pytest.raises(GraphError) as exc:
        interpret(g, inputs)
    assert str(exc.value) == message
    assert assert_same_interpret(g, inputs) is None


# -- threshold code -------------------------------------------------------------
# MultiThresholdOp, absorb_affine and _mt_from_attrs against their frozen
# copies: bit-identical thresholds and count_above, or the same exception type
# and message.


def raised(make, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return make(*args), None
    except Exception as exc:  # which exception it is is the outcome compared
        return None, (type(exc), str(exc))


def assert_same_op(new, old):
    for name in ("thresholds", "count_above"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (new.out_bits, new.out_bias) == (old.out_bits, old.out_bias)


NAN_REFUSAL = (ValueError, "thresholds must not be NaN")


def same_outcome(new, err_new, old, err_old):
    """The error both sides raised, or None when both built the same op. The
    frozen code accepts NaN thresholds, which the live code refuses."""
    if err_old is None and np.isnan(old.thresholds).any():
        assert err_new == NAN_REFUSAL
        return err_new
    assert err_new == err_old
    if err_old is None:
        assert_same_op(new, old)
    return err_old


def compare_threshold_code(thresholds, bits, bias, flips, a, b):
    """Build, absorb and read back from attrs on both sides; return the first
    error, or None."""
    attrs = {"thresholds": thresholds, "out_bits": bits, "out_bias": bias, "count_above": flips}
    for make_new, make_old in (
        (lambda: quantcore.MultiThresholdOp(*copy.deepcopy((thresholds, bits, bias, flips))),
         lambda: oracle.MultiThresholdOp(*copy.deepcopy((thresholds, bits, bias, flips)))),
        (lambda: streamline._mt_from_attrs(copy.deepcopy(attrs)),
         lambda: oracle._mt_from_attrs(copy.deepcopy(attrs))),
    ):
        new, err_new = raised(make_new)
        old, err_old = raised(make_old)
        err = same_outcome(new, err_new, old, err_old)
        if err is not None:
            return err
    return same_outcome(*raised(quantcore.absorb_affine, new, copy.deepcopy(a), copy.deepcopy(b)),
                        *raised(oracle.absorb_affine, old, copy.deepcopy(a), copy.deepcopy(b)))


VALUES = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from((0.0, -0.0, 1e-20, -1e-20, 1e300, -1e300, np.inf, -np.inf, np.nan)),
    st.floats(),  # nan and infinities included: the arithmetic must match anyway
)


@st.composite
def threshold_cases(draw):
    """(thresholds, out_bits, out_bias, count_above, a, b); each part is
    sometimes malformed: a wrong count, unsorted rows, a wrong count_above
    length, zero scales, mismatched affine shapes."""
    channels = draw(st.integers(1, 3))
    bits = draw(st.integers(1, 3))
    width = (1 << bits) - 1 + draw(st.sampled_from((0,) * 6 + (-1, 1)))
    rows = []
    for _ in range(channels):
        if draw(st.integers(0, 3)):  # mostly ascending, unless nan or rounding intervenes
            rows.append(sorted(draw(st.lists(VALUES, min_size=width, max_size=width,
                                             unique=True))))
        else:
            rows.append(draw(st.lists(VALUES, min_size=width, max_size=width)))
    thresholds = np.array(rows) if channels > 1 or draw(st.booleans()) else np.array(rows[0])
    flips = draw(st.one_of(
        st.none(),
        st.lists(st.booleans(), min_size=channels, max_size=channels),
        st.lists(st.booleans(), min_size=1, max_size=4),
    ))

    def affine():
        if draw(st.booleans()):
            return draw(VALUES)
        size = draw(st.sampled_from((channels, channels, 1, channels + 1)))
        return draw(st.lists(VALUES, min_size=size, max_size=size))

    return thresholds, bits, draw(st.integers(-2, 2)), flips, affine(), affine()


class TestThresholdOracle:
    @settings(max_examples=300, deadline=None)
    @given(threshold_cases())
    # inf - inf is nan, so the frozen code takes equal infinities as ascending
    @example((np.array([[0.0, np.inf, np.inf]]), 2, 0, None, -1.0, 0.0))
    # a NaN row is neither ascending nor not to the frozen code, which takes it
    @example((np.array([[2.0, np.nan, 1.0]]), 2, 0, None, 1.0, 0.0))
    @example((np.array([[0.0, 1.0, np.inf]]), 2, 0, None, 1.0, np.inf))  # inf - inf absorbed
    def test_matches_frozen_threshold_code(self, case):
        with np.errstate(all="ignore"):  # inf and nan warn, and warnings are errors here
            compare_threshold_code(*case)

    @pytest.mark.parametrize(
        "thresholds, flips, a, b, message",
        [
            ([[0.0, 1.0]], None, 1.0, 0.0, "needs 3 thresholds per channel, got 2"),
            ([[0.0, 2.0, 4.0], [0.0, 0.0, 1.0]], None, 1.0, 0.0, "strictly ascending"),
            ([[0.0, 2.0, 4.0], [0.0, 1.0, 2.0]], [True], 1.0, 0.0, "count_above length"),
            ([[0.0, 2.0, 4.0], [0.0, 1.0, 2.0]], None, [1.0, 0.0], 0.0, "zero scale"),
            ([[0.0, 2.0, 4.0], [0.0, 1.0, 2.0]], None, [1.0, 2.0, 3.0], 0.0, "broadcast"),
            ([[0.0, 2.0, 4.0], [0.0, 1.0, 2.0]], None, 1.0, [[1.0, 2.0]], "more dimensions"),
            # 1e-20 - 1 rounds to -1: well-formed rows collapse under absorption
            ([[0.0, 1e-20, 1.0]], None, 1.0, 1.0, "strictly ascending"),
        ],
        ids=["threshold_count", "not_ascending", "count_above_length", "zero_scale",
             "scale_shape", "bias_shape", "rounding_collapse"],
    )
    def test_malformed_cases_raise_the_same_error(self, thresholds, flips, a, b, message):
        err = compare_threshold_code(np.array(thresholds), 2, 0, flips, a, b)
        assert err is not None and err[0] is ValueError and message in err[1]
