import json

import numpy as np
import pytest

from conftest import conv_block_graph, fork_add_chain, fork_join_graph, mul_conv_chain_graph
from motkit import streamline
from motkit.streamline import (
    GraphError,
    OpGraph,
    ScaleGroup,
    interpret,
    PASSES,
    apply_passes,
    load_graph,
    run_pipeline,
    save_graph,
    validate_scale_groups,
)


# A valid attr set for each kind that needs attrs, and the arity classes,
# written out here so a change to streamline.KINDS shows in these tests.
VALID_ATTRS = {
    "Mul": {"scale": 1.0},
    "Add": {"bias": 0.0},
    "Conv": {"weights": np.ones((1, 1, 1, 1))},
    "MultiThreshold": {"thresholds": np.zeros((1, 1)), "out_bits": 1},
    "Split": {"sizes": [1]},
    "MaxPool": {"kernel": 2},
    "Resize": {"factor": 2},
}
SINGLE_INPUT_KINDS = ("Output", "Conv", "Mul", "Add", "MultiThreshold", "Split", "MaxPool", "Resize")
JOIN_KINDS = ("Concat", "EltwiseAdd")


def single_output(outputs):
    (value,) = outputs.values()
    return value


def int_inputs(rng, shape=(2, 5, 5), lo=-8, hi=8):
    return rng.integers(lo, hi, size=shape).astype(float)


def assert_graphs_equivalent(g_before, g_after, shape=(2, 5, 5), trials=32, seed=0, exact=True):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = int_inputs(rng, shape)
        a = single_output(interpret(g_before, x))
        b = single_output(interpret(g_after, x))
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, atol=1e-12)


class TestInterpret:
    def test_identity_graph_passthrough(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("out", "Output")
        g.connect("in", "out")
        x = np.ones((1, 2, 2))
        assert np.array_equal(single_output(interpret(g, x)), x)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            interpret(OpGraph(), np.ones((1, 1, 1)))

    def test_cycle_rejected(self):
        g = OpGraph()
        g.add_node("a", "Mul", scale=1.0)
        g.add_node("b", "Mul", scale=1.0)
        g.connect("a", "b")
        g.connect("b", "a")
        with pytest.raises(GraphError):
            g.topo_order()

    @pytest.mark.parametrize("kind, attrs", list(VALID_ATTRS.items()))
    def test_missing_required_attr_rejected(self, kind, attrs):
        def chain(**node_attrs):
            g = OpGraph()
            g.add_node("in", "Input")
            g.add_node("op", kind, **node_attrs)
            g.add_node("out", "Output")
            g.connect("in", "op")
            g.connect("op", "out")
            return g

        chain(**attrs).validate()
        for name in attrs:
            rest = {k: v for k, v in attrs.items() if k != name}
            with pytest.raises(GraphError) as exc:
                chain(**rest).validate()
            assert str(exc.value) == f"{kind} node op lacks attr {name!r}"

    @pytest.mark.parametrize("kind", SINGLE_INPUT_KINDS + JOIN_KINDS)
    def test_wrong_input_count_rejected(self, kind):
        def fed_by(n_in):
            g = OpGraph()
            for i in range(3):
                g.add_node(f"in{i}", "Input")
            g.add_node("op", kind, **VALID_ATTRS.get(kind, {}))
            if kind != "Output":
                g.add_node("out", "Output")
                g.connect("op", "out")
            for i in range(n_in):
                g.connect(f"in{i}", "op", dst_in=i)
            return g

        good, bad = ((1,), (0, 2)) if kind in SINGLE_INPUT_KINDS else ((2, 3), (0, 1))
        for n_in in good:
            fed_by(n_in).validate()
        for n_in in bad:
            with pytest.raises(GraphError) as exc:
                fed_by(n_in).validate()
            want = (f"{kind} node op needs exactly 1 input, has {n_in}"
                    if kind in SINGLE_INPUT_KINDS else f"{kind} node op needs >= 2 inputs")
            assert str(exc.value) == want

    def test_input_with_inputs_rejected(self):
        g = OpGraph()
        g.add_node("a", "Input")
        g.add_node("b", "Input")
        g.connect("a", "b")
        with pytest.raises(GraphError) as exc:
            g.validate()
        assert str(exc.value) == "Input node b has inputs"

    def test_output_with_outputs_rejected(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("a", "Output")
        g.add_node("b", "Output")
        g.connect("in", "a")
        g.connect("a", "b")
        with pytest.raises(GraphError) as exc:
            g.validate()
        assert str(exc.value) == "Output node a has outputs"

    def test_unknown_kind_rejected(self):
        g = OpGraph()
        with pytest.raises(GraphError) as exc:
            g.add_node("x", "Relu")
        assert str(exc.value) == "unknown node kind 'Relu'"
        assert not g.nodes

    def test_split_concat_round_trip(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("split", "Split", sizes=[1, 2])
        g.add_node("concat", "Concat")
        g.add_node("out", "Output")
        g.connect("in", "split")
        g.connect("split", "concat", src_out=0, dst_in=0)
        g.connect("split", "concat", src_out=1, dst_in=1)
        g.connect("concat", "out")
        x = np.arange(12, dtype=float).reshape(3, 2, 2)
        assert np.array_equal(single_output(interpret(g, x)), x)

    def test_maxpool_and_resize(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("pool", "MaxPool", kernel=2, stride=2)
        g.add_node("up", "Resize", factor=2)
        g.add_node("out", "Output")
        g.connect("in", "pool")
        g.connect("pool", "up")
        g.connect("up", "out")
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = single_output(interpret(g, x))
        assert out.shape == (1, 2, 2)
        assert np.all(out == 4.0)

    @pytest.mark.parametrize("join", JOIN_KINDS)
    def test_join_of_mismatched_maps_rejected_with_node_named(self, join):
        # SPPF without padding: a 3x3 stride-1 pool shrinks 4x4 to 2x2
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("pool", "MaxPool", kernel=3, stride=1)
        g.add_node("cat", join)
        g.add_node("out", "Output")
        g.connect("in", "pool")
        g.connect("in", "cat", dst_in=0)
        g.connect("pool", "cat", dst_in=1)
        g.connect("cat", "out")
        with pytest.raises(GraphError) as exc:
            interpret(g, np.ones((2, 4, 4)))
        assert str(exc.value).startswith(f"{join} cat: inputs [(2, 4, 4), (2, 2, 2)] differ in ")

    def test_eltwise_add_of_different_channel_counts_rejected(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("split", "Split", sizes=[1, 2])
        g.add_node("sum", "EltwiseAdd")
        g.add_node("out", "Output")
        g.connect("in", "split")
        g.connect("split", "sum", src_out=0, dst_in=0)
        g.connect("split", "sum", src_out=1, dst_in=1)
        g.connect("sum", "out")
        with pytest.raises(GraphError, match=r"^EltwiseAdd sum: inputs .* differ in shape$"):
            interpret(g, np.ones((3, 2, 2)))

    def test_conv_block_runs(self):
        out = single_output(interpret(conv_block_graph(), np.ones((2, 4, 4))))
        assert out.shape == (2, 5, 5)

    def test_orders_the_graph_once(self, monkeypatch):
        calls = []
        topo_order = OpGraph.topo_order
        monkeypatch.setattr(OpGraph, "topo_order", lambda g: calls.append(1) or topo_order(g))
        g = conv_block_graph()
        for n in range(1, 4):
            interpret(g, np.ones((2, 4, 4)))
            assert len(calls) == n


class TestAbsorbAffine:
    def test_mul_add_chain_folds_to_hand_computed_thresholds(self):
        # Mul(2) -> Add(1) -> MT{1,3,5} becomes MT{(t-1)/2} = {0,1,2}
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=2.0)
        g.add_node("a", "Add", bias=1.0)
        g.add_node("mt", "MultiThreshold", thresholds=np.array([1.0, 3.0, 5.0]), out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "a"), ("a", "mt"), ("mt", "out")):
            g.connect(src, dst)
        g2 = g.copy()
        apply_passes(g2, ["absorb_affine"])
        kinds = sorted(n.kind for n in g2.nodes.values())
        assert kinds == ["Input", "MultiThreshold", "Output"]
        mt = next(n for n in g2.nodes.values() if n.kind == "MultiThreshold")
        assert np.array_equal(mt.attrs["thresholds"], [[0.0, 1.0, 2.0]])
        assert_graphs_equivalent(g, g2, shape=(1, 3, 3))

    def test_identity_mul_absorbs_without_change(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=1.0)
        g.add_node("mt", "MultiThreshold", thresholds=np.array([0.0, 2.0, 4.0]), out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "mt"), ("mt", "out")):
            g.connect(src, dst)
        g2 = g.copy()
        apply_passes(g2, ["absorb_affine"])
        mt = next(n for n in g2.nodes.values() if n.kind == "MultiThreshold")
        assert np.array_equal(mt.attrs["thresholds"], [[0.0, 2.0, 4.0]])

    def test_zero_scale_refused_with_node_named(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("bad_mul", "Mul", scale=0.0)
        g.add_node("mt", "MultiThreshold", thresholds=np.array([0.0, 2.0, 4.0]), out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "bad_mul"), ("bad_mul", "mt"), ("mt", "out")):
            g.connect(src, dst)
        with pytest.raises(GraphError, match="bad_mul"):
            apply_passes(g, ["absorb_affine"])

    def test_descending_thresholds_refused_even_if_absorbing_overflows(self):
        """Absorbing Mul(1e-10) would map these to inf, inf, inf, which no longer
        read as descending (inf - inf is nan): the thresholds a graph holds are
        checked before they are absorbed, not only the result."""
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=1e-10)
        g.add_node("mt", "MultiThreshold", thresholds=np.array([1e300, 1e299, 1e298]),
                   out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "mt"), ("mt", "out")):
            g.connect(src, dst)
        with pytest.raises(ValueError, match="strictly ascending"):
            run_pipeline(g)

    def test_thresholds_absorbed_past_float_range_interpret_as_before(self):
        """Mul(0.1) maps these thresholds past float range, to inf, inf, inf;
        the streamlined graph interprets like the original, warning-free."""
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=0.1)
        g.add_node("mt", "MultiThreshold", thresholds=np.array([1e308, 1.2e308, 1.5e308]),
                   out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "mt"), ("mt", "out")):
            g.connect(src, dst)
        g2 = run_pipeline(g)
        assert np.isinf(g2.nodes["mt"].attrs["thresholds"]).all()
        x = np.array([-np.inf, 0.0, 1e308, 1.7e308, np.inf]).reshape(1, 1, 5)
        want = single_output(interpret(g, x))
        assert want.tolist() == [[[0, 0, 0, 0, 3]]]
        assert np.array_equal(single_output(interpret(g2, x)), want)

    @pytest.mark.parametrize("kind, attrs", [("Mul", {"scale": [2.0]}), ("Add", {"bias": [1.0]})])
    def test_parameter_that_misfits_the_channels_is_refused_as_interpret_does(self, kind, attrs):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("aff", kind, **attrs)
        g.add_node("mt", "MultiThreshold", thresholds=np.arange(12.0).reshape(4, 3), out_bits=2)
        g.add_node("out", "Output")
        for src, dst in (("in", "aff"), ("aff", "mt"), ("mt", "out")):
            g.connect(src, dst)
        message = r"^affine parameter shape \(1,\) does not fit 4 channels$"
        with pytest.raises(GraphError, match=message):
            interpret(g, np.zeros((4, 2, 2)))
        with pytest.raises(GraphError, match=message):
            run_pipeline(g)

    def test_randomized_chains_bit_equal(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            g = OpGraph()
            g.add_node("in", "Input")
            prev = "in"
            for i in range(rng.integers(1, 4)):
                kind = "Mul" if rng.random() < 0.5 else "Add"
                value = float(rng.choice([-3, -2, -1, 1, 2, 3]))
                g.add_node(f"aff{i}", kind, **({"scale": value} if kind == "Mul" else {"bias": value}))
                g.connect(prev, f"aff{i}")
                prev = f"aff{i}"
            thresholds = np.sort(rng.choice(np.arange(-40, 40), size=3, replace=False)).astype(float)
            g.add_node("mt", "MultiThreshold", thresholds=thresholds, out_bits=2)
            g.add_node("out", "Output")
            g.connect(prev, "mt")
            g.connect("mt", "out")
            g2 = g.copy()
            apply_passes(g2, ["absorb_affine"])
            assert sorted(n.kind for n in g2.nodes.values()) == ["Input", "MultiThreshold", "Output"]
            assert_graphs_equivalent(g, g2, shape=(1, 4, 4), trials=16, seed=trial)


class TestMoveScalePastConv:
    def _mul_conv_graph(self, scale):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=scale)
        g.add_node("conv", "Conv", weights=np.arange(-4.0, 4.0).reshape(2, 1, 2, 2), pad=1)
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "conv"), ("conv", "out")):
            g.connect(src, dst)
        return g

    def test_scalar_scale_moves_and_stays_equivalent(self):
        g = self._mul_conv_graph(0.5)
        g2 = g.copy()
        apply_passes(g2, ["move_scale_past_conv"])
        order = [g2.nodes[nid].kind for nid in g2.topo_order()]
        assert order == ["Input", "Conv", "Mul", "Output"]
        assert_graphs_equivalent(g, g2, shape=(1, 4, 4))

    def test_uniform_per_channel_treated_as_scalar(self):
        g = self._mul_conv_graph([0.5])
        g2 = g.copy()
        apply_passes(g2, ["move_scale_past_conv"])
        assert [g2.nodes[nid].kind for nid in g2.topo_order()] == [
            "Input", "Conv", "Mul", "Output",
        ]

    def test_scale_that_misfits_the_input_channels_is_refused_as_interpret_does(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=[2.0])
        g.add_node("conv", "Conv", weights=np.ones((2, 4, 1, 1)))
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "conv"), ("conv", "out")):
            g.connect(src, dst)
        message = r"^affine parameter shape \(1,\) does not fit 4 channels$"
        with pytest.raises(GraphError, match=message):
            interpret(g, np.zeros((4, 2, 2)))
        with pytest.raises(GraphError, match=message):
            apply_passes(g, ["move_scale_past_conv"])

    def test_conv_weights_that_are_not_4d_are_refused(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=2.0)
        g.add_node("conv", "Conv", weights=np.ones(3))
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "conv"), ("conv", "out")):
            g.connect(src, dst)
        with pytest.raises(GraphError, match=r"^Conv conv: weights of shape \(3,\) are not"):
            apply_passes(g, ["move_scale_past_conv"])

    def test_distinct_per_channel_scale_skipped_with_diagnostic(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m", "Mul", scale=[0.5, 2.0])
        g.add_node("conv", "Conv", weights=np.ones((1, 2, 1, 1)))
        g.add_node("out", "Output")
        for src, dst in (("in", "m"), ("m", "conv"), ("conv", "out")):
            g.connect(src, dst)
        diags = []
        g2 = g.copy()
        apply_passes(g2, ["move_scale_past_conv"], diags)
        assert g2.canonical_json() == g.canonical_json()
        assert len(diags) == 1 and "per-channel" in diags[0]


    def test_skipped_site_reported_once_across_rescans(self):
        g = mul_conv_chain_graph()
        diags = []
        assert apply_passes(g, ["move_scale_past_conv"], diags)
        assert diags == [
            "node m0: per-channel scale before Conv conv0 is not uniform; "
            "cannot move past a channel-mixing op"
        ]
        order = [g.nodes[nid].kind for nid in g.topo_order()]
        assert order == ["Input", "Mul"] + ["Conv"] * 4 + ["Mul"] * 3 + ["Output"]


class TestWorklist:
    def test_join_rechecked_when_a_later_rewrite_frees_its_producer(self):
        """The worklist re-queues the consumers of every node a rewrite
        touched: a producer's out-degree decides whether a join merges."""
        g = OpGraph()
        for nid, kind in (("in", "Input"), ("p", "Mul"), ("q", "Mul"), ("join", "Concat"),
                          ("out", "Output"), ("tap", "Output")):
            g.add_node(nid, kind, **({"scale": 2.0} if kind == "Mul" else {}))
        for src, dst, slot in (("in", "p", 0), ("in", "q", 0), ("p", "join", 0),
                               ("q", "join", 1), ("join", "out", 0), ("p", "tap", 0)):
            g.connect(src, dst, dst_in=slot)

        def move_tap(g, node, notes):
            tap_edge = g.in_edges("tap")[0]
            if node.id == "tap" and tap_edge.src == "p":
                g.reroute(tap_edge, src="in")  # ranks after join, frees p
                return True
            return False

        checks = [(move_tap, {"Output"}), (streamline._merge_affine_at_join_at, {"Concat"})]
        assert streamline._to_fixed_point(g, None, checks)
        assert "p" not in g.nodes and "q" not in g.nodes
        (merged,) = [e.dst for e in g.out_edges("join")]
        assert g.nodes[merged].kind == "Mul" and g._touched is None

    def test_reused_id_ranks_as_a_new_node(self):
        """A node added under a removed node's id is visited where a rescan
        meets it, after every older node, not at the removed node's rank."""
        g = OpGraph()
        for nid in ("a", "b", "c"):
            g.add_node(nid, "Mul", scale=1.0)
        visited = []

        def rewrite(g, node, notes):
            if node.id in visited or (node.id == "b" and "new" not in node.attrs):
                return False
            visited.append(node.id)
            if node.id == "a":
                g.remove_node("b")
                g.add_node("b", "Mul", scale=1.0, new=True)
            return True

        assert streamline._to_fixed_point(g, None, [(rewrite, {"Mul"})])
        assert visited == ["a", "c", "b"]


class TestReroute:
    @pytest.mark.parametrize(
        "ends", [{"src": "zzz"}, {"dst": "zzz"}, {"src": "b", "dst": "zzz"}],
        ids=["unknown_src", "unknown_dst", "known_src_unknown_dst"],
    )
    def test_unknown_end_refused_and_graph_unchanged(self, ends):
        g = OpGraph()
        for nid in ("a", "b"):
            g.add_node(nid, "Mul", scale=1.0)
        edge = g.connect("a", "b")
        before = g.canonical_json()
        with pytest.raises(GraphError, match="zzz"):
            g.reroute(edge, **ends)
        assert g.canonical_json() == before
        assert (edge.src, edge.dst) == ("a", "b")
        assert [g.out_edges(n) for n in ("a", "b")] == [[edge], []]
        assert [g.in_edges(n) for n in ("a", "b")] == [[], [edge]]


class TestForkJoinPasses:
    def test_fork_copies_affine_onto_each_branch(self):
        g = fork_join_graph()
        g2 = g.copy()
        apply_passes(g2, ["push_affine_through_fork"])
        muls = [n for n in g2.nodes.values() if n.kind == "Mul"]
        assert len(muls) == 2
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3))

    def test_fork_copies_add_onto_each_branch(self):
        g = OpGraph()
        for nid, kind in (("in", "Input"), ("a", "Add"), ("o1", "Output"), ("o2", "Output")):
            g.add_node(nid, kind, **({"bias": 1.0} if kind == "Add" else {}))
        for src, dst in (("in", "a"), ("a", "o1"), ("a", "o2")):
            g.connect(src, dst)
        g2 = g.copy()
        assert apply_passes(g2, ["push_affine_through_fork"])
        adds = [n for n in g2.nodes.values() if n.kind == "Add"]
        assert len(adds) == 2 and all(len(g2.out_edges(n.id)) == 1 for n in adds)
        x = np.arange(4.0).reshape(1, 2, 2)
        assert all(np.array_equal(v, x + 1.0) for v in interpret(g2, x).values())

    def test_join_with_identical_muls_merges_to_one(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m1", "Mul", scale=0.5)
        g.add_node("m2", "Mul", scale=0.5)
        g.add_node("join", "EltwiseAdd")
        g.add_node("out", "Output")
        g.connect("in", "m1")
        g.connect("in", "m2")
        g.connect("m1", "join", dst_in=0)
        g.connect("m2", "join", dst_in=1)
        g.connect("join", "out")
        g2 = g.copy()
        apply_passes(g2, ["merge_affine_at_join"])
        muls = [n for n in g2.nodes.values() if n.kind == "Mul"]
        assert len(muls) == 1
        order = [g2.nodes[nid].kind for nid in g2.topo_order()]
        assert order.index("EltwiseAdd") < order.index("Mul")
        assert_graphs_equivalent(g, g2, shape=(1, 3, 3))

    def test_join_with_differing_scales_left_alone_with_diagnostic(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("m1", "Mul", scale=0.5)
        g.add_node("m2", "Mul", scale=0.25)
        g.add_node("join", "EltwiseAdd")
        g.add_node("out", "Output")
        g.connect("in", "m1")
        g.connect("in", "m2")
        g.connect("m1", "join", dst_in=0)
        g.connect("m2", "join", dst_in=1)
        g.connect("join", "out")
        diags = []
        g2 = g.copy()
        apply_passes(g2, ["merge_affine_at_join"], diags)
        assert g2.canonical_json() == g.canonical_json()
        assert len(diags) == 1

    def test_concat_join_merges_per_channel_vectors(self):
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("split", "Split", sizes=[1, 1])
        g.add_node("m1", "Mul", scale=[0.5])
        g.add_node("m2", "Mul", scale=[0.5])
        g.add_node("join", "Concat")
        g.add_node("out", "Output")
        g.connect("in", "split")
        g.connect("split", "m1", src_out=0)
        g.connect("split", "m2", src_out=1)
        g.connect("m1", "join", dst_in=0)
        g.connect("m2", "join", dst_in=1)
        g.connect("join", "out")
        g2 = g.copy()
        apply_passes(g2, ["merge_affine_at_join"])
        muls = [n for n in g2.nodes.values() if n.kind == "Mul"]
        assert len(muls) == 1
        assert list(np.asarray(muls[0].attrs["scale"])) == [0.5, 0.5]
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3))


class TestApplyPasses:
    def test_unknown_name_raises_before_any_rewrite(self):
        g = conv_block_graph()
        assert apply_passes(g.copy(), ["absorb_affine"])
        before = g.canonical_json()
        with pytest.raises(ValueError, match="unknown pass 'frobnicate'; choose from"):
            apply_passes(g, ["absorb_affine", "frobnicate"])
        assert g.canonical_json() == before

    def test_passes_run_in_the_given_order(self):
        """Moving the input scale past the Conv first lets absorb fold it into
        the thresholds; absorbing first leaves it in front of them."""
        g = conv_block_graph()
        moved_first, absorbed_first = g.copy(), g.copy()
        apply_passes(moved_first, ["move_scale_past_conv", "absorb_affine"])
        apply_passes(absorbed_first, ["absorb_affine", "move_scale_past_conv"])
        assert moved_first.canonical_json() != absorbed_first.canonical_json()


class TestPipeline:
    def test_conv_block_reaches_streamlined_form(self):
        g = conv_block_graph()
        g2 = run_pipeline(g)
        assert_graphs_equivalent(g, g2, shape=(2, 4, 4), trials=64)
        affines = [n for n in g2.nodes.values() if n.kind in ("Mul", "Add")]
        # the only affine left is the output scale feeding Output
        assert len(affines) == 1
        (out_edge,) = g2.out_edges(affines[0].id)
        assert g2.nodes[out_edge.dst].kind == "Output"

    def test_pipeline_reports_each_diagnostic_once(self):
        diags = []
        run_pipeline(mul_conv_chain_graph(), diagnostics=diags)
        assert len(diags) == 1 and diags[0].startswith("node m0: per-channel scale")

    def test_passes_idempotent(self):
        g = conv_block_graph()
        for name in PASSES:
            once = g.copy()
            apply_passes(once, [name])
            twice = once.copy()
            apply_passes(twice, [name])
            assert once.canonical_json() == twice.canonical_json()

    def test_pipeline_preserves_acyclicity_and_validity(self):
        g = run_pipeline(conv_block_graph())
        g.validate()

    def test_fork_join_pipeline_equivalent(self):
        g = fork_join_graph()
        g2 = run_pipeline(g)
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3), trials=64)

    @pytest.mark.parametrize("blocks", [1, 9, 11, 40, 200])
    def test_one_call_streamlines_fork_add_chains(self, blocks):
        """However long the chain, one call leaves no Mul and nothing to
        report, and a second call changes nothing."""
        g = fork_add_chain(blocks)
        diags = []
        g2 = run_pipeline(g, diagnostics=diags)
        assert diags == [] and "Mul" not in {n.kind for n in g2.nodes.values()}
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3), trials=4)
        assert run_pipeline(g2).canonical_json() == g2.canonical_json()


def mutate_attrs(attrs: dict) -> None:
    """Change every array and list in `attrs` in place, nested ones included."""
    for value in attrs.values():
        if isinstance(value, np.ndarray):
            if value.dtype == bool:
                np.logical_not(value, out=value)
            else:
                value += 1
        elif isinstance(value, list):
            mutate_attrs(dict(enumerate(value)))
            value.append(0)
        elif isinstance(value, dict):
            mutate_attrs(value)


def attrs_json(attrs: dict) -> str:
    return json.dumps(
        {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in attrs.items()},
        sort_keys=True,
    )


class TestCopiesIndependent:
    """Copies share no array, list or dict with their source: changing one in
    place changes nothing else."""

    @staticmethod
    def graph() -> OpGraph:
        """A conv block whose attrs hold arrays, flat and nested lists and a
        dict, then a Split/Concat pair that no pass rewrites."""
        g = conv_block_graph()
        g.nodes["mul_in"].attrs["scale"] = [0.5, 0.5]
        g.nodes["mt"].attrs.update(
            thresholds=[[-24.0, 0.0, 24.0], [-96.0, 0.0, 96.0]],
            count_above=np.array([False, True]),
            meta={"tags": [1, [2]]},
        )
        g.remove_edge(g.in_edges("out")[0].id)
        g.add_node("split", "Split", sizes=[1, 1])
        g.add_node("cat", "Concat")
        g.connect("mul_out", "split")
        g.connect("split", "cat", src_out=0, dst_in=0)
        g.connect("split", "cat", src_out=1, dst_in=1)
        g.connect("cat", "out")
        g.validate()
        return g

    @pytest.mark.parametrize("make", [OpGraph.copy, run_pipeline], ids=["copy", "run_pipeline"])
    def test_changing_the_copy_leaves_the_source(self, make):
        g = self.graph()
        before = g.canonical_json()
        out = make(g)
        for node in out.nodes.values():
            mutate_attrs(node.attrs)
        assert out.canonical_json() != before
        assert g.canonical_json() == before

    def test_fork_branches_share_nothing(self):
        g = fork_join_graph()
        g.add_node("tap", "Output")
        g.connect("pre", "tap")
        pre = g.nodes["pre"].attrs
        pre.update(scale=np.array([0.5, 0.5]), meta={"tags": [1, [2]]})
        before = attrs_json(pre)
        apply_passes(g, ["push_affine_through_fork"])
        branches = [n.attrs for n in g.nodes.values() if n.kind == "Mul"]
        assert len(branches) == 3
        for i, attrs in enumerate(branches):
            others = [attrs_json(b) for j, b in enumerate(branches) if j != i]
            mutate_attrs(attrs)
            assert [attrs_json(b) for j, b in enumerate(branches) if j != i] == others
        assert attrs_json(pre) == before


class TestScaleGroups:
    def _tagged_graph(self, scales):
        g = OpGraph()
        g.add_node("in", "Input")
        prev = "in"
        for i, s in enumerate(scales):
            g.add_node(f"m{i}", "Mul", scale=1.0)
            g.connect(prev, f"m{i}", edge_id=f"e{i}", scale=s)
            prev = f"m{i}"
        g.add_node("out", "Output")
        g.connect(prev, "out", edge_id="e_last", scale=scales[-1])
        return g

    def test_consistent_group_empty_report(self):
        g = self._tagged_graph([0.5, 0.5, 0.5])
        assert validate_scale_groups(g, [ScaleGroup("red", ("e0", "e1", "e2"))]) == []

    def test_single_perturbed_scale_one_violation(self):
        g = self._tagged_graph([0.5, 0.25, 0.5])
        violations = validate_scale_groups(g, [ScaleGroup("red", ("e0", "e1", "e2"))])
        assert len(violations) == 1
        assert violations[0].edge_id == "e1"
        assert violations[0].expected == 0.5 and violations[0].found == 0.25

    def test_dangling_edge_rejected(self):
        g = self._tagged_graph([0.5])
        with pytest.raises(GraphError):
            validate_scale_groups(g, [ScaleGroup("red", ("nope",))])

    def test_c2f_pattern_first_conv_and_bottleneck_outputs_share_scale(self):
        # first Conv output and the Bottleneck's second Conv output must
        # carry one common scale for the later merge to be legal
        g = OpGraph()
        g.add_node("in", "Input")
        g.add_node("conv1", "Conv", weights=np.ones((2, 2, 1, 1)))
        g.add_node("bconv2", "Conv", weights=np.ones((2, 2, 1, 1)))
        g.add_node("join", "EltwiseAdd")
        g.add_node("out", "Output")
        g.connect("in", "conv1")
        g.connect("conv1", "bconv2", edge_id="first_conv_out", scale=0.125)
        g.connect("conv1", "join", dst_in=0, edge_id="skip", scale=0.125)
        g.connect("bconv2", "join", dst_in=1, edge_id="bottleneck_out", scale=0.125)
        g.connect("join", "out", edge_id="sum_out", scale=0.25)
        group = ScaleGroup("red", ("first_conv_out", "skip", "bottleneck_out"))
        assert validate_scale_groups(g, [group]) == []


class TestSerialization:
    def test_round_trip_preserves_semantics_and_bytes(self, tmp_path):
        g = conv_block_graph()
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g.canonical_json() == g2.canonical_json()
        assert_graphs_equivalent(g, g2, shape=(2, 4, 4), trials=8)
        path2 = tmp_path / "again.json"
        save_graph(g2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_json_is_plain_document(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(conv_block_graph(), path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"nodes", "edges", "fresh_id"}
        assert doc["fresh_id"] == 7  # the fixture's seven edges drew fresh ids

    def test_edge_shape_key_is_ignored(self):
        """Documents that carry an edge ``shape`` (null, as written before
        edges dropped it, or a list) load as if it were absent."""
        doc = conv_block_graph().to_json_dict()
        assert all("shape" not in e for e in doc["edges"])
        for shape in (None, [2, 4, 4], 5):
            old = json.loads(json.dumps(doc))
            for e in old["edges"]:
                e["shape"] = shape
            assert OpGraph.from_json_dict(old).canonical_json() == json.dumps(doc, sort_keys=True)
