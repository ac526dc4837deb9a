import json

import numpy as np
import pytest

from conftest import conv_block_graph, fork_join_graph, mul_conv_chain_graph
from motkit.streamline import (
    GraphError,
    OpGraph,
    ScaleGroup,
    interpret,
    load_graph,
    pass_absorb_affine,
    pass_merge_affine_at_join,
    pass_move_scale_past_conv,
    pass_push_affine_through_fork,
    run_pipeline,
    save_graph,
    validate_scale_groups,
)


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
        pass_absorb_affine(g2)
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
        pass_absorb_affine(g2)
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
            pass_absorb_affine(g)

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
            pass_absorb_affine(g2)
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
        pass_move_scale_past_conv(g2)
        order = [g2.nodes[nid].kind for nid in g2.topo_order()]
        assert order == ["Input", "Conv", "Mul", "Output"]
        assert_graphs_equivalent(g, g2, shape=(1, 4, 4))

    def test_uniform_per_channel_treated_as_scalar(self):
        g = self._mul_conv_graph([0.5])
        g2 = g.copy()
        pass_move_scale_past_conv(g2)
        assert [g2.nodes[nid].kind for nid in g2.topo_order()] == [
            "Input", "Conv", "Mul", "Output",
        ]

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
        pass_move_scale_past_conv(g2, diags)
        assert g2.canonical_json() == g.canonical_json()
        assert len(diags) == 1 and "per-channel" in diags[0]


    def test_skipped_site_reported_once_across_rescans(self):
        g = mul_conv_chain_graph()
        diags = []
        assert pass_move_scale_past_conv(g, diags)
        assert diags == [
            "node m0: per-channel scale before Conv conv0 is not uniform; "
            "cannot move past a channel-mixing op"
        ]
        order = [g.nodes[nid].kind for nid in g.topo_order()]
        assert order == ["Input", "Mul"] + ["Conv"] * 4 + ["Mul"] * 3 + ["Output"]


class TestForkJoinPasses:
    def test_fork_copies_affine_onto_each_branch(self):
        g = fork_join_graph()
        g2 = g.copy()
        pass_push_affine_through_fork(g2)
        muls = [n for n in g2.nodes.values() if n.kind == "Mul"]
        assert len(muls) == 2
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3))

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
        pass_merge_affine_at_join(g2)
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
        pass_merge_affine_at_join(g2, diags)
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
        pass_merge_affine_at_join(g2)
        muls = [n for n in g2.nodes.values() if n.kind == "Mul"]
        assert len(muls) == 1
        assert list(np.asarray(muls[0].attrs["scale"])) == [0.5, 0.5]
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3))


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
        for p in (
            pass_move_scale_past_conv,
            pass_push_affine_through_fork,
            pass_merge_affine_at_join,
            pass_absorb_affine,
        ):
            once = g.copy()
            p(once)
            twice = once.copy()
            p(twice)
            assert once.canonical_json() == twice.canonical_json()

    def test_pipeline_preserves_acyclicity_and_validity(self):
        g = run_pipeline(conv_block_graph())
        g.validate()

    def test_fork_join_pipeline_equivalent(self):
        g = fork_join_graph()
        g2 = run_pipeline(g)
        assert_graphs_equivalent(g, g2, shape=(2, 3, 3), trials=64)


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
        assert set(doc) == {"nodes", "edges"}
