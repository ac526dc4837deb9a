import pytest

from conftest import (
    FORK_JOIN_WORKLOAD,
    burst_stream_graph,
    chain_stream_graph,
    fork_join_stream_graph,
)
from motkit.dataflow import (
    DEFAULT_CYCLE_CAP,
    Folding,
    GraphError,
    StreamGraph,
    probe_fifos,
    simulate,
    size_fifos,
    throughput,
)
from motkit.graph import Graph


class TestSimulate:
    def test_rate_matched_chain_completes_with_shallow_fifos(self):
        report = simulate(chain_stream_graph(), 20)
        assert report.completed
        assert report.delivered == 20
        assert all(occ <= 1 for occ in report.max_occupancy.values())

    def test_burst_through_shallow_fifo_completes_with_stalls(self):
        report = simulate(burst_stream_graph(burst_depth=2), 16)
        assert report.completed
        assert report.stall_cycles["producer"] > 0

    def test_burst_through_burst_sized_fifo_never_stalls(self):
        report = simulate(burst_stream_graph(burst_depth=8), 16)
        assert report.completed
        assert report.stall_cycles["producer"] == 0

    def test_burst_trace_is_hand_steppable(self):
        # src delivers 1 token/cycle starting cycle 2; the producer fires at
        # cycle 9 (8 tokens banked), completes at cycle 10 and dumps all 8
        # into the deep FIFO in that same cycle.
        report = simulate(burst_stream_graph(burst_depth=8), 16)
        assert report.max_occupancy["e1"] == 8
        assert report.max_occupancy["e0"] == 8
        assert report.max_occupancy["e2"] <= 2

    def test_deadlock_detected_with_join_and_full_edge_named(self):
        report = simulate(fork_join_stream_graph(), FORK_JOIN_WORKLOAD)
        assert report.outcome == "deadlock"
        assert not report.completed
        assert "join" in report.blocked_nodes
        assert "e2" in report.full_edges
        assert "e4" in report.empty_edges

    def test_sufficient_short_branch_depth_completes(self):
        report = simulate(
            fork_join_stream_graph({"e2": 16}), FORK_JOIN_WORKLOAD
        )
        assert report.completed
        assert report.delivered == FORK_JOIN_WORKLOAD

    def test_deterministic(self):
        a = simulate(fork_join_stream_graph({"e2": 16}), FORK_JOIN_WORKLOAD)
        b = simulate(fork_join_stream_graph({"e2": 16}), FORK_JOIN_WORKLOAD)
        assert a == b

    def test_occupancy_never_exceeds_depth(self):
        g = burst_stream_graph(burst_depth=3)
        report = simulate(g, 16)
        for eid, occ in report.max_occupancy.items():
            assert 0 <= occ <= g.edges[eid].depth

    def test_cap_exceeded_is_distinct_outcome(self):
        report = simulate(chain_stream_graph(), 1000, cycle_cap=10)
        assert report.outcome == "cap_exceeded"
        assert not report.completed

    def test_conservation_chain(self):
        report = simulate(chain_stream_graph(), 37)
        assert report.delivered == 37

    def test_conservation_through_rate_changing_node(self):
        g = StreamGraph()
        g.add_node("src")
        g.add_node("acc", consume=4, produce=4)
        g.add_node("sink")
        g.connect("src", "acc", depth=4)
        g.connect("acc", "sink", depth=4)
        report = simulate(g, 32)
        assert report.completed and report.delivered == 32

    def test_malformed_graph_distinct_from_deadlock(self):
        g = StreamGraph()
        g.add_node("only")
        with pytest.raises(GraphError):
            simulate(g, 4)
        g2 = StreamGraph()
        g2.add_node("a")
        g2.add_node("b")
        g2.add_node("c")
        g2.connect("a", "b")
        with pytest.raises(GraphError):  # c is stranded
            simulate(g2, 4)

    def test_bad_workload_rejected(self):
        with pytest.raises(GraphError):
            simulate(chain_stream_graph(), 0)

    def test_one_topological_order_per_run(self, monkeypatch):
        # validate's order serves the deadlock report and the probe's visit
        orders = []
        topo_order = Graph.topo_order

        def counted(g):
            orders.append(topo_order(g))
            return orders[-1]

        monkeypatch.setattr(Graph, "topo_order", counted)
        g = fork_join_stream_graph()
        assert g.validate() == orders[0]
        assert simulate(g, FORK_JOIN_WORKLOAD).outcome == "deadlock"
        probe_fifos(g, FORK_JOIN_WORKLOAD)
        assert len(orders) == 3


class TestFolding:
    """A folded node fires in its folding's cycles per output, the interval
    `throughput` gives it; a latency that says otherwise is refused."""

    FOLD8 = Folding(simd=2, pe=4, in_ch=8, out_ch=8, k=1)  # (8/2) * (8/4) = 8 cycles

    def _burst_graph(self, **producer):
        g = StreamGraph()
        g.add_node("src")
        g.add_node("producer", consume=8, produce=8, **producer)
        g.add_node("sink")
        g.connect("src", "producer", depth=8, edge_id="e0")
        g.connect("producer", "sink", depth=8, edge_id="e1")
        return g

    @pytest.mark.parametrize("latency", [{}, {"latency": 8}], ids=["default", "agreeing"])
    def test_folded_node_fires_in_cycles_per_output(self, latency):
        folded_graph = self._burst_graph(folding=self.FOLD8, **latency)
        folded = simulate(folded_graph, 32)
        assert folded == simulate(self._burst_graph(latency=8), 32)
        assert folded != simulate(self._burst_graph(), 32)
        assert probe_fifos(folded_graph, 32) == probe_fifos(self._burst_graph(latency=8), 32)

    @pytest.mark.parametrize(
        "run",
        [lambda g: simulate(g, 32), throughput, lambda g: size_fifos(g, 32)],
        ids=["simulate", "throughput", "size_fifos"],
    )
    def test_latency_disagreeing_with_folding_rejected(self, run):
        """A folding set on a built node meets its given latency in `run`;
        `add_node` refuses the pair itself (`test_given_latency_must_match_folding`)."""
        g = self._burst_graph(latency=4)
        g.nodes["producer"].folding = self.FOLD8
        with pytest.raises(GraphError, match="latency 4 disagrees with its folding's 8 cycles"):
            run(g)

    def test_given_latency_must_match_folding(self):
        """An explicit 1 is a given latency, not the default: 1 against 64 cycles."""
        g = StreamGraph()
        with pytest.raises(GraphError, match="latency 1 disagrees with its folding's 64 cycles"):
            g.add_node("m", latency=1, folding=Folding(1, 1, 8, 8))
        assert g.add_node("m", latency=64, folding=Folding(1, 1, 8, 8)).latency == 64
        assert g.add_node("f", folding=Folding(1, 1, 8, 8)).latency is None
        assert g.add_node("u").latency == 1

    def test_nonpositive_folding_rejected(self):
        with pytest.raises(GraphError, match="folding simd"):
            Folding(simd=0, pe=1, in_ch=8, out_ch=8)
        with pytest.raises(GraphError, match="folding k"):
            Folding(simd=1, pe=1, in_ch=8, out_ch=8, k=-1)


class TestFromJson:
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"nodes": {"a": {}}},
            {"nodes": ["a"]},
            {"nodes": [{"id": 7}]},
            {"nodes": [{"id": "a", "folding": [1, 1, 8, 8]}]},
            {"nodes": [{"id": "a", "folding": {"simd": 0, "pe": 1, "in_ch": 8, "out_ch": 8}}]},
            {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [{"src": "a"}]},
            {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [{"src": "a", "dst": "b", "id": 3}]},
            {"nodes": [{"id": "a", "folding": {}}]},
            {"nodes": [{"id": "a", "folding": False}]},
            {"nodes": [{"id": "a", "outputs_per_frame": "x"}]},
            {"nodes": [{"id": "a", "outputs_per_frame": 0}]},
        ],
    )
    def test_malformed_document_is_graph_error(self, doc):
        with pytest.raises(GraphError):
            StreamGraph.from_json_dict(doc)

    def test_round_trip(self):
        """A folded node's latency left out stays `null`; an unfolded one's is 1."""
        g = fork_join_stream_graph({"e2": 5})
        g.nodes["acc"].folding = Folding(simd=2, pe=4, in_ch=8, out_ch=8, k=3)
        g.nodes["acc"].latency = None
        doc = g.to_json_dict()
        assert doc["nodes"][3]["latency"] is None and doc["nodes"][0]["latency"] == 1
        assert StreamGraph.from_json_dict(doc).to_json_dict() == doc


class TestSizeFifos:
    def test_rate_matched_chain_recommends_one(self):
        rec = size_fifos(chain_stream_graph(), 20)
        assert all(depth <= 1 for depth in rec.values())

    def test_burst_edge_recommendation_is_exactly_the_burst(self):
        rec = size_fifos(burst_stream_graph(burst_depth=1), 16)
        assert rec["e1"] == 8

    def test_recommendations_suffice_by_construction(self):
        g = fork_join_stream_graph()
        rec = size_fifos(g, FORK_JOIN_WORKLOAD)
        sized = fork_join_stream_graph(rec)
        assert simulate(sized, FORK_JOIN_WORKLOAD).completed

    def test_recommendations_minimal_sufficient_on_deadlock_fixture(self):
        rec = size_fifos(fork_join_stream_graph(), FORK_JOIN_WORKLOAD)
        base = simulate(fork_join_stream_graph(rec), FORK_JOIN_WORKLOAD)
        assert base.completed
        for eid in rec:
            reduced = dict(rec)
            reduced[eid] = rec[eid] - 1
            report = simulate(fork_join_stream_graph(reduced), FORK_JOIN_WORKLOAD)
            assert report.outcome == "deadlock" or report.cycles > base.cycles, eid

    @pytest.mark.parametrize(
        "latency, cycle_cap, outcome",
        [
            (2**50, 2**55, "completed"),  # cycles far past 32 bits, exact
            (2**50, 2**50, "cap_exceeded"),
            (10**20, DEFAULT_CYCLE_CAP, "cap_exceeded"),  # a latency past int64
            (10**20, 10**30, "cap_exceeded"),  # simulate completes: past 2**60 cycles
        ],
    )
    def test_probe_of_long_latencies(self, latency, cycle_cap, outcome):
        g = StreamGraph()
        for nid, lat in (("src", 1), ("slow", latency), ("sink", 1)):
            g.add_node(nid, latency=lat)
        g.connect("src", "slow", edge_id="e0")
        g.connect("slow", "sink", edge_id="e1")
        if outcome != "completed":
            with pytest.raises(GraphError, match=f"^probe run did not complete: {outcome}$"):
                probe_fifos(g, 4, cycle_cap)
            return
        probe = probe_fifos(g, 4, cycle_cap)
        assert probe.cycles == 4 * latency + 3
        assert probe.max_occupancy == {"e0": 3, "e1": 1}
        g.edges["e0"].depth = 3
        assert simulate(g, 4, cycle_cap) == probe


class TestThroughput:
    def _matrix_node_graph(self, simd, pe):
        g = StreamGraph()
        g.add_node("src")
        g.add_node(
            "matrix",
            folding=Folding(simd=simd, pe=pe, in_ch=8, out_ch=8, k=1),
            outputs_per_frame=100,
        )
        g.connect("src", "matrix")
        return g

    def test_unfolded_matrix_node(self):
        # (8/1) * (8/1) * 1^2 cycles per output x 100 outputs
        assert throughput(self._matrix_node_graph(1, 1)) == 6400

    def test_fully_folded_matrix_node(self):
        assert throughput(self._matrix_node_graph(8, 8)) == 100

    def test_two_node_chain_takes_slower_interval(self):
        g = self._matrix_node_graph(1, 1)
        g.add_node(
            "fast",
            folding=Folding(simd=8, pe=8, in_ch=8, out_ch=8, k=1),
            outputs_per_frame=100,
        )
        g.connect("matrix", "fast")
        assert throughput(g) == 6400

    def test_doubling_folding_strictly_improves_until_other_dominates(self):
        g = self._matrix_node_graph(1, 1)
        g.add_node(
            "other",
            folding=Folding(simd=1, pe=1, in_ch=4, out_ch=4, k=1),
            outputs_per_frame=100,
        )
        g.connect("matrix", "other")
        seen = []
        for simd in (1, 2, 4, 8):
            g.nodes["matrix"].folding = Folding(simd=simd, pe=1, in_ch=8, out_ch=8, k=1)
            seen.append(throughput(g))
        assert seen == [6400, 3200, 1600, 1600]
        assert seen[0] > seen[1] > seen[2]  # strict until 'other' dominates

    def test_divisibility_violation_rejected(self):
        g = StreamGraph()
        g.add_node("bad", folding=Folding(simd=3, pe=1, in_ch=8, out_ch=8, k=1))
        with pytest.raises(GraphError):
            throughput(g)
