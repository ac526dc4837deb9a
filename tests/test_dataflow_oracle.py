"""Differential test: the event-skipping simulator against the frozen stepper.

Graphs are chains, fork/joins and two-source DAGs with bursts of 1-8,
latencies of 1-64 and FIFO depths from 0 to two bursts, so runs complete,
deadlock (under-buffered edges, rate mismatches) and sit idle for long
latency countdowns. Every `SimReport` must equal the oracle's field by
field, with the same key order in its dicts, at a cycle cap of 1, below
completion, at it and above it; `size_fifos` must recommend the same depths
or fail with the same error. The same holds on every 2nd fifo-sweep pool
design that `simulate` steps at its given depths (its visit records, not the
closed form, make the report), at those depths and at half its cycles, and
on a fork/join declared sinks first, so that the report's key order
(insertion order) is not the topological order the simulator visits nodes in.

The folding test is metamorphic, since the oracle reads `node.latency` and
so never meets a folded node: folding every stage of a random case to cycles
per output equal to its latency must leave `simulate`'s reports and
`size_fifos`' depths unchanged, on stepped and on closed-form runs.

The graph-check test holds ``StreamGraph``'s adjacency order, topological
order and validation on the shared graph core to the frozen ones, on the same
graphs and on cyclic, stranded and isolated variants of them; a graph that
validates returns the frozen topological order from ``validate``.

The probe tests hold the closed-form `probe_fifos` to the oracle run at
`_token_bound` depths, on the same cases at the same cycle caps and on every
4th fifo-sweep pool design at the default cap.

The replay tests check the lemma that lets `size_fifos` skip its
verification run, on the same cases and on every 16th fifo-sweep pool
design: a completed run repeats, report and dict key order included, at
depths equal to its own peaks, and a run at the recommended depths repeats
the probe.

The path tests count calls to `simulate`'s closed-form helper, on the same
cases and on every 16th fifo-sweep pool design whose probe completes, at
depths equal to the probe's peaks or up to 4 deeper: there `simulate` calls
it and returns the oracle's report; with the cycle cap below completion it
calls it and reports `cap_exceeded` as the oracle does; and with one edge
shallower than its producer's burst the burst test keeps it from being
called, and the stepped run equals the oracle.

The kernel tests hold `_closed_form_run`, the closed form behind its memo, to
the frozen `oracle._closed_form` field by field and in dict key order, on the
same cases and on every 16th pool design, at the default cap, a cap below
completion and 50; a rate mismatch gives the "deadlock" and "cap_exceeded"
outcomes, and chains of 2**56- and 2**60-cycle firings hold int64 at its edge.
The memo tests count kernel runs: `simulate` then `size_fifos` runs it once
per design point; changing a node's `consume`, `produce`, `latency` or
`folding`, adding an edge, or changing the workload or cap between two calls
reruns it and gives the frozen kernel's fresh run; changing a returned
report's dicts changes no later report; and a fresh graph of equal content
runs it afresh.
"""

import contextlib
import copy
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dataflow_oracle as oracle
from conftest import (
    FORK_JOIN_WORKLOAD,
    burst_stream_graph,
    chain_stream_graph,
    fork_join_stream_graph,
)
from motkit import dataflow, streamline
from motkit.dataflow import Folding, GraphError, StreamGraph

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import wl_fifo  # noqa: E402  (the benchmark's pool of designs)


@st.composite
def stream_cases(draw):
    """(graph JSON document, workload) of a random small stream graph."""
    nodes: dict[str, dict] = {}
    edges: list[dict] = []

    def stage(nid: str, source: bool = False) -> str:
        burst = draw(st.integers(1, 8))
        rate_change = draw(st.sampled_from((False, False, False, True)))
        nodes[nid] = {
            "id": nid,
            "consume": 1 if source else burst,
            "produce": draw(st.integers(1, 8)) if rate_change else burst,
            "latency": draw(st.integers(1, 64)),
        }
        return nid

    def path(prefix: str, start: str, lengths) -> str:
        prev = start
        for k in range(draw(lengths)):
            prev = link(prev, stage(f"{prefix}{k}"))
        return prev

    def link(src: str, dst: str) -> str:
        edges.append({"id": f"{src}->{dst}", "src": src, "dst": dst})
        return dst

    shape = draw(st.sampled_from(["chain", "fork_join", "two_source"]))
    if shape == "chain":
        last = path("s", stage("src", source=True), st.integers(1, 4))
    elif shape == "fork_join":
        fork = path("p", stage("src", source=True), st.integers(0, 1))
        join = stage("join")
        for branch in "ab":
            link(path(branch, fork, st.integers(1, 3)), join)
        last = path("q", join, st.integers(0, 1))
    else:
        join = stage("join")
        for branch in "ab":
            link(path(branch, stage(f"src_{branch}", source=True), st.integers(0, 2)), join)
        last = path("q", join, st.integers(0, 2))
    if shape == "chain" or draw(st.booleans()):
        link(last, stage("sink"))  # else the join or the node after it sinks

    # Room for one to two bursts, or on some edges of an under-buffered
    # graph anything from 0.
    under = draw(st.booleans())
    for e in edges:
        burst = max(nodes[e["src"]]["produce"], nodes[e["dst"]]["consume"])
        low = 0 if under and draw(st.booleans()) else burst
        e["depth"] = draw(st.integers(low, 2 * burst))
    # A multiple of every burst when that stays small, so most runs can
    # complete; otherwise only of the source bursts, as simulate requires.
    bursts = [nodes[n][key] for n in nodes for key in ("consume", "produce")]
    unit = math.lcm(*bursts)
    if unit > 96:
        unit = math.lcm(*(nodes[n]["produce"] for n in nodes if n.startswith("src")))
    workload = unit * draw(st.integers(1, max(1, 96 // unit)))
    return {"nodes": list(nodes.values()), "edges": edges}, workload


def _fixture(graph: StreamGraph, workload: int):
    return graph.to_json_dict(), workload


def _assert_same_report(doc, workload, cycle_cap):
    want = oracle.simulate(StreamGraph.from_json_dict(doc), workload, cycle_cap)
    got = dataflow.simulate(StreamGraph.from_json_dict(doc), workload, cycle_cap)
    assert got == want, cycle_cap
    assert list(got.max_occupancy) == list(want.max_occupancy)
    assert list(got.stall_cycles) == list(want.stall_cycles)
    return want


def _sizing(size_fifos, doc, workload):
    try:
        return list(size_fifos(StreamGraph.from_json_dict(doc), workload).items())
    except GraphError as exc:
        return f"GraphError: {exc}"


def _simulate(g: StreamGraph, workload: int, cycle_cap: int = dataflow.DEFAULT_CYCLE_CAP):
    """`simulate`'s report and whether it was stepped, not a closed-form run it computed."""
    with _closed_form_calls() as runs:
        report = dataflow.simulate(g, workload, cycle_cap)
    return report, not any(run is report for run in runs)


@settings(max_examples=60, deadline=None)
@given(case=stream_cases(), data=st.data())
@example(case=_fixture(chain_stream_graph(), 20), data=None)
@example(case=_fixture(burst_stream_graph(burst_depth=2), 16), data=None)
@example(case=_fixture(fork_join_stream_graph(), FORK_JOIN_WORKLOAD), data=None)
def test_simulate_matches_oracle(case, data):
    doc, workload = case
    full = _assert_same_report(doc, workload, dataflow.DEFAULT_CYCLE_CAP)
    below = max(1, full.cycles - 1)
    if data is not None:
        below = data.draw(st.integers(1, below))
    for cycle_cap in {1, below, full.cycles, full.cycles + 7}:
        _assert_same_report(doc, workload, cycle_cap)
    assert _sizing(dataflow.size_fifos, doc, workload) == _sizing(
        oracle.size_fifos, doc, workload
    )


def test_fifo_sweep_pool_sample_matches_oracle():
    """Every 2nd pool design that `simulate` steps at its given depths (all
    of them take the frozen stepper about 20 s), at those depths and at half
    its cycles."""
    stepped = 0
    for index in range(0, wl_fifo.POOL, 2):
        g, tokens, _ = wl_fifo.make_design(index)
        if not _simulate(g, tokens)[1]:
            continue
        stepped += 1
        doc = g.to_json_dict()
        full = _assert_same_report(doc, tokens, dataflow.DEFAULT_CYCLE_CAP)
        _assert_same_report(doc, tokens, max(1, full.cycles // 2))
    assert wl_fifo.POOL // 4 < stepped < wl_fifo.POOL // 2


@pytest.mark.parametrize("depths", [None, {"e1": 8, "e2": 8}], ids=["deadlock", "complete"])
def test_sinks_first_fork_join_matches_oracle(depths):
    doc = fork_join_stream_graph(depths).to_json_dict()
    doc = {"nodes": doc["nodes"][::-1], "edges": doc["edges"][::-1]}
    g = StreamGraph.from_json_dict(doc)
    assert list(g.nodes)[0] == "sink" and g.topo_order()[0] == "src"
    full = _assert_same_report(doc, FORK_JOIN_WORKLOAD, dataflow.DEFAULT_CYCLE_CAP)
    assert full.outcome == ("deadlock" if depths is None else "completed")
    assert list(full.stall_cycles) == list(g.nodes) and list(full.max_occupancy) == list(g.edges)
    for cycle_cap in range(1, full.cycles + 2):
        _assert_same_report(doc, FORK_JOIN_WORKLOAD, cycle_cap)


def _folded(doc: dict, data) -> dict:
    """`doc` with each node's latency replaced by a folding of as many cycles
    per output, split at random among SIMD, PE, channels and kernel."""
    doc = copy.deepcopy(doc)
    for node in doc["nodes"]:
        latency = node.pop("latency")
        k = data.draw(st.sampled_from([k for k in range(1, 9) if latency % (k * k) == 0]))
        rest = latency // (k * k)
        split = data.draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0]))
        simd, pe = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        node["folding"] = {"simd": simd, "pe": pe, "in_ch": simd * split,
                           "out_ch": pe * (rest // split), "k": k}
    return doc


@settings(max_examples=60, deadline=None)
@given(case=stream_cases(), data=st.data())
def test_folded_latencies_run_alike(case, data):
    """Folding each stage to cycles per output equal to its latency changes
    no `simulate` report (key order included) and no `size_fifos` result,
    on a stepped run (one edge below its producer's burst) and on a
    closed-form one (every edge at its probe peak) as well as at the given depths."""
    doc, workload = case
    folded = _folded(doc, data)
    plain_g, folded_g = StreamGraph.from_json_dict(doc), StreamGraph.from_json_dict(folded)
    assert all(n.latency is None and n.folding is not None for n in folded_g.nodes.values())
    runs = {"given": {}}
    try:
        peaks = dataflow.probe_fifos(plain_g, workload).max_occupancy
    except GraphError:
        pass
    else:
        widest = max(plain_g.edges.values(), key=lambda e: plain_g.nodes[e.src].produce)
        runs["closed form"] = peaks
        runs["stepped"] = {**peaks, widest.id: plain_g.nodes[widest.src].produce - 1}
    for kind, depths in runs.items():
        want, stepped = _simulate(_at_depths(plain_g, depths), workload)
        got, folded_stepped = _simulate(_at_depths(folded_g, depths), workload)
        assert folded_stepped == stepped
        assert kind == "given" or stepped == (kind == "stepped")
        assert got == want
        assert list(got.max_occupancy) == list(want.max_occupancy)
        assert list(got.stall_cycles) == list(want.stall_cycles)
    assert _sizing(dataflow.size_fifos, folded, workload) == _sizing(
        dataflow.size_fifos, doc, workload)


def _at_depths(g: StreamGraph, depths) -> StreamGraph:
    """A copy of `g` whose edges have the given depths."""
    copied = StreamGraph.from_json_dict(g.to_json_dict())
    for eid, depth in depths.items():
        copied.edges[eid].depth = depth
    return copied


def _assert_probe_matches_oracle(doc, workload, caps_around_end=True):
    """`probe_fifos` equals the oracle run at token-bound depths, field by
    field and in key order, or fails naming that run's outcome; at the default
    cycle cap and, if asked, at 1, T-1, T and T+1 around the run's last cycle T."""
    g = StreamGraph.from_json_dict(doc)
    deep = _at_depths(g, oracle._token_bound(g, workload))
    runs = {dataflow.DEFAULT_CYCLE_CAP: oracle.simulate(deep, workload)}
    if caps_around_end:
        end = runs[dataflow.DEFAULT_CYCLE_CAP].cycles
        for cycle_cap in {1, max(1, end - 1), end, end + 1}:
            runs[cycle_cap] = oracle.simulate(deep, workload, cycle_cap)
    for cycle_cap, want in runs.items():
        try:
            got = dataflow.probe_fifos(g, workload, cycle_cap)
        except GraphError as exc:
            assert not want.completed, cycle_cap
            assert str(exc) == f"probe run did not complete: {want.outcome}", cycle_cap
            continue
        assert got == want, cycle_cap
        assert list(got.max_occupancy) == list(want.max_occupancy)
        assert list(got.stall_cycles) == list(want.stall_cycles)


@settings(max_examples=60, deadline=None)
@given(case=stream_cases())
@example(case=_fixture(chain_stream_graph(), 20))
@example(case=_fixture(burst_stream_graph(burst_depth=2), 16))
@example(case=_fixture(fork_join_stream_graph(), FORK_JOIN_WORKLOAD))
def test_probe_matches_oracle_at_token_bound_depths(case):
    _assert_probe_matches_oracle(*case)


def test_fifo_sweep_pool_probes_match_oracle():
    for index in range(0, wl_fifo.POOL, 4):
        g, tokens, _ = wl_fifo.make_design(index)
        _assert_probe_matches_oracle(g.to_json_dict(), tokens, caps_around_end=False)


def _assert_replays(g, workload, depths, report):
    """`g` run at `depths` gives `report`, field by field and in key order."""
    again = dataflow.simulate(_at_depths(g, depths), workload)
    assert again == report
    assert list(again.max_occupancy) == list(report.max_occupancy)
    assert list(again.stall_cycles) == list(report.stall_cycles)


def _check_replay(g, workload) -> bool:
    """Replay a completed run at its own peaks and the probe at the
    recommended depths; True if the given-depth run completed with stalls."""
    given_run = dataflow.simulate(g, workload)
    if given_run.completed:
        _assert_replays(g, workload, given_run.max_occupancy, given_run)
    try:
        probe = dataflow.probe_fifos(g, workload)
    except GraphError:
        return False
    _assert_replays(g, workload, dataflow.size_fifos(g, workload), probe)
    return given_run.completed and any(given_run.stall_cycles.values())


@settings(max_examples=60, deadline=None)
@given(case=stream_cases())
@example(case=_fixture(chain_stream_graph(), 20))
@example(case=_fixture(burst_stream_graph(burst_depth=2), 16))
@example(case=_fixture(fork_join_stream_graph(), FORK_JOIN_WORKLOAD))
def test_runs_replay_at_their_own_peaks(case):
    doc, workload = case
    _check_replay(StreamGraph.from_json_dict(doc), workload)


def test_fifo_sweep_pool_sample_replays():
    stalled = 0
    for index in range(0, wl_fifo.POOL, 16):
        g, tokens, _ = wl_fifo.make_design(index)
        stalled += _check_replay(g, tokens)
    assert stalled > 0


@contextlib.contextmanager
def _closed_form_calls(name: str = "_closed_form"):
    """A list that gathers the result of each call to `dataflow.<name>`:
    `_closed_form`, or the kernel `_closed_form_run` behind its memo."""
    calls = []
    wrapped = getattr(dataflow, name)

    def counted(*args):
        calls.append(wrapped(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataflow, name, counted)
        yield calls


def _check_paths(g, workload, extra: int, below) -> bool:
    """Which path `simulate` takes at the probe's peaks plus `extra`, each
    path equal to the oracle; the cap below completion is `below(cycles)`.
    False if the probe does not complete."""
    try:
        peaks = dataflow.probe_fifos(g, workload).max_occupancy
    except GraphError:
        return False
    doc = _at_depths(g, {eid: peak + extra for eid, peak in peaks.items()}).to_json_dict()
    widest = max(g.edges.values(), key=lambda e: g.nodes[e.src].produce)
    with _closed_form_calls() as calls:
        full = _assert_same_report(doc, workload, dataflow.DEFAULT_CYCLE_CAP)
        assert full.completed and len(calls) == 1
        assert _assert_same_report(doc, workload, below(full.cycles)).outcome == "cap_exceeded"
        assert len(calls) == 2
        shallow = {**peaks, widest.id: g.nodes[widest.src].produce - 1}
        _assert_same_report(_at_depths(g, shallow).to_json_dict(), workload,
                            dataflow.DEFAULT_CYCLE_CAP)
        assert len(calls) == 2
    return True


@settings(max_examples=60, deadline=None)
@given(case=stream_cases(), data=st.data())
@example(case=_fixture(chain_stream_graph(), 20), data=None)
@example(case=_fixture(burst_stream_graph(burst_depth=2), 16), data=None)
@example(case=_fixture(fork_join_stream_graph(), FORK_JOIN_WORKLOAD), data=None)
def test_simulate_takes_the_closed_form_only_where_it_holds(case, data):
    doc, workload = case
    if data is None:
        extra, below = 0, lambda cycles: cycles - 1
    else:
        extra = data.draw(st.integers(0, 4))
        below = lambda cycles: data.draw(st.integers(1, cycles - 1))  # noqa: E731
    _check_paths(StreamGraph.from_json_dict(doc), workload, extra, below)


def test_fifo_sweep_pool_sample_takes_the_closed_form_only_where_it_holds():
    probed = 0
    for index in range(0, wl_fifo.POOL, 16):
        g, tokens, _ = wl_fifo.make_design(index)
        probed += _check_paths(g, tokens, index % 3, lambda cycles: cycles // 2)
    assert probed > 0


def _closed(closed_form, g: StreamGraph, workload: int,
            cycle_cap: int = dataflow.DEFAULT_CYCLE_CAP):
    """The closed-form run of `g` by `closed_form`: `dataflow._closed_form`
    (memo and kernel), `dataflow._closed_form_run` or the frozen `oracle._closed_form`."""
    return closed_form(g, *dataflow._run_latencies(g, workload, cycle_cap), workload, cycle_cap)


def _assert_same_run(got, want, cycle_cap):
    """Equal outcome names, or equal reports field by field, in key order,
    with Python int peaks."""
    assert got == want, cycle_cap
    if not isinstance(want, str):
        assert list(got.max_occupancy) == list(want.max_occupancy)
        assert list(got.stall_cycles) == list(want.stall_cycles)
        assert all(type(peak) is int for peak in got.max_occupancy.values())


def _check_kernel(doc, workload, below, caps=(dataflow.DEFAULT_CYCLE_CAP, 50)) -> set[str]:
    """The kernel equals the frozen closed form at each of `caps` and, under
    a completed run's last cycle, at `below(cycles)`; the outcomes seen."""
    g = StreamGraph.from_json_dict(doc)
    full = _closed(oracle._closed_form, g, workload)
    caps = set(caps)
    if not isinstance(full, str) and full.cycles > 1:
        caps.add(below(full.cycles))
    outcomes = set()
    for cycle_cap in caps:
        want = _closed(oracle._closed_form, g, workload, cycle_cap)
        got = _closed(dataflow._closed_form_run, g, workload, cycle_cap)
        _assert_same_run(got, want, cycle_cap)
        outcomes.add(want if isinstance(want, str) else want.outcome)
    return outcomes


# src -> a (consume 3) -> sink on 4 tokens: one token is left over, a deadlock.
RATE_MISMATCH = ({
    "nodes": [{"id": "src"}, {"id": "a", "consume": 3}, {"id": "sink"}],
    "edges": [{"src": "src", "dst": "a"}, {"src": "a", "dst": "sink"}],
}, 4)


@settings(max_examples=60, deadline=None)
@given(case=stream_cases(), data=st.data())
@example(case=RATE_MISMATCH, data=None)
@example(case=_fixture(chain_stream_graph(), 20), data=None)
@example(case=_fixture(fork_join_stream_graph(), FORK_JOIN_WORKLOAD), data=None)
def test_kernel_matches_frozen_closed_form(case, data):
    doc, workload = case
    if data is None:
        below = lambda cycles: cycles - 1  # noqa: E731
    else:
        below = lambda cycles: data.draw(st.integers(1, cycles - 1))  # noqa: E731
    _check_kernel(doc, workload, below)


def _long_chain(latency: int, stages: int = 12) -> StreamGraph:
    g = StreamGraph()
    prev = "src"
    g.add_node(prev, latency=latency)
    for nid in [f"s{k}" for k in range(stages)] + ["sink"]:
        g.add_node(nid, latency=latency)
        g.connect(prev, nid)
        prev = nid
    return g


def test_kernel_outcomes_match_frozen_closed_form():
    """Every outcome, each at the same caps as the frozen kernel's, and
    firings near the 2**60 cycles int64 must hold, completing or not."""
    outcomes = _check_kernel(*RATE_MISMATCH, None, caps=range(1, 12))
    assert outcomes == {"deadlock", "cap_exceeded"}
    for latency, cycle_cap, outcome in ((2**56, 2**62, "completed"),
                                        (2**60, 2**66, "cap_exceeded")):
        g = _long_chain(latency)
        want = _closed(oracle._closed_form, g, 1, cycle_cap)
        assert (want if isinstance(want, str) else want.outcome) == outcome
        _assert_same_run(_closed(dataflow._closed_form_run, g, 1, cycle_cap), want, cycle_cap)
    for index in range(0, wl_fifo.POOL, 16):
        g, tokens, _ = wl_fifo.make_design(index)
        outcomes |= _check_kernel(g.to_json_dict(), tokens, lambda cycles: cycles // 2)
    assert outcomes == {"completed", "deadlock", "cap_exceeded"}


def test_simulate_then_size_fifos_runs_the_kernel_once():
    """One kernel run per design point, whether `simulate` or `size_fifos`
    runs it, and the oracle's report and the frozen kernel's depths."""
    in_simulate = 0
    for index in range(0, wl_fifo.POOL, 16):
        g, tokens, _ = wl_fifo.make_design(index)
        probe = _closed(oracle._closed_form, g, tokens)
        if index % 2 and not isinstance(probe, str):  # at the probe's own peaks
            g = _at_depths(g, probe.max_occupancy)
        doc = g.to_json_dict()
        with _closed_form_calls("_closed_form_run") as runs:
            report = dataflow.simulate(g, tokens)
            in_simulate += len(runs)
            try:
                depths = list(dataflow.size_fifos(g, tokens).items())
            except GraphError as exc:
                depths = f"GraphError: {exc}"
        assert len(runs) == 1, index
        assert report == oracle.simulate(StreamGraph.from_json_dict(doc), tokens)
        assert depths == (f"GraphError: probe run did not complete: {probe}"
                          if isinstance(probe, str) else list(probe.max_occupancy.items()))
    assert 0 < in_simulate < len(range(0, wl_fifo.POOL, 16))


def _folded_fork_join() -> StreamGraph:
    """The fork/join fixture with its accumulator folded to its own 8 cycles."""
    g = fork_join_stream_graph()
    g.nodes["acc"].latency, g.nodes["acc"].folding = None, Folding(2, 4, 8, 8)
    return g


MUTATIONS = {
    "consume": lambda g: setattr(g.nodes["join"], "consume", 2),
    "produce": lambda g: setattr(g.nodes["acc"], "produce", 4),
    "latency": lambda g: setattr(g.nodes["bshort"], "latency", 3),
    "folding": lambda g: setattr(g.nodes["acc"], "folding", Folding(1, 4, 8, 8)),
    "edge": lambda g: g.connect("fork", "join", 2, "extra"),
}


@pytest.mark.parametrize("change", [*MUTATIONS, "workload", "cycle_cap"])
def test_closed_form_memo_follows_what_the_run_reads(change):
    """Each change between two calls on one graph gives the frozen kernel's
    fresh run, not the stored one, from a second kernel run."""
    g, workload, cycle_cap = _folded_fork_join(), FORK_JOIN_WORKLOAD, dataflow.DEFAULT_CYCLE_CAP
    with _closed_form_calls("_closed_form_run") as runs:
        stored = _closed(dataflow._closed_form, g, workload)
        fresh = _closed(oracle._closed_form, _folded_fork_join(), workload)
        _assert_same_run(stored, fresh, cycle_cap)
        if change == "workload":
            workload *= 2
        elif change == "cycle_cap":
            cycle_cap = stored.cycles - 1
        else:
            MUTATIONS[change](g)
        got = _closed(dataflow._closed_form, g, workload, cycle_cap)
        assert len(runs) == 2
    _assert_same_run(got, _closed(oracle._closed_form, g, workload, cycle_cap), cycle_cap)
    assert got != stored


def test_closed_form_memo_hands_out_copies():
    """Changing a returned report's dicts, or `size_fifos`' depths, changes
    none that a later call on the graph returns; none of them reruns the kernel."""
    want = _closed(oracle._closed_form, fork_join_stream_graph(), FORK_JOIN_WORKLOAD)
    g = _at_depths(fork_join_stream_graph(), want.max_occupancy)  # covered, so no stepping
    with _closed_form_calls("_closed_form_run") as runs:
        for call in (dataflow.simulate, dataflow.probe_fifos, dataflow.probe_fifos):
            report = call(g, FORK_JOIN_WORKLOAD)
            _assert_same_run(report, want, call)
            report.max_occupancy["e2"] = 99
            report.stall_cycles["src"] = 5
            depths = dataflow.size_fifos(g, FORK_JOIN_WORKLOAD)
            assert depths == want.max_occupancy
            depths.clear()
    assert len(runs) == 1


def test_fresh_graph_of_equal_content_recomputes():
    g = fork_join_stream_graph()
    dataflow.probe_fifos(g, FORK_JOIN_WORKLOAD)
    with _closed_form_calls("_closed_form_run") as runs:
        dataflow.probe_fifos(g, FORK_JOIN_WORKLOAD)
        assert not runs
        twin = StreamGraph.from_json_dict(g.to_json_dict())
        assert dataflow.probe_fifos(twin, FORK_JOIN_WORKLOAD) == dataflow.probe_fifos(
            g, FORK_JOIN_WORKLOAD)
        assert len(runs) == 1


def _outcome(fn, *args):
    """(result, None) or (None, GraphError message), with the frozen cycle
    message mapped to the shared core's: the one message that changed."""
    try:
        return fn(*args), None
    except GraphError as exc:
        msg = str(exc)
        return None, "graph contains a cycle" if msg == "stream graph contains a cycle" else msg


def _assert_same_checks(doc):
    g = StreamGraph.from_json_dict(doc)
    order, error = _outcome(g.validate)
    assert error == _outcome(oracle.validate, g)[1]
    assert order == (None if error else oracle.topo_order(g))
    assert _outcome(g.topo_order) == _outcome(oracle.topo_order, g)
    for nid in g.nodes:
        assert g.in_edges(nid) == oracle.in_edges(g, nid)
        assert g.out_edges(nid) == oracle.out_edges(g, nid)


def test_graph_errors_are_one_class():
    assert streamline.GraphError is dataflow.GraphError
    _assert_same_checks({"nodes": [], "edges": []})


@settings(max_examples=60, deadline=None)
@given(case=stream_cases(), data=st.data())
def test_graph_checks_match_oracle(case, data):
    doc, _ = case
    _assert_same_checks(doc)
    edge = data.draw(st.sampled_from(doc["edges"]))
    stem = data.draw(st.sampled_from(doc["nodes"]))["id"]
    variants = [
        # a back edge: a cycle, and no source left if it enters one
        ([], [{"id": "back", "src": edge["dst"], "dst": edge["src"]}]),
        # a stranded pair: fed from the graph but reaching no sink
        ([{"id": "x"}, {"id": "y"}], [
            {"id": "to_x", "src": stem, "dst": "x"},
            {"id": "x_y", "src": "x", "dst": "y"},
            {"id": "y_x", "src": "y", "dst": "x"},
        ]),
        ([{"id": "lone"}], []),  # an isolated node
    ]
    for nodes, edges in variants:
        bad = copy.deepcopy(doc)
        bad["nodes"] += nodes
        bad["edges"] += edges
        _assert_same_checks(bad)
