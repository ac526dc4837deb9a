"""Differential test: the block-batched solve_lap and the corner-array
associate against the frozen row-by-row solver in ``lap_oracle``.

Pairs must be identical, ties included, since the tie rule is the oracle's
pop order. Inputs are small hypothesis matrices built to tie a lot (0/1
costs, sparse -IoU with -0.0 entries, tenths and near-equal float sums
whose reduced costs round below zero, all-zero rows and columns, duplicate
columns), each solved as drawn and transposed; dense uniform and digit
matrices with few ties; crowded -IoU matrices of about 100 x 105 from
synthetic scenes with clutter, where the tie walks are long; every matrix the
sort-crowd benchmark solves on two of its sequences; and one shrunk matrix per
rule that cuts a block tie walk and per shortcut that skips settled work.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lap_oracle
from motkit import assignment, metrics, synthetic
from motkit.assignment import associate, solve_lap
from motkit.geometry import BoundingBox, box_rows, iou_matrix

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import wl_sort  # noqa: E402

ENTRY_POOLS = {
    "binary": [0.0, 1.0],
    "sparse_iou": [-0.0, -0.0, -0.0, -0.1, -0.25, -0.5, -1.0],
    # sums that round differently from their nominal value, so potentials
    # built from them leave reduced costs a rounding step below zero
    "near_tie": [0.1 + 0.2, 0.3, 0.6 - 0.3, 0.1 * 3, 0.7 - 0.4, 1.0 / 3.0, 0.2, 0.1, 0.0],
    "tenths": [round(0.1 * k, 1) for k in range(10)],
}


@st.composite
def tie_heavy_costs(draw):
    m, n = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    pool = ENTRY_POOLS[draw(st.sampled_from(sorted(ENTRY_POOLS)))]
    cost = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n)))
    cost = cost.reshape(m, n)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        cost[i] = 0.0
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cost[:, j] = 0.0
    column = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=3)):
        cost[:, dst] = cost[:, src]
    return cost


@settings(max_examples=400, deadline=None)
@given(tie_heavy_costs())
def test_tie_heavy_pairs_match_oracle(cost):
    assert solve_lap(cost) == lap_oracle.solve_lap(cost)
    assert solve_lap(cost.T) == lap_oracle.solve_lap(cost.T)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.sampled_from(["uniform", "digits"]),
    st.integers(0, 2**32 - 1),
)
def test_dense_pairs_match_oracle(m, n, kind, seed):
    """Dense costs, away from the sparse -IoU pattern SORT solves: the block
    cut rules meet fresh ties at random places."""
    rng = np.random.default_rng(seed)
    cost = rng.random((m, n)) if kind == "uniform" else rng.integers(0, 10, (m, n)).astype(float)
    assert solve_lap(cost) == lap_oracle.solve_lap(cost)
    assert solve_lap(cost.T) == lap_oracle.solve_lap(cost.T)


# Found by searching random matrices for inputs on which a solver that
# dropped one of the block cut rules disagreed with the oracle, then
# shrunk. Sums of tenths leave reduced costs a rounding step below zero.
WALK_CUTS = {
    # a row leaves a value below 0 in an unused column mid-walk
    "below_zero": [
        [0.6, 0.3, 0.8, 0.5, 0.3, 0.8, 0.9],
        [0.0, 0.2, 0.4, 0.7, 0.7, 0.0, 0.4],
        [0.5, 0.6, 0.1, 0.0, 0.9, 0.3, 0.4],
        [0.0, 0.0, 0.4, 0.9, 0.9, 0.7, 0.9],
        [0.4, 0.7, 0.9, 0.7, 0.8, 0.4, 0.6],
        [0.7, 0.0, 0.1, 0.0, 0.0, 0.2, 0.4],
        [0.8, 0.4, 0.5, 0.4, 0.3, 0.3, 0.6],
    ],
    # ... in a column of the walk that comes after the row's own
    "below_zero_in_later_walk_column": [
        [0.9, 0.2, 0.7, 0.6, 0.5, 0.2, 0.6],
        [0.4, 0.2, 0.7, 0.2, 0.5, 0.1, 0.8],
        [0.2, 0.8, 0.2, 0.9, 0.2, 0.9, 0.1],
        [0.6, 0.7, 0.9, 0.7, 0.7, 0.2, 0.0],
        [0.1, 0.9, 0.4, 0.3, 0.2, 0.0, 0.0],
        [0.9, 0.0, 0.3, 0.5, 0.1, 0.3, 0.0],
        [0.1, 0.3, 0.0, 0.6, 0.5, 0.9, 0.5],
    ],
    # ... in an unused column past the next walk column: the walk must turn
    # at once, not when it reaches that column
    "below_zero_past_next_walk_column": [
        [0.2, 0.5, 0.0, 0.7, 0.2, 0.0, 0.0, 0.6],
        [0.7, 0.6, 0.1, 0.4, 0.8, 0.1, 0.2, 0.6],
        [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6],
        [0.3, 0.4, 0.2, 0.3, 0.2, 0.8, 0.9, 0.6],
        [0.2, 0.9, 0.9, 0.8, 0.4, 0.0, 0.8, 0.7],
        [0.4, 0.6, 0.2, 0.8, 0.4, 0.9, 0.5, 0.9],
        [0.2, 0.6, 0.0, 0.7, 0.0, 0.0, 0.0, 0.6],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2],
    ],
    # an early row makes a column tight past the next walk column but
    # before a later one: the walk must turn to it there
    "tight_column_made_mid_walk": [
        [1, 1, 1, 0, 0, 1],
        [0, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1],
        [1, 1, 1, 1, 0, 0],
        [1, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1],
    ],
}


@pytest.mark.parametrize("name", sorted(WALK_CUTS))
def test_walk_cut_regressions(name):
    cost = np.array(WALK_CUTS[name], dtype=float)
    assert solve_lap(cost) == lap_oracle.solve_lap(cost)


# One matrix per shortcut that lets solve_lap skip work whose outcome the tie
# rule already fixes. Each was found by searching tie-heavy matrices for one
# that takes the shortcut's path and on which a solver with that shortcut's
# guard dropped or broken (named per entry) disagreed with the oracle, then
# shrunk. Two guards, the own-column exclusion and the delta-0 skip, only
# cost time when dropped; those entries are the smallest matrices found that
# reach the state the guard must tolerate.
SHORTCUTS = {
    # row 2 starts a search whose first scan clashes: a run built without
    # probing it would settle it in column 0 over row 0
    "first_row_clashes": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    # a search of one-row blocks, each scanned as a vector: subtracting v
    # before u rounds differently from the oracle's (cost - u) - v
    "one_row_chain": [
        [-0.0, -0.0, -0.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [-0.0, -0.0, -0.1, -0.1],
        [-1.0, -1.0, -1.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
    ],
    # an uncut block before a free column ends the search there although a
    # block row's reduced cost in its own column rounds below 0
    "own_column_below_zero": [[0.1, 0.2, 0.3], [0.5, 0.5, 0.6], [0.5, 0.5, 0.6], [0.5, 0.5, 0.6]],
    # the last block row makes a column tight before the free one: ending
    # there, as an uncut block alone would allow, pairs the wrong row
    "tight_before_free": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    # pops at delta 0 skip the potential updates, keeping a -0.0 in u or v
    # where the oracle holds +0.0, and later scans read it
    "zero_potential": [[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [-0.1, -0.0, -0.0]],
}


@pytest.mark.parametrize("name", sorted(SHORTCUTS))
def test_shortcut_regressions(name):
    cost = np.array(SHORTCUTS[name], dtype=float)
    assert solve_lap(cost) == lap_oracle.solve_lap(cost)


def test_pop_order_is_not_lowest_pairs():
    """The tie rule is the oracle's pop order, not the lexicographically
    lowest optimum: here (0, 0), (1, 2), (2, 1) also costs 0."""
    cost = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert solve_lap(cost) == lap_oracle.solve_lap(cost) == [(0, 2), (1, 0), (2, 1)]


def crowded_scene(seed, n_objects=100, clutter=5, image=(640, 480)):
    """Boxes of two consecutive synthetic frames, the second with clutter."""
    rng = np.random.default_rng(seed)
    _, dets = synthetic.generate_sequence(n_objects, 2, 2.0, seed, image)
    before = [box for _, box in dets[1]]
    after = [box for _, box in dets[2]]
    for _ in range(clutter):
        w, h = rng.uniform(16.0, 64.0, 2)
        x, y = rng.uniform(0.0, image[0] - w), rng.uniform(0.0, image[1] - h)
        after.append(BoundingBox(x, y, x + w, y + h))
    return before, after


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_crowded_iou_pairs_match_oracle(seed):
    before, after = crowded_scene(seed)
    cost = -iou_matrix(before, after)
    assert cost.shape == (100, 105)
    assert solve_lap(cost) == lap_oracle.solve_lap(cost)
    assert solve_lap(cost.T) == lap_oracle.solve_lap(cost.T)


# sort-crowd pool sequences: 72 has the hardest first frame to score in the
# pool, 126 a middling one (the step counts in bench/digests.json)
BENCH_SEQUENCES = (72, 126)


def test_benchmark_laps_match_oracle(monkeypatch):
    """Every matrix that tracking and scoring two benchmark sequences pass to
    solve_lap, each as solved and transposed."""
    seen = {assignment: [], metrics: []}
    for module, costs in seen.items():

        def recording(cost, costs=costs):
            costs.append(np.array(cost, dtype=float))
            return solve_lap(cost)

        monkeypatch.setattr(module, "solve_lap", recording)
    for index in BENCH_SEQUENCES:
        gt_frames, dets = wl_sort.make_sequence(index)
        hyp, _ = wl_sort.track_sequence(gt_frames, dets)
        metrics.evaluate_sequence(gt_frames, hyp)
    assert len(seen[assignment]) == len(BENCH_SEQUENCES) * wl_sort.FRAMES
    assert seen[metrics]
    for cost in seen[assignment] + seen[metrics]:
        assert solve_lap(cost) == lap_oracle.solve_lap(cost)
        assert solve_lap(cost.T) == lap_oracle.solve_lap(cost.T)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    st.integers(0, 10_000),
)
def test_associate_matches_oracle(n_tracks, n_dets, iou_min, seed):
    rng = np.random.default_rng(seed)

    def boxes(k):
        out = []
        for x, y, w, h in zip(*rng.uniform(0, 60, (2, k)), *rng.integers(4, 30, (2, k))):
            out.append(BoundingBox(x, y, x + w, y + h))
        return out

    tracks, dets = boxes(n_tracks), boxes(n_dets)
    got = associate(box_rows(tracks)[:, :4], box_rows(dets)[:, :4], iou_min)
    want = lap_oracle.associate(tracks, dets, iou_min)
    assert [tuple(m) for m in got.matches.tolist()] == list(want.matches)
    assert tuple(got.unmatched_tracks.tolist()) == want.unmatched_tracks
    assert tuple(got.unmatched_detections.tolist()) == want.unmatched_detections


def test_zero_gate_matches_disjoint_pairs():
    """At iou_min == 0 every solver pair is a match, zero-IoU pairs included."""
    tracks = [BoundingBox(0, 0, 10, 10), BoundingBox(100, 0, 110, 10)]
    dets = [BoundingBox(200, 200, 210, 210), BoundingBox(1, 1, 11, 11), BoundingBox(50, 50, 60, 60)]
    got = associate(box_rows(tracks)[:, :4], box_rows(dets)[:, :4], iou_min=0.0)
    want = lap_oracle.associate(tracks, dets, iou_min=0.0)
    assert [tuple(m) for m in got.matches.tolist()] == list(want.matches) == [(0, 1), (1, 0)]
    assert got.unmatched_tracks.tolist() == []
    assert got.unmatched_detections.tolist() == [2]
