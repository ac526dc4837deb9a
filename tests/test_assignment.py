import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import translated
from motkit.assignment import associate, solve_lap
from motkit.geometry import BoundingBox, iou


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive oracle: best total over all one-to-one assignments."""
    m, n = cost.shape
    if m <= n:
        return min(
            sum(cost[i, p[i]] for i in range(m))
            for p in itertools.permutations(range(n), m)
        )
    return brute_force_min_cost(cost.T)


class TestSolveLap:
    def test_diagonal_dominance(self):
        assert solve_lap(np.array([[1.0, 2.0], [2.0, 1.0]])) == [(0, 0), (1, 1)]

    def test_single_cell(self):
        assert solve_lap(np.array([[5.0]])) == [(0, 0)]

    def test_empty(self):
        assert solve_lap(np.zeros((0, 3))) == []
        assert solve_lap(np.zeros((3, 0))) == []

    def test_rectangular_returns_min_side_pairs(self):
        pairs = solve_lap(np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 1.0]]))
        assert pairs == [(0, 0), (1, 2)]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_lap(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_random_5x5_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            cost = rng.integers(0, 20, size=(5, 5)).astype(float)
            pairs = solve_lap(cost)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == brute_force_min_cost(cost)

    def test_all_equal_costs_take_lexicographic_pairs(self):
        assert solve_lap(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.data(),
    )
    def test_optimal_on_rectangles(self, m, n, data):
        flat = data.draw(
            st.lists(st.integers(-20, 20), min_size=m * n, max_size=m * n)
        )
        cost = np.array(flat, dtype=float).reshape(m, n)
        pairs = solve_lap(cost)
        assert len(pairs) == min(m, n)
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        total = sum(cost[r, c] for r, c in pairs)
        assert total == pytest.approx(brute_force_min_cost(cost))


class TestAssociate:
    def test_identical_lists_match_perfectly(self):
        tracks = [BoundingBox(i * 30, 0, i * 30 + 20, 20) for i in range(4)]
        result = associate(tracks, list(tracks), iou_min=0.3)
        assert result.matches == tuple((i, i) for i in range(4))
        assert result.unmatched_tracks == ()
        assert result.unmatched_detections == ()

    def test_disjoint_pair_gated_out(self):
        result = associate(
            [BoundingBox(0, 0, 10, 10)], [BoundingBox(50, 50, 60, 60)], iou_min=0.3
        )
        assert result.matches == ()
        assert result.unmatched_tracks == (0,)
        assert result.unmatched_detections == (0,)

    def test_jittered_detections_match_identity(self):
        """Brute-force max-total-IoU over all 3! pairings agrees."""
        tracks = [BoundingBox(i * 40, 0, i * 40 + 20, 20) for i in range(3)]
        jitter = [(2, -1), (-2, 2), (1, 1)]
        dets = [translated(t, dx, dy) for t, (dx, dy) in zip(tracks, jitter)]

        best = max(
            itertools.permutations(range(3)),
            key=lambda p: sum(iou(tracks[i], dets[p[i]]) for i in range(3)),
        )
        assert best == (0, 1, 2)
        result = associate(tracks, dets, iou_min=0.3)
        assert result.matches == ((0, 0), (1, 1), (2, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10_000))
    def test_partition_invariant(self, n_tracks, n_dets, seed):
        rng = np.random.default_rng(seed)
        def rand_boxes(k):
            out = []
            for _ in range(k):
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(5, 30, 2)
                out.append(BoundingBox(x, y, x + w, y + h))
            return out

        tracks, dets = rand_boxes(n_tracks), rand_boxes(n_dets)
        result = associate(tracks, dets, iou_min=0.3)
        seen_t = [t for t, _ in result.matches] + list(result.unmatched_tracks)
        seen_d = [d for _, d in result.matches] + list(result.unmatched_detections)
        assert sorted(seen_t) == list(range(n_tracks))
        assert sorted(seen_d) == list(range(n_dets))

    def test_raising_gate_never_adds_matches(self):
        rng = np.random.default_rng(7)
        tracks = [
            BoundingBox(x, y, x + 20, y + 20)
            for x, y in rng.uniform(0, 100, size=(5, 2))
        ]
        dets = [translated(t, *rng.uniform(-8, 8, 2)) for t in tracks]
        counts = [
            len(associate(tracks, dets, iou_min=g).matches)
            for g in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_gate_bounds_checked(self):
        with pytest.raises(ValueError):
            associate([], [], iou_min=1.5)
