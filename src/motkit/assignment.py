"""Optimal detection-to-track matching with IoU gating.

solve_lap is a dense Jonker-Volgenant-style shortest-augmenting-path solver
(O(n^3)). Its result is deterministic, equal-cost optima included: it is
the one the plain row-by-row solver reaches when it adds rows in index
order and pops equally cheap columns in index order (frozen as the oracle
in tests/lap_oracle.py). That is not in general the lowest set of (row,
col) pairs. Keeping this tie rule is why the solver is hand-rolled rather
than delegated to a library; it batches that solver's steps into numpy
blocks without changing their outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import corner_iou


@dataclass(frozen=True)
class AssignmentResult:
    """Partition of track and detection indices into matches and leftovers:
    (K, 2) (track, detection) pairs in ascending track order, and the
    ascending indices left unmatched on each side."""

    matches: np.ndarray
    unmatched_tracks: np.ndarray
    unmatched_detections: np.ndarray


def solve_lap(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment on an m x n cost matrix.

    Returns min(m, n) (row, col) pairs sorted by row. Empty matrices yield
    an empty list. Costs must be finite.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {cost.shape}")
    m, n = cost.shape
    if m == 0 or n == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")

    transposed = m > n
    if transposed:
        cost = cost.T
        m, n = n, m

    # Potentials u, v and column ownership p (1-based; p[j] == 0 means free).
    u = np.zeros(m + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)

    i = 1
    while i <= m:
        # While v is unchanged, a row whose first-occurrence reduced minimum
        # lies in a free column settles there in its first scan; assign the
        # run of such rows (with distinct columns) at once.
        reduced = cost[i - 1 :] - v[1:]
        cols = np.argmin(reduced, axis=1) + 1
        clash = p[cols] != 0
        order = np.argsort(cols, kind="stable")  # a repeated column clashes after its first row
        clash[order[1:]] |= cols[order[1:]] == cols[order[:-1]]
        run = int(np.argmax(clash)) if clash.any() else len(cols)
        u[i : i + run] = reduced[np.arange(run), cols[:run] - 1]
        p[cols[:run]] = np.arange(i, i + run)
        i += run
        if i > m:
            break

        # Dijkstra from row i. Each step scans a block of columns: after a
        # pop, the unused columns at level 0 would be popped in index order
        # up to the first free one, so their rows are scanned together and
        # the block is cut at the first row after which that order changes.
        p[0] = i
        minv = np.full(n, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        block = np.zeros(1, dtype=int)
        while True:
            rows = p[block]
            cur = cost[rows - 1] - u[rows, None] - v[1:]
            k = len(block)
            if k > 1:
                # Row r sees the block columns after its own as still unused.
                # Popping stays in block order after row r unless r leaves a
                # value below 0 (a rounding step) or rows up to r made a
                # column tight that comes before the next block column.
                seen = np.where(used[1:], np.inf, cur)
                seen[:, block - 1] = np.where(np.tri(k, dtype=bool), np.inf, seen[:, block - 1])
                fresh = (seen == 0.0) & (minv > 0.0)
                first_fresh = np.where(fresh.any(axis=1), fresh.argmax(axis=1) + 1, n + 1)
                cut = (seen < 0.0).any(axis=1)
                cut[:-1] |= np.minimum.accumulate(first_fresh)[:-1] < block[1:]
                k = int(np.argmax(cut)) + 1 if cut.any() else k
                block, cur = block[:k], cur[:k]
            used[block] = True
            free = ~used[1:]
            low = cur.min(axis=0)
            better = free & (low < minv)
            minv[better] = low[better]
            way[1:][better] = block[cur.argmin(axis=0)[better]]
            # argmin over free columns; first occurrence = lowest index
            masked = np.where(free, minv, np.inf)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            if p[j1 + 1] == 0:
                break
            tight = np.flatnonzero(free & (minv == 0.0)) + 1
            unowned = p[tight] == 0
            block = tight[: int(np.argmax(unowned)) if unowned.any() else len(tight)]
        j0 = j1 + 1
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
        i += 1

    pairs = [(int(p[j]) - 1, j - 1) for j in range(1, n + 1) if p[j] != 0]
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return sorted(pairs)


def associate(
    tracks: np.ndarray,
    detections: np.ndarray,
    iou_min: float = 0.3,
) -> AssignmentResult:
    """Match detections to tracks by maximizing total IoU, then gate.

    tracks (N, 4) and detections (M, 4) are corner arrays. The solver runs
    on cost = -IoU; matched pairs below iou_min are demoted to unmatched on
    both sides afterwards (post-solve gating).
    """
    if not 0.0 <= iou_min <= 1.0:
        raise ValueError(f"iou_min outside [0, 1]: {iou_min}")
    overlaps = corner_iou(tracks[:, None], detections[None])
    pairs = np.array(solve_lap(-overlaps), dtype=np.intp).reshape(-1, 2)
    matches = pairs[overlaps[pairs[:, 0], pairs[:, 1]] >= iou_min]
    return AssignmentResult(
        matches=matches,
        unmatched_tracks=np.delete(np.arange(len(tracks)), matches[:, 0]),
        unmatched_detections=np.delete(np.arange(len(detections)), matches[:, 1]),
    )
