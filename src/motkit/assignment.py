"""Optimal detection-to-track matching with IoU gating.

solve_lap is a dense Jonker-Volgenant-style shortest-augmenting-path solver
(O(n^3)). Its result is deterministic, equal-cost optima included: it is
the one the plain row-by-row solver reaches when it adds rows in index
order and pops equally cheap columns in index order (frozen as the oracle
in tests/lap_oracle.py). That is not in general the lowest set of (row,
col) pairs. Keeping this tie rule is why the solver is hand-rolled rather
than delegated to a library; it batches that solver's steps into numpy
blocks, and skips those whose outcome the tie rule already fixes, without
changing the result.
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

    # Potentials u, v and column ownership p (p[j] == -1 means free). Column
    # n, inf for every row, is where each search starts: p[n] is its row.
    cost = np.hstack([cost, np.full((m, 1), np.inf)])
    u = np.zeros(m)
    v = np.zeros(n + 1)
    p = np.full(n + 1, -1)
    way = np.zeros(n + 1, dtype=int)
    columns = np.arange(n + 1)

    i = 0
    while i < m:
        # While v is unchanged, a row whose first-occurrence reduced minimum
        # lies in a free column settles there in its first scan; assign the
        # run of such rows (with distinct columns) at once. Row i is probed
        # first, so a row that clashes costs no run.
        if p[(cost[i] - v).argmin()] < 0:
            reduced = cost[i:] - v
            cols = reduced.argmin(axis=1)
            clash = p[cols] >= 0
            order = cols.argsort(kind="stable")  # a repeated column clashes after its first row
            clash[order[1:]] |= cols[order[1:]] == cols[order[:-1]]
            run = int(clash.argmax()) or len(cols)  # clash[0] is False: row i settles
            u[i : i + run] = reduced[np.arange(run), cols[:run]]
            p[cols[:run]] = np.arange(i, i + run)
            i += run
            if i == m:
                break

        # Dijkstra from row i. Each step scans a block of columns: after a
        # pop, the unused columns at level 0 would be popped in index order
        # up to the first free one, f, so their rows are scanned together
        # and the block is cut at the first row after which that order
        # changes; a one-row block is scanned as a vector. If no row changes
        # the order before f, f is popped next at delta 0: u, v and the path
        # to f are final, so the search ends there. minv is inf on used
        # columns, so the pop and the tight test need no mask; unused marks
        # the columns not popped yet, used_rows the rows whose u moves with
        # delta.
        p[n] = i
        minv = np.full(n + 1, np.inf)
        unused, used_rows = np.ones(n + 1, dtype=bool), np.zeros(m, dtype=bool)
        walk = block = np.array([n])  # walk is block, then f if there is one
        while True:
            if len(block) == 1:
                rows = p[block[0]]
                low = cost[rows] - u[rows]
                low -= v
                src = block[0]
            else:
                rows = p[block]
                cur = cost[rows] - u[rows][:, None]
                cur -= v
                # Popping stays in walk order after row r unless r leaves a
                # value below 0 (a rounding step) in a column it sees unused,
                # which cuts at r, or a 0 in column cc where minv was above 0,
                # which cuts once the next walk column lies past cc. lim is
                # -inf on used columns, -5e-324 (x <= lim: x < 0) at minv 0.
                lim = np.where(minv > 0.0, 0.0, -5e-324)
                lim[~unused] = -np.inf
                rr, cc = np.divmod((cur <= lim).ravel().nonzero()[0], n + 1)
                at = walk.searchsorted(cc)  # row r sees walk[at] unused if at > r
                stop = np.where(cur[rr, cc] < 0.0, rr, np.maximum(rr, at - 1))
                k = int(stop[(minv[cc] > 0.0) | (at > rr)].min(initial=len(walk) - 1)) + 1
                if k > len(block):  # no cut before f
                    j1 = walk[-1]
                    break
                block, rows, cur = block[:k], rows[:k], cur[:k]
                arg = cur.argmin(axis=0)
                low, src = cur[arg, columns], block[arg]
            unused[block] = False
            used_rows[rows] = True
            minv[block] = np.inf
            better = (low < minv) & unused
            np.copyto(minv, low, where=better)
            np.copyto(way, src, where=better)
            # first occurrence = lowest index among the cheapest unused columns
            j1 = int(minv.argmin())
            delta = minv[j1]
            if delta:  # at delta 0 they could only flip the sign of a zero
                np.add(u, delta, out=u, where=used_rows)
                np.subtract(v, delta, out=v, where=~unused)
                minv -= delta
            if p[j1] < 0:
                break
            tight = (minv == 0.0).nonzero()[0]  # tight[0] is j1, which is owned
            f = int((p[tight] < 0).argmax())
            walk, block = (tight[: f + 1], tight[:f]) if f else (tight, tight)
        while j1 != n:  # augment back along the path to the start column
            p[j1], j1 = p[way[j1]], way[j1]
        i += 1

    pairs = zip(p[:n][p[:n] >= 0].tolist(), np.flatnonzero(p[:n] >= 0).tolist())
    return sorted((c, r) for r, c in pairs) if transposed else sorted(pairs)


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
