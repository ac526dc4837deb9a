"""Reference assignment: the row-by-row shortest-augmenting-path solver,
the BoundingBox-list associate and the list IoU matrix that motkit used
before its block-batched solver and corner-array association, kept
unchanged as the oracle for the differential tests and for
``sort_oracle``. Equal-cost optima resolve in this solver's pop order,
which is the tie contract ``motkit.assignment.solve_lap`` must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from motkit.geometry import BoundingBox


@dataclass(frozen=True)
class AssignmentResult:
    """Partition of track and detection indices into matches and leftovers."""

    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


def iou_matrix(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(rows), len(cols))."""
    m = np.zeros((len(rows), len(cols)))
    if not rows or not cols:
        return m
    ra = np.array([b.corners() for b in rows])
    ca = np.array([b.corners() for b in cols])
    ix = np.minimum(ra[:, None, 2], ca[None, :, 2]) - np.maximum(ra[:, None, 0], ca[None, :, 0])
    iy = np.minimum(ra[:, None, 3], ca[None, :, 3]) - np.maximum(ra[:, None, 1], ca[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_r = (ra[:, 2] - ra[:, 0]) * (ra[:, 3] - ra[:, 1])
    area_c = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    union = area_r[:, None] + area_c[None, :] - inter
    np.divide(inter, union, out=m, where=union > 0.0)
    return m


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

    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            # argmin over free columns; first occurrence = lowest index
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs = [(int(p[j]) - 1, j - 1) for j in range(1, n + 1) if p[j] != 0]
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return sorted(pairs)


def associate(
    tracks: list[BoundingBox],
    detections: list[BoundingBox],
    iou_min: float = 0.3,
) -> AssignmentResult:
    """Match detections to tracks by maximizing total IoU, then gate.

    The solver runs on cost = -IoU; matched pairs below iou_min are demoted
    to unmatched on both sides afterwards (post-solve gating).
    """
    if not 0.0 <= iou_min <= 1.0:
        raise ValueError(f"iou_min outside [0, 1]: {iou_min}")
    overlaps = iou_matrix(tracks, detections)
    pairs = solve_lap(-overlaps) if tracks and detections else []

    matches = []
    matched_t: set[int] = set()
    matched_d: set[int] = set()
    for t, d in pairs:
        if overlaps[t, d] < iou_min:
            continue
        matches.append((t, d))
        matched_t.add(t)
        matched_d.add(d)
    return AssignmentResult(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i in range(len(tracks)) if i not in matched_t),
        unmatched_detections=tuple(j for j in range(len(detections)) if j not in matched_d),
    )
