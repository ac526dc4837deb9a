"""Reference implementations frozen from motkit for output checks.

``decode`` is ``motkit.decode.reduce_dfl`` followed by ``decode_heads`` and
``nms`` is the quadratic greedy suppression of ``motkit.decode.nms``, as
they were when this benchmark was written, on plain tuples
``(x_min, y_min, x_max, y_max, score, class_id)``. They stay here unchanged
so that a faster decode or ``nms`` in motkit must keep the same candidates,
kept boxes and order.
"""

from __future__ import annotations

import numpy as np

# Stated tolerances for comparing kept boxes with the oracle.
COORD_TOL = 1e-6  # pixels
SCORE_TOL = 1e-9


def _area(b) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = _area(a) + _area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def decode(raw: dict[int, np.ndarray], bins: int, score_thresh: float) -> list[tuple]:
    """Candidate rows of raw (4*bins + classes)-channel head maps keyed by
    stride 8, 16 and 32, stride by stride in row-major cell order."""
    img_w, img_h = raw[8].shape[2] * 8, raw[8].shape[1] * 8
    out = []
    for stride in (8, 16, 32):
        data = raw[stride]
        _, h, w = data.shape
        dist = data[: 4 * bins].reshape(4, bins, h, w)
        p = np.exp(dist - dist.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = (p * np.arange(bins, dtype=float).reshape(1, bins, 1, 1)).sum(axis=1)
        m = np.concatenate([expected, data[4 * bins :]], axis=0)
        cy, cx = np.mgrid[0:h, 0:w]
        px, py = (cx + 0.5) * stride, (cy + 0.5) * stride
        d = np.clip(m[:4], 0.0, None) * stride
        x0 = np.clip(px - d[0], 0.0, img_w)
        y0 = np.clip(py - d[1], 0.0, img_h)
        x1 = np.clip(px + d[2], 0.0, img_w)
        y1 = np.clip(py + d[3], 0.0, img_h)
        cls = m[4:]
        class_id = cls.argmax(axis=0)
        score = _sigmoid(cls.max(axis=0))
        keep = score >= score_thresh
        for row in zip(x0[keep], y0[keep], x1[keep], y1[keep], score[keep], class_id[keep]):
            out.append((*map(float, row[:5]), int(row[5])))
    return out


def rank(b) -> tuple:
    """NMS order: descending score, then a content-based tie-break."""
    return (-b[4], b[5], b[0], b[1], b[2], b[3])


def nms(rows, iou_thresh: float, class_aware: bool = True) -> list[tuple]:
    ordered = sorted(rows, key=rank)
    kept: list[tuple] = []
    for cand in ordered:
        suppressed = False
        for k in kept:
            if class_aware and k[5] != cand[5]:
                continue
            if iou(k, cand) > iou_thresh:
                suppressed = True
                break
        if not suppressed:
            kept.append(cand)
    return kept


def rows(boxes) -> list[tuple]:
    """Plain (x_min, y_min, x_max, y_max, score, class_id) tuples from
    BoundingBox objects or an (N, 6) array."""
    if hasattr(boxes, "shape"):
        return [(*map(float, r[:5]), int(r[5])) for r in boxes]
    return [(b.x_min, b.y_min, b.x_max, b.y_max, b.score, b.class_id) for b in boxes]


def same_boxes(got, want) -> bool:
    """Equal length, order and class; coordinates and scores within tolerance."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g[5] != w[5] or abs(g[4] - w[4]) > SCORE_TOL:
            return False
        if any(abs(g[j] - w[j]) > COORD_TOL for j in range(4)):
            return False
    return True
