"""Detection-head decoding: distribution expectation, scoring, NMS.

Head maps carry logits. Each cell of a map at stride S maps to the image
point ((cx + 0.5) * S, (cy + 0.5) * S); the four regression channels are
distances (left, top, right, bottom) from that point in stride units. The
class score is a single joint representation: sigmoid of the max class
logit, with no separate objectness term.

Candidates travel as geometry's float64 (N, 6) box rows, columns x_min,
y_min, x_max, y_max, score, class_id, from decode_heads through nms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Boxes, box_rows, corner_iou
from .io import check_int

EXPECTED_STRIDES = (8, 16, 32)
REGRESSION_CHANNELS = 4
DEFAULT_NUM_BINS = 16
DEFAULT_SCORE_THRESH = 0.25
DEFAULT_NMS_IOU = 0.45
# Rows per nms block. Small enough that a block spanning several classes
# wastes little IoU work on pairs of different classes, and that nms's
# temporaries stay a few 64 x N arrays rather than one N x N.
NMS_BLOCK = 64


@dataclass(frozen=True)
class HeadMap:
    """One detection head output: data[channels][height][width] at a stride."""

    stride: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"head map must be [C][H][W], got shape {self.data.shape}")
        if self.data.shape[0] <= REGRESSION_CHANNELS:
            raise ValueError("head map needs 4 regression channels plus classes")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))  # sign split keeps exp from overflowing
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reduce_dfl(data: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> np.ndarray:
    """Collapse a raw (4*B + classes)-channel map to 4 + classes channels.

    The first 4*B channels hold four bin distributions (side-major layout:
    channel side*B + bin); each is replaced by its expectation, summed in bin
    order whatever the memory layout. Class channels pass through untouched.
    num_bins is an integer >= 1. A side with a NaN or +inf bin, or with all
    bins -inf, gets a NaN expectation and no warning; other -inf bins weigh 0.
    """
    check_int("num_bins", num_bins, 1, ValueError)
    c, h, w = data.shape
    if c <= 4 * num_bins:
        raise ValueError(f"{c} channels cannot hold 4*{num_bins} bins plus classes")
    dist = data[: 4 * num_bins].reshape(4, num_bins, h, w)
    with np.errstate(invalid="ignore"):  # inf - inf: the side's expectation is NaN
        z = dist - dist.max(axis=1, keepdims=True)
    p = np.exp(z, out=z) if z.dtype.kind == "f" else np.exp(z)  # integers promote
    total = p[:, 0].copy()
    for b in range(1, num_bins):
        total += p[:, b]
    p /= total[:, None]
    out = np.empty((c - 4 * num_bins + 4, h, w), np.result_type(np.float64, data.dtype))
    acc, term = np.multiply(p[:, 0], np.float64(0), out=out[:4]), np.empty_like(out[:4])
    for b in range(1, num_bins):
        acc += np.multiply(p[:, b], np.float64(b), out=term)
    out[4:] = data[4 * num_bins :]
    return out


def decode_heads(maps: list[HeadMap], score_thresh: float = DEFAULT_SCORE_THRESH) -> np.ndarray:
    """Turn head maps into scored, clipped candidate rows, stride by stride
    in row-major cell order.

    Requires each stride in {8, 16, 32} exactly once and mutually consistent
    image dimensions. Negative regressed distances clamp to zero. Candidates
    below score_thresh are dropped; survivors are clipped to image bounds,
    and inverted corners (a NaN regression) raise box_rows's ValueError. A
    NaN class logit in any cell raises ValueError naming its stride and cell.
    """
    if not 0.0 <= score_thresh <= 1.0:
        raise ValueError(f"score_thresh outside [0, 1]: {score_thresh}")
    strides = sorted(m.stride for m in maps)
    if strides != sorted(EXPECTED_STRIDES):
        raise ValueError(f"need strides {EXPECTED_STRIDES} exactly once, got {strides}")
    by_stride = {m.stride: m for m in maps}
    img_w = by_stride[8].width * 8
    img_h = by_stride[8].height * 8
    for m in maps:
        if m.width * m.stride != img_w or m.height * m.stride != img_h:
            raise ValueError(
                f"stride-{m.stride} map {m.width}x{m.height} disagrees with "
                f"{img_w}x{img_h} input"
            )
        if m.channels != by_stride[8].channels:
            raise ValueError("head maps disagree on channel count")

    rows = []
    for stride in EXPECTED_STRIDES:
        m = by_stride[stride]
        flat = m.data.reshape(m.channels, -1)
        logit = flat[REGRESSION_CHANNELS:].max(axis=0)  # NaN if any class logit is
        if np.isnan(logit).any():
            y, x = divmod(int(np.isnan(logit).argmax()), m.width)
            raise ValueError(f"stride-{stride} cell (x={x}, y={y}) has a NaN class logit")
        score = sigmoid(logit)
        cells = np.flatnonzero(score >= score_thresh)
        cy, cx = np.divmod(cells, m.width)
        picked = flat[:, cells]
        # corners: centre - (left, top) and centre + (right, bottom), clipped
        dist = np.maximum(picked[:REGRESSION_CHANNELS], 0.0) * stride * [[-1], [-1], [1], [1]]
        centre = (np.stack([cx, cy, cx, cy]) + 0.5) * stride
        corners = np.clip(centre + dist, 0.0, [[img_w], [img_h], [img_w], [img_h]])
        class_id = picked[REGRESSION_CHANNELS:].argmax(axis=0)
        rows.append(np.vstack([corners, score[cells], class_id]).T)
    return box_rows(np.concatenate(rows))


def nms(boxes: Boxes, iou_thresh: float = DEFAULT_NMS_IOU, class_aware: bool = True) -> np.ndarray:
    """Greedy descending-score suppression.

    A box is dropped when its IoU with an already-kept box (of the same
    class, if class_aware) exceeds iou_thresh. Returns the kept rows by
    descending score, ties broken by class_id, x_min, y_min, x_max, y_max,
    so the result does not depend on input order.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh outside [0, 1]: {iou_thresh}")
    rows = box_rows(boxes)
    # rank by (-score, class_id, x_min, y_min, x_max, y_max): lexsort's last
    # key is the primary one, and it keeps equal keys in input order
    ranked = rows[np.lexsort((*rows[:, 3::-1].T, rows[:, 5], -rows[:, 4]))]
    # Classes made contiguous (one group if not class_aware), rank order
    # within each; then blocks of rows in that order, each checked against
    # the boxes of its classes kept so far and resolved greedily inside.
    groups = ranked[:, 5] if class_aware else np.zeros(len(ranked))
    order = np.argsort(groups, kind="stable")
    corners, groups = ranked[order, :4], groups[order]
    group_start = np.searchsorted(groups, groups)
    kept = np.zeros(len(order), dtype=bool)
    later = ~np.tri(NMS_BLOCK, dtype=bool)  # [i, j]: j > i; built per call to follow NMS_BLOCK
    for start in range(0, len(order), NMS_BLOCK):
        stop = min(start + NMS_BLOCK, len(order))
        earlier = np.flatnonzero(kept[group_start[start] : start]) + group_start[start]
        cols = np.concatenate([earlier, np.arange(start, stop)])
        over = corner_iou(corners[start:stop, None], corners[None, cols]) > iou_thresh
        over &= groups[start:stop, None] == groups[None, cols]
        dead = over[:, : len(earlier)].any(axis=1)
        inner = over[:, len(earlier) :] & later[: len(over), : len(over)]  # j kills later rows
        for j in np.flatnonzero(inner.any(axis=1)):
            if not dead[j]:
                dead |= inner[j]
        kept[start:stop] = ~dead
    return ranked[np.sort(order[kept])]
