"""Detection-head decoding: distribution expectation, scoring, NMS.

Head maps carry logits. Each cell of a map at stride S maps to the image
point ((cx + 0.5) * S, (cy + 0.5) * S); the four regression channels are
distances (left, top, right, bottom) from that point in stride units. The
class score is a single joint representation: sigmoid of the max class
logit, with no separate objectness term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, iou

EXPECTED_STRIDES = (8, 16, 32)
REGRESSION_CHANNELS = 4
DEFAULT_NUM_BINS = 16


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
    channel side*B + bin); each is replaced by its expectation. Class
    channels pass through untouched.
    """
    c, h, w = data.shape
    if c <= 4 * num_bins:
        raise ValueError(f"{c} channels cannot hold 4*{num_bins} bins plus classes")
    dist = data[: 4 * num_bins].reshape(4, num_bins, h, w)
    z = dist - dist.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    bins = np.arange(num_bins, dtype=float).reshape(1, num_bins, 1, 1)
    expected = (p * bins).sum(axis=1)
    return np.concatenate([expected, data[4 * num_bins :]], axis=0)


def decode_heads(maps: list[HeadMap], score_thresh: float = 0.25) -> list[BoundingBox]:
    """Turn head maps into scored, clipped candidate boxes.

    Requires each stride in {8, 16, 32} exactly once and mutually consistent
    image dimensions. Negative regressed distances clamp to zero. Candidates
    below score_thresh are dropped; survivors are clipped to image bounds.
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

    boxes: list[BoundingBox] = []
    for stride in EXPECTED_STRIDES:
        m = by_stride[stride]
        cy, cx = np.mgrid[0 : m.height, 0 : m.width]
        px = (cx + 0.5) * stride
        py = (cy + 0.5) * stride
        dist = np.clip(m.data[:REGRESSION_CHANNELS], 0.0, None) * stride
        x0 = np.clip(px - dist[0], 0.0, img_w)
        y0 = np.clip(py - dist[1], 0.0, img_h)
        x1 = np.clip(px + dist[2], 0.0, img_w)
        y1 = np.clip(py + dist[3], 0.0, img_h)
        cls_logits = m.data[REGRESSION_CHANNELS:]
        class_id = cls_logits.argmax(axis=0)
        score = sigmoid(cls_logits.max(axis=0))
        keep_y, keep_x = np.nonzero(score >= score_thresh)
        for yy, xx in zip(keep_y, keep_x):
            boxes.append(
                BoundingBox(
                    float(x0[yy, xx]),
                    float(y0[yy, xx]),
                    float(x1[yy, xx]),
                    float(y1[yy, xx]),
                    float(score[yy, xx]),
                    int(class_id[yy, xx]),
                )
            )
    return boxes


def nms(
    boxes: list[BoundingBox], iou_thresh: float = 0.45, class_aware: bool = True
) -> list[BoundingBox]:
    """Greedy descending-score suppression.

    A box is dropped when its IoU with an already-kept box (of the same
    class, if class_aware) exceeds iou_thresh. Output is sorted by
    descending score with a content-based tie-break, so the result does not
    depend on input order.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh outside [0, 1]: {iou_thresh}")
    ordered = sorted(
        boxes, key=lambda b: (-b.score, b.class_id, b.x_min, b.y_min, b.x_max, b.y_max)
    )
    kept: list[BoundingBox] = []
    for cand in ordered:
        suppressed = False
        for k in kept:
            if class_aware and k.class_id != cand.class_id:
                continue
            if iou(k, cand) > iou_thresh:
                suppressed = True
                break
        if not suppressed:
            kept.append(cand)
    return kept
