"""Reference box code: the scalar ``area``/``iou`` and the per-box
``decode_heads``, ``nms``, ``average_precision``, ``coco_map`` and
``MotAccumulator`` that motkit used before every IoU went through
``geometry.corner_iou``, kept unchanged as the oracle for the differential
tests. The only edits are imports: layout constants and ``HeadMap`` come
from motkit, and the MOT step's Hungarian matching uses the frozen solver
and list IoU matrix of ``lap_oracle``, so the oracle shares no IoU or LAP
code with what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lap_oracle import iou_matrix, solve_lap
from motkit.decode import EXPECTED_STRIDES, REGRESSION_CHANNELS, HeadMap, sigmoid
from motkit.geometry import BoundingBox
from motkit.metrics import COCO_IOU_THRESHOLDS


def area(box: BoundingBox) -> float:
    """Box area in square pixels; 0 for degenerate (line/point) boxes."""
    return box.width * box.height


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

    Returns 0 when the union is empty (two degenerate boxes), so degenerate
    detections never abort a run.
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


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


def average_precision(
    dets: dict[object, list[BoundingBox]],
    gts: dict[object, list[BoundingBox]],
    iou_thresh: float,
    class_id: int,
) -> float:
    """101-point interpolated AP for one class at one IoU threshold.

    Detections are taken in descending score order; each greedily claims
    the still-unmatched ground-truth box it overlaps best (at or above the
    threshold), one ground truth per detection.
    """
    n_gt = sum(1 for boxes in gts.values() for b in boxes if b.class_id == class_id)
    if n_gt == 0:
        raise ValueError(f"no ground truth for class {class_id}; AP undefined")

    flat = []
    for image_key in sorted(dets, key=repr):
        for idx, box in enumerate(dets[image_key]):
            if box.class_id == class_id:
                flat.append((image_key, idx, box))
    flat.sort(key=lambda t: (-t[2].score, repr(t[0]), t[1]))

    claimed: set[tuple[object, int]] = set()
    tp = np.zeros(len(flat))
    for rank, (image_key, _, det_box) in enumerate(flat):
        candidates = [
            (j, g)
            for j, g in enumerate(gts.get(image_key, []))
            if g.class_id == class_id and (image_key, j) not in claimed
        ]
        best_j, best_iou = -1, 0.0
        for j, g in candidates:
            overlap = iou(det_box, g)
            if overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j >= 0 and best_iou >= iou_thresh:
            claimed.add((image_key, best_j))
            tp[rank] = 1.0

    if not flat:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(flat) + 1)
    recall = cum_tp / n_gt

    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        at_least = precision[recall >= r]
        ap += at_least.max() if at_least.size else 0.0
    return ap / 101.0


def coco_map(
    dets: dict[object, list[BoundingBox]],
    gts: dict[object, list[BoundingBox]],
) -> float:
    """Mean AP over ground-truth classes and IoU thresholds 0.50:0.05:0.95."""
    classes = sorted({b.class_id for boxes in gts.values() for b in boxes})
    if not classes:
        raise ValueError("mAP undefined: empty ground truth")
    values = [
        average_precision(dets, gts, thresh, cls)
        for cls in classes
        for thresh in COCO_IOU_THRESHOLDS
    ]
    return float(np.mean(values))


@dataclass
class FrameCounts:
    fn: int
    fp: int
    idsw: int
    g: int


class MotAccumulator:
    """Per-sequence CLEAR MOT tallies.

    Feed one frame at a time through step(), which adds the frame's counts
    to the running totals fn, fp, idsw and g; sequences evaluated in
    parallel reduce by summing those totals.
    """

    def __init__(self, iou_gate: float = 0.5):
        if not 0.0 <= iou_gate <= 1.0:
            raise ValueError(f"iou_gate outside [0, 1]: {iou_gate}")
        self.iou_gate = iou_gate
        self.fn = self.fp = self.idsw = self.g = 0
        self._last_track: dict[int, int] = {}  # gt id -> last matched track id

    def step(
        self,
        gt: list[tuple[int, BoundingBox]],
        hyp: list[tuple[int, BoundingBox]],
    ) -> FrameCounts:
        """Score one frame of ground truth against tracker output."""
        gt_ids = [i for i, _ in gt]
        hyp_ids = [i for i, _ in hyp]
        if len(set(gt_ids)) != len(gt_ids):
            raise ValueError("duplicate ground-truth ids in frame")
        if len(set(hyp_ids)) != len(hyp_ids):
            raise ValueError("duplicate hypothesis ids in frame")

        hyp_by_id = {i: b for i, b in hyp}
        matched_gt: dict[int, int] = {}
        used_tracks: set[int] = set()  # the values of matched_gt

        # 1) carry over correspondences that still hold
        for gt_id, gt_box in gt:
            track_id = self._last_track.get(gt_id)
            if track_id is None or track_id not in hyp_by_id or track_id in used_tracks:
                continue
            if iou(gt_box, hyp_by_id[track_id]) >= self.iou_gate:
                matched_gt[gt_id] = track_id
                used_tracks.add(track_id)

        # 2) Hungarian on the rest, gated
        free_gt = [(i, b) for i, b in gt if i not in matched_gt]
        free_hyp = [(i, b) for i, b in hyp if i not in used_tracks]
        if free_gt and free_hyp:
            overlaps = iou_matrix([b for _, b in free_gt], [b for _, b in free_hyp])
            for r, c in solve_lap(-overlaps):
                if overlaps[r, c] >= self.iou_gate:
                    matched_gt[free_gt[r][0]] = free_hyp[c][0]

        # 3) count events and refresh the persistent map
        idsw = 0
        for gt_id, track_id in matched_gt.items():
            last = self._last_track.get(gt_id)
            if last is not None and last != track_id:
                idsw += 1
            self._last_track[gt_id] = track_id

        counts = FrameCounts(
            fn=len(gt) - len(matched_gt),
            fp=len(hyp) - len(matched_gt),
            idsw=idsw,
            g=len(gt),
        )
        self.fn += counts.fn
        self.fp += counts.fp
        self.idsw += counts.idsw
        self.g += counts.g
        return counts
