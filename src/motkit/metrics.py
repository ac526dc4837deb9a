"""CLEAR MOT (MOTA) and detection mAP evaluation.

MOTA = 1 - (sum FN + sum FP + sum IDSW) / sum g over all frames. The
frame-by-frame matching keeps correspondences alive from earlier frames
(a ground-truth object stays bound to its track while their IoU clears
the gate) before Hungarian-matching the remainder; identity switches are
counted against each object's last recorded track id. Without the
carryover step IDSW counts would be ill-defined - this is the single
biggest protocol choice here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .geometry import BoundingBox, iou, iou_matrix

# MOTChallenge convention; override per call if needed.
DEFAULT_MOT_GATE = 0.5

COCO_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


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

    def __init__(self, iou_gate: float = DEFAULT_MOT_GATE):
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

        # 1) carry over correspondences that still hold
        for gt_id, gt_box in gt:
            track_id = self._last_track.get(gt_id)
            if track_id is None or track_id not in hyp_by_id:
                continue
            if track_id in matched_gt.values():
                continue
            if iou(gt_box, hyp_by_id[track_id]) >= self.iou_gate:
                matched_gt[gt_id] = track_id

        # 2) Hungarian on the rest, gated
        free_gt = [(i, b) for i, b in gt if i not in matched_gt]
        used_tracks = set(matched_gt.values())
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


def mota(acc: MotAccumulator) -> float:
    """Multi-object tracking accuracy; <= 1, may go negative."""
    if acc.g == 0:
        raise ValueError("MOTA undefined: no ground-truth objects")
    return 1.0 - (acc.fn + acc.fp + acc.idsw) / acc.g


def evaluate_sequence(
    gt_frames: dict[int, list[tuple[int, BoundingBox]]],
    hyp_frames: dict[int, list[tuple[int, BoundingBox]]],
    iou_gate: float = DEFAULT_MOT_GATE,
) -> MotAccumulator:
    """Run an accumulator over a whole sequence keyed by frame index."""
    acc = MotAccumulator(iou_gate)
    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        acc.step(gt_frames.get(frame, []), hyp_frames.get(frame, []))
    return acc


# -- detection mAP ------------------------------------------------------------


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
