"""CLEAR MOT (MOTA) and detection mAP evaluation.

MOTA = 1 - (sum FN + sum FP + sum IDSW) / sum g over all frames. The
frame-by-frame matching keeps correspondences alive from earlier frames
(a ground-truth object stays bound to its track while their IoU clears
the gate) before Hungarian-matching the remainder; identity switches are
counted against each object's last recorded track id. Without the
carryover step IDSW counts would be ill-defined - this is the single
biggest protocol choice here.

Detection AP follows COCO's greedy matching. Each class's IoUs come from one
corner_iou call over a ragged array of (detection, ground truth of its image)
pairs; at each threshold only detections owning a pair at or above it are
visited, as no other can match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .geometry import BoundingBox, Boxes, box_rows, corner_iou, iou_matrix

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
        used_tracks: set[int] = set()  # the values of matched_gt

        # 1) carry over correspondences that still hold; a track carried by
        #    two ground truths goes to the first that clears the gate
        carried = [
            (gt_id, gt_box, self._last_track[gt_id])
            for gt_id, gt_box in gt
            if self._last_track.get(gt_id) in hyp_by_id
        ]
        gt_corners = box_rows([b for _, b, _ in carried])[:, :4]
        overlaps = corner_iou(gt_corners, box_rows([hyp_by_id[t] for _, _, t in carried])[:, :4])
        for (gt_id, _, track_id), overlap in zip(carried, overlaps.tolist()):
            if track_id not in used_tracks and overlap >= self.iou_gate:
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
    dets: dict[object, Boxes], gts: dict[object, Boxes], iou_thresh: float, class_id: int
) -> float:
    """101-point interpolated AP for one class at one IoU threshold.

    Detections are taken in descending score order, ties by image key repr
    and then list position; each greedily claims the still-unmatched
    ground-truth box of its image it overlaps best (at or above the
    threshold), one ground truth per detection. iou_thresh is in [0, 1].
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh outside [0, 1]: {iou_thresh}")
    return _ap_table(dets, gts, (iou_thresh,), class_id)[class_id][0]


def ap_table(dets: dict[object, Boxes], gts: dict[object, Boxes]) -> dict[int, list[float]]:
    """AP of each ground-truth class (ascending) at each COCO_IOU_THRESHOLDS
    entry, as scored by average_precision."""
    return _ap_table(dets, gts, COCO_IOU_THRESHOLDS)


def coco_map(dets: dict[object, Boxes], gts: dict[object, Boxes]) -> float:
    """Mean AP over ground-truth classes and IoU thresholds 0.50:0.05:0.95."""
    return float(np.mean(list(ap_table(dets, gts).values())))


def _ap_table(dets, gts, thresholds, only_class=None) -> dict[int, list[float]]:
    """average_precision at each of `thresholds` per ground-truth class (or `only_class`)."""
    # Ground truth and detections each in one array, images numbered in key repr
    # order (-1: no detections). Stable sorts leave each class a run: ground truth
    # by image in list order, detections by descending score (rank order).
    keys = sorted(dets, key=repr)
    image_of = {k: i for i, k in enumerate(keys)}
    per_image = [box_rows(boxes) for boxes in gts.values()]
    gt_image = np.repeat([image_of.get(k, -1) for k in gts], [len(r) for r in per_image])
    truth = np.concatenate([np.empty((0, 6)), *per_image])
    order = np.lexsort((gt_image, truth[:, 5]))
    truth, gt_image = truth[order], gt_image[order]
    classes, counts = np.unique(truth[:, 5], return_counts=True)
    n_gt = dict(zip(map(int, classes.tolist()), counts.tolist()))  # class id -> count
    if only_class is not None and only_class not in n_gt:
        raise ValueError(f"no ground truth for class {only_class}; AP undefined")
    if not n_gt:
        raise ValueError("mAP undefined: empty ground truth")

    per_image = [box_rows(dets[k]) for k in keys]
    image = np.repeat(np.arange(len(keys)), [len(r) for r in per_image])
    rows = np.concatenate([np.empty((0, 6)), *per_image])
    order = np.lexsort((-rows[:, 4], rows[:, 5]))
    rows, image = rows[order], image[order]
    table = {}
    for cls in sorted(n_gt) if only_class is None else [only_class]:
        # both sides of cls itself: from 2**53 up, cls + 1 rounds back to cls
        lo, hi = (np.searchsorted(rows[:, 5], cls, side) for side in ("left", "right"))
        glo, ghi = (np.searchsorted(truth[:, 5], cls, side) for side in ("left", "right"))
        # Rank r's pairs: start[r]:end[r], with class ground truths first[r], ...
        first = np.searchsorted(gt_image[glo:ghi], image[lo:hi])
        count = np.searchsorted(gt_image[glo:ghi], image[lo:hi], "right") - first
        owner, start = np.repeat(np.arange(hi - lo), count), np.cumsum(count) - count
        truth_of = np.arange(len(owner)) + np.repeat(first - start, count)
        overlaps = corner_iou(rows[lo:hi, :4][owner], truth[glo:ghi, :4][truth_of])
        pairs, first, start, end = (a.tolist() for a in (overlaps, first, start, start + count))
        tp = np.zeros((len(thresholds), hi - lo))
        for t, thresh in enumerate(thresholds):
            claimed = [False] * (ghi - glo)
            for rank in np.unique(owner[overlaps >= thresh]).tolist():
                best_j, best_iou = -1, 0.0
                for j, overlap in enumerate(pairs[start[rank] : end[rank]], first[rank]):
                    if not claimed[j] and overlap > best_iou:
                        best_j, best_iou = j, overlap
                if best_j >= 0 and best_iou >= thresh:
                    claimed[best_j] = True
                    tp[t, rank] = 1.0

        # 101-point interpolated AP per threshold. Recall never decreases, so
        # precision[recall >= r] is a suffix: a reversed running maximum gives
        # its maximum (0.0 past the end); levels are summed in order, bit-exactly.
        cum_tp = np.cumsum(tp, axis=1)
        table[cls] = []
        for precision, recall in zip(cum_tp / np.arange(1, hi - lo + 1), cum_tp / n_gt[cls]):
            envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
            levels = np.searchsorted(recall, np.linspace(0.0, 1.0, 101))
            table[cls].append(sum(envelope[levels].tolist()) / 101.0)
    return table
