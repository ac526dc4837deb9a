"""SORT lifecycle engine: predict, associate, update, spawn, kill.

One tracker instance owns one video sequence and is single-threaded;
build a new one for each sequence, also for parallel evaluation. As in
SORT, a matched track is reported once its hit streak reaches min_hits,
and every matched track is reported during the first min_hits frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kalman
from .assignment import associate
from .geometry import BoundingBox, Boxes, box_rows, int64_class_ids
from .io import check_int
from .kalman import KalmanConfig


@dataclass(frozen=True)
class SortConfig:
    """Lifecycle knobs: max_age and min_hits are integers >= 1, iou_min is in [0, 1]."""

    max_age: int = 1
    min_hits: int = 3
    iou_min: float = 0.3
    kalman: KalmanConfig = field(default_factory=KalmanConfig)

    def __post_init__(self):
        check_int("max_age", self.max_age, 1, ValueError)
        check_int("min_hits", self.min_hits, 1, ValueError)
        if not 0.0 <= self.iou_min <= 1.0:
            raise ValueError(f"iou_min outside [0, 1]: {self.iou_min!r}")


class SortTracker:
    """Per-frame tracking loop over detections of pre-filtered classes.

    Association is class-agnostic within the detection list; callers filter
    detections down to the classes of interest before stepping.

    Live tracks are rows of one structure of arrays, kept in spawn order so
    ids ascend: filter state x (N, 7) and P (N, 7, 7), ids, class_ids,
    scores (of the last matched detection), hits and time_since_update.
    hits counts the current consecutive-update streak: 1 at spawn, +1 per
    matched frame, reset when a frame goes unmatched. dropped_updates counts
    matched detections whose Kalman update was numerically impossible; such
    a track keeps its prediction.
    """

    def __init__(self, config: SortConfig | None = None):
        self.config = config or SortConfig()
        self.x = np.empty((0, kalman.STATE_DIM))
        self.P = np.empty((0, kalman.STATE_DIM, kalman.STATE_DIM))
        self.ids = np.empty(0, dtype=np.int64)
        self.class_ids = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0)
        self.hits = np.empty(0, dtype=np.int64)
        self.time_since_update = np.empty(0, dtype=np.int64)
        self.dropped_updates = 0
        self._next_id = 1
        self._last_frame = 0

    def step(self, detections: Boxes, frame_index: int) -> list[tuple[int, BoundingBox, int]]:
        """Advance one frame; returns reported (id, box, class_id) triples.

        Reported boxes are the post-update filter estimates, not the raw
        detections, in ascending id order. frame_index must be strictly
        increasing across calls.
        """
        if frame_index <= self._last_frame:
            raise ValueError(
                f"frame_index must increase: got {frame_index} after {self._last_frame}"
            )
        cfg = self.config
        rows = box_rows(detections)
        z = kalman.box_to_measurement(rows[:, :4])
        class_ids = int64_class_ids(rows)
        self._last_frame = frame_index  # a step rejected above leaves the tracker as it was

        self.x, self.P = kalman.predict(self.x, self.P, cfg.kalman)
        self.hits[self.time_since_update > 0] = 0
        self.time_since_update += 1

        result = associate(kalman.state_to_corners(self.x), rows[:, :4], cfg.iou_min)

        t_idx, d_idx = result.matches.T
        x, P, ok = kalman.update(self.x[t_idx], self.P[t_idx], z[d_idx], cfg.kalman)
        self.x[t_idx], self.P[t_idx] = x, P  # a dropped update keeps the prediction
        self.dropped_updates += int(np.count_nonzero(~ok))
        t_idx, d_idx = t_idx[ok], d_idx[ok]
        self.time_since_update[t_idx] = 0
        self.hits[t_idx] += 1
        self.scores[t_idx] = rows[d_idx, 4]

        new = result.unmatched_detections
        x, P = kalman.init_state(z[new], cfg.kalman)
        keep = self.time_since_update <= cfg.max_age
        self.x = np.concatenate([self.x[keep], x])
        self.P = np.concatenate([self.P[keep], P])
        self.ids = np.concatenate([self.ids[keep], self._next_id + np.arange(len(new))])
        self.class_ids = np.concatenate([self.class_ids[keep], class_ids[new]])
        self.scores = np.concatenate([self.scores[keep], rows[new, 4]])
        self.hits = np.concatenate([self.hits[keep], np.ones(len(new), dtype=np.int64)])
        self.time_since_update = np.concatenate(
            [self.time_since_update[keep], np.zeros(len(new), dtype=np.int64)]
        )
        self._next_id += len(new)

        report = self.time_since_update == 0
        if frame_index > cfg.min_hits:
            report &= self.hits >= cfg.min_hits
        boxes = kalman.state_to_box(self.x[report], self.scores[report], self.class_ids[report])
        return list(zip(self.ids[report].tolist(), boxes, self.class_ids[report].tolist()))
