"""SORT lifecycle engine: predict, associate, update, spawn, kill.

One tracker instance owns one video sequence and is single-threaded;
run one instance per sequence for parallel evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kalman
from .assignment import associate
from .geometry import BoundingBox
from .kalman import KalmanConfig, TrackState


@dataclass(frozen=True)
class SortConfig:
    """Lifecycle knobs. report_warmup keeps the original behavior of also
    emitting young tracks while frame_index <= min_hits."""

    max_age: int = 1
    min_hits: int = 3
    iou_min: float = 0.3
    report_warmup: bool = True
    kalman: KalmanConfig = field(default_factory=KalmanConfig)

    def __post_init__(self):
        if self.max_age < 1 or self.min_hits < 1:
            raise ValueError("max_age and min_hits must be >= 1")


@dataclass
class Track:
    """One tracked object.

    hits counts the current consecutive-update streak: 1 at spawn, +1 per
    matched frame, reset when a frame goes unmatched. It is >= 1 whenever
    the track was matched in the current frame (the only time it is
    reported).
    """

    id: int
    state: TrackState
    class_id: int
    score: float
    hits: int = 1
    time_since_update: int = 0


class SortTracker:
    """Per-frame tracking loop over detections of pre-filtered classes.

    Association is class-agnostic within the detection list; callers filter
    detections down to the classes of interest before stepping.
    """

    def __init__(self, config: SortConfig | None = None):
        self.config = config or SortConfig()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_frame = 0

    def step(
        self, detections: list[BoundingBox], frame_index: int
    ) -> list[tuple[int, BoundingBox, int]]:
        """Advance one frame; returns reported (id, box, class_id) triples.

        Reported boxes are the post-update filter estimates, not the raw
        detections. frame_index must be strictly increasing across calls.
        """
        if frame_index <= self._last_frame:
            raise ValueError(
                f"frame_index must increase: got {frame_index} after {self._last_frame}"
            )
        self._last_frame = frame_index
        cfg = self.config

        for trk in self.tracks:
            trk.state = kalman.predict(trk.state, cfg.kalman)
            if trk.time_since_update > 0:
                trk.hits = 0
            trk.time_since_update += 1

        predicted = [kalman.state_to_box(t.state, t.score, t.class_id) for t in self.tracks]
        result = associate(predicted, detections, cfg.iou_min)

        for t_idx, d_idx in result.matches:
            trk = self.tracks[t_idx]
            det = detections[d_idx]
            try:
                trk.state = kalman.update(
                    trk.state, kalman.box_to_measurement(det), cfg.kalman
                )
            except kalman.FilterNumericalError:
                continue  # drop the measurement, keep the prediction
            trk.time_since_update = 0
            trk.hits += 1
            trk.score = det.score

        for d_idx in result.unmatched_detections:
            det = detections[d_idx]
            state = kalman.init_state(kalman.box_to_measurement(det), cfg.kalman)
            self.tracks.append(
                Track(id=self._next_id, state=state, class_id=det.class_id, score=det.score)
            )
            self._next_id += 1

        self.tracks = [t for t in self.tracks if t.time_since_update <= cfg.max_age]

        reported = []
        for trk in self.tracks:
            if trk.time_since_update != 0:
                continue
            warmup = cfg.report_warmup and frame_index <= cfg.min_hits
            if trk.hits >= cfg.min_hits or warmup:
                box = kalman.state_to_box(trk.state, trk.score, trk.class_id)
                reported.append((trk.id, box, trk.class_id))
        reported.sort(key=lambda item: item[0])
        return reported

    def reset(self, reset_ids: bool = False) -> None:
        """Drop all tracks for a new sequence.

        Ids keep increasing across sequences within one process run unless
        reset_ids is set.
        """
        self.tracks = []
        self._last_frame = 0
        if reset_ids:
            self._next_id = 1
