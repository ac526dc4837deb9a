"""Reference SORT: the per-track tracker and scalar Kalman filter that the
batched ``motkit.tracker``/``motkit.kalman`` replaced, kept unchanged as the
oracle for the differential tests. The only edits are imports (config and
layout constants come from motkit, association from the frozen solver in
``lap_oracle``, so the oracle does not share the LAP under test) and calls
to the filter functions by bare name, since both modules now share this
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lap_oracle import associate
from motkit.geometry import BoundingBox
from motkit.kalman import MEAS_DIM, SCALE_FLOOR, STATE_DIM, F, H, KalmanConfig
from motkit.tracker import SortConfig


class FilterNumericalError(RuntimeError):
    """Innovation covariance could not be inverted; caller drops the update."""


@dataclass
class TrackState:
    """Filter state: 7-vector x and 7x7 covariance P."""

    x: np.ndarray
    P: np.ndarray


def init_state(z: np.ndarray, cfg: KalmanConfig) -> TrackState:
    """New state from a first measurement: zero velocities, P0 covariance."""
    x = np.zeros(STATE_DIM)
    x[:MEAS_DIM] = z
    return TrackState(x, cfg.P0.copy())


def predict(state: TrackState, cfg: KalmanConfig) -> TrackState:
    """Time update: x <- F x (scale floored), P <- F P F^T + Q."""
    x = F @ state.x
    if x[2] <= 0.0:
        x[2] = SCALE_FLOOR
    p = F @ state.P @ F.T + cfg.Q
    return TrackState(x, p)


def update(state: TrackState, z: np.ndarray, cfg: KalmanConfig) -> TrackState:
    """Measurement update with z = [u, v, s, r]; P is re-symmetrized."""
    z = np.asarray(z, dtype=float)
    innovation = z - H @ state.x
    s = H @ state.P @ H.T + cfg.R
    try:
        # K = P H^T S^-1, via solve on S^T to avoid forming the inverse
        k = np.linalg.solve(s.T, (state.P @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericalError("singular innovation covariance") from exc
    x = state.x + k @ innovation
    p = (np.eye(STATE_DIM) - k @ H) @ state.P
    p = (p + p.T) / 2.0
    return TrackState(x, p)


def box_to_measurement(box: BoundingBox) -> np.ndarray:
    """Corner box -> [u, v, s, r] measurement. Non-positive area is an error."""
    w = box.width
    h = box.height
    if w <= 0.0 or h <= 0.0:
        raise ValueError(f"box has non-positive area: {box}")
    return np.array([box.x_min + w / 2.0, box.y_min + h / 2.0, w * h, w / h])


def state_to_box(state: TrackState, score: float = 1.0, class_id: int = 0) -> BoundingBox:
    """State -> corner box; requires positive scale and aspect."""
    u, v, s, r = state.x[:MEAS_DIM]
    if s <= 0.0 or r <= 0.0:
        raise ValueError(f"state has non-positive area: s={s}, r={r}")
    w = np.sqrt(s * r)
    h = s / w
    return BoundingBox(u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0, score, class_id)


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
    dropped_updates counts matched detections whose Kalman update was
    numerically impossible; such a track keeps its prediction.
    """

    def __init__(self, config: SortConfig | None = None):
        self.config = config or SortConfig()
        self.tracks: list[Track] = []
        self.dropped_updates = 0
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
            trk.state = predict(trk.state, cfg.kalman)
            if trk.time_since_update > 0:
                trk.hits = 0
            trk.time_since_update += 1

        predicted = [state_to_box(t.state, t.score, t.class_id) for t in self.tracks]
        result = associate(predicted, detections, cfg.iou_min)

        for t_idx, d_idx in result.matches:
            trk = self.tracks[t_idx]
            det = detections[d_idx]
            try:
                trk.state = update(
                    trk.state, box_to_measurement(det), cfg.kalman
                )
            except FilterNumericalError:
                self.dropped_updates += 1
                continue  # drop the measurement, keep the prediction
            trk.time_since_update = 0
            trk.hits += 1
            trk.score = det.score

        for d_idx in result.unmatched_detections:
            det = detections[d_idx]
            state = init_state(box_to_measurement(det), cfg.kalman)
            self.tracks.append(
                Track(id=self._next_id, state=state, class_id=det.class_id, score=det.score)
            )
            self._next_id += 1

        self.tracks = [t for t in self.tracks if t.time_since_update <= cfg.max_age]

        reported = []
        for trk in self.tracks:
            if trk.time_since_update != 0:
                continue
            if trk.hits >= cfg.min_hits or frame_index <= cfg.min_hits:
                box = state_to_box(trk.state, trk.score, trk.class_id)
                reported.append((trk.id, box, trk.class_id))
        reported.sort(key=lambda item: item[0])
        return reported
