"""Constant-velocity Kalman filter over bounding-box state.

State layout x = [u, v, s, r, du, dv, ds]: box center (u, v) in pixels,
area s in px^2, aspect ratio r = w/h (held constant by the motion model),
and per-frame velocities for u, v, s. The transition F and measurement H
are fixed by this layout, as in SORT; only the noise covariances Q, R and
the initial covariance P0 are configurable. Filter math is pure over
(state, config) so states can move freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox

STATE_DIM = 7
MEAS_DIM = 4

# s is floored here on predict so a shrinking track can never reach
# non-positive area (ds may legitimately be negative).
SCALE_FLOOR = 1e-6


class FilterNumericalError(RuntimeError):
    """Innovation covariance could not be inverted; caller drops the update."""


# F adds each velocity to its coordinate; H reads [u, v, s, r] out of x. The
# box conversions and the scale floor hard-code this layout too.
F = np.eye(STATE_DIM)
F[0, 4] = F[1, 5] = F[2, 6] = 1.0
H = np.eye(MEAS_DIM, STATE_DIM)
F.flags.writeable = H.flags.writeable = False


@dataclass(frozen=True)
class KalmanConfig:
    """Noise covariances; defaults are conventional settings for box tracking.

    Q, R and P0 are exposed so tests and callers can pin them.
    """

    Q: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4]))
    R: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 10.0, 10.0]))
    P0: np.ndarray = field(default_factory=lambda: np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4]))


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
