"""Constant-velocity Kalman filter over stacks of bounding-box states.

State layout x = [u, v, s, r, du, dv, ds]: box center (u, v) in pixels,
area s in px^2, aspect ratio r = w/h (held constant by the motion model),
and per-frame velocities for u, v, s. The transition F and measurement H
are fixed by this layout, as in SORT; only the noise covariances Q, R and
the initial covariance P0 are configurable.

Every function works on row stacks, one row per track: states x (N, 7),
covariances P (N, 7, 7), measurements z (N, 4), corner boxes (N, 4).
Inputs are never written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox, boxes

STATE_DIM = 7
MEAS_DIM = 4

# s is floored here on predict so a shrinking track can never reach
# non-positive area (ds may legitimately be negative).
SCALE_FLOOR = 1e-6

# F adds each velocity to its coordinate; H reads [u, v, s, r] out of x. The
# box conversions and the scale floor hard-code this layout too.
F = np.eye(STATE_DIM)
F[0, 4] = F[1, 5] = F[2, 6] = 1.0
H = np.eye(MEAS_DIM, STATE_DIM)
F.flags.writeable = H.flags.writeable = False


@dataclass(frozen=True)
class KalmanConfig:
    """Noise covariances; defaults are conventional settings for box tracking.

    Q (7x7), R (4x4) and P0 (7x7) are exposed so tests and callers can pin
    them; each must have exactly its shape and finite entries.
    """

    Q: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4]))
    R: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 10.0, 10.0]))
    P0: np.ndarray = field(default_factory=lambda: np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4]))

    def __post_init__(self):
        for name, dim in (("Q", STATE_DIM), ("R", MEAS_DIM), ("P0", STATE_DIM)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (dim, dim):
                raise ValueError(f"{name} must have shape ({dim}, {dim}), got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has non-finite entries")


def init_state(z: np.ndarray, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """New states from first measurements z (N, 4): zero velocities, P0 covariance."""
    x = np.zeros((len(z), STATE_DIM))
    x[:, :MEAS_DIM] = z
    return x, np.tile(cfg.P0, (len(z), 1, 1))


def predict(x: np.ndarray, P: np.ndarray, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time update: x <- F x (scale floored), P <- F P F^T + Q."""
    x = x @ F.T
    x[x[:, 2] <= 0.0, 2] = SCALE_FLOOR
    return x, F @ P @ F.T + cfg.Q


def update(
    x: np.ndarray, P: np.ndarray, z: np.ndarray, cfg: KalmanConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update with z rows [u, v, s, r]; returns (x, P, ok).

    A row whose innovation covariance S is singular keeps its prior and
    reads False in ok; nothing raises. Updated covariances are
    re-symmetrized.
    """
    innovation = z - x @ H.T
    s_t = np.swapaxes(H @ P @ H.T + cfg.R, 1, 2)
    # slogdet factorises S^T exactly as solve does, so its zero sign marks
    # exactly the rows solve would reject as singular.
    ok = np.linalg.slogdet(s_t)[0] != 0.0
    # K = P H^T S^-1, via solve on S^T to avoid forming the inverse
    k = np.swapaxes(np.linalg.solve(s_t[ok], np.swapaxes(P[ok] @ H.T, 1, 2)), 1, 2)
    x, P = x.copy(), P.copy()
    x[ok] += (k @ innovation[ok][:, :, None])[:, :, 0]
    p = (np.eye(STATE_DIM) - k @ H) @ P[ok]
    P[ok] = (p + np.swapaxes(p, 1, 2)) / 2.0
    return x, P, ok


def box_to_measurement(corners: np.ndarray) -> np.ndarray:
    """Corner boxes (N, 4) -> [u, v, s, r] rows. Non-positive area or overflow is an error."""
    x0, y0, x1, y1 = np.asarray(corners, dtype=float).reshape(-1, 4).T
    with np.errstate(all="ignore"):
        w, h = x1 - x0, y1 - y0
        z = np.stack([x0 + w / 2.0, y0 + h / 2.0, w * h, w / h], axis=1)
    if np.any(w <= 0.0) or np.any(h <= 0.0):
        raise ValueError(f"box has non-positive area: min w={w.min()}, min h={h.min()}")
    if not np.isfinite(z).all():
        raise ValueError(f"box width, height or area not finite: max w={w.max()}, max h={h.max()}")
    return z


def state_to_corners(x: np.ndarray) -> np.ndarray:
    """States (N, 7) -> corner boxes (N, 4); requires positive scale and aspect."""
    u, v, s, r = x[:, :MEAS_DIM].T
    if np.any(s <= 0.0) or np.any(r <= 0.0):
        raise ValueError(f"state has non-positive area: min s={s.min()}, min r={r.min()}")
    w = np.sqrt(s * r)  # and height s / w
    return np.stack([u - w / 2.0, v - s / w / 2.0, u + w / 2.0, v + s / w / 2.0], axis=1)


def state_to_box(x: np.ndarray, scores, class_ids) -> list[BoundingBox]:
    """States (N, 7) -> boxes carrying the rows' scores and class ids."""
    return boxes(np.column_stack([state_to_corners(x), scores, class_ids]))
