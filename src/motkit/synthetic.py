"""Synthetic box sequences with known identities.

Lets the full pipeline (track -> evaluate) run with zero external data:
objects move linearly inside the image for the whole sequence, and the
detection stream is the ground truth plus optional jitter. Coordinates are
built as (frame, object) arrays and become boxes one frame at a time.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundingBox

MIN_BOX_SIDE = 4.0


def generate_sequence(
    n_objects: int,
    n_frames: int,
    noise: float = 0.0,
    seed: int = 0,
    image_size: tuple[int, int] = (640, 480),
) -> tuple[dict[int, list[tuple[int, BoundingBox]]], dict[int, list[tuple[int, BoundingBox]]]]:
    """Build (gt_frames, det_frames), both keyed by 1-based frame index.

    Ground-truth entries carry object ids 1..n_objects; detection entries
    carry id -1 and a center/size jitter of standard deviation `noise`
    (finite and >= 0), sides floored at MIN_BOX_SIDE; at noise 0 they are the
    ground-truth box objects. Trajectories are clamped into the image. The
    jitter is one (n_frames, n_objects, 4) draw, whose C order (cx, cy, w, h
    per box, box by box, frame by frame) is a per-box loop's scalar draws.
    """
    if n_objects < 1 or n_frames < 1:
        raise ValueError("need at least one object and one frame")
    if not 0.0 <= noise < np.inf:  # NaN fails too
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    img_w, img_h = image_size
    if img_w <= 64 or img_h <= 64:
        raise ValueError(f"image {img_w}x{img_h} too small for generated boxes")

    widths = rng.uniform(24.0, 64.0, n_objects)
    heights = rng.uniform(24.0, 64.0, n_objects)
    # linear motion, at most a few pixels per frame, clipped into the image
    span = max(1, n_frames - 1)
    x0 = rng.uniform(0.0, img_w - widths)
    y0 = rng.uniform(0.0, img_h - heights)
    x_end = np.clip(x0 + rng.uniform(-2.5, 2.5, n_objects) * span, 0.0, img_w - widths)
    y_end = np.clip(y0 + rng.uniform(-2.5, 2.5, n_objects) * span, 0.0, img_h - heights)

    t = np.arange(n_frames)[:, None]  # positions are (frame, object) arrays
    left = x0 + (x_end - x0) / span * t
    top = y0 + (y_end - y0) / span * t
    gt = np.stack([left, top, left + widths, top + heights], axis=2)
    det = None
    if noise > 0.0:
        jx, jy, jw, jh = rng.normal(0.0, noise, (n_frames, n_objects, 4)).transpose(2, 0, 1)
        with np.errstate(all="ignore"):
            cx, cy = left + widths / 2.0 + jx, top + heights / 2.0 + jy
            half_w, half_h = np.maximum(MIN_BOX_SIDE, [widths + jw, heights + jh]) / 2.0
            det = np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=2)
        if not np.isfinite(det).all():
            raise ValueError(f"noise {noise} jitters box corners past float64 range")

    gt_frames, det_frames = {}, {}
    for frame in range(1, n_frames + 1):
        boxes = [BoundingBox(*corners) for corners in gt[frame - 1].tolist()]
        gt_frames[frame] = list(enumerate(boxes, 1))
        if det is not None:
            boxes = [BoundingBox(*corners) for corners in det[frame - 1].tolist()]
        det_frames[frame] = [(-1, box) for box in boxes]
    return gt_frames, det_frames
