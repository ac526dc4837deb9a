"""Frozen reference generator for the differential tests.

``generate_sequence`` below is motkit's original synthetic-sequence builder,
copied verbatim: it walks frame by frame and object by object, doing numpy
scalar arithmetic per box and drawing each box's four jitter values with
scalar ``rng.normal`` calls (cx, cy, w, h). ``motkit.synthetic`` must return
the same frames, ids, order and box fields, bit for bit.
"""

from __future__ import annotations

import numpy as np

from motkit.geometry import BoundingBox
from motkit.synthetic import MIN_BOX_SIDE


def generate_sequence(
    n_objects: int,
    n_frames: int,
    noise: float = 0.0,
    seed: int = 0,
    image_size: tuple[int, int] = (640, 480),
) -> tuple[dict[int, list[tuple[int, BoundingBox]]], dict[int, list[tuple[int, BoundingBox]]]]:
    """Build (gt_frames, det_frames), both keyed by 1-based frame index.

    Ground-truth entries carry object ids 1..n_objects; detection entries
    carry id -1 and a center/size jitter of the given standard deviation.
    Trajectories are clamped so every box stays inside the image.
    """
    if n_objects < 1 or n_frames < 1:
        raise ValueError("need at least one object and one frame")
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
    vx = (x_end - x0) / span
    vy = (y_end - y0) / span

    gt_frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    det_frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    for frame in range(1, n_frames + 1):
        t = frame - 1
        gt_list = []
        det_list = []
        for i in range(n_objects):
            left = x0[i] + vx[i] * t
            top = y0[i] + vy[i] * t
            box = BoundingBox(left, top, left + widths[i], top + heights[i], 1.0, 0)
            gt_list.append((i + 1, box))

            if noise > 0.0:
                cx = left + widths[i] / 2.0 + rng.normal(0.0, noise)
                cy = top + heights[i] / 2.0 + rng.normal(0.0, noise)
                w = max(MIN_BOX_SIDE, widths[i] + rng.normal(0.0, noise))
                h = max(MIN_BOX_SIDE, heights[i] + rng.normal(0.0, noise))
                det_box = BoundingBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0, 1.0, 0)
            else:
                det_box = box
            det_list.append((-1, det_box))
        gt_frames[frame] = gt_list
        det_frames[frame] = det_list
    return gt_frames, det_frames
