"""Axis-aligned bounding boxes and overlap measures.

Corner form (x_min, y_min, x_max, y_max) is the canonical representation
throughout; center/size conversions live next to the code that needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Corner-form box with a detection score and class index.

    Invariants (checked at construction): x_max >= x_min, y_max >= y_min,
    score in [0, 1].
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    score: float = 1.0
    class_id: int = 0

    def __post_init__(self):
        if not (self.x_max >= self.x_min and self.y_max >= self.y_min):
            raise ValueError(
                f"inverted corners: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


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


def iou_matrix(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(rows), len(cols))."""
    return corner_iou(*(np.array([b.corners() for b in bs]).reshape(-1, 4) for bs in (rows, cols)))


def corner_iou(ra: np.ndarray, ca: np.ndarray) -> np.ndarray:
    """Pairwise IoU of corner arrays ra (N, 4) and ca (M, 4), shape (N, M);
    0 where the union is empty."""
    ix = np.minimum(ra[:, None, 2], ca[None, :, 2]) - np.maximum(ra[:, None, 0], ca[None, :, 0])
    iy = np.minimum(ra[:, None, 3], ca[None, :, 3]) - np.maximum(ra[:, None, 1], ca[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_r = (ra[:, 2] - ra[:, 0]) * (ra[:, 3] - ra[:, 1])
    area_c = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    union = area_r[:, None] + area_c[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(union, dtype=float), where=union > 0.0)
