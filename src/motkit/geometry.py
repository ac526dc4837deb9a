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


def corner_array(boxes: list[BoundingBox]) -> np.ndarray:
    """(N, 4) float corner array of `boxes`, (0, 4) when there are none."""
    return np.array([b.corners() for b in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(rows: list[BoundingBox], cols: list[BoundingBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(rows), len(cols))."""
    return corner_iou(corner_array(rows)[:, None], corner_array(cols)[None])


def corner_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner arrays a (..., 4) and b (..., 4), broadcast over the
    leading axes: a[:, None] and b[None] give the pairwise matrix, aligned
    arrays one IoU per pair. 0 where the union is empty, so degenerate
    boxes never abort a run."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0.0)
