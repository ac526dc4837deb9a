"""Axis-aligned bounding boxes and overlap measures.

Boxes travel as box_rows' float64 (N, 6) rows (x_min, y_min, x_max, y_max,
score, class_id); BoundingBox holds one box at the edges of motkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Corner-form box with a detection score and class index.

    Invariants (checked at construction): x_max >= x_min, y_max >= y_min,
    score in [0, 1], integral class_id.
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
        if not float(self.class_id).is_integer():
            raise ValueError(f"class id must be an integer, got {self.class_id}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


Boxes = np.ndarray | list[BoundingBox]  # what box_rows accepts


def box_rows(boxes: Boxes) -> np.ndarray:
    """(N, 6) float64 rows of `boxes`. A list is valid by construction; an array
    must be (N, 6), and its first row breaking a BoundingBox invariant raises
    BoundingBox's ValueError. A float64 array comes back as it is, uncopied."""
    if not isinstance(boxes, np.ndarray):
        boxes = [(b.x_min, b.y_min, b.x_max, b.y_max, b.score, b.class_id) for b in boxes]
        return np.array(boxes, dtype=float).reshape(-1, 6)
    rows = np.asarray(boxes, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError(f"box rows must have shape (N, 6), got {rows.shape}")
    score, class_id = rows[:, 4], rows[:, 5]
    ok = (rows[:, 2:4] >= rows[:, :2]).all(axis=1) & (score >= 0.0) & (score <= 1.0)
    ok &= np.isfinite(class_id) & (np.floor(class_id) == class_id)  # NaN fails each
    if not ok.all():
        BoundingBox(*rows[~ok][0].tolist())  # raises for the first bad row
    return rows


def iou_matrix(rows: Boxes, cols: Boxes) -> np.ndarray:
    """Pairwise IoU of two box_rows inputs, shape (len(rows), len(cols))."""
    return corner_iou(box_rows(rows)[:, None, :4], box_rows(cols)[None, :, :4])


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
