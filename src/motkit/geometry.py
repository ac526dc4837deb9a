"""Axis-aligned bounding boxes and overlap measures.

Boxes travel as box_rows' float64 (N, 6) rows (x_min, y_min, x_max, y_max,
score, class_id); BoundingBox holds one box at the edges of motkit, and
boxes turns rows back into BoundingBoxes. One rule says which boxes exist:
BoundingBox checks it on each box, box_rows on each array of rows, with the
same outcome and message per row.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

# corner_iou keeps every intermediate finite for boxes whose corners lie
# within +-CORNER_LIMIT and whose area, doubled, is finite: an area of at
# most CORNER_LIMIT too.
CORNER_LIMIT = sys.float_info.max / 2


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Corner-form box with a detection score and class index.

    Invariants (checked at construction): x_max >= x_min, y_max >= y_min,
    corners within +-CORNER_LIMIT and a finite doubled area, score in [0, 1],
    integral class_id.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    score: float = 1.0
    class_id: int = 0

    def __post_init__(self):
        x0, y0, x1, y1 = self.x_min, self.y_min, self.x_max, self.y_max
        if not (x1 >= x0 and y1 >= y0):  # NaN fails too
            raise ValueError(f"inverted corners: ({x0}, {y0}, {x1}, {y1})")
        if not _within_limits(x0, y0, x1, y1):
            raise ValueError(
                f"box ({x0}, {y0}, {x1}, {y1}) overflows: corners must lie "
                f"within +-{CORNER_LIMIT:.6g} and twice its area must be finite"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")
        if not _is_class_id(self.class_id):
            raise ValueError(f"class id must be an integer in float64 range, got {self.class_id}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def _within_limits(x0, y0, x1, y1) -> bool:
    """The corner and area limits on ordered corners, taken as Python floats:
    numpy scalars compare and multiply without a warning."""
    try:
        x0, y0, x1, y1 = float(x0), float(y0), float(x1), float(y1)
    except OverflowError:  # an int past float64 range
        return False
    return (-CORNER_LIMIT <= x0 and -CORNER_LIMIT <= y0 and x1 <= CORNER_LIMIT
            and y1 <= CORNER_LIMIT and (x1 - x0) * (y1 - y0) <= CORNER_LIMIT)


def _is_class_id(value) -> bool:
    try:
        return float(value).is_integer()
    except OverflowError:  # an int past float64 range
        return False


Boxes = np.ndarray | list[BoundingBox]  # what box_rows accepts

# Fields within +-_SAFE_FIELD give sides of at most 2**511 and areas of at
# most 2**1022, inside the rule with room to spare.
_SAFE_FIELD = 2.0**510
# Up to this many rows, building a BoundingBox per row costs less than the
# whole-array reductions' fixed cost.
_FEW_ROWS = 6


def box_rows(boxes: Boxes) -> np.ndarray:
    """(N, 6) float64 rows of `boxes`. A list is valid by construction; an array
    must be (N, 6), and its first row that BoundingBox refuses raises
    BoundingBox's ValueError. A float64 array comes back as it is, uncopied."""
    if not isinstance(boxes, np.ndarray):
        boxes = [(b.x_min, b.y_min, b.x_max, b.y_max, b.score, b.class_id) for b in boxes]
        return np.array(boxes, dtype=float).reshape(-1, 6)
    rows = np.asarray(boxes, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError(f"box rows must have shape (N, 6), got {rows.shape}")
    # Whole-array reductions pass a larger array that cannot break the rule:
    # every field within +-_SAFE_FIELD (NaN fails), scores in [0, 1], ordered
    # corners and integral class ids. Any other array is checked row by row.
    if len(rows) > _FEW_ROWS:
        score, class_id = rows[:, 4], rows[:, 5]
        if (-_SAFE_FIELD <= rows.min() and rows.max() <= _SAFE_FIELD
                and 0.0 <= score.min() and score.max() <= 1.0
                and ((rows[:, 2] >= rows[:, 0]) & (rows[:, 3] >= rows[:, 1])).all()
                and (np.floor(class_id) == class_id).all()):
            return rows
    for row in rows.tolist():
        BoundingBox(*row)  # raises for the first refused row
    return rows


def int64_class_ids(rows: np.ndarray) -> np.ndarray:
    """The class column of checked box rows as int64; an id outside int64
    raises ValueError instead of wrapping."""
    class_id = rows[:, 5]
    outside = (class_id < -(2.0**63)) | (class_id >= 2.0**63)
    if outside.any():
        raise ValueError(f"class id outside int64: {class_id[outside][0]}")
    return class_id.astype(np.int64)


_SETTERS = [getattr(BoundingBox, f.name).__set__ for f in fields(BoundingBox)]


def boxes(rows: np.ndarray) -> list[BoundingBox]:
    """box_rows' inverse: BoundingBoxes of (N, 6) box rows. The array is checked
    once, as box_rows checks it; class ids come back as ints and must fit int64.
    Each slot is filled column by column, so no Python code runs per box."""
    rows = box_rows(np.asarray(rows, dtype=float))
    columns = [*rows[:, :5].T.tolist(), int64_class_ids(rows).tolist()]
    out = list(map(object.__new__, repeat(BoundingBox, len(rows))))
    for setter, column in zip(_SETTERS, columns):
        deque(map(setter, out, column), maxlen=0)
    return out


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
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0.0)
