"""Tracking-by-detection toolkit with quantized-pipeline models.

SORT tracking over decoded detection heads, CLEAR MOT / mAP evaluation,
bit-exact quantized operators, graph streamlining passes, and a streaming
FIFO-sizing simulator.
"""

from .assignment import AssignmentResult, associate, solve_lap
from .geometry import BoundingBox, iou_matrix
from .kalman import KalmanConfig
from .metrics import MotAccumulator, average_precision, coco_map, mota
from .tracker import SortConfig, SortTracker

__all__ = [
    "AssignmentResult",
    "BoundingBox",
    "KalmanConfig",
    "MotAccumulator",
    "SortConfig",
    "SortTracker",
    "associate",
    "average_precision",
    "coco_map",
    "iou_matrix",
    "mota",
    "solve_lap",
]
