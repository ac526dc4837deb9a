"""File formats: MOT15-style rows, tensor dumps, run configs, box and graph JSON.

Readers reject malformed input instead of silently repairing it; writers
are deterministic (same data, byte-identical file).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox

MOT_COLUMNS = 10


class FormatError(ValueError):
    """Malformed file content; message carries the offending line number."""


class TensorFormatError(ValueError):
    pass


class BadMagicError(TensorFormatError):
    pass


class TruncatedError(TensorFormatError):
    pass


@dataclass(frozen=True)
class MotRow:
    """One MOT15 CSV row: frame, id, bb_left, bb_top, bb_width, bb_height,
    conf, x, y, z. Raw detections use id -1; x/y/z are echoed as -1."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    conf: float = 1.0

    def to_box(self, class_id: int = 0) -> BoundingBox:
        return BoundingBox(
            self.left, self.top, self.left + self.width, self.top + self.height,
            self.conf, class_id,
        )


def _fmt(value: float) -> str:
    # shortest round-trip form; integral values print without a fraction
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def parse_mot_line(line: str, lineno: int) -> MotRow:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != MOT_COLUMNS:
        raise FormatError(f"line {lineno}: expected {MOT_COLUMNS} columns, got {len(parts)}")
    try:
        frame = int(parts[0])
        track_id = int(parts[1])
        left, top, width, height, conf = (float(p) for p in parts[2:7])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc
    if frame < 1:
        raise FormatError(f"line {lineno}: frame must be >= 1, got {frame}")
    if width <= 0 or height <= 0:
        raise FormatError(f"line {lineno}: non-positive box size {width}x{height}")
    if not 0.0 <= conf <= 1.0:
        raise FormatError(f"line {lineno}: conf outside [0, 1]: {conf}")
    return MotRow(frame, track_id, left, top, width, height, conf)


def read_mot(path) -> dict[int, list[tuple[int, BoundingBox]]]:
    """Parse a MOT file into frame -> [(id, box), ...], frames sorted."""
    frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = parse_mot_line(line, lineno)
            frames.setdefault(row.frame, []).append((row.track_id, row.to_box()))
    return dict(sorted(frames.items()))


def write_mot(frames: dict[int, list[tuple[int, BoundingBox]]], path) -> None:
    """Write frame -> [(id, box), ...] as MOT rows sorted by (frame, id)."""
    with open(path, "w") as fh:
        for frame in sorted(frames):
            for track_id, box in sorted(frames[frame], key=lambda item: item[0]):
                fields = (
                    str(frame),
                    str(track_id),
                    _fmt(box.x_min),
                    _fmt(box.y_min),
                    _fmt(box.width),
                    _fmt(box.height),
                    _fmt(box.score),
                    "-1",
                    "-1",
                    "-1",
                )
                fh.write(",".join(fields) + "\n")


# -- tensor dumps --------------------------------------------------------------
#
# Layout (little-endian):
#   magic "TNSR" | version u8 | dtype u8 (0 = int32, 1 = float32) |
#   ndim u8 | ndim x dims u32 | payload (prod(dims) x 4 bytes)

TENSOR_MAGIC = b"TNSR"
TENSOR_VERSION = 1
_DTYPE_INT32 = 0
_DTYPE_FLOAT32 = 1


def write_tensor(tensor: np.ndarray, path) -> None:
    tensor = np.asarray(tensor)
    if np.issubdtype(tensor.dtype, np.integer):
        dtype_byte, out = _DTYPE_INT32, tensor.astype("<i4")
        if not np.array_equal(out.astype(np.int64), tensor.astype(np.int64)):
            raise TensorFormatError("integer values exceed int32 range")
    elif np.issubdtype(tensor.dtype, np.floating):
        dtype_byte, out = _DTYPE_FLOAT32, tensor.astype("<f4")
    else:
        raise TensorFormatError(f"unsupported dtype {tensor.dtype}")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<BBB", TENSOR_VERSION, dtype_byte, tensor.ndim))
        fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        fh.write(out.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != TENSOR_MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 7:
        raise TruncatedError(f"{path}: truncated header")
    version, dtype_byte, ndim = struct.unpack("<BBB", blob[4:7])
    if version != TENSOR_VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    header_end = 7 + 4 * ndim
    if len(blob) < header_end:
        raise TruncatedError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{ndim}I", blob[7:header_end])
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    expected = header_end + 4 * count
    if len(blob) < expected:
        raise TruncatedError(
            f"{path}: payload holds {(len(blob) - header_end) // 4} of {count} values"
        )
    if len(blob) > expected:
        raise TensorFormatError(f"{path}: {len(blob) - expected} trailing bytes")
    if dtype_byte == _DTYPE_INT32:
        flat = np.frombuffer(blob, dtype="<i4", offset=header_end, count=count)
    elif dtype_byte == _DTYPE_FLOAT32:
        flat = np.frombuffer(blob, dtype="<f4", offset=header_end, count=count)
    else:
        raise TensorFormatError(f"{path}: unknown dtype byte {dtype_byte}")
    return flat.reshape(dims).copy()


# -- run config ----------------------------------------------------------------

RUN_CONFIG_KEYS = {
    "score_thresh": float,
    "nms_iou": float,
    "iou_min": float,
    "max_age": int,
    "min_hits": int,
    "mot_gate": float,
}


def read_run_config(path) -> dict:
    """Parse `key = value` lines; unknown keys are rejected."""
    config: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected 'key = value'")
            key, _, value = (s.strip() for s in line.partition("="))
            if key not in RUN_CONFIG_KEYS:
                raise FormatError(f"line {lineno}: unknown key {key!r}")
            try:
                config[key] = RUN_CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
    return config


# -- minimal per-image boxes for detection eval ---------------------------------
#
# gt JSON:  {image_id: [[x_min, y_min, x_max, y_max, class_id], ...]}
# det JSON: {image_id: [[x_min, y_min, x_max, y_max, score, class_id], ...]}


def read_gt_boxes(path) -> dict[str, list[BoundingBox]]:
    return _read_boxes(path, with_score=False)


def read_det_boxes(path) -> dict[str, list[BoundingBox]]:
    return _read_boxes(path, with_score=True)


def _read_boxes(path, with_score: bool) -> dict[str, list[BoundingBox]]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected an object mapping image ids to box rows")
    n_fields = 6 if with_score else 5
    out = {}
    for image_id, rows in doc.items():
        if not isinstance(rows, list):
            raise FormatError(f"{image_id}: expected a list of box rows, got {rows!r}")
        boxes = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n_fields:
                raise FormatError(f"{image_id}[{i}]: need a row of {n_fields} fields, got {row!r}")
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row):
                raise FormatError(f"{image_id}[{i}]: fields must be numbers, got {row!r}")
            x0, y0, x1, y1, score, cls = row if with_score else (*row[:4], 1.0, row[4])
            if not float(cls).is_integer():
                raise FormatError(f"{image_id}[{i}]: class id must be an integer, got {cls!r}")
            boxes.append(BoundingBox(x0, y0, x1, y1, score, int(cls)))
        out[image_id] = boxes
    return out


# -- graph documents --------------------------------------------------------------
# Each checker raises `error`, the calling module's graph error.


def check_int(what: str, value, minimum: int, error: type[ValueError]) -> None:
    """Counts, latencies and ports are whole numbers: no floats, no bools."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")


def graph_specs(doc, key: str, names: tuple[str, ...], error: type[ValueError]) -> list[dict]:
    """The node or edge specs of a graph document, each naming `names` by a string."""
    if not isinstance(doc, dict):
        raise error("graph must be a JSON object")
    specs = doc.get(key, [])
    if not isinstance(specs, list):
        raise error(f"{key!r} must be a list")
    for spec in specs:
        if not isinstance(spec, dict):
            raise error(f"{key} entry {spec!r} is not an object")
        for name in names:
            if not isinstance(spec.get(name), str):
                raise error(f"{key} entry {spec!r} needs a string {name!r}")
    return specs
