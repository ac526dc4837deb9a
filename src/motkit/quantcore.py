"""Bit-exact quantized operator semantics.

Uniform quantizer, multi-threshold requantization with affine absorption,
integer convolution lowered to a matrix multiply, and mixed-width channel
split/concat. All operators are pure; accumulators are wide (int64) and
never saturate mid-accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class QuantSpec:
    """Uniform N-bit quantization: integer range plus a real scale factor.

    An N-bit uniform quantizer has 2^N - 1 thresholds; unsigned values live
    in [0, 2^N - 1], signed in [-2^(N-1), 2^(N-1) - 1].
    """

    bits: int
    scale: float = 1.0
    signed: bool = False

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1


@dataclass(frozen=True)
class IntTensor:
    """Integer tensor with its quantization spec; values must be in range."""

    values: np.ndarray
    spec: QuantSpec

    def __post_init__(self):
        v = self.values
        if not np.issubdtype(v.dtype, np.integer):
            raise ValueError(f"IntTensor requires integer dtype, got {v.dtype}")
        if v.size and (v.min() < self.spec.qmin or v.max() > self.spec.qmax):
            raise ValueError(
                f"values outside [{self.spec.qmin}, {self.spec.qmax}] for "
                f"{self.spec.bits}-bit spec"
            )


def quantize(x: np.ndarray, spec: QuantSpec) -> IntTensor:
    """round(x / scale), clamped into the spec range."""
    q = np.round(np.asarray(x, dtype=float) / spec.scale)
    q = np.clip(q, spec.qmin, spec.qmax).astype(np.int64)
    return IntTensor(q, spec)


def dequantize(t: IntTensor) -> np.ndarray:
    return t.values.astype(float) * t.spec.scale


@dataclass(frozen=True)
class MultiThresholdOp:
    """Per-channel ascending thresholds t_0 < ... < t_{n-1}, n = 2^out_bits - 1.

    Output for channel c is out_bias + |{i : t_i <= x}|: the index of the
    smallest threshold above x, saturating at n. count_above[c] inverts the
    comparison for that channel (out_bias + |{i : t_i >= x}|); it is set by
    absorb_affine when a negative scale flips the input ordering, so the
    absorbed operator stays exact even when x lands on a threshold.
    """

    thresholds: np.ndarray
    out_bits: int
    out_bias: int = 0
    count_above: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.thresholds, dtype=float))
        object.__setattr__(self, "thresholds", t)
        n = (1 << self.out_bits) - 1
        if t.shape[1] != n:
            raise ValueError(
                f"{self.out_bits}-bit output needs {n} thresholds per channel, "
                f"got {t.shape[1]}"
            )
        if np.any(np.diff(t, axis=1) <= 0.0):
            raise ValueError("thresholds must be strictly ascending per channel")
        flips = self.count_above
        if flips is None:
            flips = np.zeros(t.shape[0], dtype=bool)
        else:
            flips = np.asarray(flips, dtype=bool).reshape(-1)
            if flips.shape[0] != t.shape[0]:
                raise ValueError("count_above length must match channel count")
        object.__setattr__(self, "count_above", flips)

    @property
    def channels(self) -> int:
        return self.thresholds.shape[0]

    @property
    def levels(self) -> int:
        return self.thresholds.shape[1]


def multithreshold(x, op: MultiThresholdOp, channel: int = 0):
    """Threshold count for scalar or array input on one channel."""
    t = op.thresholds[channel]
    x = np.asarray(x, dtype=float)
    if op.count_above[channel]:
        out = op.levels - np.searchsorted(t, x, side="left")
    else:
        out = np.searchsorted(t, x, side="right")
    out = out + op.out_bias
    return int(out) if out.ndim == 0 else out.astype(np.int64)


def mt_apply(op: MultiThresholdOp, x: np.ndarray) -> np.ndarray:
    """Apply channelwise to a [C][H][W] tensor."""
    if x.shape[0] != op.channels:
        raise ValueError(f"tensor has {x.shape[0]} channels, op has {op.channels}")
    out = np.empty(x.shape, dtype=np.int64)
    for c in range(op.channels):
        out[c] = multithreshold(x[c], op, c)
    return out


def absorb_affine(op: MultiThresholdOp, a, b) -> MultiThresholdOp:
    """Fold y = a*x + b into the thresholds: t <- (t - b) / a.

    The returned operator applied to x equals op applied to a*x + b for all
    x. Negative a reverses the threshold order; rows are re-sorted and the
    channel's comparison direction flipped to compensate.
    """
    a = np.broadcast_to(np.asarray(a, dtype=float), (op.channels,)).copy()
    b = np.broadcast_to(np.asarray(b, dtype=float), (op.channels,)).copy()
    if np.any(a == 0.0):
        raise ValueError("zero scale is not invertible in threshold space")
    t = (op.thresholds - b[:, None]) / a[:, None]
    flips = op.count_above.copy()
    neg = a < 0.0
    t[neg] = t[neg, ::-1]
    flips[neg] = ~flips[neg]
    return MultiThresholdOp(t, op.out_bits, op.out_bias, flips)


def im2col(x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Image matrix for a k x k convolution: [(k*k*C), out_h*out_w].

    Each column holds the input data of one filter-context position; rows
    are channel-interleaved (row index (ky*k + kx)*C + c) so per-position
    partial products need no per-channel caching.
    """
    c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"kernel {kernel} does not fit {h}x{w} input with pad {pad}")
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((kernel * kernel * c, out_h * out_w), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            patch = xp[:, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
            cols[(ky * kernel + kx) * c : (ky * kernel + kx + 1) * c] = patch.reshape(c, -1)
    return cols


def filter_matrix(weights: np.ndarray) -> np.ndarray:
    """Filter matrix [O, k*k*C]: one row per output channel, columns matching
    the im2col channel-interleaved layout."""
    o, c, kh, kw = weights.shape
    if kh != kw:
        raise ValueError(f"square kernels only, got {kh}x{kw}")
    return weights.transpose(0, 2, 3, 1).reshape(o, kh * kw * c)


def conv2d(x: np.ndarray, weights: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Convolution as filter-matrix x image-matrix; dtype-generic."""
    if x.shape[0] != weights.shape[1]:
        raise ValueError(
            f"input channels {x.shape[0]} != weight input channels {weights.shape[1]}"
        )
    kernel = weights.shape[2]
    cols = im2col(x, kernel, stride, pad)
    out = filter_matrix(weights) @ cols
    out_h = (x.shape[1] + 2 * pad - kernel) // stride + 1
    out_w = (x.shape[2] + 2 * pad - kernel) // stride + 1
    return out.reshape(weights.shape[0], out_h, out_w)


def conv_int(x, weights: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Exact integer convolution with a wide (int64) accumulator."""
    values = x.values if isinstance(x, IntTensor) else np.asarray(x)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError("conv_int expects integer inputs")
    if not np.issubdtype(np.asarray(weights).dtype, np.integer):
        raise ValueError("conv_int expects integer weights")
    return conv2d(values.astype(np.int64), np.asarray(weights, dtype=np.int64), stride, pad)


def split_channels(t: IntTensor, sizes: list[int]) -> list[IntTensor]:
    """Slice a tensor along channels into parts of the given sizes."""
    if sum(sizes) != t.values.shape[0] or any(s <= 0 for s in sizes):
        raise ValueError(f"split sizes {sizes} do not partition {t.values.shape[0]} channels")
    parts = []
    start = 0
    for s in sizes:
        parts.append(IntTensor(t.values[start : start + s], t.spec))
        start += s
    return parts


def concat_channels(ts: list[IntTensor]) -> IntTensor:
    """Concatenate along channels; inputs may differ in bit width.

    Spatial dims, scale and signedness must match; the result carries the
    widest input's bit count and all values unchanged.
    """
    if not ts:
        raise ValueError("nothing to concatenate")
    first = ts[0]
    for t in ts[1:]:
        if t.values.shape[1:] != first.values.shape[1:]:
            raise ValueError("spatial dims differ across concat inputs")
        if t.spec.scale != first.spec.scale or t.spec.signed != first.spec.signed:
            raise ValueError("concat inputs must share scale and signedness")
    out_spec = QuantSpec(
        bits=max(t.spec.bits for t in ts),
        scale=first.spec.scale,
        signed=first.spec.signed,
    )
    return IntTensor(np.concatenate([t.values for t in ts], axis=0), out_spec)
