"""Bit-exact quantized operator semantics.

Multi-threshold requantization with affine absorption, and integer
convolution lowered to a matrix multiply. All operators are pure;
accumulators are wide (int64) and never saturate mid-accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, slots=True)
class MultiThresholdOp:
    """Per-channel ascending thresholds t_0 < ... < t_{n-1}, n = 2^out_bits - 1.

    Output for channel c is out_bias + |{i : t_i <= x}|: the index of the
    smallest threshold above x, saturating at n. count_above[c] inverts the
    comparison for that channel (out_bias + |{i : t_i >= x}|); it is set by
    absorb_affine when a negative scale flips the input ordering, so the
    absorbed operator stays exact even when x lands on a threshold. A NaN
    threshold is refused; equal infinities (inf - inf is NaN) count as ascending.
    """

    thresholds: np.ndarray
    out_bits: int
    out_bias: int = 0
    count_above: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        t = t.reshape(1, -1) if t.ndim < 2 else t  # as np.atleast_2d
        object.__setattr__(self, "thresholds", t)
        count, bits = t.shape[1], self.out_bits
        # a huge out_bits fails on the bit length, before 2**out_bits is built
        if count.bit_length() != bits or count != (1 << bits) - 1:
            need = (1 << bits) - 1 if bits <= 64 else f"2**{bits} - 1"  # negative: the shift raises
            raise ValueError(f"{bits}-bit output needs {need} thresholds per channel, got {count}")
        # common rows pass on one comparison, which a pair holding a NaN fails
        # as a pair out of order does; a lone threshold has no pair to fail
        odd = t.shape[1] < 2 or not (t[:, 1:] > t[:, :-1]).all()
        if odd:
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: inf, inf ascends
                if ((t[:, 1:] - t[:, :-1]) <= 0.0).any():  # np.diff's arithmetic
                    raise ValueError("thresholds must be strictly ascending per channel")
        flips = np.zeros(t.shape[0], bool) if self.count_above is None else self.count_above
        flips = np.asarray(flips, dtype=bool).reshape(-1)
        if flips.shape[0] != t.shape[0]:
            raise ValueError("count_above length must match channel count")
        if odd and np.isnan(t).any():
            raise ValueError("thresholds must not be NaN")
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
    a, b = _channelwise(a, op.channels), _channelwise(b, op.channels)
    if (a == 0.0).any():
        raise ValueError("zero scale is not invertible in threshold space")
    t = (op.thresholds - b[:, None]) / a[:, None]
    neg = a < 0.0
    t = np.where(neg[:, None], t[:, ::-1], t)
    return MultiThresholdOp(t, op.out_bits, op.out_bias, op.count_above ^ neg)


def _channelwise(v, channels: int) -> np.ndarray:  # np.broadcast_to raises if v won't fit
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        return v.repeat(channels)  # one call; broadcast_to costs several
    return v if v.shape == (channels,) else np.broadcast_to(v, (channels,))


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
    if pad:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
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


def conv_int(x: np.ndarray, weights: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Exact integer convolution with a wide (int64) accumulator."""
    values = np.asarray(x)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError("conv_int expects integer inputs")
    if not np.issubdtype(np.asarray(weights).dtype, np.integer):
        raise ValueError("conv_int expects integer weights")
    return conv2d(values.astype(np.int64), np.asarray(weights, dtype=np.int64), stride, pad)
