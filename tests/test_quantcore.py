import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motkit.quantcore import MultiThresholdOp, absorb_affine, conv_int, im2col, multithreshold


def naive_conv(x, w, stride=1, pad=0):
    """Quadruple-loop reference convolution, independent of the im2col path."""
    o, c, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (x.shape[1] + 2 * pad - k) // stride + 1
    out_w = (x.shape[2] + 2 * pad - k) // stride + 1
    out = np.zeros((o, out_h, out_w), dtype=np.int64)
    for oc in range(o):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = 0
                for ic in range(c):
                    for ky in range(k):
                        for kx in range(k):
                            acc += int(w[oc, ic, ky, kx]) * int(
                                xp[ic, oy * stride + ky, ox * stride + kx]
                            )
                out[oc, oy, ox] = acc
    return out


class TestMultiThreshold:
    def setup_method(self):
        self.op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)

    def test_below_all_thresholds(self):
        assert multithreshold(0.0, self.op) == 0

    def test_interior_value(self):
        # index of the smallest threshold above 4 in {1,3,5} is 2
        assert multithreshold(4.0, self.op) == 2

    def test_saturates_above_all(self):
        assert multithreshold(10.0, self.op) == 3

    def test_boundary_counts_equal_threshold(self):
        assert multithreshold(3.0, self.op) == 2

    def test_out_bias_added(self):
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2, out_bias=-2)
        assert multithreshold(4.0, op) == 0

    def test_threshold_count_must_match_bits(self):
        with pytest.raises(ValueError):
            MultiThresholdOp(np.array([1.0, 2.0]), out_bits=2)

    def test_thresholds_must_ascend(self):
        with pytest.raises(ValueError):
            MultiThresholdOp(np.array([1.0, 1.0, 5.0]), out_bits=2)

    @pytest.mark.parametrize("row, ascending", [
        ([1e308, np.inf, np.inf], True),  # inf - inf is NaN, which reads as ascending
        ([-np.inf, -np.inf, 0.0], True),
        ([-1e308, 1e308, np.inf], True),  # the first difference overflows to inf
        ([-1e308, 1e308, -np.inf], False),
    ])
    def test_ascending_check_warns_on_no_row(self, row, ascending):
        """Rows that overflow or meet equal infinities are judged by np.diff's
        arithmetic, with no RuntimeWarning (an error under this suite)."""
        if ascending:
            MultiThresholdOp(np.array(row), out_bits=2)
        else:
            with pytest.raises(ValueError, match="strictly ascending"):
                MultiThresholdOp(np.array(row), out_bits=2)

    @pytest.mark.parametrize("row", [[0.0, np.nan, 2.0], [np.nan] * 3, [0.0, 1.0, np.nan],
                                     [np.inf, np.inf, np.nan], [np.nan]])
    def test_nan_threshold_refused(self, row):
        with pytest.raises(ValueError, match="^thresholds must not be NaN$"):
            MultiThresholdOp(np.array([row]), out_bits=len(row).bit_length())

    @pytest.mark.parametrize("out_bits, need", [
        (1, "1"), (64, str(2**64 - 1)), (65, "2**65 - 1"), (2**27, "2**134217728 - 1"),
        (10**18, f"2**{10**18} - 1"),
    ])
    def test_threshold_count_refused_before_the_level_count_is_built(self, out_bits, need):
        """The count is checked against `out_bits` by bit length, so a huge
        `out_bits` is refused at once, without building 2**out_bits: 10**18
        bits could never be allocated, and 2**27 bits would take 16 MiB."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError) as exc:
                MultiThresholdOp(np.zeros((1, 3)), out_bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        assert str(exc.value) == f"{out_bits}-bit output needs {need} thresholds per channel, got 3"

    @pytest.mark.parametrize("row", [[0.0, np.inf, np.inf], [np.inf] * 3, [-np.inf] * 3])
    def test_equal_infinities_accepted(self, row):
        op = MultiThresholdOp(np.array([row]), out_bits=2)
        assert multithreshold(1.0, op) == (row[0] <= 1.0) + (row[1] <= 1.0) + (row[2] <= 1.0)

    @given(st.lists(st.integers(-64, 64), min_size=2, max_size=2, unique=True))
    def test_nondecreasing_in_x(self, pair):
        lo, hi = sorted(pair)
        assert multithreshold(lo, self.op) <= multithreshold(hi, self.op)


GRID = np.arange(-64, 65, dtype=float)


def assert_absorption_equivalent(op, a, b):
    absorbed = absorb_affine(op, a, b)
    for ch in range(op.channels):
        a_ch = np.broadcast_to(np.asarray(a, dtype=float), (op.channels,))[ch]
        b_ch = np.broadcast_to(np.asarray(b, dtype=float), (op.channels,))[ch]
        direct = multithreshold(a_ch * GRID + b_ch, op, ch)
        via = multithreshold(GRID, absorbed, ch)
        assert np.array_equal(direct, via), (a_ch, b_ch, op.thresholds[ch])


class TestAbsorbAffine:
    def test_identity_affine_keeps_thresholds(self):
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)
        out = absorb_affine(op, 1.0, 0.0)
        assert np.array_equal(out.thresholds, op.thresholds)

    def test_hand_computed_substitution(self):
        # t <- (t - 1) / 2 over {1,3,5} = {0,1,2}
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)
        out = absorb_affine(op, 2.0, 1.0)
        assert np.array_equal(out.thresholds, [[0.0, 1.0, 2.0]])
        for x in (-1.0, 0.0, 1.0, 2.0, 3.0):
            assert multithreshold(x, out) == multithreshold(2 * x + 1, op)

    def test_negative_scale_exact_on_integer_grid(self):
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)
        assert_absorption_equivalent(op, -2.0, 1.0)

    def test_zero_scale_rejected(self):
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)
        with pytest.raises(ValueError):
            absorb_affine(op, 0.0, 1.0)

    def test_per_channel_mixed_signs(self):
        op = MultiThresholdOp(
            np.array([[1.0, 3.0, 5.0], [-4.0, 0.0, 4.0]]), out_bits=2
        )
        assert_absorption_equivalent(op, [2.0, -3.0], [1.0, -2.0])

    def test_double_absorption_composes(self):
        op = MultiThresholdOp(np.array([1.0, 3.0, 5.0]), out_bits=2)
        once = absorb_affine(absorb_affine(op, -2.0, 1.0), 3.0, -4.0)
        direct = multithreshold(-2.0 * (3.0 * GRID - 4.0) + 1.0, op, 0)
        assert np.array_equal(multithreshold(GRID, once, 0), direct)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=3, max_size=3, unique=True),
        st.integers(-8, 8).filter(lambda v: v != 0),
        st.integers(-16, 16),
    )
    def test_random_integer_cases_bit_exact(self, thresholds, a, b):
        op = MultiThresholdOp(np.array(sorted(thresholds), dtype=float), out_bits=2)
        assert_absorption_equivalent(op, float(a), float(b))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 3),
        *[st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.1, 1e-300, np.inf, -np.inf, np.nan])] * 2,
        st.booleans(),
        st.booleans(),
    )
    def test_scalar_and_per_channel_parameters_absorb_alike(self, channels, a, b, a_vec, b_vec):
        # a scalar takes its own path through absorb_affine; spelled out per
        # channel it must give the same bits, or the same error
        thresholds = np.arange(channels * 3, dtype=float).reshape(channels, 3)
        op = MultiThresholdOp(thresholds, out_bits=2, count_above=np.arange(channels) % 2 == 1)

        def outcome(a, b):
            try:
                with np.errstate(all="ignore"):  # inf - inf: nan thresholds either way
                    out = absorb_affine(op, a, b)
            except ValueError as exc:
                return str(exc)
            return out.thresholds.shape, out.thresholds.tobytes(), out.count_above.tobytes()

        per_channel = outcome(
            np.full(channels, a) if a_vec else a, np.full(channels, b) if b_vec else b
        )
        assert outcome(a, b) == per_channel


def im2col_np_pad(x, kernel, stride=1, pad=0):
    """im2col as it was before padding by slice assignment: np.pad, then slices."""
    c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((kernel * kernel * c, out_h * out_w), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            patch = xp[:, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
            cols[(ky * kernel + kx) * c : (ky * kernel + kx + 1) * c] = patch.reshape(c, -1)
    return cols


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_bit_equal_to_np_pad(self, dtype):
        rng = np.random.default_rng(8)
        for pad in range(3):
            for stride in (1, 2):
                for kernel in (1, 2, 3):
                    x = rng.integers(-9, 10, size=(3, 5, 6)).astype(dtype)
                    if dtype == np.float64:
                        x[0, 0, 0] = -0.0
                    got = im2col(x, kernel, stride, pad)
                    want = im2col_np_pad(x, kernel, stride, pad)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestConvInt:
    def test_identity_1x1_kernel(self):
        x = np.arange(12, dtype=np.int64).reshape(1, 3, 4)
        w = np.ones((1, 1, 1, 1), dtype=np.int64)
        assert np.array_equal(conv_int(x, w), x)

    def test_fig5_configuration_matches_naive(self):
        # 2x2 kernel, 2 in / 2 out channels, 2x3 input
        rng = np.random.default_rng(5)
        x = rng.integers(0, 16, size=(2, 2, 3)).astype(np.int64)
        w = rng.integers(-8, 8, size=(2, 2, 2, 2)).astype(np.int64)
        assert np.array_equal(conv_int(x, w), naive_conv(x, w))

    def test_random_4bit_3x3_padded(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.integers(0, 16, size=(3, 6, 5)).astype(np.int64)
            w = rng.integers(-8, 8, size=(4, 3, 3, 3)).astype(np.int64)
            assert np.array_equal(conv_int(x, w, pad=1), naive_conv(x, w, pad=1))

    def test_strided(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 16, size=(2, 7, 7)).astype(np.int64)
        w = rng.integers(-8, 8, size=(3, 2, 3, 3)).astype(np.int64)
        assert np.array_equal(conv_int(x, w, stride=2), naive_conv(x, w, stride=2))

    def test_accumulator_bound(self):
        c, k = 4, 3
        x = np.full((c, 5, 5), 15, dtype=np.int64)
        w = np.full((2, c, k, k), -8, dtype=np.int64)
        out = conv_int(x, w, pad=1)
        assert np.max(np.abs(out)) <= c * k * k * 8 * 15

    def test_shape_mismatch_rejected(self):
        x = np.zeros((2, 4, 4), dtype=np.int64)
        w = np.zeros((1, 3, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            conv_int(x, w)

    def test_float_inputs_rejected(self):
        with pytest.raises(ValueError):
            conv_int(np.zeros((1, 2, 2)), np.zeros((1, 1, 1, 1), dtype=np.int64))
