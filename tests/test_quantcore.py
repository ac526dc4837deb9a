import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motkit.quantcore import (
    IntTensor,
    MultiThresholdOp,
    QuantSpec,
    absorb_affine,
    concat_channels,
    conv2d,
    conv_int,
    dequantize,
    multithreshold,
    quantize,
    split_channels,
)


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


class TestQuantize:
    def test_zero(self):
        spec = QuantSpec(4, 0.5)
        assert quantize(np.array([0.0]), spec).values[0] == 0

    def test_round_half_up_case(self):
        spec = QuantSpec(4, 0.5)
        t = quantize(np.array([1.3]), spec)
        assert t.values[0] == 3  # round(2.6) = 3
        assert dequantize(t)[0] == pytest.approx(1.5)

    def test_saturation(self):
        spec = QuantSpec(4, 0.5)
        assert quantize(np.array([100.0]), spec).values[0] == 15

    def test_signed_range(self):
        spec = QuantSpec(4, 1.0, signed=True)
        assert spec.qmin == -8 and spec.qmax == 7
        assert quantize(np.array([-100.0]), spec).values[0] == -8

    @given(st.lists(st.floats(0, 7.5, width=32), min_size=1, max_size=20))
    def test_round_trip_error_bounded(self, xs):
        spec = QuantSpec(4, 0.5)
        x = np.array(xs, dtype=float)
        back = dequantize(quantize(x, spec))
        assert np.all(np.abs(back - x) <= spec.scale / 2 + 1e-12)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=20))
    def test_idempotent_on_grid_points(self, qs):
        spec = QuantSpec(4, 0.25)
        grid = np.array(qs, dtype=float) * spec.scale
        assert np.array_equal(quantize(grid, spec).values, qs)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            IntTensor(np.array([[[16]]], dtype=np.int64), QuantSpec(4, 1.0))


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


class TestSplitConcat:
    def test_split_then_concat_is_identity(self):
        t = IntTensor(np.arange(24, dtype=np.int64).reshape(6, 2, 2) % 16, QuantSpec(4, 0.5))
        back = concat_channels(split_channels(t, [1, 2, 3]))
        assert np.array_equal(back.values, t.values)
        assert back.spec == t.spec

    def test_concat_mixed_widths_takes_max_bits(self):
        four = IntTensor(np.full((2, 3, 3), 15, dtype=np.int64), QuantSpec(4, 0.5))
        five = IntTensor(np.full((1, 3, 3), 31, dtype=np.int64), QuantSpec(5, 0.5))
        out = concat_channels([four, five])
        assert out.spec.bits == 5
        assert np.array_equal(out.values[:2], four.values)
        assert np.array_equal(out.values[2:], five.values)

    def test_concat_single_tensor(self):
        t = IntTensor(np.zeros((2, 2, 2), dtype=np.int64), QuantSpec(4, 1.0))
        out = concat_channels([t])
        assert np.array_equal(out.values, t.values) and out.spec == t.spec

    def test_bad_split_sizes_rejected(self):
        t = IntTensor(np.zeros((4, 2, 2), dtype=np.int64), QuantSpec(4, 1.0))
        with pytest.raises(ValueError):
            split_channels(t, [1, 2])

    def test_mismatched_spatial_rejected(self):
        a = IntTensor(np.zeros((1, 2, 2), dtype=np.int64), QuantSpec(4, 1.0))
        b = IntTensor(np.zeros((1, 3, 3), dtype=np.int64), QuantSpec(4, 1.0))
        with pytest.raises(ValueError):
            concat_channels([a, b])

    def test_mismatched_scale_rejected(self):
        a = IntTensor(np.zeros((1, 2, 2), dtype=np.int64), QuantSpec(4, 1.0))
        b = IntTensor(np.zeros((1, 2, 2), dtype=np.int64), QuantSpec(4, 0.5))
        with pytest.raises(ValueError):
            concat_channels([a, b])
