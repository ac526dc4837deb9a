import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sort_oracle
from motkit.geometry import BoundingBox
from motkit import kalman
from motkit.kalman import KalmanConfig


CFG = KalmanConfig()


def make_state(u=0.0, v=0.0, s=100.0, r=1.0, du=0.0, dv=0.0, ds=0.0, cfg=CFG):
    """A stack of one state: x (1, 7) and P (1, 7, 7)."""
    return np.array([[u, v, s, r, du, dv, ds]]), cfg.P0.copy()[None]


def one_box(x):
    [box] = kalman.state_to_box(x, [1.0], [0])
    return box


class TestPredict:
    def test_zero_velocity_keeps_position_inflates_covariance(self):
        x, p = make_state(u=5.0, v=7.0, s=50.0)
        x1, p1 = kalman.predict(x, p, CFG)
        assert np.allclose(x1[0, :4], x[0, :4])
        assert np.trace(p1[0]) > np.trace(p[0])

    def test_one_step_of_constant_velocity(self):
        x, _ = kalman.predict(*make_state(u=10.0, du=2.0), CFG)
        assert x[0, 0] == pytest.approx(12.0)

    def test_two_steps_match_hand_computed_matrix_product(self):
        # u <- u + du twice from (u=0, du=3): 3 then 6; trace grows each step
        x1, p1 = kalman.predict(*make_state(u=0.0, du=3.0), CFG)
        x2, p2 = kalman.predict(x1, p1, CFG)
        assert x1[0, 0] == pytest.approx(3.0)
        assert x2[0, 0] == pytest.approx(6.0)
        t0, t1, t2 = np.trace(CFG.P0), np.trace(p1[0]), np.trace(p2[0])
        assert t0 < t1 < t2

    def test_scale_floor(self):
        x, _ = kalman.predict(*make_state(s=1.0, ds=-5.0), CFG)
        assert x[0, 2] == kalman.SCALE_FLOOR

    def test_floor_touches_only_shrunken_rows_and_inputs_stay(self):
        x = np.array([[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, -5.0], [0.0, 0.0, 9.0, 1.0, 0.0, 0.0, -5.0]])
        p = np.stack([CFG.P0, CFG.P0])
        before = x.copy(), p.copy()
        out, _ = kalman.predict(x, p, CFG)
        assert out[:, 2].tolist() == [kalman.SCALE_FLOOR, 4.0]
        assert np.array_equal(x, before[0]) and np.array_equal(p, before[1])


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        x, p = make_state(u=3.0, v=4.0, s=80.0, r=1.25)
        out, _, ok = kalman.update(x, p, x @ kalman.H.T, CFG)
        assert ok.tolist() == [True]
        assert np.allclose(out[0, :4], x[0, :4], atol=1e-12)

    def test_huge_measurement_noise_keeps_prior(self):
        cfg = KalmanConfig(R=np.eye(4) * 1e12)
        x, p = make_state(u=3.0, v=4.0, s=80.0, r=1.25)
        out, _, _ = kalman.update(x, p, np.array([[50.0, 60.0, 200.0, 2.0]]), cfg)
        assert np.allclose(out, x, rtol=1e-6)

    def test_scalar_analog_gain_half(self):
        # decoupled u component with P=1, R=1: K = P/(P+R) = 0.5,
        # so a unit innovation corrects u by exactly 0.5
        cfg = KalmanConfig(
            R=np.diag([1.0, 1.0, 10.0, 10.0]),
            P0=np.diag([1.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4]),
        )
        x, p = make_state(u=0.0, v=0.0, s=1.0, r=1.0, cfg=cfg)
        z = x @ kalman.H.T
        z[0, 0] += 1.0
        out, _, _ = kalman.update(x, p, z, cfg)
        assert out[0, 0] == pytest.approx(0.5)

    def test_predict_update_zero_innovation_fixed_point(self):
        xp, pp = kalman.predict(
            *make_state(u=2.0, v=1.0, s=60.0, r=1.5, du=1.0, dv=-1.0, ds=0.5), CFG
        )
        out, _, _ = kalman.update(xp, pp, xp @ kalman.H.T, CFG)
        assert np.allclose(out[0, :4], xp[0, :4], atol=1e-12)

    def test_singular_innovation_flagged_in_ok_mask(self):
        cfg = KalmanConfig(R=np.zeros((4, 4)), P0=np.zeros((7, 7)))
        x, p = np.zeros((1, 7)), np.zeros((1, 7, 7))
        out_x, out_p, ok = kalman.update(x, p, np.ones((1, 4)), cfg)
        assert ok.tolist() == [False]
        assert np.array_equal(out_x, x) and np.array_equal(out_p, p)

    def test_mixed_stack_updates_regular_rows_and_keeps_singular_priors(self):
        # zero R: a row's S is its own P[:4, :4], singular where that block is
        cfg = KalmanConfig(R=np.zeros((4, 4)))
        x = np.array([[10.0, 10.0, 100.0, 1.0, 1.0, 0.0, 0.0]] * 4)
        p = np.stack([CFG.P0, np.zeros((7, 7)), CFG.P0, np.diag([1.0, 1, 1, 0, 1, 1, 1])])
        z = np.array([[12.0, 9.0, 110.0, 1.1]] * 4)
        out_x, out_p, ok = kalman.update(x, p, z, cfg)
        assert ok.tolist() == [True, False, True, False]
        assert np.array_equal(out_x[~ok], x[~ok]) and np.array_equal(out_p[~ok], p[~ok])
        # each regular row equals its update as a stack of one
        for i in (0, 2):
            xi, pi, oki = kalman.update(x[i : i + 1], p[i : i + 1], z[i : i + 1], cfg)
            assert oki.tolist() == [True]
            assert np.array_equal(out_x[i], xi[0]) and np.array_equal(out_p[i], pi[0])

    def test_empty_stack(self):
        x, p, ok = kalman.update(np.zeros((0, 7)), np.zeros((0, 7, 7)), np.zeros((0, 4)), CFG)
        assert x.shape == (0, 7) and p.shape == (0, 7, 7) and ok.shape == (0,)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.floats(-50, 50, width=32),
            st.floats(-50, 50, width=32),
            st.floats(1, 500, width=32),
            st.floats(0.25, 4, width=32),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_covariance_stays_symmetric(steps):
    x, p = make_state(u=0.0, v=0.0, s=100.0)
    for do_update, u, v, s, r in steps:
        x, p = kalman.predict(x, p, CFG)
        if do_update:
            x, p, _ = kalman.update(x, p, np.array([[u, v, s, r]]), CFG)
        assert np.max(np.abs(p - np.swapaxes(p, 1, 2))) < 1e-9
        assert np.all(np.diagonal(p, axis1=1, axis2=2) >= 0.0)


row = st.tuples(
    st.floats(-50, 50, width=32),
    st.floats(-50, 50, width=32),
    st.floats(1, 500, width=32),
    st.floats(0.25, 4, width=32),
    st.floats(-3, 3, width=32),
    st.floats(-3, 3, width=32),
    st.floats(-20, 20, width=32),
)


ZERO_NOISE = KalmanConfig(Q=np.zeros((7, 7)), R=np.zeros((4, 4)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(row, row, st.integers(0, 3), st.booleans()), min_size=1, max_size=8),
    st.sampled_from([CFG, ZERO_NOISE]),
)
def test_stack_equals_scalar_oracle_row_by_row(rows, cfg):
    """Batched predict, update and box conversion give bit-identical rows to
    the scalar filter in tests/sort_oracle.py. Under zero Q and R a row with
    a zeroed covariance has a singular S: it is flagged, not raised, while
    the other rows of the stack update."""
    x = np.array([state for state, _, _, _ in rows], dtype=float)
    z = np.array([meas[:4] for _, meas, _, _ in rows], dtype=float)
    p = np.stack([CFG.P0 * (i + 1) for _, _, i, _ in rows])
    p[[zero for _, _, _, zero in rows]] = 0.0
    px, pp = kalman.predict(x, p, cfg)
    ux, up, ok = kalman.update(px, pp, z, cfg)
    for i in range(len(rows)):
        ref = sort_oracle.predict(sort_oracle.TrackState(x[i], p[i]), cfg)
        assert np.array_equal(px[i], ref.x) and np.array_equal(pp[i], ref.P)
        assert one_box(px[i : i + 1]) == sort_oracle.state_to_box(ref)
        try:
            ref = sort_oracle.update(ref, z[i], cfg)
        except sort_oracle.FilterNumericalError:
            assert not ok[i]
        else:
            assert ok[i]
        assert np.array_equal(ux[i], ref.x) and np.array_equal(up[i], ref.P)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"Q": np.ones(7)},
            {"R": np.ones(4)},
            {"P0": np.eye(4)},
            {"Q": np.eye(8)},
            {"R": np.full((4, 4), np.nan)},
            {"P0": np.diag([np.inf] + [1.0] * 6)},
        ],
        ids=["Q_vector", "R_vector", "P0_4x4", "Q_8x8", "R_nan", "P0_inf"],
    )
    def test_wrong_shape_or_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KalmanConfig(**kwargs)

    def test_pinned_shapes_accepted(self):
        cfg = KalmanConfig(Q=np.zeros((7, 7)), R=np.eye(4), P0=np.eye(7))
        assert cfg.R.shape == (4, 4)


class TestBoxConversions:
    def test_square_box(self):
        z = kalman.box_to_measurement([BoundingBox(0, 0, 2, 2).corners()])
        assert np.allclose(z, [[1.0, 1.0, 4.0, 1.0]])

    def test_measurement_to_box(self):
        x, _ = make_state(u=1.0, v=1.0, s=4.0, r=1.0)
        assert one_box(x).corners() == pytest.approx((0.0, 0.0, 2.0, 2.0))

    def test_wide_box(self):
        # w=4, h=1: s = w*h = 4, r = w/h = 4
        z = kalman.box_to_measurement([BoundingBox(0, 0, 4, 1).corners()])
        assert np.allclose(z, [[2.0, 0.5, 4.0, 4.0]])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            kalman.box_to_measurement([(0, 0, 1, 1), (0, 0, 0, 1)])

    @pytest.mark.parametrize(
        "corners",
        [
            (0.0, 0.0, 1e200, 1e200),  # area overflows
            (-1e308, 0.0, 1e308, 1.0),  # width overflows
            (0.0, -1e308, 1.0, 1e308),  # height overflows
            (0.0, 0.0, np.inf, 1.0),
            (0.0, 0.0, 1e300, 1e-10),  # aspect overflows
        ],
    )
    def test_overflowing_box_rejected_without_warning(self, corners):
        # tier-1 runs with warnings as errors, so a leaked RuntimeWarning fails here
        with pytest.raises(ValueError, match="width, height or area not finite"):
            kalman.box_to_measurement([(0.0, 0.0, 1.0, 1.0), corners])

    def test_empty_stacks(self):
        assert kalman.box_to_measurement([]).shape == (0, 4)
        assert kalman.state_to_box(np.zeros((0, 7)), [], []) == []

    def test_scores_and_classes_carried(self):
        x = np.array([[1.0, 1.0, 4.0, 1.0, 0, 0, 0], [5.0, 5.0, 8.0, 2.0, 0, 0, 0]])
        boxes = kalman.state_to_box(x, np.array([0.25, 0.75]), np.array([3, 7]))
        assert [(b.score, b.class_id) for b in boxes] == [(0.25, 3), (0.75, 7)]

    @given(
        st.floats(-100, 100, width=32),
        st.floats(-100, 100, width=32),
        st.floats(0.5, 80, width=32),
        st.floats(0.5, 80, width=32),
    )
    def test_round_trip_identity(self, x, y, w, h):
        box = BoundingBox(x, y, x + w, y + h)
        z = kalman.box_to_measurement([box.corners()])
        back = one_box(np.concatenate([z, np.zeros((1, 3))], axis=1))
        assert np.allclose(back.corners(), box.corners(), atol=1e-9)
        assert np.array_equal(z[0], sort_oracle.box_to_measurement(box))
