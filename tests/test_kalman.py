import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motkit.geometry import BoundingBox
from motkit import kalman
from motkit.kalman import KalmanConfig, TrackState


CFG = KalmanConfig()


def make_state(u=0.0, v=0.0, s=100.0, r=1.0, du=0.0, dv=0.0, ds=0.0):
    return TrackState(np.array([u, v, s, r, du, dv, ds]), CFG.P0.copy())


class TestPredict:
    def test_zero_velocity_keeps_position_inflates_covariance(self):
        state = make_state(u=5.0, v=7.0, s=50.0)
        out = kalman.predict(state, CFG)
        assert np.allclose(out.x[:4], state.x[:4])
        assert np.trace(out.P) > np.trace(state.P)

    def test_one_step_of_constant_velocity(self):
        out = kalman.predict(make_state(u=10.0, du=2.0), CFG)
        assert out.x[0] == pytest.approx(12.0)

    def test_two_steps_match_hand_computed_matrix_product(self):
        # u <- u + du twice from (u=0, du=3): 3 then 6; trace grows each step
        s1 = kalman.predict(make_state(u=0.0, du=3.0), CFG)
        s2 = kalman.predict(s1, CFG)
        assert s1.x[0] == pytest.approx(3.0)
        assert s2.x[0] == pytest.approx(6.0)
        t0, t1, t2 = np.trace(CFG.P0), np.trace(s1.P), np.trace(s2.P)
        assert t0 < t1 < t2

    def test_scale_floor(self):
        state = make_state(s=1.0, ds=-5.0)
        out = kalman.predict(state, CFG)
        assert out.x[2] == kalman.SCALE_FLOOR


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        state = make_state(u=3.0, v=4.0, s=80.0, r=1.25)
        out = kalman.update(state, kalman.H @ state.x, CFG)
        assert np.allclose(out.x[:4], state.x[:4], atol=1e-12)

    def test_huge_measurement_noise_keeps_prior(self):
        cfg = KalmanConfig(R=np.eye(4) * 1e12)
        state = make_state(u=3.0, v=4.0, s=80.0, r=1.25)
        out = kalman.update(state, np.array([50.0, 60.0, 200.0, 2.0]), cfg)
        assert np.allclose(out.x, state.x, rtol=1e-6)

    def test_scalar_analog_gain_half(self):
        # decoupled u component with P=1, R=1: K = P/(P+R) = 0.5,
        # so a unit innovation corrects u by exactly 0.5
        cfg = KalmanConfig(
            R=np.diag([1.0, 1.0, 10.0, 10.0]),
            P0=np.diag([1.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4]),
        )
        state = TrackState(np.zeros(7), cfg.P0.copy())
        state.x[2] = state.x[3] = 1.0
        z = kalman.H @ state.x
        z[0] += 1.0
        out = kalman.update(state, z, cfg)
        assert out.x[0] == pytest.approx(0.5)

    def test_predict_update_zero_innovation_fixed_point(self):
        state = make_state(u=2.0, v=1.0, s=60.0, r=1.5, du=1.0, dv=-1.0, ds=0.5)
        pred = kalman.predict(state, CFG)
        out = kalman.update(pred, kalman.H @ pred.x, CFG)
        assert np.allclose(out.x[:4], pred.x[:4], atol=1e-12)

    def test_singular_innovation_reported_as_numerical_error(self):
        cfg = KalmanConfig(R=np.zeros((4, 4)), P0=np.zeros((7, 7)))
        state = TrackState(np.zeros(7), cfg.P0.copy())
        with pytest.raises(kalman.FilterNumericalError):
            kalman.update(state, np.ones(4), cfg)


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
    state = make_state(u=0.0, v=0.0, s=100.0)
    for do_update, u, v, s, r in steps:
        state = kalman.predict(state, CFG)
        if do_update:
            state = kalman.update(state, np.array([u, v, s, r]), CFG)
        assert np.max(np.abs(state.P - state.P.T)) < 1e-9
        assert np.all(np.diag(state.P) >= 0.0)


class TestBoxConversions:
    def test_square_box(self):
        z = kalman.box_to_measurement(BoundingBox(0, 0, 2, 2))
        assert np.allclose(z, [1.0, 1.0, 4.0, 1.0])

    def test_measurement_to_box(self):
        state = make_state(u=1.0, v=1.0, s=4.0, r=1.0)
        box = kalman.state_to_box(state)
        assert box.corners() == pytest.approx((0.0, 0.0, 2.0, 2.0))

    def test_wide_box(self):
        # w=4, h=1: s = w*h = 4, r = w/h = 4
        z = kalman.box_to_measurement(BoundingBox(0, 0, 4, 1))
        assert np.allclose(z, [2.0, 0.5, 4.0, 4.0])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            kalman.box_to_measurement(BoundingBox(0, 0, 0, 1))

    @given(
        st.floats(-100, 100, width=32),
        st.floats(-100, 100, width=32),
        st.floats(0.5, 80, width=32),
        st.floats(0.5, 80, width=32),
    )
    def test_round_trip_identity(self, x, y, w, h):
        box = BoundingBox(x, y, x + w, y + h)
        z = kalman.box_to_measurement(box)
        state = TrackState(np.concatenate([z, np.zeros(3)]), CFG.P0.copy())
        back = kalman.state_to_box(state)
        assert np.allclose(back.corners(), box.corners(), atol=1e-9)
