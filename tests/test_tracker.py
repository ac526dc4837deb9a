import copy

import numpy as np
import pytest

from motkit import kalman
from motkit.geometry import BoundingBox
from motkit.kalman import KalmanConfig
from motkit.metrics import MotAccumulator
from motkit.tracker import SortConfig, SortTracker


def box_at(x, y, size=20.0, score=0.9):
    return BoundingBox(x, y, x + size, y + size, score, 0)


class TestLifecycle:
    def test_stationary_target_keeps_one_id(self):
        tracker = SortTracker(SortConfig(min_hits=3))
        ids_per_frame = []
        for frame in range(1, 6):
            out = tracker.step([box_at(10, 10)], frame)
            ids_per_frame.append([tid for tid, _, _ in out])
        # warm-up frames report too (frame_index <= min_hits), id never changes
        assert all(ids == [1] for ids in ids_per_frame)

    def test_new_id_after_long_disappearance(self):
        cfg = SortConfig(max_age=1, min_hits=1)
        tracker = SortTracker(cfg)
        first = tracker.step([box_at(10, 10)], 1)[0][0]
        for frame in range(2, 2 + cfg.max_age + 1):  # gone max_age + 1 frames
            tracker.step([], frame)
        assert tracker.ids.size == 0
        reappeared = tracker.step([box_at(10, 10)], 4)[0][0]
        assert reappeared != first

    def test_survives_single_frame_gap_with_same_id(self):
        tracker = SortTracker(SortConfig(max_age=2, min_hits=1))
        first = tracker.step([box_at(10, 10)], 1)[0][0]
        tracker.step([], 2)
        out = tracker.step([box_at(10, 10)], 3)
        assert [tid for tid, _, _ in out] == [first]

    def test_crossing_targets_no_identity_switch(self):
        """Two boxes on linear crossing paths over 12 frames, detections at
        every frame: scripted ground truth sees zero switches."""
        tracker = SortTracker(SortConfig(max_age=1, min_hits=3))
        acc = MotAccumulator(iou_gate=0.3)
        for frame in range(1, 13):
            t = frame - 1
            a = box_at(10.0 * t, 0.0)  # left -> right
            b = box_at(110.0 - 10.0 * t, 30.0)  # right -> left
            gt = [(1, a), (2, b)]
            hyp = [(tid, bx) for tid, bx, _ in tracker.step([a, b], frame)]
            acc.step(gt, hyp)
        assert acc.idsw == 0
        assert acc.fn == 0 and acc.fp == 0

    def test_frame_index_must_increase(self):
        tracker = SortTracker()
        tracker.step([], 1)
        with pytest.raises(ValueError):
            tracker.step([], 1)

    def test_overflowing_detection_rejected_without_warning(self):
        tracker = SortTracker(SortConfig(min_hits=1))
        tracker.step([box_at(10.0, 10.0)], 1)
        with pytest.raises(ValueError, match=r"^box \(0\.0, 0\.0, 1e\+200, 1e\+200\) overflows"):
            tracker.step(np.array([[0.0, 0.0, 1e200, 1e200, 1.0, 0.0]]), 2)
        assert tracker.ids.tolist() == [1] and tracker.x[0, 2] < 1e4

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.0, 0.0, 1e200, 1e200, 1.0, 0.0]]), np.array([[10.0, 0.0, 0.0, 10.0, 0.9, 0.0]])],
        ids=["overflowing_measurement", "inverted_row"],
    )
    def test_rejected_step_leaves_its_frame_unused(self, bad):
        tracker = SortTracker(SortConfig(min_hits=1))
        with pytest.raises(ValueError):
            tracker.step(bad, 1)
        fresh = SortTracker(SortConfig(min_hits=1))
        assert tracker.step([box_at(10, 10)], 1) == fresh.step([box_at(10, 10)], 1)

    @pytest.mark.parametrize("class_id", [1e19, 2.0**63, -1e19])
    def test_class_id_outside_int64_rejected_before_any_change(self, class_id):
        tracker = SortTracker(SortConfig(min_hits=1))
        for frame in (1, 2):
            tracker.step([box_at(10.0 + frame, 10.0), BoundingBox(90, 50, 110, 70, 0.8, 2)], frame)
        before = {k: copy.deepcopy(v) for k, v in vars(tracker).items() if k != "config"}
        bad = np.array([[10.0, 10.0, 20.0, 20.0, 0.9, 0.0], [50.0, 50.0, 60.0, 60.0, 0.9, class_id]])
        with pytest.raises(ValueError, match="class id outside int64"):
            tracker.step(bad, 3)
        after = vars(tracker)
        assert after.keys() - {"config"} == before.keys()
        for name, value in before.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == after[name].dtype and np.array_equal(value, after[name])
            else:
                assert after[name] == value, name

    def test_reported_boxes_are_valid(self):
        rng = np.random.default_rng(3)
        tracker = SortTracker(SortConfig(min_hits=1))
        for frame in range(1, 20):
            dets = [
                box_at(float(x), float(y))
                for x, y in rng.uniform(0, 200, size=(3, 2))
            ]
            for _, box, _ in tracker.step(dets, frame):
                assert box.x_max >= box.x_min and box.y_max >= box.y_min


class TestInvariants:
    def test_ids_strictly_increase_over_spawns(self):
        tracker = SortTracker(SortConfig(min_hits=1, iou_min=0.3))
        seen = []
        for frame in range(1, 6):
            # a fresh far-away detection each frame spawns a fresh track
            out = tracker.step([box_at(200.0 * frame, 0.0)], frame)
            seen.extend(tid for tid, _, _ in out)
        assert seen == sorted(set(seen))

    def test_static_objects_report_exactly_k_ids_forever(self):
        k = 4
        dets = [box_at(60.0 * i, 10.0) for i in range(k)]
        tracker = SortTracker(SortConfig(min_hits=3))
        id_sets = []
        for frame in range(1, 40):
            out = tracker.step(list(dets), frame)
            id_sets.append(frozenset(tid for tid, _, _ in out))
            assert len(out) == k
        assert len(set(id_sets)) == 1  # no churn after warm-up

    def test_starvation_empties_tracker(self):
        tracker = SortTracker(SortConfig(max_age=2, min_hits=1))
        tracker.step([box_at(0, 0), box_at(50, 50)], 1)
        for frame in range(2, 2 + 4):
            tracker.step([], frame)
        assert tracker.ids.size == 0


class TestDroppedUpdates:
    def test_singular_update_counted_and_prediction_kept(self):
        # zero covariances make the innovation covariance singular
        zeros = KalmanConfig(Q=np.zeros((7, 7)), R=np.zeros((4, 4)), P0=np.zeros((7, 7)))
        tracker = SortTracker(SortConfig(min_hits=1, kalman=zeros))
        tracker.step([box_at(10, 10)], 1)
        predicted, _ = kalman.predict(tracker.x, tracker.P, zeros)
        assert tracker.step([box_at(12, 11)], 2) == []
        assert tracker.dropped_updates == 1
        assert np.array_equal(tracker.x, predicted)
        assert tracker.time_since_update.tolist() == [1]

    def test_regular_run_drops_nothing(self):
        tracker = SortTracker()
        for frame in range(1, 6):
            tracker.step([box_at(10 + frame, 10)], frame)
        assert tracker.dropped_updates == 0


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_age": 1.5},
            {"min_hits": True},
            {"max_age": 0},
            {"min_hits": 2.0},
            {"iou_min": -0.1},
            {"iou_min": 1.5},
            {"iou_min": float("nan")},
        ],
        ids=["float_max_age", "bool_min_hits", "zero_max_age", "float_min_hits",
             "negative_iou_min", "iou_min_above_one", "nan_iou_min"],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SortConfig(**kwargs)

    def test_bounds_accepted(self):
        SortConfig(max_age=1, min_hits=1, iou_min=0.0)
        SortConfig(iou_min=1.0)
