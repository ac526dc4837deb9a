import numpy as np
import pytest

from motkit.geometry import BoundingBox
from motkit.metrics import (
    COCO_IOU_THRESHOLDS,
    MotAccumulator,
    average_precision,
    coco_map,
    evaluate_sequence,
    mota,
)
from motkit.synthetic import generate_sequence
from motkit.tracker import SortTracker


def box(x, y, size=10.0, score=1.0, cls=0):
    return BoundingBox(x, y, x + size, y + size, score, cls)


A = box(0, 0)
B = box(20, 20)


class TestMotStep:
    def test_perfect_frame(self):
        acc = MotAccumulator()
        counts = acc.step([(1, A), (2, B)], [(7, A), (8, B)])
        assert (counts.fn, counts.fp, counts.idsw, counts.g) == (0, 0, 0, 2)

    def test_empty_hypotheses_all_missed(self):
        acc = MotAccumulator()
        counts = acc.step([(1, A), (2, B)], [])
        assert (counts.fn, counts.fp) == (2, 0)

    def test_identity_switch_counted_once(self):
        acc = MotAccumulator()
        acc.step([(1, A)], [(10, A)])
        counts = acc.step([(1, A)], [(11, A)])
        assert counts.idsw == 1
        # switching back counts again
        assert acc.step([(1, A)], [(10, A)]).idsw == 1

    def test_switch_detected_across_gap(self):
        acc = MotAccumulator()
        acc.step([(1, A)], [(10, A)])
        acc.step([], [])
        counts = acc.step([(1, A)], [(11, A)])
        assert counts.idsw == 1

    def test_correspondence_carryover_beats_greedy_overlap(self):
        # a slightly better-overlapping newcomer must not steal a gt whose
        # established track still clears the gate
        acc = MotAccumulator()
        acc.step([(1, A)], [(10, A)])
        shifted = box(1, 0)  # IoU with A well above the gate
        counts = acc.step([(1, A)], [(10, shifted), (99, A)])
        assert counts.idsw == 0
        assert counts.fp == 1

    def test_duplicate_ids_rejected(self):
        acc = MotAccumulator()
        with pytest.raises(ValueError):
            acc.step([(1, A), (1, B)], [])
        with pytest.raises(ValueError):
            acc.step([(1, A)], [(5, A), (5, B)])


class TestMota:
    def test_direct_substitution(self):
        acc = MotAccumulator()
        acc.fn, acc.fp, acc.idsw, acc.g = 10, 5, 5, 100
        assert mota(acc) == pytest.approx(0.8)

    def test_perfect_is_one(self):
        acc = MotAccumulator()
        acc.step([(1, A), (2, B)], [(1, A), (2, B)])
        assert mota(acc) == 1.0

    def test_negative_mota_is_legal(self):
        acc = MotAccumulator()
        acc.fn, acc.fp, acc.idsw, acc.g = 0, 20, 0, 10
        assert mota(acc) == pytest.approx(-1.0)

    def test_undefined_without_gt(self):
        acc = MotAccumulator()
        acc.step([], [])
        with pytest.raises(ValueError):
            mota(acc)

    def test_sequence_concatenation_commutes(self):
        frames_a = {1: [(1, A)], 2: [(1, A), (2, B)]}
        frames_b = {1: [(1, box(40, 40))]}
        hyp_a = {1: [(9, A)], 2: [(9, A)]}
        hyp_b = {1: []}
        acc_a = evaluate_sequence(frames_a, hyp_a)
        acc_b = evaluate_sequence(frames_b, hyp_b)
        pooled_fn = acc_a.fn + acc_b.fn
        pooled_fp = acc_a.fp + acc_b.fp
        pooled_idsw = acc_a.idsw + acc_b.idsw
        pooled_g = acc_a.g + acc_b.g
        combined = 1.0 - (pooled_fn + pooled_fp + pooled_idsw) / pooled_g
        # summing counters across sequences gives the pooled score directly
        assert combined == pytest.approx(
            1.0 - ((acc_a.fn + acc_b.fn) + (acc_a.fp + acc_b.fp) + (acc_a.idsw + acc_b.idsw)) / pooled_g
        )

    def test_constant_track_ids_never_switch(self):
        acc = MotAccumulator()
        for frame in range(20):
            acc.step([(1, A), (2, B)], [(5, A), (6, B)])
        assert acc.idsw == 0
        assert mota(acc) == 1.0


class TestRunningTotals:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_totals_equal_sum_of_frame_counts(self, seed):
        gt_frames, det_frames = generate_sequence(8, 60, noise=5.0, seed=seed)
        rng = np.random.default_rng(seed)
        tracker = SortTracker()
        acc = MotAccumulator()
        frames = []
        for frame in sorted(gt_frames):
            dets = [b for _, b in det_frames[frame] if rng.random() > 0.2]
            hyp = [(tid, b) for tid, b, _ in tracker.step(dets, frame)]
            frames.append(acc.step(gt_frames[frame], hyp))
        assert acc.fn == sum(f.fn for f in frames)
        assert acc.fp == sum(f.fp for f in frames)
        assert acc.idsw == sum(f.idsw for f in frames)
        assert acc.g == sum(f.g for f in frames)
        assert min(acc.fn, acc.fp, acc.idsw) > 0 and acc.g == 8 * 60


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = {"img": [box(0, 0), box(20, 20)]}
        dets = {"img": [box(0, 0, score=0.9), box(20, 20, score=0.8)]}
        assert average_precision(dets, gts, 0.5, 0) == pytest.approx(1.0)

    def test_no_detections_zero(self):
        gts = {"img": [box(0, 0)]}
        assert average_precision({}, gts, 0.5, 0) == 0.0

    def test_no_gt_undefined(self):
        with pytest.raises(ValueError):
            average_precision({}, {"img": []}, 0.5, 0)

    @pytest.mark.parametrize("thresh", [float("nan"), 1.5, -0.5, float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, thresh):
        gts = {"img": [box(0, 0)]}
        with pytest.raises(ValueError, match="iou_thresh outside"):
            average_precision({"img": [box(0, 0, score=0.9)]}, gts, thresh, 0)

    def test_interleaved_fp_matches_hand_built_pr_curve(self):
        """2 TP + 1 FP ranked TP, FP, TP over 2 gt.

        PR points: (r=0.5, p=1), (r=0.5, p=0.5), (r=1, p=2/3). 101-point
        interpolation: precision envelope 1.0 for r <= 0.5 (51 samples),
        2/3 above (50 samples) -> AP = (51 + 50 * 2/3) / 101 = 253/303.
        """
        gts = {"img": [box(0, 0), box(20, 20)]}
        dets = {
            "img": [
                box(0, 0, score=0.9),
                box(50, 50, score=0.8),
                box(20, 20, score=0.7),
            ]
        }

        # independent enumeration oracle over the hand-listed PR points
        pr_points = [(0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0)]
        oracle = 0.0
        for r in np.linspace(0.0, 1.0, 101):
            candidates = [p for rec, p in pr_points if rec >= r]
            oracle += max(candidates) if candidates else 0.0
        oracle /= 101.0

        value = average_precision(dets, gts, 0.5, 0)
        assert value == pytest.approx(oracle)
        assert value == pytest.approx(253.0 / 303.0)

    def test_monotone_nonincreasing_in_iou_threshold(self):
        rng = np.random.default_rng(9)
        gts = {"img": [box(float(x), float(y)) for x, y in rng.uniform(0, 150, (6, 2))]}
        dets = {
            "img": [
                BoundingBox(
                    b.x_min + rng.uniform(-3, 3),
                    b.y_min + rng.uniform(-3, 3),
                    b.x_max + rng.uniform(-3, 3),
                    b.y_max + rng.uniform(-3, 3),
                    float(rng.uniform(0.1, 1.0)),
                    0,
                )
                for b in gts["img"]
            ]
        }
        values = [average_precision(dets, gts, t, 0) for t in (0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_one_gt_matches_at_most_one_detection(self):
        gts = {"img": [box(0, 0)]}
        dets = {"img": [box(0, 0, score=0.9), box(0, 0, score=0.8)]}
        # second duplicate is a FP: AP stays 1.0 up to recall 1 reached at rank 1
        assert average_precision(dets, gts, 0.5, 0) == pytest.approx(1.0)


class TestCocoMap:
    def test_perfect_detections(self):
        gts = {"img": [box(0, 0, cls=3), box(30, 30, cls=7)]}
        dets = {"img": [box(0, 0, score=0.9, cls=3), box(30, 30, score=0.9, cls=7)]}
        assert coco_map(dets, gts) == pytest.approx(1.0)

    def test_jittered_iou_075_scores_point_six(self):
        # det nested inside gt at IoU exactly 48/64 = 0.75: matched for the
        # six thresholds 0.50..0.75, unmatched above -> mAP = 6/10
        gts = {"img": [BoundingBox(0, 0, 8, 8, 1.0, 0)]}
        dets = {"img": [BoundingBox(0, 2, 8, 8, 0.9, 0)]}
        assert coco_map(dets, gts) == pytest.approx(0.6)

    def test_classes_absent_from_gt_excluded(self):
        gts = {"img": [box(0, 0, cls=1)]}
        dets = {
            "img": [box(0, 0, score=0.9, cls=1), box(50, 50, score=0.9, cls=2)]
        }
        # class 2 has no gt: mean runs over class 1 only
        assert coco_map(dets, gts) == pytest.approx(1.0)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            coco_map({}, {})

    @pytest.mark.parametrize("cls", [2**53, 2**53 + 2, 10**17, -(10**17), 2**63 + 2**11, 10**300])
    def test_class_ids_from_2_pow_53_up_keep_their_detections(self, cls):
        # cls + 1 rounds back to cls as a float from 2**53 up, so a class's run
        # must be found by searching cls itself on both sides
        gts = {"img": [box(0, 0, cls=cls), box(30, 30, cls=0)]}
        dets = {"img": [box(0, 0, score=0.9, cls=cls), box(30, 30, score=0.8, cls=0)]}
        assert coco_map(dets, gts) == 1.0
        assert coco_map({"img": dets["img"][:1]}, gts) == 0.5

    def test_threshold_grid(self):
        assert COCO_IOU_THRESHOLDS[0] == 0.5
        assert COCO_IOU_THRESHOLDS[-1] == 0.95
        assert len(COCO_IOU_THRESHOLDS) == 10
