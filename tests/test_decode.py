import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import box_oracle
from box_oracle import iou
from motkit.decode import HeadMap, decode_heads, nms, reduce_dfl, sigmoid
from motkit.geometry import BoundingBox, box_rows

NEG = -1e4  # class logit low enough to score ~0 everywhere


# the scalar oracle for reduce_dfl
def dfl_expect(logits: np.ndarray) -> float:
    """Expected bin index of one box-side distribution.

    Softmax over the bin logits, then sum(i * p_i); the decoded distance is
    this expectation (in stride units).
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.size < 2:
        raise ValueError("distribution needs at least 2 bins")
    z = logits - logits.max()
    p = np.exp(z)
    p /= p.sum()
    return float(np.dot(np.arange(logits.size), p))


def make_maps(img_w=320, img_h=192, channels=84, fill=NEG):
    maps = []
    for stride in (8, 16, 32):
        data = np.full((channels, img_h // stride, img_w // stride), float(fill))
        maps.append(HeadMap(stride, data))
    return maps


class TestDflExpect:
    def test_delta_distribution(self):
        logits = np.zeros(16)
        logits[3] = 1e4
        assert dfl_expect(logits) == pytest.approx(3.0)

    def test_uniform_distribution(self):
        assert dfl_expect(np.zeros(16)) == pytest.approx(7.5)

    def test_two_bin_hand_computed(self):
        # softmax([0, ln 3]) = (0.25, 0.75) -> expectation 0.75
        assert dfl_expect(np.array([0.0, math.log(3.0)])) == pytest.approx(0.75)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            dfl_expect(np.array([1.0]))

    @given(st.lists(st.floats(-30, 30, width=32), min_size=2, max_size=16))
    def test_expectation_in_range(self, logits):
        value = dfl_expect(np.array(logits))
        assert 0.0 <= value <= len(logits) - 1


def test_reduce_dfl_collapses_bins_to_expectations():
    bins, classes, h, w = 16, 80, 3, 4
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(4 * bins + classes, h, w))
    reduced = reduce_dfl(raw, bins)
    assert reduced.shape == (4 + classes, h, w)
    for side in range(4):
        for y in range(h):
            for x in range(w):
                expected = dfl_expect(raw[side * bins : (side + 1) * bins, y, x])
                assert reduced[side, y, x] == pytest.approx(expected)
    assert np.array_equal(reduced[4:], raw[4 * bins :])


@pytest.mark.parametrize("bins", [-1, 0, 2.0])
def test_reduce_dfl_rejects_bin_counts_that_are_not_integers_from_one(bins):
    """With -1 bins an 8-channel map would pass the channel check and come
    back with every distance 0."""
    message = f"num_bins must be an integer >= 1, got {bins!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        reduce_dfl(np.zeros((8, 2, 2)), bins)


class TestDecodeHeads:
    def test_all_low_logits_give_empty_output(self):
        rows = decode_heads(make_maps(), score_thresh=0.25)
        assert (rows.dtype, rows.shape) == (np.float64, (0, 6))

    def test_single_cell_hand_computed(self):
        # cell (0,0) of the stride-8 map on a 32x32 input: center (4,4),
        # distances (1,1,1,1) stride units -> (-4,-4,12,12), clipped to
        # (0,0,12,12); one class logit 0 -> score sigmoid(0) = 0.5
        maps = make_maps(img_w=32, img_h=32)
        maps[0].data[0:4, 0, 0] = 1.0
        maps[0].data[4, 0, 0] = 0.0
        rows = decode_heads(maps, score_thresh=0.25)
        assert len(rows) == 1
        x_min, y_min, x_max, y_max, score, class_id = rows[0].tolist()
        assert (x_min, y_min, x_max, y_max) == pytest.approx((0.0, 0.0, 12.0, 12.0))
        assert score == pytest.approx(0.5)
        assert class_id == 0

    def test_candidate_count_320x192(self):
        # 40*24 + 20*12 + 10*6 = 1260 cells across the three strides
        rng = np.random.default_rng(1)
        maps = make_maps()
        for m in maps:
            m.data[...] = rng.normal(size=m.data.shape)
        boxes = decode_heads(maps, score_thresh=0.0)
        assert len(boxes) == 1260

    def test_count_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        maps = make_maps()
        for m in maps:
            m.data[...] = rng.normal(size=m.data.shape)
        counts = [
            len(decode_heads(maps, score_thresh=t)) for t in (0.0, 0.3, 0.5, 0.7, 0.9)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_boxes_stay_inside_image(self):
        rng = np.random.default_rng(3)
        maps = make_maps(img_w=64, img_h=32)
        for m in maps:
            m.data[...] = rng.normal(scale=4.0, size=m.data.shape)
        for x_min, y_min, x_max, y_max, _, _ in decode_heads(maps, score_thresh=0.0):
            assert 0.0 <= x_min <= x_max <= 64.0
            assert 0.0 <= y_min <= y_max <= 32.0

    @pytest.mark.parametrize("side", range(4))
    def test_nan_regression_on_a_scoring_cell_rejected(self, side):
        # a NaN distance gives NaN corners, which BoundingBox rejects; the
        # message names the first such candidate, as the per-box decoder's did
        maps = make_maps(img_w=32, img_h=32)
        for m, (y, x) in ((maps[0], (1, 2)), (maps[1], (0, 1))):
            m.data[0:4, y, x] = 1.0
            m.data[side, y, x] = np.nan
            m.data[4, y, x] = 0.0
        errors = []
        for decoder in (decode_heads, box_oracle.decode_heads):
            with pytest.raises(ValueError, match="inverted corners") as info:
                decoder(maps, score_thresh=0.25)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_nan_regression_below_threshold_ignored(self):
        maps = make_maps(img_w=32, img_h=32)
        maps[0].data[0:4, 1, 2] = np.nan
        assert len(decode_heads(maps, score_thresh=0.25)) == 0

    @pytest.mark.parametrize("other", [4.0, -1e4, np.inf])
    def test_nan_class_logit_rejected(self, other):
        # the cell's max is NaN whatever its other classes hold, so it
        # would fail every threshold and vanish; it is an error instead
        maps = make_maps(img_w=32, img_h=32)
        maps[1].data[4:6, 1, 0] = np.nan, other
        with pytest.raises(ValueError, match=r"^stride-16 cell \(x=0, y=1\) has a NaN class logit$"):
            decode_heads(maps, score_thresh=0.25)

    def test_minus_inf_class_logit_decoded(self):
        maps = make_maps(img_w=32, img_h=32)
        maps[1].data[4:6, 1, 0] = -np.inf, 4.0
        assert decode_heads(maps, score_thresh=0.25)[:, 5].tolist() == [1.0]

    def test_missing_stride_rejected(self):
        maps = make_maps()[:2]
        with pytest.raises(ValueError):
            decode_heads(maps, 0.5)

    def test_duplicate_stride_rejected(self):
        maps = make_maps()
        maps[1] = HeadMap(8, maps[0].data.copy())
        with pytest.raises(ValueError):
            decode_heads(maps, 0.5)

    def test_inconsistent_shape_rejected(self):
        maps = make_maps()
        maps[2] = HeadMap(32, np.full((84, 7, 11), NEG))
        with pytest.raises(ValueError):
            decode_heads(maps, 0.5)


def brute_force_nms(boxes, iou_thresh, class_aware=True):
    """Independent O(n^2) greedy reference."""
    ordered = sorted(
        boxes, key=lambda b: (-b.score, b.class_id, b.x_min, b.y_min, b.x_max, b.y_max)
    )
    kept = []
    for cand in ordered:
        ok = True
        for k in kept:
            if class_aware and k.class_id != cand.class_id:
                continue
            if iou(k, cand) > iou_thresh:
                ok = False
        if ok:
            kept.append(cand)
    return kept


def random_boxes(rng, n, classes=3):
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 80, 2)
        w, h = rng.uniform(5, 40, 2)
        out.append(
            BoundingBox(x, y, x + w, y + h, rng.uniform(0.05, 1.0), int(rng.integers(classes)))
        )
    return out


class TestNms:
    def test_duplicate_boxes_keep_highest_score(self):
        a = BoundingBox(0, 0, 10, 10, 0.9)
        b = BoundingBox(0, 0, 10, 10, 0.8)
        assert nms([b, a], 0.45).tolist() == box_rows([a]).tolist()

    def test_disjoint_boxes_survive_in_score_order(self):
        boxes = [
            BoundingBox(0, 0, 10, 10, 0.5),
            BoundingBox(50, 50, 60, 60, 0.9),
            BoundingBox(100, 0, 110, 10, 0.7),
        ]
        assert nms(boxes, 0.45)[:, 4].tolist() == [0.9, 0.7, 0.5]

    def test_class_aware_keeps_overlapping_other_class(self):
        a = BoundingBox(0, 0, 10, 10, 0.9, class_id=0)
        b = BoundingBox(0, 0, 10, 10, 0.8, class_id=1)
        assert len(nms([a, b], 0.45, class_aware=True)) == 2
        assert nms([a, b], 0.45, class_aware=False).tolist() == box_rows([a]).tolist()

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            boxes = random_boxes(rng, 50)
            assert nms(boxes, 0.45).tolist() == box_rows(brute_force_nms(boxes, 0.45)).tolist()

    def test_result_independent_of_input_order(self):
        rng = np.random.default_rng(12)
        boxes = random_boxes(rng, 30)
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        assert nms(boxes, 0.4).tolist() == nms(shuffled, 0.4).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 10_000))
    def test_subset_pairwise_and_idempotence(self, n, seed):
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, n)
        kept = nms(boxes, 0.45)
        assert all(row in box_rows(boxes).tolist() for row in kept.tolist())
        kept_boxes = [BoundingBox(*row[:5], int(row[5])) for row in kept.tolist()]
        for i, a in enumerate(kept_boxes):
            for b in kept_boxes[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a, b) <= 0.45
        assert nms(kept, 0.45).tolist() == kept.tolist()

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (2, 7)])
    def test_rows_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            nms(np.zeros(shape), 0.45)

    def test_class_blind_memory_stays_blocked(self):
        # 4,000 mostly disjoint boxes of one group: a single N x N float
        # temporary would be 122 MiB; the blocked greedy stays far below
        rng = np.random.default_rng(13)
        xy = rng.uniform(0, 2000, (4000, 2))
        boxes = [BoundingBox(x, y, x + 20, y + 20, 0.5) for x, y in xy.tolist()]
        tracemalloc.start()
        try:
            kept = nms(boxes, 0.45, class_aware=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) > 3500
        assert peak < 40 * 2**20
