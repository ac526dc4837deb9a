import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import box_oracle
import test_records
from conftest import translated
from motkit.decode import nms
from motkit.geometry import CORNER_LIMIT, BoundingBox, box_rows, corner_iou, iou_matrix
from motkit.geometry import boxes as make_boxes
from motkit.metrics import ap_table, coco_map
from motkit.tracker import SortTracker


def boxes(min_size=0.0):
    coord = st.floats(-100, 100, allow_nan=False, width=32)
    size = st.floats(min_size, 50, allow_nan=False, width=32)
    return st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), coord, coord, size, size
    )


def pixel_count_iou(a: BoundingBox, b: BoundingBox, grid: int) -> float:
    """Independent oracle: count unit cells of a rasterized grid inside each
    box (valid for integer-aligned boxes)."""
    in_a = in_b = in_both = 0
    for x in range(grid):
        for y in range(grid):
            hit_a = a.x_min <= x < a.x_max and a.y_min <= y < a.y_max
            hit_b = b.x_min <= x < b.x_max and b.y_min <= y < b.y_max
            in_a += hit_a
            in_b += hit_b
            in_both += hit_a and hit_b
    union = in_a + in_b - in_both
    return in_both / union if union else 0.0


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU of two boxes through corner_iou's aligned form on single rows."""
    return float(corner_iou(np.array(a.corners()), np.array(b.corners())))


class TestIou:
    def test_identical_unit_boxes(self):
        b = BoundingBox(0, 0, 1, 1)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_one_third_overlap_matches_pixel_oracle(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        expected = pixel_count_iou(a, b, grid=6)
        assert expected == pytest.approx(1 / 3)
        assert iou(a, b) == pytest.approx(expected)

    def test_degenerate_boxes_give_zero(self):
        line = BoundingBox(0, 0, 0, 5)
        assert iou(line, line) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes(min_size=0.5))
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0)

    @given(boxes(), boxes())
    def test_bounded(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0

    @given(boxes(), boxes(), st.floats(-50, 50, width=32), st.floats(-50, 50, width=32))
    def test_translation_invariant(self, a, b, dx, dy):
        # IoU is translation invariant only where the translation is exact:
        # a box far narrower than the ulp of dx collapses when moved, and an
        # edge rounded by the move shifts an overlap (equal widths and heights
        # are not enough). With every edge moved exactly, each difference of
        # edges is unchanged.
        for box in (a, b):
            for coord, shift in (
                (box.x_min, dx), (box.x_max, dx), (box.y_min, dy), (box.y_max, dy),
            ):
                assume(Fraction(coord + shift) == Fraction(coord) + Fraction(shift))
        assert iou(translated(a, dx, dy), translated(b, dx, dy)) == pytest.approx(
            iou(a, b), abs=1e-12
        )

    def test_translation_collapsing_a_box_gives_zero(self):
        a = BoundingBox(0.0, 0.0, 1.3e-39, 1.0)
        moved = translated(a, 1.0, 0.0)
        assert iou(a, a) == 1.0
        assert moved.x_max == moved.x_min
        assert iou(moved, moved) == 0.0


class TestArea:
    """A box inside another has IoU area(inner) / area(outer), so these read
    the areas corner_iou puts into its union."""

    def test_unit_box(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 2, 2)) == 0.25

    def test_line_box(self):
        assert iou(BoundingBox(0, 0, 0, 3), BoundingBox(0, 0, 1, 3)) == 0.0

    def test_rectangle(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 3, 2)) == 1 / 6


class TestBoundingBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            BoundingBox(2, 0, 1, 1)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1, score=1.5)

    def test_rejects_fractional_class_id(self):
        with pytest.raises(ValueError, match="class id"):
            BoundingBox(0, 0, 1, 1, class_id=0.5)
        assert BoundingBox(0, 0, 1, 1, class_id=np.int64(3)).class_id == 3

    def test_rejects_a_class_id_past_float_range_as_value_error(self):
        with pytest.raises(ValueError, match="class id must be an integer in float64 range"):
            BoundingBox(0, 0, 1, 1, class_id=10**400)
        assert BoundingBox(0, 0, 1, 1, class_id=10**300).class_id == 10**300


GOOD_ROW = (0.0, 0.0, 1.0, 1.0, 0.5, 0.0)
# A side of 2**511 and a width of CORNER_LIMIT / 2**511 make an area of exactly
# CORNER_LIMIT, the largest whose double is finite.
AREA_SIDE = 2.0**511
AREA_WIDTH = CORNER_LIMIT / AREA_SIDE
FULL_SPAN = (-1e308, -1e308, 1e308, 1e308, 0.9, 0.0)
BAD_ROWS = [
    (2.0, 0.0, 1.0, 1.0, 0.5, 0.0),
    (0.0, 3.0, 1.0, 1.0, 0.5, 0.0),
    (0.0, 0.0, math.nan, 1.0, 0.5, 0.0),
    (math.nan, 0.0, 1.0, 1.0, 0.5, 0.0),
    (0.0, 0.0, 1.0, 1.0, 1.5, 0.0),
    (0.0, 0.0, 1.0, 1.0, math.nan, 0.0),
    (0.0, 0.0, 1.0, 1.0, 0.5, 0.5),
    (0.0, 0.0, 1.0, 1.0, 0.5, math.inf),
    FULL_SPAN,
    (0.0, 0.0, 1e200, 1e200, 0.5, 0.0),
    (0.0, 0.0, math.inf, 1.0, 0.5, 0.0),
    (-math.inf, 0.0, 1.0, 1.0, 0.5, 0.0),
    (0.0, 0.0, np.nextafter(CORNER_LIMIT, math.inf), 1.0, 0.5, 0.0),
    (0.0, -AREA_SIDE, np.nextafter(AREA_WIDTH, math.inf), 0.0, 0.5, 0.0),
]
BAD_ROW_IDS = ["inverted_x", "inverted_y", "nan_x_max", "nan_x_min", "score_1.5", "nan_score",
               "class_0.5", "infinite_class", "full_span", "area_overflow", "inf_x_max",
               "inf_x_min", "corner_past_limit", "area_past_limit"]


class TestBoxRows:
    def test_rows_at_the_limits_accepted(self):
        rows = np.array([(-CORNER_LIMIT, -CORNER_LIMIT, -CORNER_LIMIT, -CORNER_LIMIT, 0.0, 0.0),
                         (0.0, 0.0, CORNER_LIMIT, 1.0, 1.0, 0.0),
                         (0.0, -AREA_SIDE, AREA_WIDTH, 0.0, 0.5, 0.0)])
        assert box_rows(rows) is rows
        assert [list(BoundingBox(*row).corners()) for row in rows.tolist()] == rows[:, :4].tolist()
        # a bad row after them is still the one refused
        with pytest.raises(ValueError, match=r"^inverted corners: \(2\.0, "):
            box_rows(np.vstack([rows, BAD_ROWS[0]]))

    @pytest.mark.parametrize("row", BAD_ROWS, ids=BAD_ROW_IDS)
    def test_rejects_what_bounding_box_rejects_with_its_message(self, row):
        with pytest.raises(ValueError) as from_box:
            BoundingBox(*row)
        for good in (1, 4):  # row by row, then past the whole-array reductions
            with pytest.raises(ValueError) as from_rows:
                box_rows(np.array([GOOD_ROW] * good + [row] + [GOOD_ROW] * good))
            assert str(from_rows.value) == str(from_box.value)

    def test_first_bad_row_is_reported(self):
        rows = np.array([GOOD_ROW, (2.0, 0.0, 1.0, 1.0, 0.5, 0.0), (5.0, 0.0, 1.0, 1.0, 0.5, 0.0)])
        with pytest.raises(ValueError, match=r"^inverted corners: \(2\.0, 0\.0, 1\.0, 1\.0\)$"):
            box_rows(rows)

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (2, 7), (0,), (1, 1, 6)])
    def test_rejects_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            box_rows(np.zeros(shape))

    def test_list_and_array_give_the_same_rows(self):
        boxes = [BoundingBox(0, 1, 2, 3, 0.25, 2), BoundingBox(-1, -1, 4, 5)]
        rows = box_rows(boxes)
        assert rows.dtype == np.float64
        assert rows.tolist() == [[0, 1, 2, 3, 0.25, 2], [-1, -1, 4, 5, 1.0, 0]]
        assert box_rows(rows) is rows  # float64 rows pass through uncopied
        assert box_rows(rows.astype(np.float32)).tolist() == rows.tolist()
        assert box_rows(iter(boxes)).tolist() == rows.tolist()
        assert box_rows([]).shape == box_rows(np.empty((0, 6))).shape == (0, 6)


# Fields at and around each edge of the box rule, for corners and for scores
# and class ids alike.
EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, 2.0, 1e200, -1e200,
    CORNER_LIMIT, -CORNER_LIMIT, *np.nextafter([CORNER_LIMIT, -CORNER_LIMIT], math.inf).tolist(),
    *np.nextafter([CORNER_LIMIT, -CORNER_LIMIT], -math.inf).tolist(),
    AREA_SIDE, -AREA_SIDE, AREA_WIDTH, *np.nextafter(AREA_WIDTH, [-math.inf, math.inf]).tolist(),
    2.0**510, np.nextafter(2.0**510, math.inf), float(np.finfo(float).max),
]
FIELD = st.one_of(st.sampled_from(EDGES), st.floats(-1e3, 1e3), st.floats())


@st.composite
def rule_rows(draw):
    """1-5 valid rows, each left whole, with one field set near the rule's
    edges, or with corners and sides taken from there; in half the cases
    eight good rows around them, so that box_rows takes its whole-array path
    as well as its row-by-row one."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        x, y, w, h = (draw(st.floats(-1e3, 1e3)) for _ in range(4))
        row = [x, y, x + abs(w), y + abs(h), draw(st.floats(0.0, 1.0)),
               float(draw(st.integers(-3, 300)))]
        kind = draw(st.sampled_from(["whole", "field", "corners"]))
        if kind == "field":
            row[draw(st.integers(0, 5))] = draw(FIELD)
        elif kind == "corners":
            x, y, w, h = (draw(FIELD) for _ in range(4))
            row[:4] = [x, y, x + abs(w), y + abs(h)]
        rows.append(row)
    if draw(st.booleans()):
        at = draw(st.integers(0, 8))
        rows = [list(GOOD_ROW)] * at + rows + [list(GOOD_ROW)] * (8 - at)
    return rows


def refusal(make, *args):
    """The ValueError message `make(*args)` raises, or None; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            make(*args)
        except ValueError as exc:
            return str(exc)
    return None


class TestOneBoxRule:
    """BoundingBox, box_rows and geometry.boxes accept the same rows and refuse
    the first bad one with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(rule_rows())
    def test_three_forms_agree(self, rows):
        first = next(filter(None, (refusal(BoundingBox, *row) for row in rows)), None)
        array = np.array(rows)
        assert refusal(box_rows, array) == first
        if abs(array[:, 5]).max() < 2.0**63 or first is not None:  # boxes also needs int64 ids
            assert refusal(make_boxes, array) == first
        for row in rows:
            assert refusal(BoundingBox, *map(np.float64, row)) == refusal(BoundingBox, *row)

    def test_numpy_scalar_corners_do_not_warn(self):
        big = np.float32(3e38)
        assert "overflows" not in (refusal(BoundingBox, -big, -big, big, big) or "")
        assert "overflows" in refusal(BoundingBox, np.float64(0), np.float64(0),
                                      np.float64(1e200), np.float64(1e200))
        assert refusal(BoundingBox, np.int64(-2**63), 0, np.int64(2**63 - 1), 1) is None


@pytest.mark.parametrize(
    "use",
    [
        lambda rows: nms(rows),
        lambda rows: iou_matrix(rows, rows),
        lambda rows: coco_map({"img": rows}, {"img": rows}),
        lambda rows: ap_table({"img": rows}, {"img": rows}),
        lambda rows: SortTracker().step(rows, 1),
    ],
    ids=["nms", "iou_matrix", "coco_map", "ap_table", "sort_step"],
)
def test_a_box_past_the_rule_is_refused_everywhere(use):
    """The row that once made nms keep both of two identical boxes, IoU and
    mAP read 0 and MOT scoring count a miss and a false positive."""
    message = refusal(BoundingBox, *FULL_SPAN)
    assert message.startswith("box (-1e+308, -1e+308, 1e+308, 1e+308) overflows")
    assert refusal(use, np.array([FULL_SPAN, FULL_SPAN])) == message


FIELDS = [f.name for f in dataclasses.fields(BoundingBox)]
COORD = st.floats(-1e6, 1e6, allow_nan=False)
SIDE = st.floats(0.0, 1e6, allow_nan=False)
# 2**63 - 1024 is the largest float64 below 2**63
CLASS_ID = st.one_of(
    st.integers(-3, 300), st.integers(-(2**62), 2**62),
    st.sampled_from([-(2**63), 2**63 - 1024, 2**53 + 2]),
)


@st.composite
def box_arrays(draw):
    """(N, 6) rows that satisfy BoundingBox's invariants."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        x, y, w, h = draw(COORD), draw(COORD), draw(SIDE), draw(SIDE)
        rows.append([x, y, x + w, y + h, draw(st.floats(0.0, 1.0)), float(draw(CLASS_ID))])
    return np.array(rows, dtype=float).reshape(-1, 6)


class TestBoxes:
    """geometry.boxes against one BoundingBox(...) per row, class ids as ints."""

    @settings(max_examples=200, deadline=None)
    @given(box_arrays())
    def test_matches_per_box_construction(self, rows):
        want = [BoundingBox(*r[:5], int(r[5])) for r in rows.tolist()]
        got = make_boxes(rows)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert [getattr(a, f) for f in FIELDS] == [getattr(b, f) for f in FIELDS]
            assert [type(getattr(a, f)) for f in FIELDS] == [type(getattr(b, f)) for f in FIELDS]
            assert repr(a) == repr(b) and hash(a) == hash(b) and a == b

    @pytest.mark.parametrize("row", BAD_ROWS, ids=BAD_ROW_IDS)
    def test_rejects_bad_rows_with_box_rows_message(self, row):
        rows = np.array([GOOD_ROW, row, GOOD_ROW])
        with pytest.raises(ValueError) as from_rows:
            box_rows(rows)
        with pytest.raises(ValueError) as from_boxes:
            make_boxes(rows)
        assert str(from_boxes.value) == str(from_rows.value)

    @pytest.mark.parametrize("shape", [(0,), (6,), (2, 5), (2, 7), (1, 1, 6), (2, 4)])
    def test_rejects_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            make_boxes(np.zeros(shape))

    def test_empty_inputs_give_no_boxes(self):
        assert make_boxes(np.empty((0, 6))) == []

    @pytest.mark.parametrize("class_id", [2.0**63, -(2.0**64), 1e19, 1e300])
    def test_class_id_outside_int64_rejected_not_wrapped(self, class_id):
        with pytest.raises(ValueError) as raised:
            make_boxes(np.array([GOOD_ROW, [*GOOD_ROW[:5], class_id]]))
        assert str(raised.value) == f"class id outside int64: {class_id}"

    def test_int64_bounds_come_back_exact(self):
        rows = np.array([[*GOOD_ROW[:5], -(2.0**63)], [*GOOD_ROW[:5], np.nextafter(2.0**63, 0)]])
        assert [b.class_id for b in make_boxes(rows)] == [-(2**63), 2**63 - 1024]

    def test_factory_box_keeps_the_record_contract(self, monkeypatch):
        row = np.array([[1.0, 2.0, 3.5, 4.5, 0.75, 3.0]])
        monkeypatch.setitem(test_records.RECORDS, "BoundingBox", lambda: make_boxes(row)[0])
        test_records.test_instances_have_no_dict("BoundingBox")
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            test_records.test_copies_and_pickles_are_equal("BoundingBox", clone)
        test_records.test_frozen_records_refuse_every_assignment("BoundingBox")
        test_records.test_bounding_box_hash_and_repr_follow_the_fields()


def test_iou_matrix_matches_pairwise():
    rows = [BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 4, 4)]
    cols = [BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 11, 11), BoundingBox(1, 0, 3, 2)]
    m = iou_matrix(rows, cols)
    assert m.shape == (2, 3)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert m[i, j] == box_oracle.iou(r, c)
    assert iou_matrix([], cols).shape == (0, 3)
    assert iou_matrix(box_rows(rows), box_rows(cols)).tolist() == m.tolist()
