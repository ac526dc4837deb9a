from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from conftest import translated
from motkit.geometry import BoundingBox, area, iou, iou_matrix


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
    def test_unit_box(self):
        assert area(BoundingBox(0, 0, 1, 1)) == 1.0

    def test_line_box(self):
        assert area(BoundingBox(0, 0, 0, 3)) == 0.0

    def test_rectangle(self):
        assert area(BoundingBox(0, 0, 3, 2)) == 6.0


class TestBoundingBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            BoundingBox(2, 0, 1, 1)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1, score=1.5)


def test_iou_matrix_matches_pairwise():
    rows = [BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 4, 4)]
    cols = [BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 11, 11), BoundingBox(1, 0, 3, 2)]
    m = iou_matrix(rows, cols)
    assert m.shape == (2, 3)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert m[i, j] == pytest.approx(iou(r, c))
    assert iou_matrix([], cols).shape == (0, 3)
