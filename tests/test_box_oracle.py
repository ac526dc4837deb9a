"""Differential tests: every IoU user in motkit against ``box_oracle``.

``corner_iou`` (aligned and pairwise), ``decode_heads``, ``nms``,
``average_precision``, ``coco_map``/``ap_table`` and ``MotAccumulator.step``
must give exactly what the scalar-IoU code they replaced gives: compared
with ``==`` or bit for bit, no tolerance. ``nms`` is fed both a BoundingBox
list and its box rows, and so are the scorers. Coordinates and scores are
drawn from coarse grids, so touching edges, degenerate boxes, score ties
and IoUs that land on a threshold are common. ``reduce_dfl`` must give the
frozen one's bytes wherever numpy's sums over bins added in bin order; the
one exception and its tolerance are stated in ``TestReduceDfl``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import box_oracle
from motkit import decode
from motkit.decode import HeadMap, decode_heads, nms
from motkit.geometry import BoundingBox, box_rows, corner_iou
from motkit.metrics import (
    COCO_IOU_THRESHOLDS,
    MotAccumulator,
    ap_table,
    average_precision,
    coco_map,
)


def grid_boxes():
    """Boxes of 3 classes on a 1/2-pixel grid, zero widths and heights
    included, with 4 scores."""
    half = st.integers(0, 40).map(lambda v: v / 2)
    return st.builds(
        lambda x, y, w, h, s, c: BoundingBox(x, y, x + w, y + h, s, c),
        half,
        half,
        st.integers(0, 24).map(lambda v: v / 2),
        st.integers(0, 24).map(lambda v: v / 2),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.integers(0, 2),
    )


class TestCornerIou:
    @given(st.lists(grid_boxes(), max_size=12), st.lists(grid_boxes(), max_size=12))
    def test_pairwise_bit_equal_to_scalar(self, rows, cols):
        m = corner_iou(box_rows(rows)[:, :4][:, None], box_rows(cols)[:, :4][None])
        assert m.shape == (len(rows), len(cols))
        assert m.tolist() == [[box_oracle.iou(r, c) for c in cols] for r in rows]

    @given(st.lists(st.tuples(grid_boxes(), grid_boxes()), max_size=12))
    def test_aligned_bit_equal_to_scalar(self, pairs):
        a = box_rows([p for p, _ in pairs])[:, :4]
        b = box_rows([q for _, q in pairs])[:, :4]
        assert corner_iou(a, b).tolist() == [box_oracle.iou(p, q) for p, q in pairs]

    @given(grid_boxes(), grid_boxes())
    def test_single_rows_bit_equal_to_scalar(self, a, b):
        value = corner_iou(np.array(a.corners()), np.array(b.corners()))
        assert value.shape == ()
        assert float(value) == box_oracle.iou(a, b)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.builds(
                lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                *[st.floats(-100, 100)] * 2,
                *[st.floats(0, 50)] * 2,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_arbitrary_floats_bit_equal_to_scalar(self, boxes):
        m = corner_iou(box_rows(boxes)[:, :4][:, None], box_rows(boxes)[:, :4][None])
        assert m.tolist() == [[box_oracle.iou(r, c) for c in boxes] for r in boxes]

    def test_touching_and_degenerate_boxes(self):
        boxes = [
            BoundingBox(0, 0, 10, 10),
            BoundingBox(10, 0, 20, 10),  # shares an edge with the first
            BoundingBox(10, 10, 20, 20),  # shares a corner with the first
            BoundingBox(5, 5, 5, 15),  # a line through the first
            BoundingBox(5, 5, 5, 5),  # a point inside the first
        ]
        m = corner_iou(box_rows(boxes)[:, :4][:, None], box_rows(boxes)[:, :4][None])
        assert m.tolist() == [[box_oracle.iou(r, c) for c in boxes] for r in boxes]
        assert m[0, 1:].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.diag(m).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def oracle_rows(boxes) -> np.ndarray:
    """The (N, 6) float rows of an oracle BoundingBox list, built without
    motkit's box_rows, in the layout nms and decode_heads return."""
    return np.array(
        [(b.x_min, b.y_min, b.x_max, b.y_max, b.score, b.class_id) for b in boxes], dtype=float
    ).reshape(-1, 6)


def assert_same_rows(got: np.ndarray, want: np.ndarray) -> None:
    """Same dtype, shape and bits: -0.0 is told from 0.0."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def signed_grid_boxes():
    """Boxes on a 1/2-pixel grid whose corners may be -0.0 or 0.0, with score
    ties at 0.0, -0.0 and 0.5: (-score, class_id, corners) keys equal under
    == but not bit for bit, which the rank's tie-break must treat as equal."""
    side = st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0]), min_size=2, max_size=2).map(sorted)
    return st.builds(
        lambda xs, ys, s, c: BoundingBox(xs[0], ys[0], xs[1], ys[1], s, c),
        side,
        side,
        st.sampled_from([0.0, -0.0, 0.5]),
        st.integers(0, 1),
    )


def overlapping_boxes(n: int, seed: int, side: int = 60) -> list[BoundingBox]:
    """n boxes of two classes and 8 scores, on a 1/2-pixel grid, each 2 to 30
    pixels a side, with top-left corners in a side x side square."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 2 * side, (n, 2)) / 2
    wh = rng.integers(4, 60, (n, 2)) / 2
    return [
        BoundingBox(x, y, x + w, y + h, float(s), int(c))
        for (x, y), (w, h), s, c in zip(
            xy.tolist(), wh.tolist(), rng.integers(1, 9, n) / 8, rng.integers(0, 2, n)
        )
    ]


class TestNms:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(grid_boxes(), max_size=40),
        st.sampled_from([0.0, 0.45, 1.0]),
        st.booleans(),
        st.sampled_from([1, 3, 64]),
    )
    def test_matches_oracle(self, boxes, thresh, class_aware, block):
        # small blocks put block boundaries inside these short inputs
        with mock.patch.object(decode, "NMS_BLOCK", block):
            from_list = nms(boxes, thresh, class_aware)
            from_rows = nms(box_rows(boxes), thresh, class_aware)
        want = oracle_rows(box_oracle.nms(boxes, thresh, class_aware))
        assert_same_rows(from_list, want)
        assert_same_rows(from_rows, want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(signed_grid_boxes(), max_size=24),
        st.sampled_from([0.0, 0.45]),
        st.booleans(),
        st.sampled_from([1, 3, 64]),
    )
    def test_signed_zeros_and_score_ties_rank_like_the_oracle(
        self, boxes, thresh, class_aware, block
    ):
        # the bytes tell -0.0 from 0.0, so the same box of a tied group is kept
        want = oracle_rows(box_oracle.nms(boxes, thresh, class_aware))
        with mock.patch.object(decode, "NMS_BLOCK", block):
            assert_same_rows(nms(boxes, thresh, class_aware), want)
            assert_same_rows(nms(box_rows(boxes), thresh, class_aware), want)

    @pytest.mark.parametrize("class_aware", [True, False])
    def test_matches_oracle_across_full_blocks(self, class_aware):
        # 700 overlapping boxes of two classes: many full blocks per class
        boxes = overlapping_boxes(700, seed=4)
        want = oracle_rows(box_oracle.nms(boxes, 0.45, class_aware))
        assert_same_rows(nms(boxes, 0.45, class_aware), want)
        assert_same_rows(nms(box_rows(boxes), 0.45, class_aware), want)

    @pytest.mark.parametrize("class_aware", [True, False])
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("block", [64, 65, 100])
    def test_matches_oracle_at_block_bounds(self, block, n, class_aware):
        # Last blocks that are full or hold one row; blocks above the default
        # size need nms's triangle mask to be built for the patched size.
        boxes = overlapping_boxes(n, seed=n, side=10)
        want = oracle_rows(box_oracle.nms(boxes, 0.45, class_aware))
        with mock.patch.object(decode, "NMS_BLOCK", block):
            assert_same_rows(nms(box_rows(boxes), 0.45, class_aware), want)


class TestDecodeHeads:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("score_thresh", [0.0, 0.5, 0.9])
    def test_matches_oracle(self, seed, score_thresh):
        # odd seeds: float32 maps; seeds 2 and 3: integer logits, so class
        # logits tie and a logit of 0 scores exactly the 0.5 threshold
        rng = np.random.default_rng(seed)
        dtype = np.float32 if seed % 2 else np.float64
        maps = []
        for s in (8, 16, 32):
            data = rng.normal(scale=3.0, size=(9, 64 // s, 96 // s))
            maps.append(HeadMap(s, (np.round(data) if seed >= 2 else data).astype(dtype)))
        got = decode_heads(maps, score_thresh)
        assert_same_rows(got, oracle_rows(box_oracle.decode_heads(maps, score_thresh)))


def dfl_map(dtype, bins: int, h: int, w: int, seed: int = 0) -> np.ndarray:
    """A (4*bins + 3, h, w) raw head map of `dtype`. Float maps carry NaN,
    +inf and -inf logits, and one cell whose first side's bins are all
    -inf."""
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 4.0, (4 * bins + 3, h, w))
    if np.dtype(dtype).kind == "i":
        return np.round(data * 10.0).astype(dtype)
    data.reshape(-1)[rng.choice(data.size, 6, replace=False)] = [np.nan, np.inf, -np.inf] * 2
    data[:bins, 0, 0] = -np.inf
    return data.astype(dtype)


def laid_out(data: np.ndarray, layout: str) -> np.ndarray:
    """`data`'s values in another memory layout, as a view."""
    if layout == "strided":  # every other column of a wider map
        wide = np.zeros(data.shape[:2] + (2 * data.shape[2],), data.dtype)
        wide[:, :, ::2] = data
        return wide[:, :, ::2]
    if layout == "channels_last":  # a (h, w, channels) array, transposed
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(data, 0, 2)), 2, 0)
    return np.asfortranarray(data) if layout == "fortran" else data


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def oracle_dfl(data: np.ndarray, bins: int) -> np.ndarray:
    """The frozen ``reduce_dfl``, which warns on inf - inf in its softmax."""
    with np.errstate(invalid="ignore"):
        return box_oracle.reduce_dfl(data, bins)


class TestReduceDfl:
    """``reduce_dfl`` adds over bins in bin order, whatever the map's layout.
    The oracle's numpy sums add in bin order too when the bin axis is not
    innermost in memory and the map has more than one cell; there the bytes
    must be equal. Otherwise numpy adds 8 or more bins pairwise, so on
    channels-last and Fortran-ordered maps the live result is the oracle's
    on a C-ordered copy, and on single-cell maps it is within the tolerance
    below."""

    DTYPES = [np.float16, np.float32, np.float64, np.int32]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bins", [1, 2, 16])
    @pytest.mark.parametrize("layout", ["C", "strided", "channels_last", "fortran"])
    def test_matches_oracle(self, dtype, bins, layout):
        data = laid_out(dfl_map(dtype, bins, 5, 7), layout)
        memory = data if data.base is None else data.base  # all of a strided view's array
        before = memory.tobytes()
        got = decode.reduce_dfl(data, bins)
        assert memory.tobytes() == before  # the in-place sums write only their own arrays
        assert_same_bytes(got, oracle_dfl(np.ascontiguousarray(data), bins))
        if layout in ("C", "strided") or bins < 8:
            assert_same_bytes(got, oracle_dfl(data, bins))
        assert np.isnan(got[:4]).any() == (np.dtype(dtype).kind == "f")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bins", [1, 2, 16])
    def test_single_cell_maps(self, dtype, bins):
        for seed in range(20):
            data = dfl_map(dtype, bins, 1, 1, seed)
            got, want = decode.reduce_dfl(data, bins), oracle_dfl(data, bins)
            if bins < 8:
                assert_same_bytes(got, want)
                continue
            # Pairwise and in-order sums of `bins` softmax terms differ by a
            # few roundings in the softmax dtype, and each is weighted by a
            # bin index below `bins`.
            eps = np.finfo(np.float64 if dtype == np.int32 else dtype).eps
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            np.testing.assert_allclose(got[:4], want[:4], rtol=0, atol=bins * bins * eps)
            assert_same_bytes(got[4:], want[4:])

    def test_detect_sized_float32_maps(self):
        """The 640x640 maps `decode`, `track --head-maps` and the bench feed
        in, with 16 bins and 80 classes: larger than numpy's iterator buffer."""
        for h in (80, 40, 20):
            data = np.random.default_rng(h).normal(0.0, 1.0, (4 * 16 + 80, h, h))
            data = data.astype(np.float32)
            assert_same_bytes(decode.reduce_dfl(data, 16), box_oracle.reduce_dfl(data, 16))

    def test_keeps_no_float64_product_of_all_bins(self):
        data = dfl_map(np.float32, 16, 64, 64)
        tracemalloc.start()
        try:
            decode.reduce_dfl(data, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 64 * 64 * 8  # the oracle's p * bins alone


# hypothesis's explain phase re-runs a shrunk failure with each part varied, to
# mark the parts that do not matter; on dict and frame-list inputs that is
# most of a failure report's time, so the tests drawing them skip it.
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]
IMAGE_KEYS = st.lists(st.sampled_from([0, 1, 2, "a", "b"]), unique=True, max_size=3)
GRID_BOX = grid_boxes()  # built once: hypothesis validates each new strategy it draws from


@st.composite
def scored_images(draw):
    """(dets, gts) over up to three image keys, ints and strings mixed. A
    key holds detections, ground truth or both, any of them possibly an
    empty list. Each image's boxes come from a small per-image pool or the
    grid, so a detection often lies exactly on a ground truth (IoU 1);
    detections repeat their first two boxes, so duplicates are common.
    Inputs stay this small so that hypothesis shrinks a failure in seconds."""

    def boxes(pool):
        picks = [draw(st.integers(0, len(pool))) for _ in range(draw(st.integers(0, 4)))]
        return [pool[i] if i < len(pool) else draw(GRID_BOX) for i in picks]

    dets, gts = {}, {}
    for key in draw(IMAGE_KEYS):
        pool = [draw(GRID_BOX) for _ in range(draw(st.integers(1, 3)))]
        side = draw(st.sampled_from(["both", "dets", "gts"]))
        if side != "gts":
            found = boxes(pool)
            dets[key] = found + found[:2]
        if side != "dets":
            gts[key] = boxes(pool)
    return dets, gts


def as_rows(images: dict) -> dict:
    """The same images with each BoundingBox list as box rows."""
    return {key: box_rows(boxes) for key, boxes in images.items()}


class TestAveragePrecision:
    @settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
    @given(scored_images(), st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.95, 1.0]))
    def test_matches_oracle(self, images, thresh):
        dets, gts = images
        for cls in sorted({b.class_id for boxes in gts.values() for b in boxes}):
            got = average_precision(dets, gts, thresh, cls)
            assert got == box_oracle.average_precision(dets, gts, thresh, cls)
            assert average_precision(as_rows(dets), as_rows(gts), thresh, cls) == got

    @settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
    @given(scored_images())
    def test_coco_map_and_table_match_oracle(self, images):
        dets, gts = images
        if not any(gts.values()):
            with pytest.raises(ValueError):
                coco_map(dets, gts)
            with pytest.raises(ValueError):
                coco_map(as_rows(dets), as_rows(gts))
            return
        value = coco_map(dets, gts)
        assert value == box_oracle.coco_map(dets, gts)
        table = ap_table(dets, gts)
        assert list(table) == sorted({b.class_id for boxes in gts.values() for b in boxes})
        for cls, aps in table.items():
            assert aps == [
                box_oracle.average_precision(dets, gts, t, cls) for t in COCO_IOU_THRESHOLDS
            ]
        # row detections, row ground truth or both: the same values, bit for bit
        for row_dets, row_gts in ((as_rows(dets), gts), (dets, as_rows(gts)),
                                  (as_rows(dets), as_rows(gts))):
            assert coco_map(row_dets, row_gts) == value
            assert ap_table(row_dets, row_gts) == table

    def test_recall_plateaus_and_precision_ties_match_oracle(self):
        """Ranked TP, FP, TP, FP, FP, TP over 4 ground truths, with score
        ties: recall plateaus at 0.25 and 0.5 and stops at 0.75 (levels
        past it score 0), and precision 0.5 recurs at ranks 2, 4 and 6.
        Envelope 1 on 26 levels, 2/3 on 25 and 0.5 on 25."""
        def det(x, score):
            return BoundingBox(x, 0, x + 10, 10, score)

        truth = [det(x, 1.0) for x in (0, 20, 40, 60)]
        ranked = [det(0, 0.9), det(100, 0.9), det(20, 0.8), det(100, 0.8), det(0, 0.8),
                  det(40, 0.5)]
        dets, gts = {"img": ranked, "other": [det(0, 0.3)]}, {"img": truth}
        for thresh in (0.5, 1.0):
            got = average_precision(dets, gts, thresh, 0)
            assert got == box_oracle.average_precision(dets, gts, thresh, 0)
            assert got == pytest.approx((26 + 25 * 2 / 3 + 25 * 0.5) / 101)
        assert ap_table(dets, gts)[0] == [
            box_oracle.average_precision(dets, gts, t, 0) for t in COCO_IOU_THRESHOLDS
        ]
        assert ap_table(as_rows(dets), gts) == ap_table(dets, gts)

    def test_seeded_crowd_matches_oracle(self):
        """Hundreds of detections over int and str image keys: crowded images
        with several ground truths per class, images with only detections or
        only ground truth, coarse coordinates and four scores, so IoU ties,
        score ties and competing claims are common."""
        rng = np.random.default_rng(2024)

        def grid_box(score, cls):
            x0, y0 = (rng.integers(0, 30, 2) * 2).tolist()
            w, h = (rng.integers(2, 12, 2) * 2).tolist()
            return BoundingBox(x0, y0, x0 + w, y0 + h, score, cls)

        def near(g, score):
            dx0, dy0, dx1, dy1 = rng.integers(-2, 3, 4).tolist()
            return BoundingBox(g.x_min + dx0, g.y_min + dy0, max(g.x_min + dx0, g.x_max + dx1),
                               max(g.y_min + dy0, g.y_max + dy1), score, g.class_id)

        scores = [0.25, 0.5, 0.75, 1.0]
        dets, gts = {}, {}
        for key in [0, 1, 2, 3, 10, "a", "b", "c", "d", "e"]:
            truth = [grid_box(1.0, int(rng.integers(0, 4))) for _ in range(rng.integers(3, 13))]
            if key not in (3, "e"):  # only detections there
                gts[key] = truth
            if key not in (10, "d"):  # only ground truth there
                dets[key] = [near(truth[int(rng.integers(len(truth)))], rng.choice(scores))
                             for _ in range(rng.integers(20, 40))]
                dets[key] += [grid_box(rng.choice(scores), int(rng.integers(0, 5)))
                              for _ in range(rng.integers(5, 15))]
        assert sum(map(len, dets.values())) >= 300
        table = ap_table(dets, gts)
        assert table == {
            cls: [box_oracle.average_precision(dets, gts, t, cls) for t in COCO_IOU_THRESHOLDS]
            for cls in range(4)
        }
        assert ap_table(as_rows(dets), as_rows(gts)) == table
        assert all(0.0 < aps[0] < 1.0 for aps in table.values())  # matches and misses

    def test_one_crowded_image_costs_no_padding(self):
        """One image with 2,000 ground truths of a class and 2,000 images with
        one detection and one ground truth each: the IoU pairs number 4,000,
        where padding every detection to the crowded image would make 4M."""
        crowd = np.array([[x, 0, x + 8, 8, 1.0, 0] for x in range(0, 8000, 4)], dtype=float)
        gts, dets = {"crowd": crowd}, {"crowd": np.array([[0, 0, 8, 8, 0.5, 0]], dtype=float)}
        for i in range(2000):
            gts[i] = np.array([[0, 0, 8, 8, 1.0, 0]], dtype=float)
            dets[i] = np.array([[1, 0, 9, 8, 0.9, 0]], dtype=float)
        tracemalloc.start()
        try:
            table = ap_table(dets, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table[0][0] == pytest.approx(51 / 101)  # 2,001 TP of 4,000 ground truths
        assert peak < 8e6  # one float64 IoU per padded pair alone would be 32 MB

    def test_no_ground_truth_for_class_rejected_like_oracle(self):
        gts = {"img": [BoundingBox(0, 0, 1, 1, class_id=1)]}
        for scorer in (average_precision, box_oracle.average_precision):
            with pytest.raises(ValueError):
                scorer({}, gts, 0.5, 0)


def counts(c):
    return (c.fn, c.fp, c.idsw, c.g)


def assert_same_frames(frames, gate=0.5):
    acc, ref = MotAccumulator(gate), box_oracle.MotAccumulator(gate)
    for gt, hyp in frames:
        assert counts(acc.step(gt, hyp)) == counts(ref.step(gt, hyp))
    assert (acc.fn, acc.fp, acc.idsw, acc.g) == (ref.fn, ref.fp, ref.idsw, ref.g)
    return acc


# Squares on a small grid, so that ground truth and hypotheses often overlap
# and correspondences change; one draw per box keeps failures quick to shrink.
CELLS = [
    BoundingBox(x, y, x + w, y + w) for x in (0, 4, 8, 40) for y in (0, 4, 8, 40) for w in (4, 8, 12)
]


def frame_objects(ids):
    """Unique ids from `ids` (at most four), each with a box from CELLS."""
    return st.lists(st.tuples(ids, st.sampled_from(CELLS)), max_size=4, unique_by=lambda t: t[0])


class TestMotAccumulator:
    @settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
    @given(
        st.lists(
            st.tuples(frame_objects(st.integers(1, 4)), frame_objects(st.integers(10, 13))),
            max_size=8,
        ),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_frame_counts_match_oracle(self, frames, gate):
        assert_same_frames(frames, gate)

    def test_track_carried_by_two_ground_truths(self):
        a, b = BoundingBox(0, 0, 10, 10), BoundingBox(1, 0, 11, 10)
        frames = [
            ([(1, a)], [(7, a)]),  # gt 1 -> track 7
            ([(2, a)], [(7, a)]),  # gt 2 -> track 7
            # both last saw track 7; gt 2 comes first and carries it over,
            # gt 1 goes to track 8 in the Hungarian step: one switch
            ([(2, b), (1, a)], [(7, a), (8, b)]),
        ]
        acc = assert_same_frames(frames)
        assert acc.idsw == 1

    def test_id_switches_frame_by_frame(self):
        a, b = BoundingBox(0, 0, 10, 10), BoundingBox(30, 0, 40, 10)
        frames = [
            ([(1, a), (2, b)], [(5, a), (6, b)]),
            ([(1, a), (2, b)], [(6, a), (5, b)]),  # both swap
            ([(1, a)], []),
            ([(1, a), (2, b)], [(6, a), (7, b)]),  # 1 keeps 6, 2 moves to 7
        ]
        acc = assert_same_frames(frames)
        assert acc.idsw == 3
