import json
import math
import sys

import numpy as np
import pytest

from motkit.geometry import BoundingBox
from motkit.io import (
    BadMagicError,
    FormatError,
    TruncatedError,
    read_det_boxes,
    read_gt_boxes,
    read_mot,
    read_run_config,
    read_tensor,
    write_mot,
    write_tensor,
)


def read_lines(tmp_path, *lines):
    """read_mot on a file of `lines`."""
    path = tmp_path / "rows.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    return read_mot(path)


class TestMotRows:
    def test_parse_example_row(self, tmp_path):
        frames = read_lines(tmp_path, "1,2,10,20,30,40,0.5,-1,-1,-1")
        assert frames == {1: [(2, BoundingBox(10.0, 20.0, 40.0, 60.0, 0.5))]}

    def test_round_trip_random_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = {}
        for frame in range(1, 5):
            rows = []
            for tid in range(1, 4):
                x, y = rng.uniform(0, 100, 2)
                w, h = rng.uniform(5, 40, 2)
                rows.append(
                    (tid, BoundingBox(x, y, x + w, y + h, float(rng.uniform(0, 1))))
                )
            frames[frame] = rows
        path = tmp_path / "rows.txt"
        write_mot(frames, path)
        back = read_mot(path)
        assert set(back) == set(frames)
        for frame in frames:
            for (tid_a, box_a), (tid_b, box_b) in zip(frames[frame], back[frame]):
                assert tid_a == tid_b
                assert box_a.corners() == box_b.corners()
                assert box_a.score == box_b.score

    def test_writer_deterministic(self, tmp_path):
        frames = {1: [(1, BoundingBox(0.5, 1.25, 10.75, 20.125, 0.375))]}
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mot(frames, p1)
        write_mot(frames, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_column_count(self, tmp_path):
        with pytest.raises(FormatError, match="line 3"):
            read_lines(tmp_path, "1,2,10,20,30,40,1,-1,-1,-1", "", "1,2,3")

    def test_rejects_non_positive_size_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,1,10,20,30,40,1,-1,-1,-1\n1,2,10,20,0,40,1,-1,-1,-1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_mot(path)

    def test_rejects_garbage_number(self, tmp_path):
        with pytest.raises(FormatError, match="line 7"):
            read_lines(tmp_path, *["1,2,10,20,30,40,1,-1,-1,-1"] * 6, "1,2,xx,20,30,40,1,-1,-1,-1")

    @pytest.mark.parametrize(
        "fields, message",
        [("10,20,inf,40", "box .* overflows"), ("-inf,20,30,40", "box .* overflows"),
         ("10,20,nan,40", r"inverted corners: \(10\.0, 20\.0, nan, 60\.0\)"),
         ("1e308,0,1e308,1", "box .* overflows"), ("0,0,1e200,1e200", "box .* overflows"),
         ("-1e308,-1e308,1e308,1e308", "box .* overflows")],
        ids=["inf_width", "inf_left", "nan_width", "corner_past_limit", "area_overflow",
             "full_span"],
    )
    def test_rejects_overflowing_box_with_line_number(self, tmp_path, fields, message):
        with pytest.raises(FormatError, match=f"^line 4: {message}"):
            read_lines(tmp_path, *["1,2,10,20,30,40,1,-1,-1,-1"] * 3, f"1,2,{fields},1,-1,-1,-1")

    @pytest.mark.parametrize("row", ["1,1,1_0,20,30,40,1,-1,-1,-1", "1,1,10,20,30,40,1,-1,-1,-1_0",
                                     "1_0,1,10,20,30,40,1,-1,-1,-1"])
    def test_rejects_digit_group_underscores(self, tmp_path, row):
        """int() and float() read 1_0 as 10; the reader refuses it."""
        with pytest.raises(FormatError, match=r"^line 2: '_' in field '(1_0|-1_0)'$"):
            read_lines(tmp_path, "1,2,10,20,30,40,1,-1,-1,-1", row)

    def test_accepts_box_at_the_corner_limit(self, tmp_path):
        limit = sys.float_info.max / 2
        [[(_, box)]] = read_lines(
            tmp_path, f"1,2,{limit - 1e300!r},0,{1e300!r},1e-300,1,-1,-1,-1").values()
        assert box.x_max == limit


class TestTensorDump:
    def test_single_zero_round_trip(self, tmp_path):
        path = tmp_path / "t.tnsr"
        write_tensor(np.zeros((1,), dtype=np.int32), path)
        assert np.array_equal(read_tensor(path), np.zeros((1,), dtype=np.int32))

    def test_headmap_sized_float_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(84, 24, 40)).astype(np.float32)
        p1, p2 = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
        write_tensor(data, p1)
        back = read_tensor(p1)
        assert back.dtype == np.float32
        assert np.array_equal(back, data)
        write_tensor(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_int_round_trip(self, tmp_path):
        data = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
        path = tmp_path / "i.tnsr"
        write_tensor(data, path)
        assert np.array_equal(read_tensor(path), data)

    def test_bad_magic_distinct_error(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_truncation_distinct_error(self, tmp_path):
        path = tmp_path / "t.tnsr"
        write_tensor(np.arange(10, dtype=np.int32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedError):
            read_tensor(path)

    def test_int32_overflow_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(np.array([2**40]), tmp_path / "x.tnsr")


class TestRunConfig:
    def test_parses_known_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# pipeline settings\n"
            "score_thresh = 0.4\n"
            "nms_iou = 0.5\n"
            "max_age = 3\n"
        )
        cfg = read_run_config(path)
        assert cfg == {"score_thresh": 0.4, "nms_iou": 0.5, "max_age": 3}
        assert isinstance(cfg["max_age"], int)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(FormatError, match="warp_factor"):
            read_run_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("score_thresh 0.4\n")
        with pytest.raises(FormatError, match="line 1"):
            read_run_config(path)


class TestDetJson:
    def test_gt_and_det_files(self, tmp_path):
        gt_path = tmp_path / "gt.json"
        det_path = tmp_path / "det.json"
        gt_path.write_text('{"img1": [[0, 0, 10, 10, 3]]}')
        det_path.write_text('{"img1": [[0, 0, 10, 10, 0.9, 3]]}')
        gts = read_gt_boxes(gt_path)
        dets = read_det_boxes(det_path)
        assert gts["img1"][0].class_id == 3
        assert dets["img1"][0].score == 0.9

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"img1": [[0, 0, 10, 10]]}')
        with pytest.raises(FormatError):
            read_gt_boxes(path)

    @pytest.mark.parametrize(
        "row",
        [[0, 0, 1e308, 1e308], [-1e308, 0, 0, 1], [0, 0, 10**400, 1], [0, 0, 1e200, 1e200],
         [float("nan"), 0, 1, 1]],
        ids=["corners_past_limit", "negative_corner_past_limit", "huge_int", "area_overflow",
             "nan_corner"],
    )
    @pytest.mark.parametrize("reader", [read_gt_boxes, read_det_boxes])
    def test_overflowing_box_rejected_naming_the_entry(self, tmp_path, row, reader):
        extra = [0] if reader is read_gt_boxes else [0.9, 0]
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({"img1": [[0, 0, 10, 10, *extra], row + extra]}))
        message = "inverted corners" if math.isnan(row[0]) else "box .* overflows"
        with pytest.raises(FormatError, match=rf"^img1\[1\]: {message}"):
            reader(path)

    def test_degenerate_boxes_at_the_corner_limit_accepted(self, tmp_path):
        limit = sys.float_info.max / 2
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"a": [[-limit, -limit, -limit, -limit, 0],
                                          [limit, 0, limit, 1, 0]]}))
        assert [b.x_min for b in read_gt_boxes(path)["a"]] == [-limit, limit]
