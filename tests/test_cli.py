import json

import numpy as np
import pytest

import synthetic_oracle
from conftest import (
    FORK_JOIN_WORKLOAD,
    conv_block_graph,
    fork_add_chain,
    fork_join_graph,
    fork_join_stream_graph,
    mul_conv_chain_graph,
)
from motkit import cli, dataflow
from motkit.cli import main
from motkit.dataflow import save_stream_graph
from motkit.io import read_mot, write_tensor
from motkit.metrics import COCO_IOU_THRESHOLDS
from motkit.streamline import PASSES, apply_passes, load_graph, run_pipeline, save_graph

GOLDEN_DETS = """\
1,-1,100,100,40,40,0.9,-1,-1,-1
1,-1,300,200,50,30,0.8,-1,-1,-1
2,-1,105,100,40,40,0.9,-1,-1,-1
2,-1,295,200,50,30,0.8,-1,-1,-1
3,-1,110,100,40,40,0.9,-1,-1,-1
3,-1,290,200,50,30,0.8,-1,-1,-1
4,-1,115,100,40,40,0.9,-1,-1,-1
5,-1,120,100,40,40,0.9,-1,-1,-1
5,-1,280,200,50,30,0.8,-1,-1,-1
6,-1,125,100,40,40,0.9,-1,-1,-1
6,-1,275,200,50,30,0.8,-1,-1,-1
"""

# Frozen from a reviewed run: frames 1-3 report both tracks (warm-up clause),
# track 2 drops out at frame 4 and stays unreported afterwards (consecutive-hit
# streak below min_hits once past warm-up); boxes are the filter estimates.
GOLDEN_RESULT = """\
1,1,100,100,40,40,0.9,-1,-1,-1
1,2,300,200,50,30,0.8,-1,-1,-1
2,1,104.99950059928086,100,39.999999999999986,40,0.9,-1,-1,-1
2,2,295.00049940071915,200,50,30,0.8,-1,-1,-1
3,1,109.99961795072059,100,40,40,0.9,-1,-1,-1
3,2,290.00038204927944,200,50,30,0.8,-1,-1,-1
4,1,114.99978433308164,100,40,40,0.9,-1,-1,-1
5,1,119.99986136448652,100,40,40,0.9,-1,-1,-1
6,1,124.99990171466723,100,40,40,0.9,-1,-1,-1
"""


class TestTrack:
    def test_synthetic_perfect_run_scores_mota_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        res = tmp_path / "res.txt"
        rc = main(
            ["track", "--synthetic", "5", "40", "0.0", "7",
             "--gt-out", str(gt), "-o", str(res)]
        )
        assert rc == 0
        rc = main(["eval-mot", str(gt), str(res)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MOTA   1.000000" in out
        assert "IDSW   0" in out

    @pytest.mark.parametrize("synthetic", [["10", "200", "0.0", "7"], ["30", "40", "2.0", "3"]])
    def test_synthetic_files_match_the_frozen_generator(self, tmp_path, monkeypatch, synthetic):
        def run(name):
            gt, res = tmp_path / f"{name}_gt.txt", tmp_path / f"{name}_res.txt"
            assert main(["track", "--synthetic", *synthetic, "--gt-out", str(gt), "-o", str(res)]) == 0
            return gt.read_bytes(), res.read_bytes()

        live = run("live")
        monkeypatch.setattr(cli, "generate_sequence", synthetic_oracle.generate_sequence)
        assert run("oracle") == live

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_invalid_synthetic_noise_rejected(self, tmp_path, capsys, noise):
        res = tmp_path / "res.txt"
        assert main(["track", "--synthetic", "5", "3", noise, "0", "-o", str(res)]) == 2
        assert "noise must be finite and >= 0" in capsys.readouterr().err
        assert not res.exists()

    @pytest.mark.parametrize(
        "noise, message",
        [
            ("1e200", "error: box width, height or area not finite"),  # the tracker's area
            ("1e308", "error: noise 1e+308 jitters box corners past float64 range"),
        ],
    )
    def test_overflowing_synthetic_noise_exits_2_with_one_error_line(
        self, tmp_path, capsys, noise, message
    ):
        res = tmp_path / "res.txt"
        assert main(["track", "--synthetic", "5", "3", noise, "0", "-o", str(res)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(message)
        assert "Warning" not in err and err.endswith(errors[0] + "\n")
        assert not res.exists()

    def test_empty_detection_file_gives_empty_result(self, tmp_path):
        dets = tmp_path / "dets.txt"
        dets.write_text("")
        res = tmp_path / "res.txt"
        assert main(["track", "--detections", str(dets), "-o", str(res)]) == 0
        assert res.read_text() == ""

    def test_golden_fixture_byte_identical(self, tmp_path):
        dets = tmp_path / "dets.txt"
        dets.write_text(GOLDEN_DETS)
        res = tmp_path / "res.txt"
        assert main(["track", "--detections", str(dets), "-o", str(res)]) == 0
        assert res.read_text() == GOLDEN_RESULT

    def test_mixed_input_kinds_rejected(self, tmp_path):
        dets = tmp_path / "dets.txt"
        dets.write_text("")
        rc = main(
            ["track", "--detections", str(dets), "--synthetic", "1", "1", "0", "0",
             "-o", str(tmp_path / "res.txt")]
        )
        assert rc == 2

    def test_missing_input_file_is_io_error(self, tmp_path):
        rc = main(
            ["track", "--detections", str(tmp_path / "nope.txt"),
             "-o", str(tmp_path / "res.txt")]
        )
        assert rc == 1

    def test_config_file_applied_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_hits = 1\nmax_age = 5\n")
        dets = tmp_path / "dets.txt"
        dets.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n")
        res = tmp_path / "res.txt"
        rc = main(["track", "--detections", str(dets), "--config", str(cfg),
                   "-o", str(res)])
        assert rc == 0
        assert len(read_mot(res)[1]) == 1  # min_hits=1 reports immediately

    def test_run_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["track", "--synthetic", "1", "2", "0", "0",
                                              "-o", "res.txt"])
        assert cli._settings(args) == {
            "score_thresh": 0.25, "nms_iou": 0.45, "iou_min": 0.3, "max_age": 1, "min_hits": 3,
        }

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        dets = tmp_path / "dets.txt"
        dets.write_text("")
        rc = main(["track", "--detections", str(dets), "--config", str(cfg),
                   "-o", str(tmp_path / "res.txt")])
        assert rc == 2

    def test_mot_gate_is_not_a_track_config_key(self, tmp_path, capsys):
        # eval-mot takes its gate from --mot-gate; track never read one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mot_gate = 0.99\n")
        dets = tmp_path / "dets.txt"
        dets.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n")
        rc = main(["track", "--detections", str(dets), "--config", str(cfg),
                   "-o", str(tmp_path / "res.txt")])
        assert rc == 2
        assert "unknown key 'mot_gate'" in capsys.readouterr().err

    def test_class_filter_drops_everything_else(self, tmp_path):
        dets = tmp_path / "dets.txt"
        dets.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n")  # MOT rows are class 0
        res = tmp_path / "res.txt"
        rc = main(["track", "--detections", str(dets), "--class-filter", "5",
                   "--min-hits", "1", "-o", str(res)])
        assert rc == 0
        assert res.read_text() == ""

    def test_detection_gap_frames_still_stepped(self, tmp_path):
        dets = tmp_path / "dets.txt"
        dets.write_text(
            "1,-1,10,10,20,20,0.9,-1,-1,-1\n"
            "3,-1,14,10,20,20,0.9,-1,-1,-1\n"  # nothing at frame 2
        )
        res = tmp_path / "res.txt"
        rc = main(["track", "--detections", str(dets), "--min-hits", "1",
                   "--max-age", "2", "-o", str(res)])
        assert rc == 0
        frames = read_mot(res)
        assert sorted(frames) == [1, 3]
        assert frames[1][0][0] == frames[3][0][0]  # same id across the gap


class TestEval:
    def test_gt_as_result_scores_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(
            "1,1,10,10,20,20,1,-1,-1,-1\n"
            "1,2,50,50,20,20,1,-1,-1,-1\n"
            "2,1,12,10,20,20,1,-1,-1,-1\n"
        )
        assert main(["eval-mot", str(gt), str(gt)]) == 0
        assert "MOTA   1.000000" in capsys.readouterr().out

    def test_eval_mot_csv(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,10,10,20,20,1,-1,-1,-1\n")
        csv = tmp_path / "metrics.csv"
        assert main(["eval-mot", str(gt), str(gt), "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "MOTA,FN,FP,IDSW,GT"
        assert lines[1] == "1.000000,0,0,0,1"

    def test_eval_det_perfect_fixture(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps({"img": [[0, 0, 10, 10, 0]]}))
        det.write_text(json.dumps({"img": [[0, 0, 10, 10, 0.9, 0]]}))
        assert main(["eval-det", str(gt), str(det)]) == 0
        assert "mAP    1.000000" in capsys.readouterr().out

    def test_eval_det_csv_rows_average_to_printed_map(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps({
            "a": [[0, 0, 10, 10, 0], [20, 0, 30, 10, 2]],
            "b": [[0, 0, 10, 10, 2], [40, 40, 60, 60, 5]],
        }))
        det.write_text(json.dumps({
            "a": [[1, 0, 11, 10, 0.9, 0], [21, 1, 31, 11, 0.8, 2], [0, 0, 5, 5, 0.7, 2]],
            "b": [[0, 2, 10, 12, 0.6, 2], [41, 40, 61, 60, 0.5, 5], [0, 0, 9, 9, 0.4, 7]],
        }))
        csv = tmp_path / "ap.csv"
        assert main(["eval-det", str(gt), str(det), "--csv", str(csv)]) == 0
        printed = capsys.readouterr().out.strip()
        lines = csv.read_text().splitlines()
        assert lines[0] == "class_id,iou_thresh,ap"
        rows = [line.split(",") for line in lines[1:]]
        expected_keys = [
            (str(cls), str(t)) for cls in (0, 2, 5) for t in COCO_IOU_THRESHOLDS
        ]
        assert [(cls, t) for cls, t, _ in rows] == expected_keys
        mean_ap = sum(float(ap) for _, _, ap in rows) / len(rows)
        assert printed == f"mAP    {mean_ap:.6f}"

    def test_eval_mot_without_gt_is_validation_error(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        assert main(["eval-mot", str(gt), str(gt)]) == 2

    @pytest.mark.parametrize(
        "which, doc",
        [
            ("gt", [1]),
            ("gt", {"img": [5]}),
            ("det", {"img": [[0, 0, 10, 10, "0.9", 0]]}),
            ("gt", {"img": [[0, 0, 10, 10, 0.7]]}),
            ("det", {"img": [[0, 0, 10, 10, 0.9, 0.7]]}),
            ("det", {"img": [[0, 0, 10, 10, 0.9]]}),
            ("gt", {"img": {"0": [0, 0, 10, 10, 0]}}),
        ],
        ids=["list_document", "row_not_list", "string_score", "fractional_gt_class",
             "fractional_det_class", "short_row", "rows_not_list"],
    )
    def test_eval_det_malformed_json_exits_two(self, tmp_path, capsys, which, doc):
        files = {
            "gt": {"img": [[0, 0, 10, 10, 0]]},
            "det": {"img": [[0, 0, 10, 10, 0.9, 0]]},
        }
        files[which] = doc
        for name, content in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        assert main(["eval-det", str(tmp_path / "gt.json"), str(tmp_path / "det.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestDecode:
    def test_decode_single_frame(self, tmp_path, capsys):
        paths = []
        for stride in (8, 16, 32):
            data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
            if stride == 8:
                data[0:4, 0, 0] = 1.0
                data[4, 0, 0] = 0.0
            path = tmp_path / f"s{stride}.tnsr"
            write_tensor(data, path)
            paths.append(str(path))
        rc = main(["decode", "--maps", *paths, "--score-thresh", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x_min,y_min,x_max,y_max,score,class_id"
        assert out[1] == "0.0000,0.0000,12.0000,12.0000,0.500000,0"
        assert len(out) == 2

    def test_decode_nan_regression_exits_two(self, tmp_path, capsys):
        paths = []
        for stride in (8, 16, 32):
            data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
            if stride == 8:
                data[0:4, 0, 0] = np.nan
                data[4, 0, 0] = 0.0
            path = tmp_path / f"s{stride}.tnsr"
            write_tensor(data, path)
            paths.append(str(path))
        rc = main(["decode", "--maps", *paths, "--score-thresh", "0.25"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: inverted corners: (nan,")

    def test_decode_negative_dfl_bins_exits_two(self, tmp_path, capsys):
        """-1 bins would read an 8-channel map as four empty distributions
        plus four classes, and decode every box with zero extent."""
        paths = []
        for stride in (8, 16, 32):
            data = np.zeros((8, 32 // stride, 32 // stride), dtype=np.float32)
            path = tmp_path / f"s{stride}.tnsr"
            write_tensor(data, path)
            paths.append(str(path))
        assert main(["decode", "--maps", *paths, "--dfl-bins", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: num_bins must be an integer >= 1, got -1\n"

    def test_track_head_map_frame_zero_exits_two(self, tmp_path, capsys):
        """Frames count from 1, as in MOT files: a frame-0 dump is refused,
        not decoded and then skipped by the step loop."""
        for stride in (8, 16, 32):
            data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
            write_tensor(data, tmp_path / f"frame0000_stride{stride}.tnsr")
        res = tmp_path / "res.txt"
        assert main(["track", "--head-maps", str(tmp_path), "-o", str(res)]) == 2
        assert "frame must be >= 1, got 0" in capsys.readouterr().err
        assert not res.exists()

    def test_track_from_head_map_directory(self, tmp_path):
        for frame in (1, 2, 3):
            for stride in (8, 16, 32):
                data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
                if stride == 8:
                    data[0:4, 1, 1] = 1.0
                    data[4, 1, 1] = 4.0
                write_tensor(data, tmp_path / f"frame{frame:04d}_stride{stride}.tnsr")
        res = tmp_path / "res.txt"
        rc = main(["track", "--head-maps", str(tmp_path), "--min-hits", "1",
                   "-o", str(res)])
        assert rc == 0
        frames = read_mot(res)
        assert sorted(frames) == [1, 2, 3]
        assert all(len(rows) == 1 for rows in frames.values())

    def test_track_reads_and_decodes_head_maps_frame_by_frame(self, tmp_path, monkeypatch):
        for frame in (1, 2, 3):
            for stride in (8, 16, 32):
                data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
                write_tensor(data, tmp_path / f"frame{frame:04d}_stride{stride}.tnsr")
        events = []
        read_tensor, decode_heads = cli.mio.read_tensor, cli.decode_heads

        def logged_read(path):
            events.append("read")
            return read_tensor(path)

        def logged_decode(maps, score_thresh):
            events.append("decode")
            return decode_heads(maps, score_thresh)

        monkeypatch.setattr(cli.mio, "read_tensor", logged_read)
        monkeypatch.setattr(cli, "decode_heads", logged_decode)
        rc = main(["track", "--head-maps", str(tmp_path), "-o", str(tmp_path / "res.txt")])
        assert rc == 0
        assert events == ["read", "read", "read", "decode"] * 3

    def test_track_missing_stride_exits_two_before_any_read(self, tmp_path, monkeypatch):
        for frame, strides in ((1, (8, 16, 32)), (2, (8, 32))):
            for stride in strides:
                data = np.full((84, 32 // stride, 32 // stride), -1e4, dtype=np.float32)
                write_tensor(data, tmp_path / f"frame{frame:04d}_stride{stride}.tnsr")
        reads = []
        monkeypatch.setattr(cli.mio, "read_tensor", reads.append)
        rc = main(["track", "--head-maps", str(tmp_path), "-o", str(tmp_path / "res.txt")])
        assert rc == 2
        assert reads == []

    def test_track_drops_zero_area_head_map_candidates(self, tmp_path, capsys):
        # regression logits -1 clamp to zero distances: the confident cell at
        # (1, 1) decodes to a point; the cell at (5, 5) to a 16x16 box
        for frame in (1, 2):
            for stride in (8, 16, 32):
                data = np.full((84, 64 // stride, 64 // stride), -1e4, dtype=np.float32)
                data[0:4] = -1.0
                if stride == 8:
                    data[4, 1, 1] = 4.0
                    data[0:4, 5, 5] = 1.0
                    data[4, 5, 5] = 4.0
                write_tensor(data, tmp_path / f"frame{frame:04d}_stride{stride}.tnsr")
        res = tmp_path / "res.txt"
        rc = main(["track", "--head-maps", str(tmp_path), "--min-hits", "1", "-o", str(res)])
        assert rc == 0
        assert "dropped 2 zero-area detections" in capsys.readouterr().err
        frames = read_mot(res)
        assert sorted(frames) == [1, 2]
        assert all(len(rows) == 1 for rows in frames.values())


class TestStreamlineCli:
    def test_pipeline_and_scale_groups_pass(self, tmp_path):
        g = conv_block_graph()
        for edge in g.edges.values():
            edge.scale = 0.5
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        save_graph(g, src)
        rc = main(["streamline", str(src), "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        kinds = sorted(n["kind"] for n in doc["nodes"])
        assert kinds == ["Conv", "Input", "Mul", "MultiThreshold", "Output"]

    def test_scale_group_violation_exits_two(self, tmp_path, capsys):
        g = conv_block_graph()
        edge_ids = list(g.edges)
        for eid in edge_ids:
            g.edges[eid].scale = 0.5
        g.edges[edge_ids[0]].scale = 0.25
        src = tmp_path / "in.json"
        save_graph(g, src)
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps([{"tag": "red", "edges": edge_ids[:3]}]))
        rc = main(["streamline", str(src), "-o", str(tmp_path / "out.json"),
                   "--passes", "absorb_affine", "--scale-groups", str(groups)])
        assert rc == 2
        assert "scale group" in capsys.readouterr().err

    @pytest.mark.parametrize("passes", [None, "move_scale_past_conv"])
    def test_each_diagnostic_printed_once(self, tmp_path, capsys, passes):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        save_graph(mul_conv_chain_graph(), src)
        argv = ["streamline", str(src), "-o", str(out)]
        rc = main(argv + ["--passes", passes] if passes else argv)
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("node m0: per-channel scale")
        expected = load_graph(src)
        if passes:
            apply_passes(expected, [passes])
        else:
            expected = run_pipeline(expected)
        assert load_graph(out).canonical_json() == expected.canonical_json()

    @pytest.mark.parametrize("make", [conv_block_graph, fork_join_graph, mul_conv_chain_graph])
    def test_writes_what_the_library_writes(self, tmp_path, make):
        """The saved id counter makes the CLI draw the library's fresh ids."""
        g = make()
        src, out, want = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "want.json"
        save_graph(g, src)
        assert main(["streamline", str(src), "-o", str(out)]) == 0
        save_graph(run_pipeline(g), want)
        assert out.read_bytes() == want.read_bytes()

    def test_long_fork_add_chain_streamlined_in_one_run(self, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        save_graph(fork_add_chain(40), src)
        assert main(["streamline", str(src), "-o", str(out)]) == 0
        assert "Mul" not in {n.kind for n in load_graph(out).nodes.values()}
        assert capsys.readouterr().err == ""

    def test_unknown_pass_rejected(self, tmp_path):
        src = tmp_path / "in.json"
        save_graph(conv_block_graph(), src)
        rc = main(["streamline", str(src), "-o", str(tmp_path / "out.json"),
                   "--passes", "frobnicate"])
        assert rc == 2

    @pytest.mark.parametrize("passes", ["", "absorb_affine,"])
    def test_empty_pass_name_rejected(self, tmp_path, capsys, passes):
        """An empty --passes names no pass; it does not fall back to the
        full pipeline."""
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        save_graph(conv_block_graph(), src)
        assert main(["streamline", str(src), "-o", str(out), "--passes", passes]) == 2
        assert "unknown pass ''" in capsys.readouterr().err
        assert not out.exists()

    def test_passes_named_after_pass_pipeline(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = str(tmp_path / "out.json")
        save_graph(conv_block_graph(), src)
        names = list(PASSES)
        for name in names:
            assert main(["streamline", str(src), "-o", out, "--passes", name]) == 0
        capsys.readouterr()
        assert main(["streamline", str(src), "-o", out, "--passes", "pass_absorb_affine"]) == 2
        err = capsys.readouterr().err
        assert "unknown pass 'pass_absorb_affine'" in err
        assert all(repr(name) in err for name in names)

    @pytest.mark.parametrize(
        "doc",
        [
            {"nodes": [{"kind": "Input"}]},
            [1, 2],
            "edge_without_dst",
            "string_src_out",
            {"nodes": [{"id": "in", "kind": "Input", "attrs": [1]}]},
            ("scale", "abc"),
            ("scale", True),
            ("bits", 0),
            ("bits", 8.0),
            ("signed", "yes"),
            {"nodes": [{"id": "in", "kind": "Input"}], "fresh_id": -1},
            {"nodes": [{"id": "in", "kind": "Input"}], "fresh_id": 2.0},
            {"nodes": [{"id": "in", "kind": "Input"}], "fresh_id": "7"},
            {
                "nodes": [
                    {"id": "in", "kind": "Input"},
                    {"id": "m", "kind": "Mul"},
                    {"id": "c", "kind": "Conv", "attrs": {"weights": [[[[1.0]]]]}},
                    {"id": "out", "kind": "Output"},
                ],
                "edges": [
                    {"id": "e0", "src": "in", "dst": "m"},
                    {"id": "e1", "src": "m", "dst": "c"},
                    {"id": "e2", "src": "c", "dst": "out"},
                ],
            },
        ],
        ids=["node_without_id", "list_document", "edge_without_dst", "string_src_out",
             "attrs_not_object", "string_scale", "bool_scale", "zero_bits", "float_bits",
             "string_signed", "negative_fresh_id", "float_fresh_id", "string_fresh_id",
             "mul_without_scale"],
    )
    def test_malformed_graph_exits_two(self, tmp_path, capsys, doc):
        if isinstance(doc, (str, tuple)):  # a fault in one edge of a valid graph
            fault, doc = doc, conv_block_graph().to_json_dict()
            edge = doc["edges"][2]
            if isinstance(fault, tuple):  # a bad annotation
                edge[fault[0]] = fault[1]
            elif fault == "edge_without_dst":
                del edge["dst"]
            else:
                edge["src_out"] = "x"
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        assert main(["streamline", str(src), "-o", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    @pytest.mark.parametrize(
        "groups",
        [[1], {"tag": "red", "edges": []}, [{"tag": 1, "edges": []}],
         [{"tag": "red", "edges": "e1"}], [{"tag": "red", "edges": [1]}], [{"edges": []}]],
        ids=["int_entry", "object_document", "int_tag", "string_edges", "int_edge",
             "missing_tag"],
    )
    def test_malformed_scale_groups_exit_two(self, tmp_path, capsys, groups):
        src = tmp_path / "in.json"
        save_graph(conv_block_graph(), src)
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(groups))
        rc = main(["streamline", str(src), "-o", str(tmp_path / "out.json"),
                   "--scale-groups", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSimFifoCli:
    def test_deadlock_report_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        save_stream_graph(fork_join_stream_graph(), path, workload=FORK_JOIN_WORKLOAD)
        rc = main(["sim-fifo", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "deadlock"
        assert "join" in doc["blocked_nodes"]
        assert "e2" in doc["full_edges"]

    def test_probe_recommends_depths(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        save_stream_graph(fork_join_stream_graph(), path)
        rc = main(["sim-fifo", str(path), "--workload", str(FORK_JOIN_WORKLOAD),
                   "--probe"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["outcome"] == "completed"
        assert doc["recommended_depths"]["e3"] == 8

    def test_probe_simulates_nothing_and_reports_the_run_at_its_depths(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "graph.json"
        save_stream_graph(fork_join_stream_graph(), path, workload=FORK_JOIN_WORKLOAD)
        simulate, calls = dataflow.simulate, []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(dataflow, "simulate", counting)
        assert main(["sim-fifo", str(path), "--probe"]) == 0
        assert calls == []
        doc = json.loads(capsys.readouterr().out)
        sized = fork_join_stream_graph()
        for eid, depth in doc["recommended_depths"].items():
            sized.edges[eid].depth = depth
        assert doc["verification"] == simulate(sized, FORK_JOIN_WORKLOAD).to_json_dict()

    def test_probe_below_completion_exits_2(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        save_stream_graph(fork_join_stream_graph(), path, workload=FORK_JOIN_WORKLOAD)
        assert main(["sim-fifo", str(path), "--probe"]) == 0
        end = json.loads(capsys.readouterr().out)["verification"]["cycles"]
        assert main(["sim-fifo", str(path), "--probe", "--cycle-cap", str(end - 1)]) == 2
        assert "probe run did not complete: cap_exceeded" in capsys.readouterr().err

    def test_workload_required(self, tmp_path):
        path = tmp_path / "graph.json"
        save_stream_graph(fork_join_stream_graph(), path)
        assert main(["sim-fifo", str(path)]) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("nodes", "latency", 1.5),
            ("nodes", "consume", "x"),
            ("nodes", "id", None),  # None: the key is left out
            ("nodes", "folding", {"simd": 1, "pe": 1, "in_ch": 8, "out_ch": 8, "lanes": 4}),
            ("nodes", "produce", True),
            ("edges", "depth", 2.0),
            # 64 cycles per output against the node's latency of 8
            ("nodes", "folding", {"simd": 1, "pe": 1, "in_ch": 8, "out_ch": 8}),
            ("nodes", "folding", {"simd": 0, "pe": 1, "in_ch": 8, "out_ch": 8}),
            ("nodes", "folding", {}),
            ("nodes", "folding", False),
            ("nodes", "outputs_per_frame", "x"),
            ("nodes", "outputs_per_frame", 0),
        ],
        ids=["float_latency", "string_consume", "missing_id", "unknown_folding_key",
             "bool_produce", "float_depth", "folding_disagrees_with_latency", "zero_simd",
             "empty_folding", "false_folding", "string_outputs_per_frame",
             "zero_outputs_per_frame"],
    )
    def test_malformed_graph_exits_two(self, tmp_path, capsys, section, key, value):
        doc = fork_join_stream_graph().to_json_dict()
        doc["workload"] = FORK_JOIN_WORKLOAD
        spec = doc[section][3]
        if value is None:
            del spec[key]
        else:
            spec[key] = value
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        assert main(["sim-fifo", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
