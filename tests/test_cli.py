import json

import numpy as np
import pytest

from conftest import (
    FORK_JOIN_WORKLOAD,
    conv_block_graph,
    fork_join_stream_graph,
    mul_conv_chain_graph,
)
from motkit.cli import main
from motkit.dataflow import save_stream_graph
from motkit.io import read_mot, write_tensor
from motkit.streamline import (
    PASS_PIPELINE,
    load_graph,
    pass_move_scale_past_conv,
    run_pipeline,
    save_graph,
)

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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        dets = tmp_path / "dets.txt"
        dets.write_text("")
        rc = main(["track", "--detections", str(dets), "--config", str(cfg),
                   "-o", str(tmp_path / "res.txt")])
        assert rc == 2

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
            pass_move_scale_past_conv(expected)
        else:
            expected = run_pipeline(expected)
        assert load_graph(out).canonical_json() == expected.canonical_json()

    def test_unknown_pass_rejected(self, tmp_path):
        src = tmp_path / "in.json"
        save_graph(conv_block_graph(), src)
        rc = main(["streamline", str(src), "-o", str(tmp_path / "out.json"),
                   "--passes", "frobnicate"])
        assert rc == 2


    def test_passes_named_after_pass_pipeline(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = str(tmp_path / "out.json")
        save_graph(conv_block_graph(), src)
        names = [p.__name__.removeprefix("pass_") for p in PASS_PIPELINE]
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
        ],
        ids=["node_without_id", "list_document", "edge_without_dst", "string_src_out",
             "attrs_not_object"],
    )
    def test_malformed_graph_exits_two(self, tmp_path, capsys, doc):
        if isinstance(doc, str):  # a fault in one edge of a valid graph
            fault, doc = doc, conv_block_graph().to_json_dict()
            edge = doc["edges"][2]
            if fault == "edge_without_dst":
                del edge["dst"]
            else:
                edge["src_out"] = "x"
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        assert main(["streamline", str(src), "-o", str(tmp_path / "out.json")]) == 2
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
        ],
        ids=["float_latency", "string_consume", "missing_id", "unknown_folding_key",
             "bool_produce", "float_depth"],
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
