"""Command-line entry point wiring the modules into one pipeline.

Subcommands: track, decode, eval-mot, eval-det, streamline, sim-fifo.
Exit codes: 0 success, 1 I/O error, 2 validation / undefined metric.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import io as mio
from . import metrics, streamline
from . import dataflow as df
from .decode import HeadMap, decode_heads, nms, reduce_dfl
from .synthetic import generate_sequence
from .tracker import SortConfig, SortTracker

_HEADMAP_RE = re.compile(r"frame(\d+)_stride(8|16|32)\.tnsr$")

_DEFAULTS = {
    "score_thresh": 0.25,
    "nms_iou": 0.45,
    "iou_min": 0.3,
    "max_age": 1,
    "min_hits": 3,
    "mot_gate": 0.5,
}


def _settings(args) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(mio.read_run_config(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _load_headmap_frames(directory: str, dfl_bins: int) -> dict[int, list[HeadMap]]:
    """Collect frame -> [HeadMap x3] from frame{N}_stride{S}.tnsr files."""
    by_frame: dict[int, dict[int, HeadMap]] = {}
    for path in sorted(Path(directory).iterdir()):
        m = _HEADMAP_RE.search(path.name)
        if not m:
            continue
        frame, stride = int(m.group(1)), int(m.group(2))
        data = mio.read_tensor(path).astype(float)
        if dfl_bins:
            data = reduce_dfl(data, dfl_bins)
        by_frame.setdefault(frame, {})[stride] = HeadMap(stride, data)
    if not by_frame:
        raise ValueError(f"no frame*_stride*.tnsr files in {directory}")
    frames = {}
    for frame, heads in sorted(by_frame.items()):
        if sorted(heads) != [8, 16, 32]:
            raise ValueError(f"frame {frame}: need strides 8,16,32, got {sorted(heads)}")
        frames[frame] = [heads[8], heads[16], heads[32]]
    return frames


def cmd_track(args) -> int:
    cfg = _settings(args)
    chosen = [k for k in ("detections", "head_maps", "synthetic") if getattr(args, k)]
    if len(chosen) != 1:
        raise ValueError(f"exactly one input kind required, got {chosen or 'none'}")

    if args.synthetic:
        n_objects, n_frames = int(args.synthetic[0]), int(args.synthetic[1])
        noise, seed = float(args.synthetic[2]), int(args.synthetic[3])
        gt_frames, det_frames = generate_sequence(n_objects, n_frames, noise, seed)
        if args.gt_out:
            mio.write_mot(gt_frames, args.gt_out)
        detections = {f: [b for _, b in boxes] for f, boxes in det_frames.items()}
    elif args.detections:
        detections = {
            f: [b for _, b in boxes] for f, boxes in mio.read_mot(args.detections).items()
        }
    else:
        frames = _load_headmap_frames(args.head_maps, args.dfl_bins)
        detections = {}
        for frame, maps in frames.items():
            boxes = decode_heads(maps, cfg["score_thresh"])
            detections[frame] = nms(boxes, cfg["nms_iou"], class_aware=not args.no_class_aware)

    if args.class_filter is not None:
        keep = set(args.class_filter)
        detections = {
            f: [b for b in boxes if b.class_id in keep] for f, boxes in detections.items()
        }

    tracker = SortTracker(
        SortConfig(max_age=cfg["max_age"], min_hits=cfg["min_hits"], iou_min=cfg["iou_min"])
    )
    results: dict[int, list] = {}
    last_frame = max(detections) if detections else 0
    for frame in range(1, last_frame + 1):
        reported = tracker.step(detections.get(frame, []), frame)
        if reported:
            results[frame] = [(track_id, box) for track_id, box, _ in reported]
    mio.write_mot(results, args.output)
    print(f"wrote {sum(len(v) for v in results.values())} rows to {args.output}")
    return 0


def cmd_decode(args) -> int:
    maps = []
    for stride, path in zip((8, 16, 32), args.maps):
        data = mio.read_tensor(path).astype(float)
        if args.dfl_bins:
            data = reduce_dfl(data, args.dfl_bins)
        maps.append(HeadMap(stride, data))
    cfg = _settings(args)
    boxes = decode_heads(maps, cfg["score_thresh"])
    boxes = nms(boxes, cfg["nms_iou"], class_aware=not args.no_class_aware)
    lines = ["x_min,y_min,x_max,y_max,score,class_id"]
    lines += [
        f"{b.x_min:.4f},{b.y_min:.4f},{b.x_max:.4f},{b.y_max:.4f},{b.score:.6f},{b.class_id}"
        for b in boxes
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval_mot(args) -> int:
    gt = mio.read_mot(args.gt)
    hyp = mio.read_mot(args.result)
    gate = args.mot_gate if args.mot_gate is not None else _DEFAULTS["mot_gate"]
    acc = metrics.evaluate_sequence(gt, hyp, gate)
    value = metrics.mota(acc)
    rows = [
        ("MOTA", f"{value:.6f}"),
        ("FN", str(acc.fn)),
        ("FP", str(acc.fp)),
        ("IDSW", str(acc.idsw)),
        ("GT", str(acc.g)),
    ]
    for name, val in rows:
        print(f"{name:6s} {val}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(name for name, _ in rows) + "\n")
            fh.write(",".join(val for _, val in rows) + "\n")
    return 0


def cmd_eval_det(args) -> int:
    gts = mio.read_gt_boxes(args.gt)
    dets = mio.read_det_boxes(args.detections)
    value = metrics.coco_map(dets, gts)
    print(f"mAP    {value:.6f}")
    if args.csv:
        classes = sorted({b.class_id for boxes in gts.values() for b in boxes})
        with open(args.csv, "w") as fh:
            fh.write("class_id,iou_thresh,ap\n")
            for cls in classes:
                for thresh in metrics.COCO_IOU_THRESHOLDS:
                    ap = metrics.average_precision(dets, gts, thresh, cls)
                    fh.write(f"{cls},{thresh},{ap:.6f}\n")
    return 0


def cmd_streamline(args) -> int:
    graph = streamline.load_graph(args.graph)
    graph.validate()
    diagnostics: list[str] = []
    if args.passes:
        passes = {p.__name__.removeprefix("pass_"): p for p in streamline.PASS_PIPELINE}
        for name in args.passes.split(","):
            name = name.strip()
            if name not in passes:
                raise ValueError(f"unknown pass {name!r}; choose from {sorted(passes)}")
            passes[name](graph, diagnostics)
    else:
        graph = streamline.run_pipeline(graph, diagnostics=diagnostics)
    streamline.save_graph(graph, args.output)
    for line in diagnostics:
        print(line, file=sys.stderr)

    if args.scale_groups:
        with open(args.scale_groups) as fh:
            doc = json.load(fh)
        groups = [streamline.ScaleGroup(g["tag"], tuple(g["edges"])) for g in doc]
        violations = streamline.validate_scale_groups(graph, groups)
        for v in violations:
            print(
                f"scale group {v.tag!r}: edge {v.edge_id} has scale {v.found}, "
                f"expected {v.expected}",
                file=sys.stderr,
            )
        if violations:
            return 2
    return 0


def cmd_sim_fifo(args) -> int:
    graph, file_workload = df.load_stream_graph(args.graph)
    workload = args.workload if args.workload is not None else file_workload
    if workload is None:
        raise ValueError("workload required (flag --workload or 'workload' key in graph file)")

    if args.probe:
        recommended = df.size_fifos(graph, workload, args.cycle_cap)
        for eid, depth in recommended.items():
            graph.edges[eid].depth = depth
        verify = df.simulate(graph, workload, args.cycle_cap)
        doc = {"recommended_depths": dict(sorted(recommended.items())),
               "verification": verify.to_json_dict()}
    else:
        doc = df.simulate(graph, workload, args.cycle_cap).to_json_dict()

    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_thresholds(p, keys):
        if "score_thresh" in keys:
            p.add_argument("--score-thresh", dest="score_thresh", type=float, default=None)
        if "nms_iou" in keys:
            p.add_argument("--nms-iou", dest="nms_iou", type=float, default=None)
            p.add_argument("--no-class-aware", action="store_true")
            p.add_argument("--dfl-bins", type=int, default=0,
                           help="collapse raw 4*B+classes channel maps first")
        if "sort" in keys:
            p.add_argument("--iou-min", dest="iou_min", type=float, default=None)
            p.add_argument("--max-age", dest="max_age", type=int, default=None)
            p.add_argument("--min-hits", dest="min_hits", type=int, default=None)

    p = sub.add_parser("track", help="detections -> NMS -> SORT -> MOT rows")
    p.add_argument("--detections", help="MOT-format detection file (id column -1)")
    p.add_argument("--head-maps", help="directory of frame{N}_stride{S}.tnsr dumps")
    p.add_argument("--synthetic", nargs=4, metavar=("N_OBJECTS", "N_FRAMES", "NOISE", "SEED"),
                   help="generate a synthetic sequence instead of reading input")
    p.add_argument("--gt-out", help="with --synthetic: also write ground truth here")
    p.add_argument("--class-filter", type=int, nargs="+", default=None,
                   help="keep only these class ids")
    p.add_argument("--config", help="run-config file (key = value)")
    p.add_argument("-o", "--output", required=True)
    add_thresholds(p, {"score_thresh", "nms_iou", "sort"})
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("decode", help="decode one frame of head-map dumps to boxes")
    p.add_argument("--maps", nargs=3, required=True, metavar=("S8", "S16", "S32"),
                   help="tensor dumps in ascending stride order")
    p.add_argument("--config", help="run-config file")
    p.add_argument("-o", "--output")
    add_thresholds(p, {"score_thresh", "nms_iou"})
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval-mot", help="CLEAR MOT metrics for a result file")
    p.add_argument("gt")
    p.add_argument("result")
    p.add_argument("--mot-gate", dest="mot_gate", type=float, default=None)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval_mot)

    p = sub.add_parser("eval-det", help="COCO-style mAP for per-image box JSON files")
    p.add_argument("gt")
    p.add_argument("detections")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval_det)

    p = sub.add_parser("streamline", help="normalize a quantized conv graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--passes", help="comma-separated pass names (default: full pipeline)")
    p.add_argument("--scale-groups", help="JSON list of {tag, edges} shared-scale groups")
    p.set_defaults(func=cmd_streamline)

    p = sub.add_parser("sim-fifo", help="simulate a streaming pipeline with bounded FIFOs")
    p.add_argument("graph")
    p.add_argument("--workload", type=int, default=None)
    p.add_argument("--probe", action="store_true", help="recommend FIFO depths instead")
    p.add_argument("--cycle-cap", type=int, default=df.DEFAULT_CYCLE_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sim_fifo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
