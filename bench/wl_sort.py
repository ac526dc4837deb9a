"""sort-crowd: SORT on crowded synthetic sequences, scored with CLEAR MOT.

One op is one ``SortTracker.step`` on one frame. The run tracks
``SEQUENCES`` sequences drawn by the seed from a pool of ``POOL`` crowded
sequences (``OBJECTS`` objects, detection noise ``NOISE``). Each pool
sequence comes from ``synthetic.generate_sequence``; then a few per cent of
detections are removed and Poisson clutter boxes are added, so the spawn,
kill and unmatched paths run. Each sequence's reported (frame, id) sets
must match the digest recorded for it in ``digests.json``; on a mismatch
every op of that sequence counts as failed.

Scoring cost is dominated by the first frame's 100x100 assignment, which
takes 3 ms on some sequences and 60 ms on others. The pool is therefore
ordered by ``assignment_steps`` of each sequence's first frame (ground truth
against detections, inputs only) and a run takes one sequence from each of
``SEQUENCES`` equal strata, among the ``CHOICES`` at the stratum's middle.
"""

from __future__ import annotations

import hashlib

import numpy as np

from motkit import metrics, synthetic
from motkit.geometry import BoundingBox, iou_matrix
from motkit.tracker import SortTracker

import digests
import strata

POOL = 256
SEQUENCES = 8
CHOICES = 8
OBJECTS = 100
FRAMES = 40
NOISE = 2.0
IMAGE = (640, 480)
DROP_RATE = 0.03
CLUTTER_PER_FRAME = 4.0
WARM_UP_FRAMES = 3
SALT = 0x5E0


def make_sequence(index: int):
    """(gt_frames, det_frames) of pool sequence `index`."""
    rng = np.random.default_rng([SALT, index])
    gt_frames, det_frames = synthetic.generate_sequence(
        OBJECTS, FRAMES, NOISE, int(rng.integers(2**31)), IMAGE
    )
    img_w, img_h = IMAGE
    dets = {}
    for frame in sorted(det_frames):
        kept = [box for _, box in det_frames[frame] if rng.random() >= DROP_RATE]
        for _ in range(rng.poisson(CLUTTER_PER_FRAME)):
            w, h = rng.uniform(16.0, 64.0, 2)
            x, y = rng.uniform(0.0, img_w - w), rng.uniform(0.0, img_h - h)
            kept.append(BoundingBox(x, y, x + w, y + h, float(rng.uniform(0.3, 1.0)), 0))
        dets[frame] = kept
    return gt_frames, dets


def assignment_steps(cost: np.ndarray) -> int:
    """Augmenting-path steps the shortest-augmenting-path assignment takes
    on `cost` (the algorithm of ``motkit.assignment.solve_lap`` when this
    benchmark was written, kept here unchanged). Ties in a sparse IoU
    matrix make the paths long, so the count tracks how hard a frame is to
    score; it depends on the inputs only, never on timing."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    m, n = cost.shape
    u, v = np.zeros(m + 1), np.zeros(n + 1)
    p, way = np.zeros(n + 1, dtype=int), np.zeros(n + 1, dtype=int)
    steps = 0
    for i in range(1, m + 1):
        p[0], j0 = i, 0
        minv, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while True:
            steps += 1
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    return steps


def ids_key(reported) -> tuple[int, ...]:
    return tuple(int(item[0]) for item in reported)


def sequence_digest(keys) -> str:
    """Digest of one sequence's reported ids, frame by frame."""
    text = "\n".join(f"{frame}:{','.join(map(str, ids))}" for frame, ids in enumerate(keys, 1))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def track_sequence(gt_frames, dets):
    """Track one sequence without the harness; returns (hyp_frames, keys)."""
    trk = SortTracker()
    hyp, keys = {}, []
    for frame in sorted(dets):
        reported = trk.step(dets[frame], frame)
        hyp[frame] = [(tid, box) for tid, box, _ in reported]
        keys.append(ids_key(reported))
    return hyp, keys


class SortCrowd:
    def __init__(self, seed: int, sequences: int = SEQUENCES):
        self.expected = digests.load("sort-crowd")
        costs = [self.expected[str(i)][1] for i in range(POOL)]
        self.indices = strata.pick(np.random.default_rng(seed), costs, sequences, CHOICES)

    def setup(self) -> None:
        self.sequences = [make_sequence(i) for i in self.indices]

    def warm_up(self) -> None:
        trk = SortTracker()
        _, dets = self.sequences[0]
        for frame in range(1, WARM_UP_FRAMES + 1):
            trk.step(dets[frame], frame)

    def ops_per_pass(self) -> int:
        return len(self.sequences) * FRAMES

    def ops(self):
        for _, dets in self.sequences:
            trk = SortTracker()
            for frame in sorted(dets):
                yield trk.step, (dets[frame], frame)

    def begin_first_pass(self) -> None:
        self.hyp = [{} for _ in self.sequences]
        self.keys = [[] for _ in self.sequences]

    def record(self, i: int, reported):
        seq, frame = divmod(i, FRAMES)
        self.hyp[seq][frame + 1] = [(tid, box) for tid, box, _ in reported]
        key = ids_key(reported)
        self.keys[seq].append(key)
        return key

    def key(self, reported):
        return ids_key(reported)

    def bad_ops(self) -> set[int]:
        bad = set()
        for seq, index in enumerate(self.indices):
            if sequence_digest(self.keys[seq]) != self.expected[str(index)][0]:
                bad.update(range(seq * FRAMES, (seq + 1) * FRAMES))
        return bad

    def score(self) -> dict:
        fn = fp = idsw = g = 0
        per_sequence = []
        for (gt_frames, _), hyp in zip(self.sequences, self.hyp):
            acc = metrics.evaluate_sequence(gt_frames, hyp)
            per_sequence.append(metrics.mota(acc))
            fn, fp, idsw, g = fn + acc.fn, fp + acc.fp, idsw + acc.idsw, g + acc.g
        return {"mota": 1.0 - (fn + fp + idsw) / g, "mota_per_sequence": per_sequence}

    def describe(self) -> dict:
        return {
            "pool_indices": self.indices,
            "objects": OBJECTS,
            "frames": FRAMES,
            "noise": NOISE,
            "drop_rate": DROP_RATE,
            "clutter_per_frame": CLUTTER_PER_FRAME,
        }


def record_digests() -> dict[str, list]:
    """[digest, first-frame assignment steps] of every pool sequence at the
    current motkit commit; the step count only orders the pool."""
    out = {}
    for index in range(POOL):
        gt_frames, dets = make_sequence(index)
        _, keys = track_sequence(gt_frames, dets)
        overlaps = iou_matrix([box for _, box in gt_frames[1]], dets[1])
        out[str(index)] = [sequence_digest(keys), assignment_steps(-overlaps)]
    return out
