"""detect-eval: decode raw head maps, class-aware NMS, scored with COCO mAP.

One op is ``reduce_dfl`` on the three raw maps, ``decode_heads`` and
class-aware ``nms`` for one 640x640 image with ``CLASSES`` classes and
``BINS`` DFL bins (4*16+80 channels, float32 as read from tensor dumps), at
a COCO-eval-style score threshold. Each planted object (from ``USED_CLASSES``
classes) lights a cluster of cells at every stride whose boxes scatter more
towards the cluster's rim; low-score clutter cells are spread over the
image. The object count of the k-th image is the log-uniform quantile
(k + 0.5) / ``IMAGES``; its objects' areas are fixed quantiles scaled to
the mean area of that many objects; their aspect ratios and peak logits
are fixed quantiles in random order, and their classes are dealt
round-robin. So images run from sparse (one object, a
handful of candidates) to crowded (dozens of objects, thousands of
candidates, most suppressed), and the candidates per class of each
quantile, which set the op's cost, hardly depend on the seed.

Checks: the candidates, compared in NMS order, must match ``oracle.decode``
of the same raw maps, and the kept boxes and their order must match
``oracle.nms`` of the oracle's candidates (tolerances in ``oracle.py``).
"""

from __future__ import annotations

import math

import numpy as np

from motkit import decode, metrics
from motkit.geometry import BoundingBox

import oracle

IMAGES = 80
IMG = 640
STRIDES = (8, 16, 32)
BINS = 16
CLASSES = 80
USED_CLASSES = 20
SCORE_THRESH = 0.001
NMS_IOU = 0.45
MAX_OBJECTS = 48
MIN_SIDE, MAX_SIDE = 16.0, 256.0
# Mean area of an object whose sides are independently log-uniform.
MEAN_AREA = ((MAX_SIDE - MIN_SIDE) / math.log(MAX_SIDE / MIN_SIDE)) ** 2
WARM_UP_IMAGES = 2
SALT = 0xDE7


class DetectEval:
    def __init__(self, seed: int, images: int = IMAGES):
        self.seed = seed
        self.n_images = images

    # -- inputs -------------------------------------------------------------------

    def setup(self) -> None:
        rng = np.random.default_rng([SALT, self.seed])
        self.background = {}
        for s in STRIDES:
            n = IMG // s
            a = np.empty((4 * BINS + CLASSES, n, n), dtype=np.float32)
            a[: 4 * BINS] = rng.normal(0.0, 1.0, (4 * BINS, n, n))
            a[4 * BINS :] = rng.normal(-10.0, 0.5, (CLASSES, n, n))
            self.background[s] = a
        classes = np.sort(rng.choice(CLASSES, USED_CLASSES, replace=False))
        self.images = []
        for k in rng.permutation(self.n_images):
            n_obj = int(math.exp((k + 0.5) / self.n_images * math.log(MAX_OBJECTS)))
            # Areas at the n_obj quantile midpoints of a square whose side is
            # log-uniform, scaled to n_obj mean areas; aspect ratios at n_obj
            # quantiles of a log-uniform range, in random order.
            q = (np.arange(n_obj) + 0.5) / n_obj
            area = np.exp(2 * (math.log(MIN_SIDE) + q * math.log(MAX_SIDE / MIN_SIDE)))
            area *= n_obj * MEAN_AREA / area.sum()
            aspect = np.exp(1.4 * (rng.permutation(n_obj) + 0.5) / n_obj - 0.7)
            size = np.column_stack([np.sqrt(area * aspect), np.sqrt(area / aspect)])
            size = np.clip(size[rng.permutation(n_obj)], MIN_SIDE / 2, IMG / 2)
            # Classes dealt round-robin from a random start, so no class
            # gathers many objects by chance (NMS is quadratic per class).
            first = int(rng.integers(USED_CLASSES))
            object_classes = classes[(rng.permutation(n_obj) + first) % USED_CLASSES]
            corner = rng.uniform(0.0, 1.0, (n_obj, 2)) * (IMG - size)
            objects = np.column_stack(
                [
                    corner,
                    size,
                    object_classes,
                    1.0 + 4.0 * (rng.permutation(n_obj) + 0.5) / n_obj,
                ]
            )
            n_junk = 10 + 5 * n_obj
            junk = (
                rng.choice(len(STRIDES), n_junk, p=(0.6, 0.3, 0.1)),
                rng.uniform(0.0, 1.0, n_junk),
                rng.uniform(0.0, 1.0, n_junk),
                rng.integers(0, CLASSES, n_junk),
                rng.uniform(-6.9, -4.0, n_junk),
            )
            gts = [
                BoundingBox(x, y, x + w, y + h, 1.0, int(c))
                for x, y, w, h, c, _ in objects
            ]
            self.images.append((objects, junk, gts, int(rng.integers(2**31))))

    def synthesize(self, index: int) -> dict[int, np.ndarray]:
        """Raw head maps of image `index`: background plus planted cells."""
        objects, junk, _, noise_seed = self.images[index]
        rng = np.random.default_rng(noise_seed)
        maps = {s: m.copy() for s, m in self.background.items()}
        bins = np.arange(BINS, dtype=float)
        for x0, y0, w, h, c, peak in objects:
            for s, m in maps.items():
                ys, xs = np.mgrid[
                    int(y0 // s) : int(math.ceil((y0 + h) / s)),
                    int(x0 // s) : int(math.ceil((x0 + w) / s)),
                ]
                px, py = (xs + 0.5) * s, (ys + 0.5) * s
                d = np.stack([(px - x0) / s, (py - y0) / s, (x0 + w - px) / s, (y0 + h - py) / s])
                ok = (d.min(axis=0) >= 0.0) & (d.max(axis=0) <= BINS - 1)
                if not ok.any():
                    continue
                r = ((px - x0 - w / 2) / (w / 2)) ** 2 + ((py - y0 - h / 2) / (h / 2)) ** 2
                d = d + rng.normal(0.0, 1.0, d.shape) * (0.2 + 2.0 * r)
                d = np.clip(d[:, ok], 0.0, BINS - 1)
                dfl = -((bins[None, :, None] - d[:, None, :]) ** 2) / (2 * 0.5**2)
                m[: 4 * BINS, ys[ok], xs[ok]] = dfl.reshape(4 * BINS, -1)
                m[4 * BINS + int(c), ys[ok], xs[ok]] = peak - 6.0 * r[ok]
        for si, fy, fx, c, logit in zip(*junk):
            s = STRIDES[si]
            n = IMG // s
            maps[s][4 * BINS + c, int(fy * n), int(fx * n)] = logit
        return maps

    # -- ops ----------------------------------------------------------------------

    @staticmethod
    def detect(raw: dict[int, np.ndarray]):
        maps = [decode.HeadMap(s, decode.reduce_dfl(raw[s], BINS)) for s in STRIDES]
        candidates = decode.decode_heads(maps, SCORE_THRESH)
        return candidates, decode.nms(candidates, NMS_IOU, class_aware=True)

    def warm_up(self) -> None:
        smallest = sorted(range(self.n_images), key=lambda i: len(self.images[i][0]))
        for i in smallest[:WARM_UP_IMAGES]:
            self.detect(self.synthesize(i))

    def ops_per_pass(self) -> int:
        return self.n_images

    def ops(self):
        for i in range(self.n_images):
            self.raw = self.synthesize(i)
            yield self.detect, (self.raw,)

    def begin_first_pass(self) -> None:
        self.kept = {}
        self.bad = set()

    def record(self, i: int, result):
        candidates, kept = result
        got = oracle.rows(kept)
        want = oracle.decode(self.raw, BINS, SCORE_THRESH)
        same_candidates = oracle.same_boxes(
            sorted(oracle.rows(candidates), key=oracle.rank), sorted(want, key=oracle.rank)
        )
        if not (same_candidates and oracle.same_boxes(got, oracle.nms(want, NMS_IOU))):
            self.bad.add(i)
        self.kept[i] = kept
        return tuple(got)

    def key(self, result):
        return tuple(oracle.rows(result[1]))

    def bad_ops(self) -> set[int]:
        return self.bad

    def score(self) -> dict:
        gts = {i: self.images[i][2] for i in range(self.n_images)}
        return {"map": metrics.coco_map(self.kept, gts)}

    def describe(self) -> dict:
        return {
            "images": self.n_images,
            "objects": [len(img[0]) for img in self.images],
            "score_thresh": SCORE_THRESH,
            "nms_iou": NMS_IOU,
            "classes": CLASSES,
            "bins": BINS,
        }
