"""Differential test: the batched SortTracker against the per-track oracle.

Sequences are seeded synthetic crowds with dropped detections, clutter
boxes of random class and score, and whole empty frames, tracked under
max_age and min_hits of 1-4 and iou_min from 0 to 0.5. The noise is either
the default or a zero-covariance setting (zero P0, no position noise, R
only on the aspect ratio) under which a fresh track's first update is
singular while an older track's is not, so one batched update mixes
singular and regular rows. After every frame the reported ids, their
order, class ids (Python ints), scores, boxes and dropped_updates must
equal the oracle's, and so must every live track's id, hits,
time_since_update and filter state. A tracker fed the same frames as box rows must report exactly
what the list-fed one does, and hold the same tracks. The oracle
associates with the frozen solver of ``lap_oracle``, so the LAP is checked
along with the tracker.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import sort_oracle
from motkit import kalman, synthetic
from motkit.geometry import BoundingBox, box_rows
from motkit.kalman import KalmanConfig
from motkit.tracker import SortConfig, SortTracker

# Boxes and states must match the oracle exactly: the batched filter does
# each row's arithmetic in the scalar filter's order.
BOX_ATOL = 0.0

IMAGE = (320, 240)
ZERO_COVARIANCE = KalmanConfig(
    Q=np.diag([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
    R=np.diag([0.0, 0.0, 0.0, 1.0]),
    P0=np.zeros((7, 7)),
)


def make_frames(seed, n_objects, n_frames, noise, drop, clutter, empty, image=IMAGE):
    """Detection lists for frames 1..n_frames, with drops, clutter, empties."""
    rng = np.random.default_rng(seed)
    _, det_frames = synthetic.generate_sequence(n_objects, n_frames, noise, seed, image)
    frames = []
    for frame in range(1, n_frames + 1):
        if rng.random() < empty:
            frames.append([])
            continue
        dets = [box for _, box in det_frames[frame] if rng.random() >= drop]
        for _ in range(rng.poisson(clutter)):
            w, h = rng.uniform(8.0, 48.0, 2)
            x, y = rng.uniform(0.0, image[0] - w), rng.uniform(0.0, image[1] - h)
            score, cls = float(rng.uniform(0.1, 1.0)), int(rng.integers(3))
            dets.append(BoundingBox(x, y, x + w, y + h, score, cls))
        frames.append(dets)
    return frames


def assert_same_tracks(tracker, oracle):
    tracks = oracle.tracks
    assert tracker.ids.tolist() == [t.id for t in tracks]
    assert tracker.class_ids.tolist() == [t.class_id for t in tracks]
    assert tracker.scores.tolist() == [t.score for t in tracks]
    assert tracker.hits.tolist() == [t.hits for t in tracks]
    assert tracker.time_since_update.tolist() == [t.time_since_update for t in tracks]
    if tracks:
        assert np.array_equal(tracker.x, np.stack([t.state.x for t in tracks]))
        assert np.array_equal(tracker.P, np.stack([t.state.P for t in tracks]))


def run_both(config, frames):
    """Step both trackers through `frames`, comparing after every frame. A
    third tracker steps on the box rows of the same frames and must report
    exactly what the BoundingBox list input does."""
    tracker, oracle = SortTracker(config), sort_oracle.SortTracker(config)
    from_rows = SortTracker(config)
    for frame, dets in enumerate(frames, 1):
        got, want = tracker.step(dets, frame), oracle.step(dets, frame)
        assert from_rows.step(box_rows(dets), frame) == got
        assert from_rows.dropped_updates == tracker.dropped_updates
        assert_same_tracks(from_rows, oracle)
        assert [(tid, cls) for tid, _, cls in got] == [(tid, cls) for tid, _, cls in want]
        assert all(type(cls) is type(box.class_id) is int for _, box, cls in got)
        for (_, box, _), (_, ref, _) in zip(got, want):
            assert (box.score, box.class_id) == (ref.score, ref.class_id)
            assert np.allclose(box.corners(), ref.corners(), rtol=0.0, atol=BOX_ATOL)
        assert tracker.dropped_updates == oracle.dropped_updates
        assert_same_tracks(tracker, oracle)
    return tracker


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_objects=st.integers(1, 12),
    n_frames=st.integers(1, 25),
    noise=st.sampled_from([0.0, 1.0, 4.0]),
    drop=st.sampled_from([0.0, 0.1, 0.3]),
    clutter=st.sampled_from([0.0, 1.0, 3.0]),
    empty=st.sampled_from([0.0, 0.15]),
    max_age=st.integers(1, 4),
    min_hits=st.integers(1, 4),
    iou_min=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    noise_cfg=st.sampled_from([KalmanConfig(), ZERO_COVARIANCE]),
)
def test_matches_oracle(
    seed, n_objects, n_frames, noise, drop, clutter, empty, max_age, min_hits, iou_min, noise_cfg
):
    config = SortConfig(max_age=max_age, min_hits=min_hits, iou_min=iou_min, kalman=noise_cfg)
    frames = make_frames(seed, n_objects, n_frames, noise, drop, clutter, empty)
    run_both(config, frames)


def test_zero_covariance_mixes_singular_and_regular_rows(monkeypatch):
    """The zero-covariance setting does reach updates where some rows are
    singular and others not, and both trackers agree on those frames."""
    masks = []
    update = kalman.update

    def recording_update(*args):
        out = update(*args)
        masks.append(out[2])
        return out

    monkeypatch.setattr(kalman, "update", recording_update)
    config = SortConfig(max_age=3, min_hits=2, iou_min=0.1, kalman=ZERO_COVARIANCE)
    frames = make_frames(7, 8, 20, 1.0, 0.3, 1.0, 0.1)
    tracker = run_both(config, frames)
    assert any(m.any() and not m.all() for m in masks)
    assert 0 < tracker.dropped_updates


def test_crowded_scene_matches_oracle():
    """100 objects with Poisson(4) clutter over 40 frames: crowded enough
    that association runs long tie walks through equally cheap columns."""
    frames = make_frames(3, 100, 40, 2.0, 0.03, 4.0, 0.0, image=(640, 480))
    run_both(SortConfig(), frames)
