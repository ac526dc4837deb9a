"""Differential test: the columnar generator against the frozen per-box loop.

``synthetic_oracle`` is the original generator, which draws each box's jitter
with scalar ``rng.normal`` calls. On a seeded grid of object counts, frame
counts, noise levels and image sizes (65x65 is small enough that clipping and
the MIN_BOX_SIDE floor both bite), and on hypothesis cases, the live generator
must return the same frames in the same order, the same ids in the same
order, and every box field bit for bit and of the same type. At noise 0 each detection entry must
hold its ground-truth box object itself.
"""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import synthetic_oracle
from motkit.geometry import BoundingBox
from motkit.synthetic import MIN_BOX_SIDE, generate_sequence

FIELDS = [f.name for f in dataclasses.fields(BoundingBox)]


def field_bits(value):
    """A field's hex string and type, so class id 0 never passes as 0.0. The
    oracle's numpy-scalar arithmetic leaves np.float64 corners, a float
    subclass, which count as float."""
    return float(value).hex(), float if isinstance(value, float) else type(value)


def bits(frames):
    """{frame: [(id, field bits)]} in the frames' own orders."""
    return [
        (frame, [(tid, [field_bits(getattr(box, name)) for name in FIELDS]) for tid, box in items])
        for frame, items in frames.items()
    ]


def assert_matches_oracle(n_objects, n_frames, noise, seed, image):
    gt, det = generate_sequence(n_objects, n_frames, noise, seed, image)
    want_gt, want_det = synthetic_oracle.generate_sequence(n_objects, n_frames, noise, seed, image)
    assert bits(gt) == bits(want_gt)
    assert bits(det) == bits(want_det)
    if noise == 0.0:
        for frame in gt:
            assert all(d is g for (_, d), (_, g) in zip(det[frame], gt[frame]))


# (n_objects, n_frames, noise, seed, image), each case with its own seed
GRID = [
    (*case[:3], seed, case[3])
    for seed, case in enumerate(itertools.product(
        (1, 7, 100), (1, 2, 40), (0.0, 0.5, 2.0, 30.0), ((640, 480), (65, 65))
    ))
]


@pytest.mark.parametrize("case", GRID)
def test_grid_matches_oracle(case):
    assert_matches_oracle(*case)


def test_grid_reaches_the_side_floor():
    # the grid's 65x65, noise-30 sequence floors some sides; a side is the
    # difference of two corners, so it reads back within rounding of the floor
    [case] = [c for c in GRID if c[:3] == (100, 40, 30.0) and c[4] == (65, 65)]
    _, det = generate_sequence(*case)
    widths = [box.width for items in det.values() for _, box in items]
    assert min(widths) == pytest.approx(MIN_BOX_SIDE, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n_objects=st.integers(1, 12),
    n_frames=st.integers(1, 12),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    seed=st.integers(0, 2**32 - 1),
    image=st.tuples(st.integers(65, 800), st.integers(65, 800)),
)
def test_hypothesis_cases_match_oracle(n_objects, n_frames, noise, seed, image):
    assert_matches_oracle(n_objects, n_frames, noise, seed, image)


@pytest.mark.parametrize("noise", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_invalid_noise_rejected(noise):
    with pytest.raises(ValueError, match="noise"):
        generate_sequence(5, 3, noise, 0)


def test_noise_that_overflows_the_corners_rejected_without_warning():
    with pytest.raises(ValueError, match="noise 1e\\+308 jitters box corners past float64 range"):
        generate_sequence(5, 3, 1e308, 0)
