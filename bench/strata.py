"""Stratified draws from a pool, so every seed covers its range the same way."""

from __future__ import annotations

import numpy as np


def pick(rng: np.random.Generator, costs: list[float], n: int, choices: int = 0) -> list[int]:
    """n indices into a pool with the given per-entry costs: one from each of
    n equal strata of the pool ordered by cost (ties by index), drawn from
    the `choices` entries at the middle of the stratum (the whole stratum
    when 0 or when the stratum is narrower), in random order. Narrow choices
    in a dense pool make the costs of a run nearly the same for every seed."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    width = len(costs) // n
    choices = min(choices or width, width)
    skip = (width - choices) // 2
    picks = [order[k * width + skip + int(rng.integers(choices))] for k in range(n)]
    return [picks[k] for k in rng.permutation(n)]
