"""Synthetic instance generation for desk-scale experiments.

Scores are drawn i.i.d. from a strictly positive distribution, so no
customer row is ever all-zero. Provider sizes are drawn from a Pareto
(power-law-like) weight vector and apportioned so every provider offers
at least one item; items are then assigned to providers at random. A
single generator seeded once drives sizes, assignment and scores in that
order, so instances are fully determined by their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape, ValidationError

SCORE_DISTRIBUTIONS = ("uniform", "exponential", "lognormal")


def _provider_sizes(rng: np.random.Generator, n: int, l: int, skew: float) -> np.ndarray:
    if skew == 0.0:
        weights = np.ones(l)
    else:
        weights = rng.pareto(skew, size=l) + 1.0
        if not np.isfinite(weights).all():
            raise InvalidShape(f"provider size skew {skew} is too small: its weights overflow")
    # one guaranteed item each, remainder apportioned by weight
    # (largest fractional part first, ties to the lower provider id)
    share = weights / weights.sum() * (n - l)
    sizes = np.floor(share).astype(np.int64)
    remainder = int(n - l - sizes.sum())
    frac = share - np.floor(share)
    for p in np.argsort(-frac, kind="stable")[:remainder]:
        sizes[p] += 1
    return sizes + 1


def generate_synthetic(
    m: int,
    n: int,
    l: int,
    score_distribution: str = "uniform",
    provider_size_skew: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random (scores, provider_assignments) pair.

    ``provider_size_skew`` is the Pareto shape for provider sizes; smaller
    values give heavier tails (a few very large providers), 0.0 selects
    sizes as equal as possible, and a skew so small that a drawn weight
    overflows is rejected. ``score_distribution`` is one of
    ``uniform`` (on (0, 1]), ``exponential`` or ``lognormal``.
    """
    if m < 1 or n < 1 or l < 1:
        raise InvalidShape(f"all dimensions must be >= 1, got m={m} n={n} l={l}")
    if l > n:
        raise InvalidShape(f"{l} providers cannot share {n} items at one item minimum")
    if not provider_size_skew >= 0:  # also rejects NaN
        raise InvalidShape(f"provider size skew must be >= 0, got {provider_size_skew}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if score_distribution not in SCORE_DISTRIBUTIONS:
        raise InvalidShape(
            f"unknown score distribution {score_distribution!r}; "
            f"choose one of {SCORE_DISTRIBUTIONS}"
        )

    rng = np.random.default_rng(seed)
    sizes = _provider_sizes(rng, n, l, provider_size_skew)
    assignments = np.empty(n, dtype=np.int64)
    shuffled = rng.permutation(n)
    start = 0
    for p, size in enumerate(sizes):
        assignments[shuffled[start : start + size]] = p
        start += size

    if score_distribution == "uniform":
        scores = 1.0 - rng.random((m, n))
    elif score_distribution == "exponential":
        scores = rng.exponential(1.0, size=(m, n))
    else:
        scores = rng.lognormal(0.0, 1.0, size=(m, n))
    return scores, assignments
