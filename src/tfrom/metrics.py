"""Exposure, ranking-quality and dispersion metrics.

Exposure of a list position follows the logarithmic position-bias model:
a slot at 1-based rank r contributes ``1 / log2(r + 1)``, so rank 1 is
worth 1.0 and attention decays quickly down the list. An item's exposure
is the sum of its slot weights across all lists it appears in; a
provider's exposure aggregates its items.

List quality is discounted cumulative gain under the same weight curve,
normalized by the gain of the customer's own top-k prefix, so 1.0 means
"exactly what the customer would have been shown anyway".

All dispersion metrics are population variances: the provider and
customer sets are complete populations, not samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidRank, ValidationError, ZeroIdealQuality
from .model import Catalog, PreferenceMatrix, RankedList, RecommendationList

# Providers whose normalized relevance mass is at or below this threshold are
# excluded from the quality-weighted ratio variance (division would blow up).
NORMALIZED_RELEVANCE_EPS = 1e-12


def position_weight(rank: int) -> float:
    """Exposure weight of the 1-based position ``rank``: 1/log2(rank+1)."""
    if rank < 1:
        raise InvalidRank(f"rank must be >= 1, got {rank}")
    return 1.0 / math.log2(rank + 1)


@functools.lru_cache(maxsize=64)
def slot_weights(k: int) -> tuple[float, ...]:
    """The weights of ranks 1..k, ``position_weight`` of each, once per k."""
    return tuple(position_weight(rank) for rank in range(1, k + 1))


@dataclass(frozen=True)
class ExposureReport:
    """Accumulated exposure per provider."""

    per_provider: np.ndarray


@dataclass(frozen=True)
class QualityReport:
    """Per-customer list quality: the ratio of raw to ideal gain."""

    per_customer_ndcg: np.ndarray


def exposure(lists: Iterable[RecommendationList], catalog: Catalog) -> ExposureReport:
    """Sum slot weights over any collection of lists.

    Lists from different customers simply add up; serving the same
    customer twice counts twice.
    """
    per_item = np.zeros(catalog.n)
    for rec in lists:
        for pos, item in enumerate(rec.items):
            per_item[item] += position_weight(pos + 1)
    per_provider = np.zeros(catalog.l)
    np.add.at(per_provider, catalog.provider_of, per_item)
    return ExposureReport(per_provider=per_provider)


def dcg(u: int, items: Sequence[int], matrix: PreferenceMatrix) -> float:
    """Discounted cumulative gain of ``items`` (in list order) for customer u.

    The rank-1 term is undiscounted (log2(2) == 1); later terms divide by
    log2(rank + 1). Summation is sequential in rank order so results are
    bit-reproducible.
    """
    row = matrix.scores[u]
    total = 0.0
    for pos, item in enumerate(items):
        total += float(row[item]) / math.log2(pos + 2)
    return total


def ndcg(
    u: int,
    rec: RecommendationList,
    matrix: PreferenceMatrix,
    original: RankedList,
) -> float:
    """Quality of ``rec`` relative to the customer's own top-k prefix."""
    ideal = dcg(u, original.items[: rec.k], matrix)
    if ideal <= 0.0:
        raise ZeroIdealQuality(f"customer {u} has zero ideal gain at k={rec.k}")
    return dcg(u, rec.items, matrix) / ideal


def quality(
    lists: Sequence[RecommendationList],
    matrix: PreferenceMatrix,
    originals: Sequence[RankedList],
) -> QualityReport:
    """Quality report for one list per customer (any order, each exactly once)."""
    m = matrix.m
    dcgs = np.full(m, np.nan)
    idcgs = np.full(m, np.nan)
    for rec in lists:
        u = rec.owner
        if not np.isnan(dcgs[u]):
            raise ValidationError(f"two lists for customer {u}")
        dcgs[u] = dcg(u, rec.items, matrix)
        idcgs[u] = dcg(u, originals[u].items[: rec.k], matrix)
    if np.isnan(dcgs).any():
        missing = int(np.flatnonzero(np.isnan(dcgs))[0])
        raise ValidationError(f"no list for customer {missing}")
    if (idcgs <= 0).any():
        raise ZeroIdealQuality("a customer has zero ideal gain")
    return QualityReport(per_customer_ndcg=dcgs / idcgs)


def total_quality(report: QualityReport) -> float:
    """Sum of per-customer normalized quality (m means "no loss at all")."""
    return float(report.per_customer_ndcg.sum())


def customer_fairness(report: QualityReport) -> float:
    """Population variance of per-customer quality; 0 is perfectly fair."""
    return float(np.var(report.per_customer_ndcg))


def uniform_provider_fairness(report: ExposureReport) -> float:
    """Population variance of raw provider exposure."""
    return float(np.var(report.per_provider))


def provider_relevance(matrix: PreferenceMatrix, catalog: Catalog) -> np.ndarray:
    """Total relevance mass of each provider's items over all customers."""
    item_totals = matrix.scores.sum(axis=0)
    return np.array([item_totals[catalog.provider_of == p].sum() for p in range(catalog.l)])


def _minmax_unit(values: np.ndarray) -> np.ndarray:
    # All-equal vectors normalize to all ones by convention, so the ratio
    # variance stays defined when one side carries no information.
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.ones_like(values, dtype=np.float64)
    return (values - lo) / (hi - lo)


def quality_weighted_provider_fairness(
    report: ExposureReport, matrix: PreferenceMatrix, catalog: Catalog
) -> float:
    """Variance of the exposure-to-relevance ratio across providers.

    Exposure and relevance mass live on very different scales, so both are
    min-max normalized to [0, 1] before the ratio; providers whose
    normalized relevance is ~0 are excluded (the ratio is unbounded there).
    """
    if catalog.l < 2:
        return 0.0
    norm_e = _minmax_unit(report.per_provider)
    norm_r = _minmax_unit(provider_relevance(matrix, catalog))
    include = norm_r > NORMALIZED_RELEVANCE_EPS
    return float(np.var(norm_e[include] / norm_r[include]))
