"""Exposure, ranking-quality and dispersion metrics.

Exposure of a list position follows the logarithmic position-bias model:
a slot at 1-based rank r contributes ``1 / log2(r + 1)``, so rank 1 is
worth 1.0 and attention decays quickly down the list. An item's exposure
is the sum of its slot weights across all lists it appears in; a
provider's exposure aggregates its items.

List quality is discounted cumulative gain under the same weight curve,
normalized by the gain of the customer's own top-k prefix, so 1.0 means
"exactly what the customer would have been shown anyway".

``position_weight`` and ``dcg`` are the reference definitions, one slot
at a time. ``exposure`` and ``quality`` score whole collections of lists
as per-slot columns instead: each slot's owner, item and 0-based rank,
list by list and in rank order within a list (``_slot_columns``). The
entries pass one rule on the way, ``model._entry_columns``, which the
block constructor and ``StreamTracker.record`` share; a
``RecommendationBlock`` hands over its arrays as those columns after the
rule's range half. Each sum is one ``np.bincount`` over those columns, which adds in input order
from 0.0, so every customer's gain and every item's exposure has the bits
of the slot-by-slot loop. (``np.sum``, ``ufunc.reduce`` and ``@`` sum
pairwise and would not.)

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
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationBlock,
    RecommendationList,
    _check_catalog,
    _check_integer,
    _check_range,
    _entry_columns,
    _readonly,
)

# Providers whose normalized relevance mass is at or below this threshold are
# excluded from the quality-weighted ratio variance (division would blow up).
NORMALIZED_RELEVANCE_EPS = 1e-12


def position_weight(rank: int) -> float:
    """Exposure weight of the 1-based position ``rank``: 1/log2(rank+1)."""
    rank = _check_integer("rank", rank, 1, InvalidRank)
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
    """Sum slot weights over any collection of lists, a
    ``RecommendationBlock`` included.

    Lists from different customers simply add up; serving the same
    customer twice counts twice.
    """
    _, items, ranks = _slot_columns(lists, catalog.n)
    weights = np.array(slot_weights(int(ranks.max(initial=-1)) + 1))
    per_item = np.bincount(items, weights=weights[ranks], minlength=catalog.n)
    per_provider = np.bincount(catalog.provider_of, weights=per_item, minlength=catalog.l)
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


def _slot_columns(
    lists: Iterable[RecommendationList], n: int, m: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Any collection of lists as three per-slot columns: owner, item and
    0-based rank, list by list and in rank order within a list. Lists are
    held to the rule of ``model._entry_columns``: owners and items must be
    integers under ``model._is_index``, items must lie in 0..n-1 and owners,
    given m, in 0..m-1, else strictly inside intp's range. A
    ``RecommendationBlock``, whose entries are intp integers already, gives
    its columns as they are, after the range half of the rule."""
    if isinstance(lists, RecommendationBlock):
        owners, items = lists.owners, lists.items.ravel()
        lengths = np.full(owners.size, lists.k)
        _check_range(owners, items, lengths, m, n)
    else:
        lists = tuple(lists)
        owners, items, lengths = _entry_columns(
            [rec.owner for rec in lists], [rec.items for rec in lists], m, n
        )
    owners = np.repeat(owners, lengths)
    ranks = np.arange(items.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owners, items, ranks


def _dcg_sums(
    matrix: PreferenceMatrix, owners: np.ndarray, items: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """``dcg`` of every list in per-slot columns, added up per customer:
    one m-vector, 0.0 for a customer who owns no slot."""
    log2div = np.array([math.log2(r + 2) for r in range(int(ranks.max(initial=-1)) + 1)])
    gains = matrix.scores[owners, items] / log2div[ranks]
    return np.bincount(owners, weights=gains, minlength=matrix.m)


def _top_k_dcg(matrix: PreferenceMatrix, k: int) -> np.ndarray:
    """Every customer's ideal gain at k, the ``dcg`` of ``matrix.order[u, :k]``:
    one read-only m-vector, computed once per matrix and k."""
    gains = matrix._ideal_gains.get(k)
    if gains is None:
        m = matrix.m
        owners, ranks = np.repeat(np.arange(m), k), np.tile(np.arange(k), m)
        gains = _dcg_sums(matrix, owners, matrix.order[:, :k].ravel(), ranks)
        matrix._ideal_gains[k] = _readonly(gains)
    return gains


def ndcg(
    u: int,
    rec: RecommendationList,
    matrix: PreferenceMatrix,
    original: RankedList,
) -> float:
    """Quality of ``rec`` relative to the customer's own top-k prefix."""
    ideal = _ideal_dcg(u, rec.k, matrix, original)
    return dcg(u, rec.items, matrix) / ideal


def _ideal_dcg(u: int, k: int, matrix: PreferenceMatrix, original: RankedList) -> float:
    """The denominator of ``ndcg``: ZeroIdealQuality if it is not positive."""
    ideal = dcg(u, original.items[:k], matrix)
    if ideal <= 0.0:
        raise ZeroIdealQuality(f"customer {u} has zero ideal gain at k={k}")
    return ideal


def quality(
    lists: Sequence[RecommendationList],
    matrix: PreferenceMatrix,
    originals: Sequence[RankedList],
) -> QualityReport:
    """Quality report for one list per customer (any order, each exactly
    once); ``lists`` may be a ``RecommendationBlock``.

    A caller's ranking that is not the preference order can give an ideal
    gain so small (a subnormal score first) that a customer's NDCG
    overflows: it is then ``inf``, quietly, as ``dcg(...) / ideal`` in
    Python floats gives it."""
    owners, items, ranks = _slot_columns(lists, matrix.n, matrix.m)
    # one owner per list, in list order: the first to repeat is the one
    # named, as a loop over the lists would name it
    starts = np.flatnonzero(ranks == 0)
    list_owners = owners[starts]
    repeat = np.ones(list_owners.size, dtype=bool)
    repeat[np.unique(list_owners, return_index=True)[1]] = False
    if repeat.any():
        raise ValidationError(f"two lists for customer {int(list_owners[repeat.argmax()])}")
    listed = np.zeros(matrix.m, dtype=bool)
    listed[list_owners] = True
    if not listed.all():
        raise ValidationError(f"no list for customer {int(listed.argmin())}")
    # the ideal list of each list: its owner's own prefix of the same length,
    # whose gains the matrix keeps when every list has one length k and the
    # originals are the matrix's own rankings
    lengths = np.diff(starts, append=ranks.size)
    k = lengths.max(initial=0)
    if originals is matrix._rankings and k <= matrix.n and ranks.size == matrix.m * k:
        idcgs = _top_k_dcg(matrix, int(k))
    else:
        ideal_items = np.concatenate(
            [originals[u].items[:size] for u, size in zip(list_owners.tolist(), lengths.tolist())]
        )
        if ideal_items.size != items.size:
            raise ValidationError("an original ranking holds fewer items than its customer's list")
        idcgs = _dcg_sums(matrix, owners, ideal_items, ranks)
    if (idcgs <= 0).any():
        raise ZeroIdealQuality("a customer has zero ideal gain")
    with np.errstate(over="ignore"):
        ndcgs = _dcg_sums(matrix, owners, items, ranks) / idcgs
    return QualityReport(per_customer_ndcg=ndcgs)


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
    _check_catalog(matrix, catalog)
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
    """Variance of the exposure-to-relevance ratio across providers: 0.0
    for fewer than two.

    Exposure and relevance mass live on very different scales, so both are
    min-max normalized to [0, 1] before the ratio; providers whose
    normalized relevance is ~0 are excluded (the ratio is unbounded there).
    The relevance, ``provider_relevance``, is built once per memo of the
    matrix and catalog (``model._Derived``) and kept read-only.
    """
    memo = matrix._derived(catalog)
    if memo.relevance is None:
        memo.relevance = _readonly(provider_relevance(matrix, catalog))
    if memo.relevance.size < 2:
        return 0.0
    norm_e = _minmax_unit(report.per_provider)
    norm_r = _minmax_unit(memo.relevance)
    include = norm_r > NORMALIZED_RELEVANCE_EPS
    return float(np.var(norm_e[include] / norm_r[include]))
