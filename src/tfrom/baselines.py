"""Comparison re-rankers: pure preference, pure chance, pure exposure parity.

All three work per customer and emit valid recommendation lists; they are
usable in both the batch and the streaming protocols. ``minimum_exposure``
carries a mutable exposure ledger across calls, under the same
one-request-at-a-time contract as the streaming re-ranker. It splits the
customer's ranking into one queue per provider, once per call, so a slot
costs a minimum over the l queue heads rather than a scan of all n items.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .metrics import position_weight
from .model import Catalog, RankedList, RecommendationList, _check_k


def top_k(original: RankedList, k: int) -> RecommendationList:
    """The first k items of the customer's own ranking (maximal quality)."""
    _check_k(k, original.items.size)
    return RecommendationList(owner=original.owner, items=tuple(int(i) for i in original.items[:k]))


def all_random(original: RankedList, k: int, seed) -> RecommendationList:
    """k distinct items drawn uniformly from the full ranking, in draw order.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, including an
    existing generator (useful for drawing many lists from one stream).
    """
    _check_k(k, original.items.size)
    rng = np.random.default_rng(seed)
    drawn = rng.choice(original.items, size=k, replace=False)
    return RecommendationList(owner=original.owner, items=tuple(int(i) for i in drawn))


def minimum_exposure(
    original: RankedList,
    catalog: Catalog,
    ledger: np.ndarray,
    k: int,
) -> RecommendationList:
    """Fill each slot from the currently least-exposed provider.

    Per rank: choose the provider with minimal ledger exposure that still
    has an unrecommended item for this customer (ties: lowest provider id),
    then take that provider's first remaining item in the customer's
    original preference order, i.e. its best-scoring remaining item, lowest
    id on ties. The ledger is updated in place with the slot weights, so
    passing the same array across customers or requests accumulates
    exposure globally. ``ledger`` must be a writable 1-d float64 array of
    length ``catalog.l`` with finite values (ValidationError otherwise).
    """
    pool = original.items
    _check_k(k, pool.size)
    if not (
        isinstance(ledger, np.ndarray)
        and ledger.dtype == np.float64
        and ledger.shape == (catalog.l,)
        and ledger.flags.writeable
        and np.isfinite(ledger).all()
    ):
        raise ValidationError(
            f"the ledger must be a writable 1-d float64 array of {catalog.l} finite values"
        )
    pool_providers = catalog.provider_of[pool]
    # provider p's items, in preference order, are queue[head[p]:end[p]]
    queue = np.argsort(pool_providers, kind="stable")
    head = np.searchsorted(pool_providers[queue], np.arange(catalog.l))
    end = np.append(head[1:], pool.size)
    out = []
    for rank in range(1, k + 1):
        # k <= n leaves an open item, so the least-loaded open provider exists
        p = int(np.where(head < end, ledger, np.inf).argmin())
        out.append(int(pool[queue[head[p]]]))
        head[p] += 1
        ledger[p] += position_weight(rank)
    return RecommendationList(owner=original.owner, items=tuple(out))
