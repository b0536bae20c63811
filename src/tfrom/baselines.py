"""Comparison re-rankers: pure preference, pure chance, pure exposure parity.

All three work per customer and emit valid recommendation lists; they are
usable in both the batch and the streaming protocols. ``minimum_exposure``
carries a mutable exposure ledger across calls, under the same
one-request-at-a-time contract as the streaming re-ranker.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientItems
from .metrics import position_weight
from .model import Catalog, RankedList, RecommendationList
from .offline import first_open


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise InsufficientItems(f"cannot build a length-{k} list from {n} items")


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
    exposure globally.
    """
    pool = original.items
    _check_k(k, pool.size)
    pool_providers = catalog.provider_of[pool]
    open_slots = np.ones(pool.size, dtype=bool)
    out = []
    for rank in range(1, k + 1):
        # k <= n leaves an open item, so the least-loaded provider always hits
        candidates = pool_providers[open_slots]
        load = ledger[candidates]
        p = int(candidates[load == load.min()].min())
        pos = first_open(pool_providers, open_slots, np.arange(catalog.l) == p)
        out.append(int(pool[pos]))
        open_slots[pos] = False
        ledger[p] += position_weight(rank)
    return RecommendationList(owner=original.owner, items=tuple(out))
