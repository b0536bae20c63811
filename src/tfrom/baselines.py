"""Comparison re-rankers: pure preference, pure chance, pure exposure parity.

All three work per customer and emit valid recommendation lists; they are
usable in both the batch and the streaming protocols. ``minimum_exposure``
carries a mutable exposure ledger across calls, under the same
one-request-at-a-time contract as the streaming re-ranker.

The minimum-exposure rule has one home, ``_least_exposed_slots``, which
picks each slot's provider from the ledger and the queue lengths alone,
through one heap of provider loads that holds only the k x lists least
loaded open providers. ``minimum_exposure`` builds the caller's queues on
every call, so any ranking works, a partial one included; the sweep's cell
(``experiments._offline_cell``) runs the kernel once for all m lists on
the matrix's own ``provider_queues``.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ValidationError
from .metrics import slot_weights
from .model import Catalog, RankedList, RecommendationList, _check_k


def top_k(original: RankedList, k: int) -> RecommendationList:
    """The first k items of the customer's own ranking (maximal quality)."""
    k = _check_k(k, original.items.size)
    return RecommendationList(owner=original.owner, items=tuple(int(i) for i in original.items[:k]))


def all_random(original: RankedList, k: int, seed) -> RecommendationList:
    """k distinct items drawn uniformly from the full ranking, in draw order.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, including an
    existing generator (useful for drawing many lists from one stream).
    """
    pool = original.items
    k = _check_k(k, pool.size)
    (positions,) = _random_positions(np.random.default_rng(seed), pool.size, k, 1)
    return RecommendationList(owner=original.owner, items=tuple(pool[positions].tolist()))


def _random_positions(rng: np.random.Generator, n: int, k: int, lists: int) -> np.ndarray:
    """The draws of ``lists`` consecutive ``all_random`` lists from rankings
    of n items: row i holds list i's k distinct positions in its ranking,
    in draw order, from one ``rng.choice`` per list."""
    drawn = np.empty((lists, k), dtype=np.intp)
    for row in drawn:
        row[:] = rng.choice(n, size=k, replace=False)
    return drawn


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
    k = _check_k(k, pool.size)
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
    keys = catalog.provider_keys[pool]
    queue = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=catalog.l)
    # provider p's items, in preference order, are pool[queue[start[p]:end[p]]]
    end = np.cumsum(counts)
    picks = _least_exposed_slots(ledger, end - counts, end, k, 1)
    return RecommendationList(owner=original.owner, items=tuple(pool[queue[picks[0]]].tolist()))


def _least_exposed_slots(
    ledger: np.ndarray, start: np.ndarray, end: np.ndarray, k: int, lists: int
) -> np.ndarray:
    """The minimum-exposure rule on ``lists`` consecutive length-k lists
    that each draw from the same queues: provider p's queue holds the
    indices ``start[p]`` to ``end[p] - 1``.

    Each slot goes to the open provider of least ledger exposure, lowest
    id on ties, and takes that provider's next queue entry; a provider
    whose queue the list has used up stays closed until the list ends.
    Adds every slot's weight to ``ledger`` in place and returns the
    lists x k queue indices. Needs ``k <= (end - start).sum()``.

    The open providers wait in one heap of ``(load, id, j)`` tuples, j
    their place in the seed; ``(load, id)`` is the order of ``argmin``,
    and -0.0 ties with 0.0 in both. A provider no pick has touched keeps
    its load, so the touched ones are always a prefix of the open
    providers in ``(load, id)`` order, and no pick reaches past the first
    ``k * lists``: only those are seeded. The ledger gets their loads
    back at the end.
    """
    # the open providers that can be picked, in (load, id) order; a
    # sorted list is a heap
    seed = np.flatnonzero(start < end)
    seed = seed[np.argsort(ledger[seed], kind="stable")[: k * lists]]
    loads = ledger[seed].tolist()
    heap = list(zip(loads, seed.tolist(), range(seed.size)))
    first, stop = start[seed].tolist(), end[seed].tolist()
    weights = slot_weights(k)
    picks = []
    for _ in range(lists):
        # seeded provider j's next entry is head[j]; those the list used up
        # wait in ``out`` until it ends
        head, out = first.copy(), []
        for w in weights:
            # the seed holds every open provider or k * lists >= k of them,
            # each with an entry, so no list empties the heap
            load, p, j = heap[0]
            picks.append(head[j])
            head[j] += 1
            loads[j] = load = load + w
            if head[j] < stop[j]:
                heapq.heapreplace(heap, (load, p, j))
            else:
                out.append(heapq.heappop(heap))
        for _, p, j in out:
            heapq.heappush(heap, (loads[j], p, j))
    ledger[seed] = loads
    return np.array(picks, dtype=np.intp).reshape(lists, k)
