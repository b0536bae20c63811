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

The random rule has one home too: ``all_random`` is one
``Generator.choice`` call, and the sweep's cell draws the same stream for
all m lists with ``_random_positions``, from one ``Generator.integers``
call where that is faster than one ``choice`` per list.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ValidationError
from .metrics import slot_weights
from .model import Catalog, RankedList, RecommendationList, _check_integer, _check_k


def top_k(original: RankedList, k: int) -> RecommendationList:
    """The first k items of the customer's own ranking (maximal quality)."""
    k = _check_k(k, original.items.size)
    return RecommendationList(owner=original.owner, items=tuple(int(i) for i in original.items[:k]))


def all_random(original: RankedList, k: int, seed) -> RecommendationList:
    """k distinct items drawn uniformly from the full ranking, in draw order:
    the positions ``rng.choice(n, size=k, replace=False)`` draws.

    ``seed`` is a ``numpy.random.Generator``, whose stream the call
    continues (useful for drawing many lists from one stream), or an
    integer >= 0 for ``numpy.random.default_rng`` (ValidationError
    otherwise).
    """
    pool = original.items
    k = _check_k(k, pool.size)
    if not isinstance(seed, np.random.Generator):
        seed = np.random.default_rng(_check_integer("seed", seed, 0))
    positions = seed.choice(pool.size, size=k, replace=False)
    return RecommendationList(owner=original.owner, items=tuple(pool[positions].tolist()))


def _random_positions(rng: np.random.Generator, n: int, k: int, lists: int) -> np.ndarray:
    """The draws of ``lists`` consecutive ``all_random`` lists from rankings
    of n items: row i holds list i's k distinct positions in its ranking,
    in draw order, with the values and the stream of one
    ``rng.choice(n, size=k, replace=False)`` per list.

    ``choice`` picks k values by Floyd's algorithm, the t-th a draw from
    0..n-k+t, replaced by n-k+t if the list holds it already, then
    shuffles them from the last slot down, swapping slot i with a draw
    from 0..i. Each draw is one bounded integer of numpy's, so one
    ``rng.integers`` call with every list's bounds in turn draws them all,
    and the picks and swaps are then resolved one slot at a time over all
    lists. That pays ``choice``'s per-call set-up once a cell, for k*k/2
    comparisons a list; one ``choice`` per list stays where those cost
    more, for 8k > lists or k > 100. The bound on k also keeps out
    ``choice``'s other regime, n > 10000 and k > n // 50 >= 200, where it
    shuffles a copy of range(n) instead, a stream this does not reproduce.
    """
    # arithmetic on a narrow numpy integer would wrap
    n, k, lists = int(n), int(k), int(lists)
    if 8 * k > lists or k > 100:
        drawn = np.empty((lists, k), dtype=np.intp)
        for row in drawn:
            row[:] = rng.choice(n, size=k, replace=False)
        return drawn
    highs = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)])
    # row c holds every list's c-th draw
    draws = rng.integers(0, highs, size=(lists, highs.size), endpoint=True, dtype=np.int64).T
    picks = draws[:k].astype(np.min_scalar_type(n - 1), order="C")
    for t in range(1, k):
        pick = picks[t]
        pick[(picks[:t] == pick).any(axis=0)] = n - k + t
    # list r's slot j is flat[j * lists + r]
    flat, base = picks.reshape(-1), np.arange(lists)
    for i, j in zip(range(k - 1, 0, -1), draws[k:]):
        at = j * lists + base
        swap = flat[at]
        flat[at] = picks[i]
        picks[i] = swap
    return np.ascontiguousarray(picks.T, dtype=np.intp)


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
