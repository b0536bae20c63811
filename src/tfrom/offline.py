"""Two-phase batch re-ranking under per-provider exposure budgets.

The batch budget is the full exposure of m lists of length k, split across
providers by the chosen fairness mode. Lists are filled one rank at a
time, synchronized across customers: every customer receives their rank-r
item before anyone receives a rank-(r+1) item.

Phase 1 walks ranks 1..k. At rank 1 customers are visited in a seeded
random order; at later ranks in descending order of the quality they have
accumulated so far (ascending customer id on ties), so whoever has lost
the least quality is asked to absorb the next loss. Each customer takes
their best-ranked not-yet-recommended item whose provider still has
budget for this slot's weight. If no provider fits, the slot is left open.

Phase 1 computes a rank as a whole rather than slot by slot. Within a
rank, a provider admits a fixed number of placements of the rank's weight
(its capacity, from the sequential sum of those weights onto its
exposure), and the set of providers that fit only shrinks. Closing a
provider that a customer did not choose leaves their choice unchanged.
So every customer first chooses among the providers open at the start of
the rank, in one pass. A provider that more customers chose than its
capacity admits fills at its first chooser past the capacity; these
saturation events are handled in visit order, and at each only the
saturated provider's later choosers choose again, possibly more than once
per rank. The result is the same as visiting the customers one at a
time, down to the last bit of every exposure.

Phase 2 revisits open slots from high ranks to low, customers in
ascending id, and fills each with the best-ranked remaining item whose
provider has the least exposure among the providers still holding one
(so ties go to the higher score, then the lower item id). No budget
check applies, so every list ends up with k items.

Both phases look only at queue heads: a customer's remaining items of one
provider, in preference order, form a queue (``ProviderQueues``), so a
slot chooses among l heads, never among n items. The preference order is
the only tie-break rule, which is why the caller's rankings must be the
matrix's own (``_check_original``). A phase-1 rank costs one m x l pass
for the first choices, an O(l·c) sum for capacities of at most c
placements, and, per saturation event (at most l per rank), an O(m) pass
to find the saturated provider's later choosers and an O(a·l) pass for
those a choosers; Python runs once per event, not once per slot. Phase 2
costs one O(l) pass per open slot.

Budget admission uses a small slack to absorb floating-point
accumulation; the slack is part of the algorithm contract, so reference
interpreters must apply the same comparison.

Every placement is logged in two m x k columns of the result, at
``[u, r - 1]`` for customer u's rank-r slot: ``step``, its 0-based index
in execution order, and ``exposure_before``, the placed provider's
exposure just before it. The rest is derived: the item is
``lists.items[u, r - 1]``, the provider ``catalog.provider_of[item]``, the
weight ``position_weight(r)``; the phase is 2 exactly for the slots in
``skipped``, and a phase-1 placement's budget is
``targets.per_provider[provider]``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import _top_k_dcg, slot_weights
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationBlock,
    _block,
    _check_integer,
    _check_k,
    _check_original,
)
from .targets import FairnessMode, FairTargets, fair_targets, total_exposure

BUDGET_SLACK = 1e-12


@dataclass(frozen=True)
class OfflineRun:
    """Full result of one batch re-ranking.

    ``lists`` holds customer u's list in row u. ``step`` (int64, a
    permutation of ``0..m·k-1``) and ``exposure_before`` (float64) are the
    m x k placement log described in the module docstring, which also says
    how to derive the rest of a placement.
    """

    lists: RecommendationBlock
    ledger: np.ndarray
    quality: np.ndarray
    skipped: frozenset[tuple[int, int]]
    targets: FairTargets
    step: np.ndarray
    exposure_before: np.ndarray


def _capacities(exposure: np.ndarray, limit: np.ndarray, w: float, rows: int):
    """Each provider's exposure after each of its next ``rows`` placements
    of weight ``w``, and how many of them fit: returns ``(cum, cap)``, where
    ``cum[j, p]`` is provider p's exposure after j of them and ``cap[p]``
    counts the j >= 1 with ``cum[j, p] <= limit[p]``, so it is exact below
    ``rows``. ``np.cumsum`` adds one row at a time, so ``cum`` has the bits
    of the slot-by-slot ``+=``; a pairwise ``np.sum`` would not."""
    steps = np.full((rows + 1, exposure.size), w)
    steps[0] = exposure
    cum = np.cumsum(steps, axis=0)
    return cum, (cum[1:] <= limit).sum(axis=0)


def _choose(fronts: np.ndarray, open_: np.ndarray, n: int) -> np.ndarray:
    """Per row of queue heads, the open provider with the best-ranked head,
    or -1 where every open provider's queue is empty."""
    best = np.where(open_, fronts, n)
    pick = best.argmin(axis=1)
    return np.where(best[np.arange(pick.size), pick] < n, pick, -1)


def tfrom_offline(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    originals: Sequence[RankedList],
    k: int,
    mode: FairnessMode,
    seed,
) -> OfflineRun:
    """Re-rank all customers at once under fair-exposure budgets.

    ``seed``, an integer >= 0 (numpy integers too, ``bool`` not;
    ValidationError otherwise), fixes the rank-1 visit order (a seeded
    shuffle); everything else is deterministic, so identical inputs
    reproduce the run exactly.
    """
    _check_integer("seed", seed, 0)
    m, n = matrix.m, matrix.n
    k = _check_k(k, n)
    if len(originals) != m:
        raise ValidationError(f"expected {m} original rankings, got {len(originals)}")
    if originals is not matrix._rankings:  # whose rankings are the rows of order
        for u, ranked in enumerate(originals):
            _check_original(matrix, ranked, u, where=f" at index {u}")

    budget = fair_targets(mode, total_exposure(m, k), catalog, matrix)
    limit = budget.per_provider + BUDGET_SLACK
    weights = slot_weights(k)
    l = catalog.l

    # front[u, p]: the position in customer u's order of provider p's
    # queue head, n once the queue is empty; head[u, p]: where that head
    # sits in ``positions[u]``, in the positions' own type, which holds n
    queues = matrix.provider_queues(catalog)
    positions, end = queues.positions, queues.end
    head = np.tile(queues.start.astype(positions.dtype), (m, 1))
    front = positions[:, queues.start]
    order, scores = matrix.order, matrix.scores

    ideal = _top_k_dcg(matrix, k)  # the matrix's memo: the originals are its rows
    exposure = np.zeros(l)
    q = np.zeros(m)
    # customer u's rank-r slot is entry [u, r - 1]; -1 marks an open slot
    slots = np.full((m, k), -1, dtype=np.int64)
    step = np.zeros((m, k), dtype=np.int64)
    exposure_before = np.zeros((m, k))
    clock = 0

    for rank in range(1, k + 1):
        w = weights[rank - 1]
        if rank == 1:
            visit = np.random.default_rng(seed).permutation(m)
        else:
            visit = np.argsort(-q, kind="stable")
        # choice[i]: the provider of customer visit[i]'s placement, -1 for
        # none. Providers only close within a rank, and closing one that a
        # customer did not choose leaves their choice as it is. So only a
        # full provider's choosers past its capacity choose again. Each
        # such saturation waits in ``events``, keyed by the visit index of
        # its first chooser past capacity; the earliest comes first, as the
        # choices before it are final.
        open_ = exposure + w <= limit
        choice = _choose(front, open_, n)[visit]
        demand = np.bincount(choice[choice >= 0], minlength=l)
        cum, cap = _capacities(exposure, limit, w, max(int(demand.max()), 1))
        capacity = cap.tolist()
        events = []

        def watch(providers):
            nonlocal cum, capacity
            for p in providers:
                chosen = np.flatnonzero(choice == p)
                if chosen.size > capacity[p] == len(cum) - 1:
                    # p may admit more placements than were summed
                    cum, wider = _capacities(exposure, limit, w, min(m, 2 * chosen.size))
                    capacity = wider.tolist()
                if chosen.size > capacity[p]:
                    heapq.heappush(events, (int(chosen[capacity[p]]), p))

        watch(np.flatnonzero(demand > cap).tolist())
        while events:
            _, p = heapq.heappop(events)
            if not open_[p]:
                continue  # p closed at an earlier entry of its own
            open_[p] = False
            movers = np.flatnonzero(choice == p)[capacity[p]:]
            choice[movers] = again = _choose(front[visit[movers]], open_, n)
            watch(np.unique(again[again >= 0]).tolist())

        got = np.flatnonzero(choice >= 0)
        us, ps = visit[got], choice[got]
        r = rank - 1
        step[us, r] = np.arange(clock, clock + got.size)
        clock += got.size
        # the j-th placement of a provider in visit order finds its
        # exposure at cum[j], and leaves it at cum[count]
        count = np.bincount(ps, minlength=l)
        grouped = np.argsort(ps, kind="stable")
        j = np.empty_like(grouped)
        j[grouped] = np.arange(got.size) - np.repeat(np.cumsum(count) - count, count)
        exposure_before[us, r] = cum[j, ps]
        exposure = cum[count, np.arange(l)]
        items = order[us, front[us, ps]]
        slots[us, r] = items
        q[us] += scores[us, items] / (math.log2(rank + 1) * ideal[us])
        h = head[us, ps] + 1
        head[us, ps] = h
        front[us, ps] = np.where(h < end[ps], positions[us, np.minimum(h, n - 1)], n)

    # (rank - 1, customer) of every open slot, by rank, then customer
    vacant = np.argwhere(slots.T == -1).tolist()
    for r, u in vacant:
        # k <= n leaves an open item, so the least load always has a head
        row = front[u]
        held = row < n
        least = exposure[held].min()
        p = int(np.where(held & (exposure == least), row, n).argmin())
        item = order[u, row[p]]
        slots[u, r] = item
        step[u, r] = clock
        clock += 1
        exposure_before[u, r] = exposure[p]
        exposure[p] += weights[r]
        q[u] += scores[u, item] / (math.log2(r + 2) * ideal[u])
        h = head[u, p] + 1
        head[u, p] = h
        row[p] = positions[u, h] if h < end[p] else n

    return OfflineRun(
        lists=_block(np.arange(m), slots),
        ledger=exposure,
        quality=q,
        skipped=frozenset((u, r + 1) for r, u in vacant),
        targets=budget,
        step=step,
        exposure_before=exposure_before,
    )
