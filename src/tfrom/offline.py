"""Two-phase batch re-ranking under per-provider exposure budgets.

The batch budget is the full exposure of m lists of length k, split across
providers by the chosen fairness mode. Lists are filled one rank at a
time, synchronized across customers: every customer receives their rank-r
item before anyone receives a rank-(r+1) item.

Phase 1 walks ranks 1..k. At rank 1 customers are visited in a seeded
random order; at later ranks in descending order of the quality they have
accumulated so far (ascending customer id on ties), so whoever has lost
the least quality is asked to absorb the next loss. Each customer scans
their not-yet-recommended items in original preference order and takes
the first one whose provider still has budget for this slot's weight. If
no provider fits, the slot is left open.

Phase 2 revisits open slots from high ranks to low, customers in
ascending id, and fills each with the first remaining item, in preference
order, whose provider has the least exposure among the providers still
holding one (so ties go to the higher score, then the lower item id). No
budget check applies, so every list ends up with k items.

Budget admission uses a small slack to absorb floating-point
accumulation; the slack is part of the algorithm contract, so reference
interpreters must apply the same comparison.

Every placement is logged in two m x k columns of the result, at
``[u, r - 1]`` for customer u's rank-r slot: ``step``, its 0-based index
in execution order, and ``exposure_before``, the placed provider's
exposure just before it. The rest is derived: the item is
``lists[u].items[r - 1]``, the provider ``catalog.provider_of[item]``, the
weight ``position_weight(r)``; the phase is 2 exactly for the slots in
``skipped``, and a phase-1 placement's budget is
``targets.per_provider[provider]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import dcg, position_weight
from .model import Catalog, PreferenceMatrix, RankedList, RecommendationList, _check_k
from .targets import FairnessMode, FairTargets, fair_targets, total_exposure

BUDGET_SLACK = 1e-12


def first_open(pool_providers: np.ndarray, open_slots: np.ndarray, allowed: np.ndarray) -> int:
    """The slot scan of both TFROM re-rankers (the offline phases and the
    online passes): the first open pool position whose provider the mask
    ``allowed`` admits, else -1. Pools are in preference order, so this is
    their only tie-break rule; only the masks differ."""
    hits = allowed[pool_providers] & open_slots
    pos = int(hits.argmax())
    return pos if hits[pos] else -1


@dataclass(frozen=True)
class OfflineRun:
    """Full result of one batch re-ranking.

    ``step`` (int64, a permutation of ``0..m·k-1``) and ``exposure_before``
    (float64) are the m x k placement log described in the module
    docstring, which also says how to derive the rest of a placement.
    """

    lists: tuple[RecommendationList, ...]
    ledger: np.ndarray
    quality: np.ndarray
    skipped: frozenset[tuple[int, int]]
    targets: FairTargets
    step: np.ndarray
    exposure_before: np.ndarray


def _check_originals(originals: Sequence[RankedList], m: int) -> None:
    if len(originals) != m:
        raise ValidationError(f"expected {m} original rankings, got {len(originals)}")
    for u, ranked in enumerate(originals):
        if ranked.owner != u:
            raise ValidationError(f"original ranking at index {u} owned by {ranked.owner}")


def tfrom_offline(
    matrix: PreferenceMatrix,
    catalog: Catalog,
    originals: Sequence[RankedList],
    k: int,
    mode: FairnessMode,
    seed,
) -> OfflineRun:
    """Re-rank all customers at once under fair-exposure budgets.

    ``seed`` fixes the rank-1 visit order (a seeded shuffle); everything
    else is deterministic, so identical inputs reproduce the run exactly.
    """
    m, n = matrix.m, matrix.n
    _check_k(k, n)
    _check_originals(originals, m)

    budget = fair_targets(mode, total_exposure(m, k), catalog, matrix)
    budgets = budget.per_provider

    pools = np.stack([ranked.items for ranked in originals])
    pool_providers = catalog.provider_of[pools]
    open_slots = np.ones((m, n), dtype=bool)

    ideal = np.array([dcg(u, originals[u].items[:k], matrix) for u in range(m)])
    exposure = np.zeros(catalog.l)
    q = np.zeros(m)
    slots = np.full((m, k), -1, dtype=np.int64)
    step = np.empty((m, k), dtype=np.int64)
    exposure_before = np.empty((m, k))
    clock = itertools.count()
    skipped: set[tuple[int, int]] = set()

    def place(rank: int, u: int, pos: int, w: float) -> None:
        item = pools[u, pos]
        p = pool_providers[u, pos]
        step[u, rank - 1] = next(clock)
        exposure_before[u, rank - 1] = exposure[p]
        slots[u, rank - 1] = item
        exposure[p] += w
        q[u] += float(matrix.scores[u, item]) / (math.log2(rank + 1) * ideal[u])
        open_slots[u, pos] = False

    for rank in range(1, k + 1):
        w = position_weight(rank)
        if rank == 1:
            visit = np.random.default_rng(seed).permutation(m)
        else:
            visit = np.argsort(-q, kind="stable")
        for u in visit:
            u = int(u)
            fits = exposure + w <= budgets + BUDGET_SLACK
            pos = first_open(pool_providers[u], open_slots[u], fits)
            if pos >= 0:
                place(rank, u, pos, w)
            else:
                skipped.add((u, rank))

    for rank in range(1, k + 1):
        w = position_weight(rank)
        for u in range(m):
            if slots[u, rank - 1] != -1:
                continue
            # k <= n leaves an open item, so the least load always hits
            least = exposure[pool_providers[u, open_slots[u]]].min()
            pos = first_open(pool_providers[u], open_slots[u], exposure == least)
            place(rank, u, pos, w)

    lists = tuple(
        RecommendationList(owner=u, items=tuple(int(i) for i in slots[u]))
        for u in range(m)
    )
    return OfflineRun(
        lists=lists,
        ledger=exposure,
        quality=q,
        skipped=frozenset(skipped),
        targets=budget,
        step=step,
        exposure_before=exposure_before,
    )
