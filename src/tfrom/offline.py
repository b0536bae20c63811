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

Phase 2 revisits open slots from high ranks to low, customers in
ascending id, and fills each with the best-ranked remaining item whose
provider has the least exposure among the providers still holding one
(so ties go to the higher score, then the lower item id). No budget
check applies, so every list ends up with k items.

Both phases look only at queue heads: a customer's remaining items of one
provider, in preference order, form a queue (``ProviderQueues``), so a
slot chooses among l heads, never among n items. The preference order is
the only tie-break rule, which is why the caller's rankings must be the
matrix's own (``_check_original``).

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
from .metrics import _top_k_dcg, slot_weights
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationList,
    _check_k,
    _check_original,
)
from .targets import FairnessMode, FairTargets, fair_targets, total_exposure

BUDGET_SLACK = 1e-12


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
    if len(originals) != m:
        raise ValidationError(f"expected {m} original rankings, got {len(originals)}")
    for u, ranked in enumerate(originals):
        _check_original(matrix, ranked, u, where=f" at index {u}")

    budget = fair_targets(mode, total_exposure(m, k), catalog, matrix)
    limit = budget.per_provider + BUDGET_SLACK
    weights = slot_weights(k)

    # front[u, p]: the position in customer u's order of provider p's
    # queue head, n once the queue is empty; head[u, p]: where that head
    # sits in ``positions[u]``
    queues = matrix.provider_queues(catalog)
    positions, end = queues.positions, queues.end.tolist()
    head = np.tile(queues.start, (m, 1))
    front = positions[:, queues.start]
    order, scores = matrix.order, matrix.scores

    ideal = _top_k_dcg(matrix, k).tolist()  # the originals are matrix.order's rows
    exposure = np.zeros(catalog.l)
    q = [0.0] * m
    # the log of customer u's rank-r slot is entry u * k + r - 1 of each list
    slots = [-1] * (m * k)
    step = [0] * (m * k)
    exposure_before = [0.0] * (m * k)
    clock = itertools.count()
    skipped: set[tuple[int, int]] = set()

    def place(rank: int, u: int, p: int, row: np.ndarray) -> None:
        """Give customer u's rank-r slot to the head of provider p's queue,
        at position ``row[p]`` of their order, and advance that queue;
        ``row`` is ``front[u]``."""
        slot = u * k + rank - 1
        item = int(order[u, row[p]])
        slots[slot] = item
        step[slot] = next(clock)
        before = exposure[p]
        exposure_before[slot] = before
        exposure[p] = before + weights[rank - 1]
        q[u] += float(scores[u, item]) / (math.log2(rank + 1) * ideal[u])
        h = head[u, p] + 1
        head[u, p] = h
        row[p] = positions[u, h] if h < end[p] else n

    for rank in range(1, k + 1):
        w = weights[rank - 1]
        if rank == 1:
            visit = np.random.default_rng(seed).permutation(m)
        else:
            visit = np.argsort(-np.array(q), kind="stable")
        # a placement moves one provider's exposure, so only its entry of
        # ``fits`` is computed again
        fits = exposure + w <= limit
        for u in visit.tolist():
            row = front[u]
            fitting = np.where(fits, row, n)
            p = int(fitting.argmin())
            if fitting[p] == n:
                skipped.add((u, rank))
                continue
            place(rank, u, p, row)
            fits[p] = exposure[p] + w <= limit[p]

    for rank in range(1, k + 1):
        for u in range(m):
            if slots[u * k + rank - 1] != -1:
                continue
            # k <= n leaves an open item, so the least load always has a head
            row = front[u]
            held = row < n
            least = exposure[held].min()
            place(rank, u, int(np.where(held & (exposure == least), row, n).argmin()), row)

    lists = tuple(
        RecommendationList(owner=u, items=tuple(slots[u * k : (u + 1) * k])) for u in range(m)
    )
    return OfflineRun(
        lists=lists,
        ledger=exposure,
        quality=np.array(q),
        skipped=frozenset(skipped),
        targets=budget,
        step=np.array(step, dtype=np.int64).reshape(m, k),
        exposure_before=np.array(exposure_before).reshape(m, k),
    )
