"""Stateful per-request re-ranking with a growing exposure budget.

Requests arrive one at a time. What decides each request is the
cumulative provider exposure and the number of requests served so far;
the candidate pool resets on every request. The exposure budget is
recomputed before each request from the number of requests *including*
the incoming one, so the budget grows in lock-step with the exposure
about to be spent. Per-customer quality never influences a decision, so
it is accounted outside the state, by ``experiments.StreamTracker``.

Pass 1 takes, for each rank, the customer's best-ranked remaining item
whose provider fits the slot weight under its budget (same slack rule as
the batch variant). Pass 2 fills any remaining slots with the head of the
remaining preference order, favoring quality over fairness for
vacancies. Early in a stream every budget is below a single slot weight,
so pass 1 selects nothing and the customer simply receives their top-k.
Like the batch variant, both passes choose among the l heads of the
customer's provider queues (``ProviderQueues``), so a request costs
O(k·l) once the queues are built, once per matrix and catalog.

A state value is never mutated: serving returns a fresh state, so
snapshots can be kept, checkpointed, or replayed at will. Requests against
one logical stream must be serialized by the caller.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnknownCustomer, ValidationError
from .metrics import slot_weights
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationList,
    _check_k,
    _check_original,
)
from .offline import BUDGET_SLACK
from .targets import FairnessMode, fair_targets, online_total_exposure


@dataclass(frozen=True)
class OnlineState:
    """Decision state of a stream: cumulative exposure per provider and
    the number of requests served."""

    exposure: np.ndarray
    c_num: int

    @classmethod
    def fresh(cls, m: int, n_providers: int) -> "OnlineState":
        """Empty state. ``m`` is unused, since no per-customer value is
        kept; the signature stays the instance's shape."""
        return cls(exposure=np.zeros(n_providers), c_num=0)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {"exposure": self.exposure.tolist(), "c_num": int(self.c_num)}

    @classmethod
    def from_dict(cls, payload: dict) -> "OnlineState":
        """Restore a snapshot, rejecting anything ``to_dict`` cannot produce."""
        for key in ("exposure", "c_num"):
            if key not in payload:
                raise ValidationError(f"state snapshot lacks {key!r}")
        try:
            exposure = np.array(payload["exposure"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"state exposure is not a numeric vector: {exc}")
        if exposure.ndim != 1:
            raise ValidationError(f"state exposure must be 1-d, got shape {exposure.shape}")
        if not np.isfinite(exposure).all() or (exposure < 0).any():
            raise ValidationError("state exposure must be finite and non-negative")
        c_num = payload["c_num"]
        if isinstance(c_num, bool) or not isinstance(c_num, numbers.Integral) or c_num < 0:
            raise ValidationError(f"state request count must be an integer >= 0, got {c_num!r}")
        return cls(exposure=exposure, c_num=int(c_num))


def serve_request(
    state: OnlineState,
    u: int,
    matrix: PreferenceMatrix,
    catalog: Catalog,
    original: RankedList,
    k: int,
    mode: FairnessMode,
) -> tuple[RecommendationList, OnlineState]:
    """Serve one request for customer ``u`` and return (list, new state)."""
    m, n = matrix.m, matrix.n
    if not 0 <= u < m:
        raise UnknownCustomer(f"customer {u} outside universe of size {m}")
    _check_k(k, n)
    _check_original(matrix, original, u)
    if len(state.exposure) != catalog.l:
        raise ValidationError(
            f"state tracks {len(state.exposure)} providers, the catalog has {catalog.l}"
        )

    budgets = fair_targets(
        mode, online_total_exposure(state.c_num + 1, k), catalog, matrix
    ).per_provider
    limit = budgets + BUDGET_SLACK
    weights = slot_weights(k)

    # front[p]: the position in the customer's order of provider p's queue
    # head, n once the queue is empty; head[p]: where that head sits in
    # ``queue``
    queues = matrix.provider_queues(catalog)
    queue = queues.positions[u]
    head = queues.start.copy()
    front = queue[head]
    exposure = state.exposure.copy()
    out = [-1] * k

    def take(rank: int, p: int) -> None:
        out[rank - 1] = int(original.items[front[p]])
        exposure[p] += weights[rank - 1]
        h = head[p] + 1
        head[p] = h
        front[p] = queue[h] if h < queues.end[p] else n

    for rank in range(1, k + 1):
        fitting = np.where(exposure + weights[rank - 1] <= limit, front, n)
        p = int(fitting.argmin())
        if fitting[p] < n:
            take(rank, p)

    for rank in range(1, k + 1):
        if out[rank - 1] == -1:
            take(rank, int(front.argmin()))  # k <= n, so every vacancy has a head

    new_state = OnlineState(exposure=exposure, c_num=state.c_num + 1)
    return RecommendationList(owner=u, items=tuple(out)), new_state
