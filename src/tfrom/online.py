"""Stateful per-request re-ranking with a growing exposure budget.

Requests arrive one at a time. What decides each request is the
cumulative provider exposure and the number of requests served so far;
the candidate pool resets on every request. The exposure budget is
recomputed before each request from the number of requests *including*
the incoming one, so the budget grows in lock-step with the exposure
about to be spent. Per-customer quality never influences a decision, so
it is accounted outside the state, by ``experiments.StreamTracker``.

Pass 1 scans the customer's preference order and takes the first item
whose provider fits the slot weight under its budget (same slack rule as
the batch variant). Pass 2 fills any remaining slots with the head of the
remaining preference order, favoring quality over fairness for
vacancies. Early in a stream every budget is below a single slot weight,
so pass 1 selects nothing and the customer simply receives their top-k.

A state value is never mutated: serving returns a fresh state, so
snapshots can be kept, checkpointed, or replayed at will. Requests against
one logical stream must be serialized by the caller.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnknownCustomer, ValidationError
from .metrics import position_weight
from .model import Catalog, PreferenceMatrix, RankedList, RecommendationList, _check_k
from .offline import BUDGET_SLACK, first_open
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
    if original.owner != u:
        raise ValidationError(f"original ranking owned by {original.owner}, not {u}")
    if len(state.exposure) != catalog.l:
        raise ValidationError(
            f"state tracks {len(state.exposure)} providers, the catalog has {catalog.l}"
        )

    budgets = fair_targets(
        mode, online_total_exposure(state.c_num + 1, k), catalog, matrix
    ).per_provider

    pool = original.items
    pool_providers = catalog.provider_of[pool]
    open_slots = np.ones(n, dtype=bool)
    exposure = state.exposure.copy()
    out = [-1] * k

    def place(rank: int, pos: int) -> None:
        out[rank - 1] = int(pool[pos])
        exposure[pool_providers[pos]] += position_weight(rank)
        open_slots[pos] = False

    for rank in range(1, k + 1):
        fits = exposure + position_weight(rank) <= budgets + BUDGET_SLACK
        pos = first_open(pool_providers, open_slots, fits)
        if pos >= 0:
            place(rank, pos)

    anyone = np.ones(catalog.l, dtype=bool)  # k <= n, so every vacancy hits
    for rank in range(1, k + 1):
        if out[rank - 1] == -1:
            place(rank, first_open(pool_providers, open_slots, anyone))

    new_state = OnlineState(exposure=exposure, c_num=state.c_num + 1)
    return RecommendationList(owner=u, items=tuple(out)), new_state
