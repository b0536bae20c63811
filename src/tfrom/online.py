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
Like the batch variant, pass 1 chooses among the heads of the customer's
provider queues (``ProviderQueues``), and only among the c providers that
fit the lightest slot. A request costs one O(l) vectorized pass, an
O(c·k) one over those c providers, and O(k log k) steps in Python.

The queues are built once per matrix and catalog, into their memo
(``PreferenceMatrix._derived``), on the first request unless the caller
builds them first: ``matrix.provider_queues(catalog)`` before a stream
moves that cost (tens of milliseconds at 2000 x 2000) out of the first
request, which then reuses them.

A state value is never mutated: its exposure is a read-only array, and
serving returns a fresh state, so snapshots can be kept, checkpointed, or
replayed at will. A state is validated once, when it is built: by
``OnlineState(...)``, ``fresh`` or ``from_dict``, which copy the caller's
array. ``serve_request`` builds the state it returns without that check,
since sums of positive slot weights stay finite and non-negative, and
checks only what a state cannot know: its provider count against the
catalog. Requests against one logical stream must be serialized by the
caller.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, ValidationError
from .metrics import slot_weights
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationList,
    _check_customer,
    _check_integer,
    _check_k,
    _check_original,
    _readonly,
    _unchecked,
)
from .offline import BUDGET_SLACK
from .targets import FairnessMode, fair_targets, online_total_exposure


@dataclass(frozen=True)
class OnlineState:
    """Decision state of a stream: cumulative exposure per provider and
    the number of requests served.

    Construction validates (``_check_state``) and keeps a read-only copy of
    ``exposure`` and ``c_num`` as a Python int."""

    exposure: np.ndarray
    c_num: int

    def __post_init__(self):
        c_num = _check_state(self.exposure, self.c_num)
        object.__setattr__(self, "exposure", _readonly(self.exposure.copy()))
        object.__setattr__(self, "c_num", c_num)

    @classmethod
    def fresh(cls, m: int, n_providers: int) -> "OnlineState":
        """Empty state. ``m`` is unused, since no per-customer value is
        kept; the signature stays the instance's shape."""
        _check_integer("provider count", n_providers, 0, InvalidDimension)
        return cls(exposure=np.zeros(n_providers), c_num=0)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {"exposure": self.exposure.tolist(), "c_num": int(self.c_num)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OnlineState":
        """Restore a snapshot, rejecting anything ``to_dict`` cannot produce
        (ValidationError): a payload that is no mapping, and an exposure
        entry that is not an int or a float, bools included."""
        if not isinstance(payload, Mapping):
            raise ValidationError(f"state snapshot must be a mapping, got {type(payload).__name__}")
        for key in ("exposure", "c_num"):
            if key not in payload:
                raise ValidationError(f"state snapshot lacks {key!r}")
        entries = payload["exposure"]
        try:
            exposure = np.array(entries, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"state exposure is not a numeric vector: {exc}")
        # a 1-d array came from a sequence of scalars, which numpy reads
        # whether they are numbers, numeric text or bools
        if exposure.ndim == 1:
            odd = next((kind for kind in map(type, entries) if kind not in (float, int)), None)
            if odd is not None:
                raise ValidationError(
                    f"state exposure entries must be ints or floats, got {odd.__name__}"
                )
        return cls(exposure=exposure, c_num=payload["c_num"])


def _check_state(exposure, c_num) -> int:
    """The check of every state built outside ``serve_request``:
    ``exposure`` is a 1-d float64 array of finite, non-negative values and
    ``c_num`` an integer >= 0 (ValidationError otherwise), returned as a
    Python int."""
    if not (isinstance(exposure, np.ndarray) and exposure.dtype == np.float64
            and exposure.ndim == 1):
        got = (f"{exposure.dtype} array of shape {exposure.shape}"
               if isinstance(exposure, np.ndarray) else type(exposure).__name__)
        raise ValidationError(f"state exposure must be a 1-d float64 array, got {got}")
    # a NaN fails both comparisons
    if exposure.size and not (0.0 <= exposure.min() and exposure.max() < math.inf):
        raise ValidationError("state exposure must be finite and non-negative")
    return _check_integer("state request count", c_num, 0)


@functools.lru_cache(maxsize=64)
def _weight_column(k: int) -> np.ndarray:
    """``slot_weights(k)`` as a read-only k x 1 column, once per k."""
    return _readonly(np.array(slot_weights(k))[:, None])


def serve_request(
    state: OnlineState,
    u: int,
    matrix: PreferenceMatrix,
    catalog: Catalog,
    original: RankedList,
    k: int,
    mode: FairnessMode,
) -> tuple[RecommendationList, OnlineState]:
    """Serve one request for customer ``u`` and return (list, new state).

    ``state`` must be an ``OnlineState``, which was validated when it was
    built, with one exposure value per provider of ``catalog``
    (ValidationError otherwise)."""
    _check_customer(u, matrix.m)
    k = _check_k(k, matrix.n)
    _check_original(matrix, original, u)
    if not isinstance(state, OnlineState):
        raise ValidationError(f"state must be an OnlineState, got {type(state).__name__}")
    if state.exposure.size != catalog.l:
        raise ValidationError(
            f"state tracks {state.exposure.size} providers, the catalog has {catalog.l}"
        )
    c_num = state.c_num + 1

    budgets = fair_targets(mode, online_total_exposure(c_num, k), catalog, matrix).per_provider
    limit = budgets + BUDGET_SLACK
    weights = slot_weights(k)
    last = weights[-1]
    queues = matrix.provider_queues(catalog)
    queue = queues.positions[u]
    exposure = state.exposure.copy()

    # Pass 1 only adds exposure and the weights fall with rank, so a
    # provider over its limit at the lightest slot fits no slot of this
    # request, and every other one fits each rank from its ``first`` on.
    # ``fronts`` and ``providers`` list the queue heads of those providers
    # by first rank, then by position in the customer's order. Each rank
    # takes the best-ranked head in ``heap``, which holds the best head of
    # every group whose first rank has come and the taken providers that
    # fit again, as (position, provider, head index in ``queue`` or None
    # at the queue start, next index of the group, end of the group). A
    # taken provider that fits a later rank waits in ``refits`` till then.
    open_ = np.flatnonzero(exposure + last <= limit)
    first = (_weight_column(k) + exposure[open_] <= limit[open_]).argmax(0)
    front = queue[queues.start[open_]]
    by_first = np.lexsort((front, first))
    fronts, providers = front[by_first], open_[by_first]
    arriving = np.bincount(first, minlength=k).tolist()
    heap = []
    refits = {}
    group = 0
    chosen = [-1] * k  # positions in the customer's order, by rank
    for rank, w in enumerate(weights):
        if arriving[rank]:
            end = group + arriving[rank]
            heapq.heappush(heap, (int(fronts[group]), int(providers[group]), None, group + 1, end))
            group = end
        for entry in refits.pop(rank, ()):
            heapq.heappush(heap, entry)
        if not heap:
            continue
        chosen[rank], p, h, nxt, end = heapq.heappop(heap)
        if nxt < end:
            heapq.heappush(heap, (int(fronts[nxt]), int(providers[nxt]), None, nxt + 1, end))
        e = exposure[p] + w
        exposure[p] = e
        lim = limit[p]
        if rank + 1 < k and e + last <= lim:
            h = (queues.start[p] if h is None else h) + 1
            if h < queues.end[p]:
                again = rank + 1
                while e + weights[again] > lim:
                    again += 1
                refits.setdefault(again, []).append((int(queue[h]), p, h, 0, 0))

    # Pass 2: every queue holds a suffix of its provider's items, so the
    # smallest queue head is the best-ranked position pass 1 left; the
    # vacancies take those positions in ascending order
    vacant = [rank for rank in range(k) if chosen[rank] == -1]
    taken = set(chosen)
    pos = 0
    for rank in vacant:
        while pos in taken:
            pos += 1
        chosen[rank] = pos
        pos += 1
    items = matrix.order[u][chosen]  # equal to ``original.items``, which may be a list
    if vacant:
        owners = catalog.provider_of[items].tolist()
        for rank in vacant:
            exposure[owners[rank]] += weights[rank]

    # pass 1 takes queue heads and pass 2 positions outside ``taken``, so the
    # k items are distinct, and the new exposure adds positive weights to a
    # valid one: neither needs its check
    rec = _unchecked(RecommendationList, owner=u, items=tuple(items.tolist()))
    return rec, _unchecked(OnlineState, exposure=_readonly(exposure), c_num=c_num)
