"""Core instance types: preference scores, the provider catalog, rankings.

An *instance* is a dense non-negative relevance matrix (customers x items)
plus a catalog assigning every item to exactly one provider. All types are
immutable after construction and safe to share across threads; the
re-rankers and metrics build on them without further validation. Arrays
derived from an instance, such as ``PreferenceMatrix.order``, are computed
once, on first use, and never change afterwards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyRow,
    InsufficientItems,
    InvalidDimension,
    InvalidShape,
    NegativeScore,
    NonFiniteScore,
    UnknownCustomer,
)


# scores per argsort call in ``PreferenceMatrix.order``: the negated block
# and its argsort are temporaries of 0.5 MB each, not copies of the matrix
_ORDER_BLOCK = 1 << 16


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PreferenceMatrix:
    """Dense m x n grid of finite, non-negative relevance scores.

    Every row contains at least one strictly positive score; rows that are
    all zero are rejected at construction because a customer without any
    relevant item has an undefined ideal list quality.
    """

    scores: np.ndarray

    @property
    def m(self) -> int:
        return self.scores.shape[0]

    @property
    def n(self) -> int:
        return self.scores.shape[1]

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Every customer's original preference order, one read-only m x n
        array: row u lists the items by descending score, ascending id on
        ties."""
        m, n = self.scores.shape
        order = np.empty((m, n), dtype=np.intp)
        rows = max(1, _ORDER_BLOCK // n)
        for lo in range(0, m, rows):
            block = self.scores[lo : lo + rows]
            order[lo : lo + rows] = np.argsort(-block, axis=1, kind="stable")
        return _readonly(order)


@dataclass(frozen=True)
class Catalog:
    """Item-to-provider assignment and the number of items of each provider.

    Provider ids are contiguous ``0..l-1``; ``provider_labels`` preserves
    the external labels they were compacted from, for output files.
    ``provider_of`` is the only item map: the items of provider ``p`` are
    ``np.flatnonzero(provider_of == p)``, in ascending id order.
    """

    provider_of: np.ndarray
    sizes: np.ndarray
    provider_labels: tuple

    @property
    def n(self) -> int:
        return int(self.provider_of.size)

    @property
    def l(self) -> int:
        return int(self.sizes.size)


@dataclass(frozen=True)
class RankedList:
    """A customer's full ranking: all n items in descending relevance order,
    ties broken by ascending item id."""

    owner: int
    items: np.ndarray


@dataclass(frozen=True)
class RecommendationList:
    """The length-k list finally shown to one customer."""

    owner: int
    items: tuple[int, ...]

    def __post_init__(self):
        if len(self.items) < 1:
            raise InvalidShape("a recommendation list must hold at least one item")
        if len(set(self.items)) != len(self.items):
            raise InvalidShape(
                f"duplicate items in recommendation list for customer {self.owner}"
            )

    @property
    def k(self) -> int:
        return len(self.items)


def _check_k(k: int, n: int) -> None:
    """The list-length check of every re-ranker: 1 <= k <= n."""
    if k < 1:
        raise InvalidDimension(f"list length must be >= 1, got {k}")
    if k > n:
        raise InsufficientItems(f"cannot build a length-{k} list from {n} items")


def build_instance(
    scores, provider_assignments: Sequence
) -> tuple[PreferenceMatrix, Catalog]:
    """Validate raw inputs and assemble an immutable instance.

    ``provider_assignments`` maps each item index to an arbitrary hashable
    provider label; labels are compacted to contiguous ids in order of
    first appearance (a label with no items simply never materializes).

    Raises NonFiniteScore, NegativeScore or EmptyRow when the grid violates
    the score contract, and InvalidShape on dimension mismatches.
    """
    grid = np.array(scores, dtype=np.float64, copy=True)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise InvalidShape(f"expected a non-empty 2-d score grid, got shape {grid.shape}")
    m, n = grid.shape
    assignments = list(provider_assignments)
    if len(assignments) != n:
        raise InvalidShape(
            f"{len(assignments)} provider assignments for {n} items"
        )
    if not np.isfinite(grid).all():
        bad = np.argwhere(~np.isfinite(grid))[0]
        raise NonFiniteScore(f"score at (customer {bad[0]}, item {bad[1]}) is not finite")
    if (grid < 0).any():
        bad = np.argwhere(grid < 0)[0]
        raise NegativeScore(f"score at (customer {bad[0]}, item {bad[1]}) is negative")
    zero_rows = np.flatnonzero(~(grid > 0).any(axis=1))
    if zero_rows.size:
        raise EmptyRow(f"customer {zero_rows[0]} has no positive relevance score")

    ids: dict = {}
    provider_of = np.array(
        [ids.setdefault(label, len(ids)) for label in assignments], dtype=np.int64
    )
    matrix = PreferenceMatrix(scores=_readonly(grid))
    catalog = Catalog(
        provider_of=_readonly(provider_of),
        sizes=_readonly(np.bincount(provider_of, minlength=len(ids))),
        provider_labels=tuple(ids),
    )
    return matrix, catalog


def original_ranking(matrix: PreferenceMatrix, u: int) -> RankedList:
    """Full descending-score permutation for one customer.

    Ties are broken by ascending item id, so the result is deterministic
    for identical inputs. ``items`` is a read-only row view of
    ``matrix.order``.
    """
    if not 0 <= u < matrix.m:
        raise UnknownCustomer(f"customer {u} outside universe of size {matrix.m}")
    return RankedList(owner=u, items=matrix.order[u])


def original_rankings(matrix: PreferenceMatrix) -> list[RankedList]:
    """Original ranking for every customer, indexed by customer id; all of
    them are row views of the one ``matrix.order`` array."""
    order = matrix.order
    return [RankedList(owner=u, items=order[u]) for u in range(matrix.m)]
