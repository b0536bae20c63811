"""Core instance types: preference scores, the provider catalog, rankings
and recommendation lists.

An *instance* is a dense non-negative relevance matrix (customers x items)
plus a catalog assigning every item to exactly one provider. All types are
immutable after construction and safe to share across threads; the
re-rankers and metrics build on them without further validation. Arrays
derived from an instance are computed once, on first use, and never
change afterwards: ``PreferenceMatrix.order``, every customer's ideal
gain at k and each customer's ``RankedList`` (``OriginalRankings``) on
the matrix, the provider queues and the providers' relevance in one memo
per matrix and catalog (``PreferenceMatrix._derived``).
"""

from __future__ import annotations

import array
import functools
import itertools
import numbers
import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRow,
    InsufficientItems,
    InvalidDimension,
    InvalidShape,
    NegativeScore,
    NonFiniteScore,
    UnknownCustomer,
    ValidationError,
)


_INTP = np.iinfo(np.intp)

# scores per sort call in ``PreferenceMatrix.order`` and
# ``provider_queues``: each block's temporaries take 0.5 MB, not a copy of
# the matrix
_ORDER_BLOCK = 1 << 16


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(count: int, work) -> None:
    """Call ``work(b)`` once for every block b in range(count): of c =
    ``_cores()`` threads, thread t takes blocks t, t + c, ... in turn, the
    calling thread being thread 0, and numpy sorts without the GIL. Every
    thread is joined before the first exception, in thread order, is
    raised here. One core or one block starts no thread. ``work`` must not
    read a ``functools.cached_property``: on Python 3.11 the caller may
    hold that property's lock, which every instance of the class shares."""
    cores = _cores()
    # min(cores, count) slices, none empty, capped by a slice, not by min()
    head, *rest = [range(first, count, cores) for first in range(count)[:cores]] or [range(0)]
    failed = []  # (first block of a slice, the exception that ended it)

    def run(blocks):
        try:
            for b in blocks:
                work(b)
        except BaseException as exc:  # raised in the calling thread
            failed.append((blocks.start, exc))

    threads = [threading.Thread(target=run, args=(blocks,)) for blocks in rest]
    for thread in threads:
        thread.start()
    run(head)
    for thread in threads:
        thread.join()
    if failed:
        raise min(failed)[1]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _stable_order(block: np.ndarray) -> np.ndarray:
    """Rows of scores by descending score, ascending id on ties and NaN
    last, as int64: the stable argsort of the negated scores."""
    return np.argsort(-block, axis=1, kind="stable")


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` that skips its
    ``__post_init__`` check, for values that are valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class PreferenceMatrix:
    """Dense m x n grid of finite, non-negative relevance scores.

    Every row should contain at least one strictly positive score, since a
    customer without any relevant item has an undefined ideal list quality.
    ``build_instance`` rejects such rows, and the other violations of the
    grid; a matrix built by hand is not checked.

    The matrix keeps a read-only float64 copy of any ``scores`` that is not
    a read-only float64 array: a writable array, one of another dtype
    (integers above 2**53 lose precision), or rows as lists or tuples. So
    writing into the caller's array later cannot leave ``order`` or the
    provider queues out of date; a read-only float64 array, such as
    ``build_instance``'s, is kept as it is.
    """

    scores: np.ndarray

    def __post_init__(self):
        scores = self.scores
        if not (
            isinstance(scores, np.ndarray)
            and scores.dtype == np.float64
            and not scores.flags.writeable
        ):
            object.__setattr__(self, "scores", _readonly(np.array(scores, dtype=np.float64)))

    @property
    def m(self) -> int:
        return self.scores.shape[0]

    @property
    def n(self) -> int:
        return self.scores.shape[1]

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Every customer's original preference order, one read-only m x n
        array of the smallest unsigned type that holds n - 1: row u lists
        the items by descending score, ascending id on ties.

        Each row is ``_stable_order`` of it, the stable argsort of the
        negated scores, to the bit, but most rows get there by one plain
        sort of unique keys. A float64 score of at least 0, plus 0.0 (so
        -0.0 reads as 0.0), orders as its bits do; the key is those bits
        inverted, with the low s = (n - 1).bit_length() bits replaced by
        the item id, so ascending keys give descending scores and
        ascending ids within a tie. The keys are unique, so any sort
        orders them alike. A check then reads each row's scores in key
        order: they must never rise. It fails only for a row with NaN, a
        negative score or two scores equal above their low s bits, and
        that row alone is sorted again by ``_stable_order``. A block whose
        first row holds fewer than one nonzero score in eight, such as a
        sparse ratings row, goes to ``_stable_order`` whole, since the
        stable sort is adaptive and places runs of equal zeros faster.

        The keyed pass runs its blocks on all available cores
        (``_run_blocks``); every ``_stable_order`` call then runs in the
        calling thread, block by block. The bits, and which rows take
        ``_stable_order``, do not depend on the core count, and there is
        no setting for it."""
        m, n = self.scores.shape
        order = np.empty((m, n), dtype=np.min_scalar_type(n - 1))
        rows = max(1, _ORDER_BLOCK // n)
        low = np.uint64((1 << (n - 1).bit_length()) - 1)
        flipped_ids = ~np.arange(n, dtype=np.uint64)
        row_starts = np.arange(0, rows * n, n, dtype=np.int64)[:, None]
        blocks = range(0, m, rows)
        redo = [None] * len(blocks)  # per block, the rows for _stable_order

        def keyed(b):
            lo = blocks[b]
            block, out = self.scores[lo : lo + rows], order[lo : lo + rows]
            if 8 * np.count_nonzero(block[0]) < n:
                redo[b] = slice(None)
                return
            keys = np.add(block, 0.0).view(np.uint64)
            keys |= low
            keys ^= flipped_ids  # ~(bits | low) | id
            keys.sort(axis=1)
            keys &= low
            out[...] = keys
            ids = keys.view(np.int64)
            ids += row_starts[: len(block)]
            ranked = block.ravel().take(ids)
            # scores that never rise are in the stable order: equal scores
            # have equal keys above the low bits, so their ids ascend
            wrong = np.flatnonzero(~(ranked[:, :-1] >= ranked[:, 1:]).all(axis=1))
            if wrong.size:
                redo[b] = wrong

        _run_blocks(len(blocks), keyed)
        for lo, wrong in zip(blocks, redo):
            if wrong is not None:
                order[lo : lo + rows][wrong] = _stable_order(self.scores[lo : lo + rows][wrong])
        return _readonly(order)

    @functools.cached_property
    def _rankings(self) -> "OriginalRankings":
        """Every customer's original ranking, built on demand: the sequence
        ``original_rankings`` returns."""
        return OriginalRankings(self.order)

    @functools.cached_property
    def _ideal_gains(self) -> dict:
        """Every customer's ideal gain, one m-vector per k, kept by
        ``metrics._top_k_dcg``."""
        return {}

    def _derived(self, catalog: "Catalog") -> "_Derived":
        """The memo of what the matrix derives with ``catalog``. The matrix
        keeps the memo of the catalog it was last asked about, so a memo
        never answers for another catalog; another catalog gets a new memo
        (InvalidShape from ``_check_catalog``), kept in its place."""
        memo = self.__dict__.get("_memo")
        if memo is None or memo.catalog is not catalog:
            _check_catalog(self, catalog)
            memo = self.__dict__["_memo"] = _Derived(catalog)
        return memo

    def provider_queues(self, catalog: "Catalog") -> "ProviderQueues":
        """Every customer's preference order split into one queue per
        provider of ``catalog``, built on first use and kept in the memo
        for ``catalog`` (``_derived``). ValidationError if a provider owns
        no item or ``catalog.sizes`` miscounts ``catalog.provider_of``.
        Its blocks of rows are sorted on all available cores
        (``_run_blocks``); the bits do not depend on the core count, and
        there is no setting for it.
        """
        memo = self._derived(catalog)
        if memo.queues is not None:
            return memo.queues
        m, n = self.scores.shape
        counts = np.bincount(catalog.provider_of, minlength=catalog.l)
        if not (np.array_equal(counts, catalog.sizes) and (counts > 0).all()):
            raise ValidationError("catalog sizes must count each provider's items, one or more")
        # read before any thread starts: a cached property may hold its lock
        order, keys = self.order, catalog.provider_keys
        # the smallest position type holds n, the mark of an empty queue
        positions = np.empty((m, n), dtype=np.min_scalar_type(n))
        per_block = max(1, _ORDER_BLOCK // n)
        blocks = range(0, m, per_block)

        def group(b):
            lo = blocks[b]
            block = keys[order[lo : lo + per_block]]
            positions[lo : lo + per_block] = np.argsort(block, axis=1, kind="stable")

        _run_blocks(len(blocks), group)
        end = np.cumsum(catalog.sizes)
        start = end - catalog.sizes
        queues = ProviderQueues(catalog, _readonly(positions), _readonly(start), _readonly(end))
        memo.queues = queues
        return queues


@dataclass(frozen=True)
class Catalog:
    """Item-to-provider assignment and the number of items of each provider.

    Provider ids are contiguous ``0..l-1``; ``provider_labels`` preserves
    the external labels they were compacted from, for output files.
    ``provider_of`` is the only item map: the items of provider ``p`` are
    ``np.flatnonzero(provider_of == p)``, in ascending id order. Every
    provider owns at least one item.
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

    @functools.cached_property
    def provider_keys(self) -> np.ndarray:
        """``provider_of`` in the smallest unsigned type that holds l - 1,
        read-only: the sort key of the provider queues. A stable argsort of
        it gives the permutation of the int64 ids, and numpy radix-sorts
        8- and 16-bit keys."""
        return _readonly(self.provider_of.astype(np.min_scalar_type(self.l - 1)))


@dataclass(frozen=True)
class ProviderQueues:
    """Every customer's preference order grouped by provider, for one
    matrix and one catalog.

    Row u of the read-only m x n ``positions`` array, of the smallest
    unsigned type that holds n, holds the positions 0..n-1 of
    ``matrix.order[u]``, grouped by provider (provider 0 first) and
    ascending within each group: a stable argsort of
    ``catalog.provider_of[matrix.order[u]]``. Provider p's queue is
    ``positions[u, start[p]:end[p]]`` in every row, since every row holds
    all of p's ``catalog.sizes[p]`` items; its head is p's best-ranked item.
    A re-ranker that takes an item only from a queue head thus keeps every
    queue in preference order and finds its next item among l heads.
    """

    catalog: Catalog
    positions: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass
class _Derived:
    """What a matrix derives with one catalog, each field None until its one
    reader builds it: ``queues`` (``PreferenceMatrix.provider_queues``) and
    ``relevance`` (``metrics.quality_weighted_provider_fairness``). A reader
    keeps the memo it got while it fills and reads it, so threads that use
    different catalogs each read their own."""

    catalog: Catalog
    queues: ProviderQueues | None = None
    relevance: np.ndarray | None = None


@dataclass(frozen=True)
class RankedList:
    """A customer's full ranking: all n items in descending relevance order,
    ties broken by ascending item id.

    ``tfrom_offline`` and ``serve_request`` accept only customer u's row of
    ``matrix.order`` (``_check_original``); the rankings
    ``original_ranking(s)`` return pass that check at no cost.
    """

    owner: int
    items: np.ndarray


class OriginalRankings(Sequence):
    """Every customer's original ranking for one matrix, a read-only
    ``Sequence[RankedList]`` indexed by customer id (``original_rankings``).

    Customer u's ranking, with row u of ``order`` as its items, is built
    the first time u is indexed and kept, so every later index returns
    that one object, whichever thread asks; a slice is a list of them. A
    stream that serves few customers thus builds few rankings.
    """

    __slots__ = ("_order", "_built")

    def __init__(self, order: np.ndarray):
        self._order = order
        self._built: dict[int, RankedList] = {}

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, u):
        if isinstance(u, slice):
            return [self[i] for i in range(*u.indices(len(self._order)))]
        m = len(self._order)
        v = operator.index(u)
        if v < 0:
            v += m
        ranked = self._built.get(v)
        if ranked is None:
            if not 0 <= v < m:
                raise IndexError(f"customer {u} outside universe of size {m}")
            # setdefault keeps the first of two rankings built at once
            ranked = self._built.setdefault(v, RankedList(owner=v, items=self._order[v]))
        return ranked


@dataclass(frozen=True)
class RecommendationList:
    """The length-k list finally shown to one customer."""

    owner: int
    items: tuple[int, ...]

    def __post_init__(self):
        try:
            k = len(self.items)
        except TypeError:
            raise InvalidShape(f"a list's items must be a sequence, got {self.items!r}") from None
        if k < 1:
            raise InvalidShape("a recommendation list must hold at least one item")
        if len(set(self.items)) != k:
            raise InvalidShape(
                f"duplicate items in recommendation list for customer {self.owner}"
            )

    @property
    def k(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class RecommendationBlock(Sequence):
    """Equal-length lists as one block: list i is owned by ``owners[i]``
    and holds ``items[i]``, in rank order.

    Built from any integer owners (1-d) and items (2-d, one row per owner,
    at least one column; InvalidShape if they are no sequences or the rows
    miscount), it is checked once by the rule of the list consumers,
    ``_entry_columns``, without an instance: every entry must be an
    integer under ``_is_index`` (bools excluded, any other value with
    ``__index__`` read as one) and lie strictly inside intp's range
    (the first that does not, in list order: UnknownCustomer for an owner,
    ValidationError naming the owner for an item; owners are checked
    before items). No row may repeat an item (InvalidShape). It keeps
    both as read-only intp arrays. As a
    ``Sequence[RecommendationList]``, indexing or iterating builds each
    list from its row when asked, with Python-int ``owner`` and ``items``;
    a slice is a block of those rows. Two blocks are equal when their
    owners and items are.
    """

    owners: np.ndarray
    items: np.ndarray

    def __post_init__(self):
        try:
            owners = _listed(self.owners)
            rows = [_listed(row) for row in _listed(self.items)]
            k = len(rows[0]) if rows else 0
            shaped = len(rows) == len(owners) and all(len(row) == k for row in rows)
        except TypeError:  # owners or a row of items that is no sequence
            shaped = False
        if not shaped:
            raise InvalidShape("a block needs one row of items per owner, all of one length")
        if k < 1:
            raise InvalidShape("a recommendation list must hold at least one item")
        owner_column, item_column, _ = _entry_columns(owners, rows)
        items = item_column.reshape(len(owners), k)
        ordered = np.sort(items, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeats.any():
            raise InvalidShape(
                f"duplicate items in recommendation list for customer {owners[repeats.argmax()]}"
            )
        object.__setattr__(self, "owners", _readonly(owner_column))
        object.__setattr__(self, "items", _readonly(items))

    @property
    def k(self) -> int:
        return self.items.shape[1]

    def __len__(self) -> int:
        return self.owners.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _unchecked(
                RecommendationBlock, owners=self.owners[index], items=self.items[index]
            )
        return _unchecked(
            RecommendationList,
            owner=int(self.owners[index]),
            items=tuple(self.items[index].tolist()),
        )

    def __iter__(self):
        for u, row in zip(self.owners.tolist(), self.items.tolist()):
            yield _unchecked(RecommendationList, owner=u, items=tuple(row))

    def __eq__(self, other):
        if not isinstance(other, RecommendationBlock):
            return NotImplemented
        return np.array_equal(self.owners, other.owners) and np.array_equal(
            self.items, other.items
        )

    __hash__ = None


def _block(owners: np.ndarray, items: np.ndarray) -> RecommendationBlock:
    """A block that is valid by construction (integer owners, distinct
    items in every row), built without its check; it keeps ``owners`` and
    ``items`` as read-only intp arrays."""
    return _unchecked(
        RecommendationBlock,
        owners=_readonly(owners.astype(np.intp, copy=False)),
        items=_readonly(items.astype(np.intp, copy=False)),
    )


def _listed(values) -> list:
    """An array's entries as Python values (numpy integers as ints, bools
    as bools), any other iterable's as they are."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _entry_columns(owners: Sequence, rows: Sequence, m: int | None = None, n: int | None = None):
    """The rule on the entries of lists, given as owners and their rows of
    items (of any lengths). Every entry must be an integer under
    ``_is_index``: the first in list order that is not raises, an owner
    UnknownCustomer and an item ValidationError naming the owner; then
    ``_check_range``. Returns the owners and the items, row after row, as
    intp columns, and the row lengths."""
    items = list(itertools.chain.from_iterable(rows))
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    try:
        # array("q") refuses floats, strings and None, but reads a bool as 0
        # or 1, so only the entries at 0 or 1 have their type looked at; a
        # look at every entry would cost as much as the conversion
        columns = [np.asarray(array.array("q", values), np.intp) for values in (owners, items)]
        small = [values[i] for values, column in zip((owners, items), columns)
                 for i in np.flatnonzero(column <= 1).tolist()]
        plain = all(map(_is_index, small))
    except (TypeError, OverflowError):
        plain = False
    if not plain:
        for owner, row in zip(owners, rows):
            if not _is_index(owner):
                raise UnknownCustomer(f"list owner must be an integer, got {owner!r}")
            for item in row:
                if not _is_index(item):
                    raise ValidationError(
                        f"list for customer {owner}: an item must be an integer, got {item!r}"
                    )
        # integers past intp come this way, clipped to intp's ends, which lie
        # outside every range
        columns = [_clipped(values) for values in (owners, items)]
    _check_range(*columns, lengths, m, n, names=(owners, items))
    return (*columns, lengths)


def _clipped(values: list) -> np.ndarray:
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return np.array(
            [min(max(operator.index(value), _INTP.min), _INTP.max) for value in values], np.intp
        )


def _check_range(owners, items, lengths, m=None, n=None, names=None) -> None:
    """The range half of the rule on list entries, on intp columns and row
    lengths: owners must lie in 0..m-1 and items in 0..n-1 where m and n
    are given, else strictly inside intp's range. The first owner outside
    raises UnknownCustomer, else the first item ValidationError naming its
    owner; each is named by its value in ``names`` (owners, items as
    given), by default in the columns."""
    owner_names, item_names = names or (owners, items)
    for column, size in (owners, m), (items, n):
        low, high = (_INTP.min + 1, _INTP.max) if size is None else (0, size)
        if column.size and not (low <= column.min() and column.max() < high):
            bad = ((column < low) | (column >= high)).argmax()
            if column is owners:
                universe = "the intp range" if m is None else f"universe of size {m}"
                raise UnknownCustomer(f"list for customer {owner_names[bad]} outside {universe}")
            owner = np.repeat(owners, lengths)[bad]
            raise ValidationError(f"list for customer {owner} holds unknown item {item_names[bad]}")


def _check_original(
    matrix: PreferenceMatrix, original: RankedList, u: int, where: str = ""
) -> None:
    """The ranking check of both TFROM re-rankers: ``original`` must be
    customer u's preference order, ``matrix.order[u]``, since their queue
    positions index that row (ValidationError otherwise). A ranking that
    ``original_ranking(s)`` returned passes on identity; any other costs
    an O(n) compare. ``where`` places the ranking in the message."""
    if original.owner != u:
        raise ValidationError(f"original ranking{where} owned by {original.owner}, not {u}")
    items = original.items
    own = matrix._rankings._built.get(u)  # a kept ranking, none built
    if own is not None and items is own.items:
        return
    if len(items) != matrix.n:
        raise ValidationError(f"original ranking{where} holds {len(items)} items, not {matrix.n}")
    if not np.array_equal(items, matrix.order[u]):
        raise ValidationError(f"original ranking{where} is not customer {u}'s preference order")


def _check_catalog(matrix: PreferenceMatrix, catalog: Catalog) -> None:
    """The instance check of a matrix and a catalog: the catalog must assign
    the matrix's n items (InvalidShape otherwise)."""
    if catalog.n != matrix.n:
        raise InvalidShape(f"{catalog.n} provider assignments for {matrix.n} items")


def _is_index(value) -> bool:
    """The type half of the rule on list entries: a value with
    ``__index__``, which ``array("q")`` and numpy's indexing read as an
    integer (ints, numpy integers and other index types), but no bool."""
    kind = type(value)
    return kind is int or (kind is not bool and kind is not np.bool_ and hasattr(kind, "__index__"))


def _is_integer(value) -> bool:
    """The type half of the integer rule: numpy integers pass, ``bool`` not."""
    kind = type(value)
    return kind is int or (kind is not bool and isinstance(value, numbers.Integral))


def _check_integer(name: str, value, low: int, error=ValidationError) -> int:
    """The rule of every count, index and seed: an integer >= ``low``, numpy
    integers included and ``bool`` not (``error`` otherwise). Returns it as
    a Python int, so arithmetic on it cannot wrap as a narrow numpy type."""
    # a plain int skips the ABC check, which costs several times the rest
    if type(value) is not int and not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_k(k, n: int) -> int:
    """The list-length check of every re-ranker: an integer 1 <= k <= n,
    returned as a Python int."""
    k = _check_integer("list length", k, 1, InvalidDimension)
    if k > n:
        raise InsufficientItems(f"cannot build a length-{k} list from {n} items")
    return k


def _check_customer(u, m: int) -> None:
    """The customer-id check: an integer 0 <= u < m (UnknownCustomer otherwise)."""
    _check_integer("customer id", u, 0, UnknownCustomer)
    if u >= m:
        raise UnknownCustomer(f"customer {u} outside universe of size {m}")


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
    for identical inputs. It is ``original_rankings(matrix)[u]``, the same
    object on every call; its ``items`` are a read-only row view of
    ``matrix.order``.
    """
    _check_customer(u, matrix.m)
    return matrix._rankings[u]


def original_rankings(matrix: PreferenceMatrix) -> OriginalRankings:
    """Original ranking for every customer, indexed by customer id: the
    matrix's one ``OriginalRankings``, which builds a customer's ranking
    when it is first indexed. ``matrix.order`` is computed here, so the
    sort is paid now and no ranking is built."""
    return matrix._rankings
