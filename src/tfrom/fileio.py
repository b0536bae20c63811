"""Delimited-text instance files and result tables.

Instances arrive as two headered CSV files: preference triplets
(customer, item, score) and an item-to-provider map (item, provider).
External ids are arbitrary strings, mapped to contiguous indices in order
of first appearance; the mapping is kept so output files carry the
original labels: customer and item labels in ``InstanceLabels``, provider
labels in ``Catalog.provider_labels``. ``_table`` holds the rules all three
input files share (header, blank and short rows, encoding) and reads every
input table but one kind: a plain preferences file (bare ASCII cells, the
same number on every line, see ``_plain_preferences``) is read block by
block, in columns, to the same result. Both preference readers return the
labels and three file-order columns (customer index, item index, score);
``_grid`` alone turns them into the dense grid, where a repeated (customer,
item) pair keeps its last score and warns. Every output table is written by
``_write_table``, from columns, in blocks of 2^16 rows: one ``%`` template
(such as ``"%d,%d,%.17g\\r\\n"`` repeated once per row) applied to the flat
tuple of a block's cells. A label cell (customer, item, provider,
algorithm) is the cell ``csv.writer`` would write, quoted where it quotes,
and is computed once per distinct label. Numeric output uses 17
significant digits, enough for an exact float64 round-trip: golden files
are bit-stable, and the scores of a recommendations file read back equal
to the instance's.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateTripletWarning,
    MissingProviderForItem,
    ParseError,
    UnknownItemInProviderFile,
)
from .experiments import TraceRow
from .metrics import _slot_columns
from .model import (
    Catalog,
    PreferenceMatrix,
    RecommendationBlock,
    RecommendationList,
    _check_integer,
    build_instance,
)


@dataclass(frozen=True)
class InstanceLabels:
    """External customer and item labels for each internal index. Provider
    labels live in ``Catalog.provider_labels``."""

    customers: tuple[str, ...]
    items: tuple[str, ...]


# 17 significant digits: an exact float64 round trip
_FLOAT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT)


def _table(path, columns: Sequence[str], optional: Sequence[str] = ()):
    """Yield ``(line, fields)`` for each data row of the CSV table at ``path``.

    ``fields`` holds the cells of ``columns``, then of ``optional``, as
    written; an optional column the header lacks reads as None. Header names
    match case-insensitively after stripping, a missing required column is an
    error at line 1, blank rows are skipped and a row too short for the
    columns present is an error at its own line, as is a cell too large for
    the csv module, and so is a header that names a wanted column twice. The
    file is UTF-8, with or without a byte-order mark.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file", path=path, line=1)
            names = [name.strip().lower() for name in header]
            for name in columns:
                if name not in names:
                    raise ParseError(f"missing required column {name!r}", path=path, line=1)
            wanted = (*columns, *optional)
            for name in wanted:
                if names.count(name) > 1:
                    raise ParseError(f"column {name!r} occurs more than once", path=path, line=1)
            positions = [names.index(name) if name in names else -1 for name in wanted]
            width = max(positions) + 1
            # position -1 is the None appended to every row: an absent optional column
            pick = operator.itemgetter(*positions)
            for row in reader:
                # every table has two columns or more, so a blank row is short too
                if len(row) < width:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    message = f"expected at least {width} fields, got {len(row)}"
                    raise ParseError(message, path=path, line=reader.line_num)
                row.append(None)
                yield reader.line_num, pick(row)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    except csv.Error as exc:  # such as a cell over the field size limit
        raise ParseError(str(exc), path=path, line=reader.line_num) from None


def _number(kind, name: str, text: str, path, line: int):
    """``kind(text)``, ``kind`` being ``int`` or ``float``; a field that is not
    ASCII or holds an underscore (both of which Python accepts) is an error."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    noun = "an integer" if kind is int else "a number"
    raise ParseError(f"{name} {text!r} is not {noun}", path=path, line=line)


# bytes per read of the plain reader: whole-file temporaries raised the peak
# RSS of a 1M-triplet load by more than 10%
_BLOCK = 1 << 20
# what a cell of a plain file may hold: printable ASCII but '"', '_' and ','
_CELL_BYTES = bytes(sorted(set(range(0x21, 0x7F)) - set(b'",_')))
_TRIPLET = ("customer", "item", "score")


def _preferences(path):
    """``(customers, items, u, i, scores)`` of the preferences file at
    ``path``, read row by row: the customer and item labels in order of first
    appearance, and per row the customer's and the item's index and the
    score, in file order."""
    customer_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    u, i, scores = [], [], []
    for line, (customer, item, score) in _table(path, _TRIPLET):
        scores.append(_number(float, "score", score, path, line))
        u.append(customer_ids.setdefault(customer.strip(), len(customer_ids)))
        i.append(item_ids.setdefault(item.strip(), len(item_ids)))
    u, i = np.array(u, np.intp), np.array(i, np.intp)
    return tuple(customer_ids), tuple(item_ids), u, i, np.array(scores)


def _plain_preferences(path):
    """What ``_preferences(path)`` returns, read block by block, or None
    unless the file is plain.

    Plain means: every line, the header's too, is the header's number of
    cells of ``_CELL_BYTES`` separated by ``,`` and ended by the header's LF
    or CRLF (the last may lack it); no line is longer than the csv field size
    limit; the header names no column twice and all three of ``_TRIPLET``;
    there is a data row; and every score is a ``float``. ``_table`` would
    then strip nothing, skip no row and raise no error, so both readers
    agree. A file that cannot be read twice, such as a pipe, is not plain.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        if not handle.seekable():  # a pipe: the row reader could not read it again
            return None
        header = handle.readline()
        eol = b"\r\n" if header.endswith(b"\r\n") else b"\n"
        row = b"," * header.count(b",") + eol
        if header.translate(None, _CELL_BYTES) != row or len(header) > limit:
            return None
        names = header[: -len(eol)].decode().lower().split(",")
        if len(set(names)) < len(names) or not set(_TRIPLET) <= set(names):
            return None
        positions = [names.index(name) for name in _TRIPLET]
        customer_ids: dict[bytes, int] = {}
        item_ids: dict[bytes, int] = {}
        u, i, scores = [], [], []
        for block in iter(partial(handle.read, _BLOCK), b""):
            # end on a line end: read on to the next one, up to past the limit
            block += handle.readline(limit + 1)
            if not block.endswith(b"\n"):  # the last line, or one over the limit
                block += eol
            part = _plain_block(block, eol, row, limit, positions)
            if part is None:
                return None
            customer, item, score = part
            u += [customer_ids.setdefault(label, len(customer_ids)) for label in customer]
            i += [item_ids.setdefault(label, len(item_ids)) for label in item]
            scores.append(score)
    if not scores:
        return None
    customers, items = (tuple(label.decode() for label in ids) for ids in (customer_ids, item_ids))
    return customers, items, np.array(u, np.intp), np.array(i, np.intp), np.concatenate(scores)


def _plain_block(block: bytes, eol: bytes, row: bytes, limit: int, positions):
    """The customer and item cells and the scores of ``block``, whole lines
    of a plain file whose header is ``row`` without its cells, or None if
    the block is not plain."""
    lines = block.count(eol)
    if block.translate(None, _CELL_BYTES) != row * lines:
        return None
    # no line longer than the limit, so no cell is either
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
    if np.diff(ends, prepend=-1).max() > limit:
        return None
    cells = block.replace(eol, b",").split(b",")
    width = row.count(b",") + 1
    customer, item, score = (cells[p:-1:width] for p in positions)
    try:
        scores = np.fromiter(map(float, score), np.float64, lines)
    except ValueError:
        return None
    return customer, item, scores


def _grid(path, customers, items, u, i, scores) -> np.ndarray:
    """The dense customer-by-item grid of the preferences file at ``path``,
    from what either reader returns: a repeated (customer, item) pair keeps
    its last score, with one warning per repeated row, in file order."""
    if not len(scores):
        raise ParseError("no data rows", path=path, line=1)
    key = u * len(items) + i
    ordered = np.sort(key)
    if (ordered[1:] == ordered[:-1]).any():
        # stable: each pair's rows in file order, so a row repeats its left neighbour's pair
        order = np.argsort(key, kind="stable")
        repeats = key[order[1:]] == key[order[:-1]]
        for r in np.sort(order[1:][repeats]).tolist():
            message = f"duplicate rating for customer {customers[u[r]]!r}, item {items[i[r]]!r}"
            warnings.warn(f"{message}; keeping the last value", DuplicateTripletWarning)
        # the last score wins: drop each row that a later row repeats
        u, i, scores = (np.delete(column, order[:-1][repeats]) for column in (u, i, scores))
    grid = np.zeros((len(customers), len(items)))
    grid[u, i] = scores
    return grid


def load_instance(preferences_path, providers_path):
    """Read and validate an instance from its two files.

    Returns ``(PreferenceMatrix, Catalog, InstanceLabels)``. Duplicate
    (customer, item) rows keep the last score and emit a warning; an item
    without a provider row, or a provider row for an unknown item, is an
    error.
    """
    columns = _plain_preferences(preferences_path) or _preferences(preferences_path)
    customers, items = columns[:2]
    scores = _grid(preferences_path, *columns)
    item_ids = {label: i for i, label in enumerate(items)}

    provider_by_item: dict[int, str] = {}
    for line, (item, provider) in _table(providers_path, ("item", "provider")):
        item = item.strip()
        if item not in item_ids:
            raise UnknownItemInProviderFile(
                f"{providers_path}:{line}: item {item!r} "
                "does not occur in the preference data"
            )
        i = item_ids[item]
        if i in provider_by_item:
            warnings.warn(
                f"duplicate provider row for item {item!r}; keeping the last value",
                DuplicateTripletWarning,
            )
        provider_by_item[i] = provider.strip()

    missing = [i for i in range(len(items)) if i not in provider_by_item]
    if missing:
        raise MissingProviderForItem(
            f"{providers_path}: item {items[missing[0]]!r} has no provider assignment"
        )

    assignments = [provider_by_item[i] for i in range(len(items))]
    matrix, catalog = build_instance(scores, assignments)
    labels = InstanceLabels(customers=customers, items=items)
    return matrix, catalog, labels


class _Lines:
    """What ``csv.writer`` writes to: ``write`` hands the line back, so
    ``writerow`` returns it and nothing is stored."""

    def write(self, line: str) -> str:
        return line


def _label_cells(labels: Iterable) -> np.ndarray:
    """Each of ``labels`` as ``csv.writer`` writes it in a cell, quoted where
    csv quotes, as an object array for a table column to index."""
    lines = csv.writer(_Lines())
    # a row of two cells, the second empty, ends in ",\r\n"; one cell alone
    # would be written differently when empty
    return np.array([lines.writerow((label, ""))[:-3] for label in labels], dtype=object)


# rows per block of ``_write_table``: a whole-file temporary would raise peak RSS
_ROWS = 1 << 16


def _write_table(path, header: Sequence[str], columns: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write one CSV table: the header row, then one row per entry of
    ``columns``, equal-length arrays each paired with its ``%`` conversion:
    ``d`` for integers, ``_FLOAT`` for floats, ``s`` for ``_label_cells``.
    """
    row = ",".join(f"%{conversion}" for conversion, _ in columns) + "\r\n"
    width, rows = len(columns), len(columns[0][1])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(csv.writer(_Lines()).writerow(header))
        for start in range(0, rows, _ROWS):
            stop = min(start + _ROWS, rows)
            cells = [None] * (width * (stop - start))
            for j, (_, values) in enumerate(columns):
                cells[j::width] = values[start:stop].tolist()
            handle.write((row * (stop - start)) % tuple(cells))


def write_instance_files(scores: np.ndarray, assignments: Sequence, out_dir) -> tuple[Path, Path]:
    """Write preference triplets and the provider map; zero scores are omitted,
    except that an item no customer rated gets one zero row, of customer 0.
    A provider is written as ``str`` of its label."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preferences = out / "preferences.csv"
    providers = out / "providers.csv"
    rated = scores != 0.0
    rated[:1] |= ~rated.any(axis=0)
    u, i = np.nonzero(rated)
    triplets = [("d", u), ("d", i), (_FLOAT, scores[u, i])]
    _write_table(preferences, ("customer", "item", "score"), triplets)
    ids: dict[str, int] = {}
    provider = [ids.setdefault(str(label), len(ids)) for label in assignments]
    cells = _label_cells(ids)[provider]
    _write_table(providers, ("item", "provider"), [("d", np.arange(len(cells))), ("s", cells)])
    return preferences, providers


def write_recommendations(
    path,
    served: Iterable[tuple[int | None, RecommendationList]] | RecommendationBlock,
    matrix: PreferenceMatrix,
    catalog: Catalog,
    labels: InstanceLabels,
) -> None:
    """Write served lists, one row per slot.

    ``served`` yields (request_index, list) pairs; a request index of None
    means a batch result, and the request column is omitted entirely. A
    ``RecommendationBlock`` is a batch result, written from its columns.
    When any index is not None, every index must be an integer under the
    integer rule (``bool`` excluded) and the indices must rise from one
    list to the next, as ``read_recommendations`` reads them: the first
    that does not raises ValidationError, before the file is opened.
    """
    if isinstance(served, RecommendationBlock):
        served, lists = (), served
    else:
        served = list(served)
        lists = (rec for _, rec in served)
    requests = [req for req, _ in served]
    online = any(req is not None for req in requests)
    if online:
        low = -math.inf
        for i, req in enumerate(requests):
            requests[i] = _check_integer(f"request index of list {i}", req, low)
            low = requests[i] + 1
    owners, items, ranks = _slot_columns(lists, catalog.n, matrix.m)
    columns = [
        ("s", _label_cells(labels.customers)[owners]),
        ("d", ranks + 1),
        ("s", _label_cells(labels.items)[items]),
        ("s", _label_cells(catalog.provider_labels)[catalog.provider_of[items]]),
        (_FLOAT, matrix.scores[owners, items]),
    ]
    if online:
        requests = np.repeat(requests, [rec.k for _, rec in served])
        columns.insert(0, ("d", requests))
    header = ["request"] * online + ["customer", "rank", "item", "provider", "score"]
    _write_table(path, header, columns)


def read_recommendations(path, matrix: PreferenceMatrix, catalog: Catalog, labels: InstanceLabels):
    """Read lists back as (request_index_or_None, RecommendationList) pairs.

    Each list must hold ranks 1..k exactly once, with one k for the whole
    file, and in an online file each request index names one list and the
    indices increase down the file. A ``provider`` or ``score`` column, when
    present, must give the instance's value for every row. Anything else, or
    a file without data rows, is a ``ParseError``.
    """
    customer_idx = {label: u for u, label in enumerate(labels.customers)}
    item_idx = {label: i for i, label in enumerate(labels.items)}
    # per list: rank -> (item, line)
    groups: dict[tuple, dict[int, tuple[int, int]]] = {}
    last = None  # (request, customer) of the previous online row
    for line, fields in _table(
        path, ("customer", "rank", "item"), optional=("request", "provider", "score")
    ):
        customer, rank, item, request, provider, score = (
            cell if cell is None else cell.strip() for cell in fields
        )
        if request is None:
            key = (None, customer)
        else:
            key = (_number(int, "request", request, path, line), customer)
            if last is not None and key != last and key[0] <= last[0]:
                message = f"request {key[0]} for customer {customer!r} after request {last[0]}"
                raise ParseError(f"{message} for customer {last[1]!r}", path=path, line=line)
            last = key
        rank = _number(int, "rank", rank, path, line)
        if customer not in customer_idx:
            raise ParseError(f"unknown customer {customer!r}", path=path, line=line)
        if item not in item_idx:
            raise ParseError(f"unknown item {item!r}", path=path, line=line)
        u, i = customer_idx[customer], item_idx[item]
        label, value = str(catalog.provider_labels[catalog.provider_of[i]]), matrix.scores[u, i]
        if provider is not None and provider != label:
            message = f"provider {provider!r} of item {item!r} is not the instance's {label!r}"
            raise ParseError(message, path=path, line=line)
        if score is not None and _number(float, "score", score, path, line) != value:
            message = f"score {score!r} of customer {customer!r}, item {item!r}"
            raise ParseError(f"{message} is not the instance's {_fmt(value)}", path=path, line=line)
        slots = groups.setdefault(key, {})
        if rank in slots:
            raise ParseError(f"rank {rank} occurs twice in one list", path=path, line=line)
        slots[rank] = (i, line)
    if not groups:
        raise ParseError("no data rows", path=path, line=1)
    out = []
    first_k = len(next(iter(groups.values())))
    for key, slots in groups.items():
        k = len(slots)
        for rank, (_, line) in slots.items():
            if not 1 <= rank <= k:
                raise ParseError(
                    f"rank {rank} in a list of {k} slots; ranks must run 1..{k}",
                    path=path,
                    line=line,
                )
            if k != first_k:  # ``line`` is the list's first row here
                raise ParseError(f"list of {k} slots after one of {first_k}", path=path, line=line)
        rec = RecommendationList(
            owner=customer_idx[key[1]],
            items=tuple(slots[rank][0] for rank in range(1, k + 1)),
        )
        out.append((key[0], rec))
    return out


def write_trace(path, rows: Iterable[TraceRow]) -> None:
    """Metric trace as CSV, one row per (step, algorithm) pair.

    The columns are the fields of ``TraceRow``, in order; floats are written
    as ``_fmt`` writes them.
    """
    rows = list(rows)
    columns = []
    for field in fields(TraceRow):
        values = [getattr(row, field.name) for row in rows]
        if field.type == "str":
            ids: dict[str, int] = {}
            index = [ids.setdefault(value, len(ids)) for value in values]
            columns.append(("s", _label_cells(ids)[index]))
        else:  # the annotations are strings: ``experiments`` defers them
            columns.append(({"int": "d", "float": _FLOAT}[field.type], np.array(values)))
    _write_table(path, [field.name for field in fields(TraceRow)], columns)


def write_summary(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, no timestamps."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
