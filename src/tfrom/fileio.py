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
block, in columns, to the same result, on every core: one forked reader per
extra core reads a range of its lines into a spool that is then read back
in order. Both preference readers return the labels and three file-order
columns (customer index, item index, score); ``_grid`` alone turns them
into the dense grid, where a repeated (customer, item) pair keeps its last
score and warns. Every output table is written by
``_write_table``, from columns, in blocks of 2^16 rows: one ``%`` template
(such as ``"%d,%d,%.17g\\r\\n"`` repeated once per row) applied to the flat
tuple of a block's cells, on every core: one forked writer per extra core
formats a range of the rows into a spool that is then appended in order.
A table, like the summary, is written to a new file that replaces its path
once it is complete, so an error leaves no part of a table behind.
Reader and writer children share one transport, ``_spooled``, which forks
each into an unnamed spool and reaps it, and one rule for how many ranges
there are, ``_workers``. A label cell (customer, item, provider, algorithm)
is the cell ``csv.writer`` would write, quoted where it quotes, and is
computed once per distinct label. Numeric output uses 17 significant
digits, enough for an exact float64 round-trip: golden files are
bit-stable, and the scores of a recommendations file read back equal to the
instance's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import operator
import os
import signal
import struct
import tempfile
import threading
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
    _cores,
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
    """What ``_preferences(path)`` returns, read block by block on every
    core, or None unless the file is plain.

    Plain means: every line, the header's too, is the header's number of
    cells of ``_CELL_BYTES`` separated by ``,`` and ended by the header's LF
    or CRLF (the last may lack it); no line is longer than the csv field size
    limit; the header names no column twice and all three of ``_TRIPLET``;
    there is a data row; and every score is a ``float``. ``_table`` would
    then strip nothing, skip no row and raise no error, so both readers
    agree. A file that cannot be read twice, such as a pipe, is not plain.

    The data rows are cut into ``_ranges`` of whole lines. This process
    reads the first range; a forked child reads each other one from a
    handle of its own on ``path``, which must name the file this process
    reads, and writes what it read (``_send``) into a spool in the default
    temporary directory (``_spooled``), which this process then reads into
    the columns it allocates for the whole file. A range that is not plain
    makes the file not plain; the range of a child that fails any other
    way, or that could not be forked or given a spool, is read here. The
    ranges merge in order, each range's labels taking the next ids in order
    of first appearance, so the result is the bytes of one read of the
    whole file. Every child is reaped, and killed first unless it is done,
    before this returns or raises.
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
        read = partial(_plain_range, eol=eol, row=row, limit=limit, positions=positions)

        def send(spool, *bounds):
            with open(os.fspath(path), "rb") as own:
                if not os.path.samestat(os.fstat(own.fileno()), os.fstat(handle.fileno())):
                    raise OSError(f"{path} no longer names the file being read")
                _send(spool, read(own, *bounds))

        ranges = _ranges(handle, limit)
        with _spooled(send, ranges[1:], None) as spools:
            first = read(handle, *ranges[0])
            if first is None:
                return None
            streams, heads = [], []  # per later range: what ``_send`` wrote for it
            for spool, bounds in zip(spools, ranges[1:]):
                streams.append(spool or _sent(read(handle, *bounds)))
                heads.append(_HEAD.unpack(streams[-1].read(_HEAD.size)))
                if heads[-1][0] == -1:
                    return None
            customer_ids, item_ids, u0, i0, scores0 = first
            ends = np.cumsum([len(u0), *(rows for rows, *_ in heads)])
            u, i = np.empty(ends[-1], np.intp), np.empty(ends[-1], np.intp)
            scores = np.empty(ends[-1])
            u[: ends[0]], i[: ends[0]] = u0, i0
            np.concatenate(scores0, out=scores[: ends[0]])
            for r, (stream, head) in enumerate(zip(streams, heads), 1):
                rows = slice(ends[r - 1], ends[r])
                labels = _receive(stream, head, u[rows], i[rows], scores[rows])
                # the range's own ids, in its order of first appearance, to the file's
                for ids, column, new in zip((customer_ids, item_ids), (u, i), labels):
                    remap = np.array([ids.setdefault(label, len(ids)) for label in new], np.intp)
                    np.take(remap, column[rows], out=column[rows])
    customers, items = (tuple(label.decode() for label in ids) for ids in (customer_ids, item_ids))
    return customers, items, u, i, scores


def _workers(size: int, unit: int) -> int:
    """How many ranges, one process each, ``size`` units of work are cut
    into: one per core of the process's affinity (``_cores``), but none
    under one ``unit``. The reader counts a plain file's data rows in bytes
    and ``_BLOCK``, the writer a table's rows and ``_ROWS``. One, with no
    child, without ``os.fork`` or ``os.sched_getaffinity``, or while a
    second Python thread runs: a lock it holds would stay held in a forked
    child."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(_cores(), size // unit))


def _ranges(handle, limit: int) -> list:
    """``(start, stop)`` of each of ``_workers`` byte ranges of whole lines
    that cover a plain file from ``handle``'s position to its end, the last
    stop None: range r > 0 starts after the first line end at or past r
    parts of the bytes left, unless that is the end of the file. A line
    over ``limit`` may merge ranges; the range reader finds it."""
    start = handle.tell()
    end = os.fstat(handle.fileno()).st_size
    count = _workers(end - start, _BLOCK)
    cuts = [start]
    for r in range(1, count):
        handle.seek(start + (end - start) * r // count)
        if handle.readline(limit + 1).endswith(b"\n") and cuts[-1] < handle.tell() < end:
            cuts.append(handle.tell())
    return list(zip(cuts, [*cuts[1:], None]))


def _plain_range(handle, start: int, stop, eol: bytes, row: bytes, limit: int, positions):
    """``(customer_ids, item_ids, u, i, scores)`` of the lines of a plain file
    from byte ``start`` of ``handle`` to byte ``stop`` (None: to the end),
    read block by block: the customer and item labels, as bytes, each with
    its id in order of first appearance; per row, the customer's and the
    item's id, as lists; the scores, as a list of arrays. None if a line is
    not plain, or there is none."""
    stop = math.inf if stop is None else stop
    handle.seek(start)
    customer_ids: dict[bytes, int] = {}
    item_ids: dict[bytes, int] = {}
    u, i, scores = [], [], []
    while handle.tell() < stop and (block := handle.read(min(_BLOCK, stop - handle.tell()))):
        if handle.tell() < stop:
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
    return (customer_ids, item_ids, u, i, scores) if scores else None


# what ``_send`` writes first: the row count (-1 if the range is not plain)
# and the byte lengths of the customer and of the item labels
_HEAD = struct.Struct("=3q")


def _send(spool, part) -> None:
    """Write ``part``, what ``_plain_range`` read, to ``spool``: ``_HEAD``,
    the customer and the item labels each joined by LF (no plain cell holds
    one), then the two id columns as intp and the scores as float64."""
    if part is None:
        spool.write(_HEAD.pack(-1, 0, 0))
        return
    customer_ids, item_ids, u, i, scores = part
    labels = b"\n".join(customer_ids), b"\n".join(item_ids)
    spool.write(_HEAD.pack(len(u), *map(len, labels)))
    for data in (*labels, np.array(u, np.intp), np.array(i, np.intp), *scores):
        spool.write(data)


def _sent(part) -> io.BytesIO:
    """What ``_send`` writes for ``part``, ready to read."""
    stream = io.BytesIO()
    _send(stream, part)
    stream.seek(0)
    return stream


def _receive(stream, head, u, i, scores):
    """Read what ``_send`` wrote after ``head`` from ``stream``: the columns
    into ``u``, ``i`` and ``scores``, which hold ``head``'s row count; the
    customer and the item labels, in order of their ids."""
    labels = [stream.read(size).split(b"\n") for size in head[1:]]
    for column in (u, i, scores):
        stream.readinto(column)
    return labels


@contextlib.contextmanager
def _spooled(work, ranges, directory):
    """Per range of ``ranges``, a forked child that runs ``work(spool,
    *range)`` into ``spool``, an unnamed file in ``directory`` (None: the
    default temporary directory), and ends in ``os._exit``: status 0 if
    ``work`` returned, 1 if it raised. Yields an iterator that, in range
    order, reaps each child and gives its spool at byte 0, or None if the
    child did not exit with status 0, or the spool or the fork failed (an
    OSError, such as no process to spare). On leaving, every child not
    reaped yet is SIGKILLed and reaped, and every spool is closed."""
    running = set()
    with contextlib.ExitStack() as spools:
        children = []  # per range: its child's pid, 0 if it has none, and spool
        for bounds in ranges:
            try:
                spool = spools.enter_context(tempfile.TemporaryFile(dir=directory))
                pid = os.fork()
            except OSError:
                children.append((0, None))
                continue
            if pid == 0:  # the child
                code = 1
                try:
                    work(spool, *bounds)
                    spool.flush()
                    code = 0
                finally:
                    os._exit(code)
            running.add(pid)
            children.append((pid, spool))

        def reaped():
            for pid, spool in children:
                done = pid and os.waitpid(pid, 0)[1] == 0
                running.discard(pid)
                if done:
                    spool.seek(0)  # the child's writes moved the offset it shares
                yield spool if done else None

        try:
            yield reaped()
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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

    The rows are cut into ``_workers(rows, _ROWS)`` ranges. This process
    formats the first into the file; a forked child formats each later one
    into a spool, an unnamed file in the table's directory (``_spooled``),
    and this process appends the spools in range order, in the kernel
    (``_append``). The range of a child that exits with an error, or is
    killed, or of a fork or spool that fails, is formatted here instead, so
    the file is the bytes of a serial write. Every child is reaped, and
    killed first if need be, before this returns or raises. The table is
    written beside ``path`` and replaces it whole (``_replacing``).
    """
    row = ",".join(f"%{conversion}" for conversion, _ in columns) + "\r\n"
    rows = len(columns[0][1])
    count = _workers(rows, _ROWS)
    cuts = [rows * r // count for r in range(count + 1)]
    write = partial(_write_rows, row=row, columns=columns)
    later = list(zip(cuts[1:], cuts[2:]))
    with _replacing(path) as handle, _spooled(write, later, Path(path).parent) as spools:
        handle.write(csv.writer(_Lines()).writerow(header).encode())
        write(handle, cuts[0], cuts[1])
        for spool, bounds in zip(spools, later):
            if spool:
                handle.flush()
                _append(handle.fileno(), spool.fileno())
            else:
                write(handle, *bounds)


@contextlib.contextmanager
def _replacing(path, mode: str = "wb", **kwargs):
    """A handle, ``open`` with ``mode`` and ``kwargs``, on a new file beside
    ``path``, named for this process and thread, that replaces ``path``
    once the block ends; if the block raises, the new file is removed and
    ``path`` is left as it was, so no reader finds a file cut short."""
    head, name = os.path.split(os.fspath(path))
    new = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}")
    handle = open(new, mode, **kwargs)
    try:
        with handle:
            yield handle
        os.replace(new, path)
    except BaseException:
        os.unlink(new)
        raise


def _write_rows(handle, start: int, stop: int, row: str, columns) -> None:
    """Write rows ``start`` to ``stop`` of ``columns`` to the binary
    ``handle``, in blocks of ``_ROWS``: ``row`` repeated once per row of a
    block, applied to the flat tuple of the block's cells."""
    width = len(columns)
    for lo in range(start, stop, _ROWS):
        hi = min(lo + _ROWS, stop)
        cells = [None] * (width * (hi - lo))
        for j, (_, values) in enumerate(columns):
            cells[j::width] = values[lo:hi].tolist()
        handle.write(((row * (hi - lo)) % tuple(cells)).encode())


def _append(out: int, spool: int) -> None:
    """Append the whole file open as ``spool`` to the one open as ``out``,
    at its position, with ``os.sendfile``: no byte passes through Python."""
    offset = 0
    while sent := os.sendfile(out, spool, offset, 1 << 30):
        offset += sent


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
    """Deterministic JSON: sorted keys, no timestamps; written whole or
    not at all (``_replacing``)."""
    with _replacing(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
