"""Delimited-text instance files and result tables.

Instances arrive as two headered CSV files: preference triplets
(customer, item, score) and an item-to-provider map (item, provider).
External ids are arbitrary strings, mapped to contiguous indices in order
of first appearance; the mapping is kept so output files carry the
original labels. Every input table is read by ``_table``, which holds the
rules all three input files share (header, blank and short rows, encoding),
and every output table is written by ``_write_table``. Numeric output uses
17 significant digits, enough for an exact float64 round-trip: golden files
are bit-stable, and the scores of a recommendations file read back equal to
the instance's.
"""

from __future__ import annotations

import csv
import json
import operator
import warnings
from dataclasses import dataclass, fields
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
from .model import Catalog, PreferenceMatrix, RecommendationList, build_instance


@dataclass(frozen=True)
class InstanceLabels:
    """External labels for each internal index, per universe."""

    customers: tuple[str, ...]
    items: tuple[str, ...]
    providers: tuple[str, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table(path, columns: Sequence[str], optional: Sequence[str] = ()):
    """Yield ``(line, fields)`` for each data row of the CSV table at ``path``.

    ``fields`` holds the cells of ``columns``, then of ``optional``, as
    written; an optional column the header lacks reads as None. Header names
    match case-insensitively after stripping, a missing required column is an
    error at line 1, blank rows are skipped and a row too short for the
    columns present is an error at its own line, as is a cell too large for
    the csv module. The file is UTF-8, with or without a byte-order mark.
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


def load_instance(preferences_path, providers_path):
    """Read and validate an instance from its two files.

    Returns ``(PreferenceMatrix, Catalog, InstanceLabels)``. Duplicate
    (customer, item) rows keep the last score and emit a warning; an item
    without a provider row, or a provider row for an unknown item, is an
    error.
    """
    customer_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    triplets: dict[tuple[int, int], float] = {}

    for line, (customer, item, score) in _table(preferences_path, ("customer", "item", "score")):
        customer, item = customer.strip(), item.strip()
        score = _number(float, "score", score, preferences_path, line)
        u = customer_ids.setdefault(customer, len(customer_ids))
        i = item_ids.setdefault(item, len(item_ids))
        key = (u, i)
        if key in triplets:
            warnings.warn(
                f"duplicate rating for customer {customer!r}, item {item!r}; "
                "keeping the last value",
                DuplicateTripletWarning,
            )
        triplets[key] = score

    if not triplets:
        raise ParseError("no data rows", path=preferences_path, line=1)

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

    m, n = len(customer_ids), len(item_ids)
    missing = [i for i in range(n) if i not in provider_by_item]
    if missing:
        label = next(lab for lab, i in item_ids.items() if i == missing[0])
        raise MissingProviderForItem(f"item {label!r} has no provider assignment")

    scores = np.zeros((m, n))
    for (u, i), score in triplets.items():
        scores[u, i] = score
    assignments = [provider_by_item[i] for i in range(n)]
    matrix, catalog = build_instance(scores, assignments)
    labels = InstanceLabels(
        customers=tuple(customer_ids),
        items=tuple(item_ids),
        providers=tuple(str(lab) for lab in catalog.provider_labels),
    )
    return matrix, catalog, labels


def default_labels(m: int, n: int, l: int) -> InstanceLabels:
    """Plain stringified indices, used for synthetic instances."""
    return InstanceLabels(
        customers=tuple(str(u) for u in range(m)),
        items=tuple(str(i) for i in range(n)),
        providers=tuple(str(p) for p in range(l)),
    )


def _write_table(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one CSV table: the header row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _triplets(scores: np.ndarray):
    rated = scores != 0.0
    rated[:1] |= ~rated.any(axis=0)
    for u, row in enumerate(scores):
        for i in np.flatnonzero(rated[u]):
            yield u, i, _fmt(row[i])


def write_instance_files(scores: np.ndarray, assignments: np.ndarray, out_dir) -> tuple[Path, Path]:
    """Write preference triplets and the provider map; zero scores are omitted,
    except that an item no customer rated gets one zero row, of customer 0."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preferences = out / "preferences.csv"
    providers = out / "providers.csv"
    _write_table(preferences, ("customer", "item", "score"), _triplets(scores))
    _write_table(providers, ("item", "provider"), ((i, int(p)) for i, p in enumerate(assignments)))
    return preferences, providers


def write_recommendations(
    path,
    served: Iterable[tuple[int | None, RecommendationList]],
    matrix: PreferenceMatrix,
    catalog: Catalog,
    labels: InstanceLabels,
) -> None:
    """Write served lists, one row per slot.

    ``served`` yields (request_index, list) pairs; a request index of None
    means a batch result, and the request column is omitted entirely.
    """
    served = list(served)
    online = any(req is not None for req, _ in served)
    header = ["request"] * online + ["customer", "rank", "item", "provider", "score"]
    rows = (
        [req] * online
        + [
            labels.customers[rec.owner],
            pos + 1,
            labels.items[item],
            labels.providers[int(catalog.provider_of[item])],
            _fmt(matrix.scores[rec.owner, item]),
        ]
        for req, rec in served
        for pos, item in enumerate(rec.items)
    )
    _write_table(path, header, rows)


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
        label, value = labels.providers[catalog.provider_of[i]], matrix.scores[u, i]
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
    with ``_fmt``.
    """
    columns = [(f.name, f.type in (float, "float")) for f in fields(TraceRow)]
    cells = (
        [_fmt(getattr(row, name)) if real else getattr(row, name) for name, real in columns]
        for row in rows
    )
    _write_table(path, [name for name, _ in columns], cells)


def write_summary(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, no timestamps."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
