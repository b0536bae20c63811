"""Delimited-text instance files and result tables.

Instances arrive as two headered CSV files: preference triplets
(customer, item, score) and an item-to-provider map (item, provider).
External ids are arbitrary strings, mapped to contiguous indices in order
of first appearance; the mapping is kept so output files carry the
original labels. Every output table is written by ``_write_table``; numeric
output uses 17 significant digits, enough for an exact float64 round-trip
and therefore bit-stable golden files.
"""

from __future__ import annotations

import csv
import json
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


def _open_rows(path) -> tuple[list[str], "csv.reader", object]:
    handle = open(path, newline="", encoding="utf-8")
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        handle.close()
        raise ParseError("empty file", path=path, line=1)
    except UnicodeDecodeError as exc:
        handle.close()
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    return [h.strip().lower() for h in header], reader, handle


def _data_rows(reader, width: int, path):
    """Yield each non-blank row; a row of fewer than ``width`` fields is an error."""
    try:
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < width:
                message = f"expected at least {width} fields, got {len(row)}"
                raise ParseError(message, path=path, line=reader.line_num)
            yield row
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None


def _columns(header: list[str], required: Sequence[str], path) -> list[int]:
    positions = []
    for name in required:
        try:
            positions.append(header.index(name))
        except ValueError:
            raise ParseError(f"missing required column {name!r}", path=path, line=1)
    return positions


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

    header, reader, handle = _open_rows(preferences_path)
    with handle:
        c_col, i_col, s_col = _columns(header, ("customer", "item", "score"), preferences_path)
        width = max(c_col, i_col, s_col) + 1
        for row in _data_rows(reader, width, preferences_path):
            customer = row[c_col].strip()
            item = row[i_col].strip()
            try:
                score = float(row[s_col])
            except ValueError:
                raise ParseError(
                    f"score {row[s_col]!r} is not a number",
                    path=preferences_path,
                    line=reader.line_num,
                )
            u = customer_ids.setdefault(customer, len(customer_ids))
            i = item_ids.setdefault(item, len(item_ids))
            if (u, i) in triplets:
                warnings.warn(
                    f"duplicate rating for customer {customer!r}, item {item!r}; "
                    "keeping the last value",
                    DuplicateTripletWarning,
                )
            triplets[(u, i)] = score

    if not triplets:
        raise ParseError("no data rows", path=preferences_path, line=1)

    provider_by_item: dict[int, str] = {}
    header, reader, handle = _open_rows(providers_path)
    with handle:
        i_col, p_col = _columns(header, ("item", "provider"), providers_path)
        width = max(i_col, p_col) + 1
        for row in _data_rows(reader, width, providers_path):
            item = row[i_col].strip()
            if item not in item_ids:
                raise UnknownItemInProviderFile(
                    f"{providers_path}:{reader.line_num}: item {item!r} "
                    "does not occur in the preference data"
                )
            i = item_ids[item]
            if i in provider_by_item:
                warnings.warn(
                    f"duplicate provider row for item {item!r}; keeping the last value",
                    DuplicateTripletWarning,
                )
            provider_by_item[i] = row[p_col].strip()

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


def _int_field(name: str, text: str, path, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{name} {text!r} is not an integer", path=path, line=line)


def read_recommendations(path, labels: InstanceLabels):
    """Read lists back as (request_index_or_None, RecommendationList) pairs.

    Each list must hold ranks 1..k exactly once, with one k for the whole
    file, and in an online file each request index names one list and the
    indices increase down the file. Anything else, or a file without data
    rows, is a ``ParseError``.
    """
    customer_idx = {label: u for u, label in enumerate(labels.customers)}
    item_idx = {label: i for i, label in enumerate(labels.items)}
    header, reader, handle = _open_rows(path)
    with handle:
        online = "request" in header
        cols = ["customer", "rank", "item"]
        if online:
            cols = ["request"] + cols
        positions = _columns(header, cols, path)
        # per list: rank -> (item, line)
        groups: dict[tuple, dict[int, tuple[int, int]]] = {}
        last = None  # (request, customer) of the previous online row
        for row in _data_rows(reader, max(positions) + 1, path):
            line = reader.line_num
            values = [row[c].strip() for c in positions]
            if online:
                req, customer, rank, item = values
                key = (_int_field("request", req, path, line), customer)
                if last is not None and key != last and key[0] <= last[0]:
                    message = f"request {key[0]} for customer {customer!r} after request {last[0]}"
                    raise ParseError(f"{message} for customer {last[1]!r}", path=path, line=line)
                last = key
            else:
                customer, rank, item = values
                key = (None, customer)
            rank = _int_field("rank", rank, path, line)
            if customer not in customer_idx:
                raise ParseError(f"unknown customer {customer!r}", path=path, line=line)
            if item not in item_idx:
                raise ParseError(f"unknown item {item!r}", path=path, line=line)
            slots = groups.setdefault(key, {})
            if rank in slots:
                raise ParseError(f"rank {rank} occurs twice in one list", path=path, line=line)
            slots[rank] = (item_idx[item], line)
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
