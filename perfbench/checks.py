"""Output checks: list validity, digests and the CLI metrics cross-check.

Every check returns a list of problems; an operation whose checks return
any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

# At most this many problems are kept per operation, so a run where every
# output is wrong still reports in bounded memory.
MAX_PROBLEMS = 3

# `tfrom metrics` must reproduce the last `tfrom online` trace row of the
# tfrom replay. Quality columns are bit-equal. The two exposure columns
# differ in the last bits (108978.78581429315 vs 108978.78581429334,
# 9.3273702675092699e-05 vs 9.32737026750828e-05 on one instance): the
# stream tracker adds exposure per provider in request order, while
# metrics.exposure sums per item first. That is a known divergence for the
# shared accounting primitive to remove; until then they get a relative
# tolerance.
CROSS_CHECK_EXACT = ("total_quality", "ndcg_variance", "ndcg_variance_all")
CROSS_CHECK_CLOSE = ("exposure_variance", "qw_ratio_variance")
CROSS_CHECK_REL_TOL = 1e-9


class Gate:
    """Counts operations attempted and failed, and compares digests.

    A digest must equal the one ``expected`` records under its key, if any,
    and every repeat of the same key within a run.
    """

    def __init__(self, expected=None):
        self.expected = dict(expected or {})
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def digest(self, key: str, value: str) -> list[str]:
        problems = []
        if key in self.expected and self.expected[key] != value:
            problems.append(f"{key}: digest differs from the recorded one")
        if self.digests.setdefault(key, value) != value:
            problems.append(f"{key}: digest changed between repeats")
        return problems

    def operation(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems[:MAX_PROBLEMS])}")


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_array(values) -> str:
    """Digest of the float64 bits of an array."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def digest_lists(lists) -> str:
    """Digest of the owners and items of a sequence of lists, in order."""
    h = hashlib.sha256()
    for rec in lists:
        h.update(np.array((rec.owner, *rec.items), dtype=np.int64).tobytes())
    return h.hexdigest()


def check_list(rec, n: int, k: int, owner: int) -> list[str]:
    """A list has length k, distinct items, ids in range and the right owner."""
    problems = []
    if rec.owner != owner:
        problems.append(f"list for customer {owner} is owned by {rec.owner}")
    if len(rec.items) != k:
        problems.append(f"customer {owner}: list of length {len(rec.items)}, expected {k}")
    if len(set(rec.items)) != len(rec.items):
        problems.append(f"customer {owner}: duplicate items")
    if any(not 0 <= item < n for item in rec.items):
        problems.append(f"customer {owner}: item id outside 0..{n - 1}")
    return problems


def check_lists(lists, m: int, n: int, k: int) -> list[str]:
    """One valid list per customer, in customer order."""
    if lists is None or len(lists) != m:
        return [f"expected {m} lists, got {None if lists is None else len(lists)}"]
    problems = []
    for u, rec in enumerate(lists):
        problems += check_list(rec, n, k, u)
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def read_providers(path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["item"]: row["provider"] for row in csv.DictReader(handle)}


def check_recommendations(path, providers: dict, k: int, lists: int) -> list[str]:
    """A recommendations.csv holds ``lists`` lists of ranks 1..k, distinct
    items known to the instance, and each item's own provider.

    Batch files hold one list per customer; stream files one per request,
    numbered 0.. in order.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        return [f"{path}: {exc}"]
    problems = []
    groups: list[tuple] = []
    slots: list[tuple[str, str, str]] = []
    with handle:
        reader = csv.DictReader(handle)
        online = "request" in (reader.fieldnames or ())
        for row in reader:
            key = (row["request"] if online else None, row["customer"])
            if not groups or groups[-1][0] != key:
                groups.append((key, len(slots)))
            slots.append((row["rank"], row["item"], row["provider"]))
    if len(groups) != lists:
        problems.append(f"{path}: {len(groups)} lists, expected {lists}")
    if online and [key[0] for key, _ in groups] != [str(i) for i in range(len(groups))]:
        problems.append(f"{path}: requests out of order")
    if not online and len({key[1] for key, _ in groups}) != len(groups):
        problems.append(f"{path}: a customer has two lists")
    bounds = [start for _, start in groups] + [len(slots)]
    for (key, start), end in zip(groups, bounds[1:]):
        ranks, items, owners = zip(*slots[start:end])
        if ranks != tuple(str(r) for r in range(1, k + 1)):
            problems.append(f"{path}: list {key} has ranks {','.join(ranks)}")
        if len(set(items)) != len(items):
            problems.append(f"{path}: list {key} repeats an item")
        if any(providers.get(item) != owner for item, owner in zip(items, owners)):
            problems.append(f"{path}: list {key} has an unknown item or a wrong provider")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def cross_check(summary_path, trace_path) -> list[str]:
    """`tfrom metrics` results against the last tfrom row of the stream trace."""
    try:
        with open(summary_path, encoding="utf-8") as handle:
            results = json.load(handle)["results"]
        with open(trace_path, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.DictReader(handle) if row["algorithm"] == "tfrom"]
        last = max(rows, key=lambda row: int(row["step"]))
    except (OSError, ValueError, KeyError) as exc:
        return [f"cross-check unreadable: {exc!r}"]
    problems = []
    for column in CROSS_CHECK_EXACT:
        if float(last[column]) != results[column]:
            problems.append(f"{column}: metrics {results[column]!r} != trace {last[column]}")
    for column in CROSS_CHECK_CLOSE:
        if not math.isclose(float(last[column]), results[column], rel_tol=CROSS_CHECK_REL_TOL):
            problems.append(f"{column}: metrics {results[column]!r} !~ trace {last[column]}")
    return problems
