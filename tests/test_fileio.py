import csv
import dataclasses
import io
import math
import os
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

import tfrom
from tfrom import cli, errors, fileio
from tfrom.targets import FairnessMode


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def index_labels(m, n):
    """Customer and item labels that are their own indices."""
    return fileio.InstanceLabels(
        customers=tuple(str(u) for u in range(m)), items=tuple(str(i) for i in range(n))
    )


class TestLoadInstance:
    def test_minimal_round_trip(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv",
            "customer,item,score\nu1,i1,0.5\nu1,i2,1.5\nu2,i1,2.0\nu2,i2,0.25\n",
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,acme\ni2,zeta\n")
        matrix, catalog, labels = fileio.load_instance(preferences, providers)
        assert matrix.m == 2 and matrix.n == 2
        assert labels.customers == ("u1", "u2")
        assert labels.items == ("i1", "i2")
        assert catalog.provider_labels == ("acme", "zeta")
        assert matrix.scores.tolist() == [[0.5, 1.5], [2.0, 0.25]]

    def test_sparse_triplets_densified_with_zeros(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu2,i2,2.0\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        matrix, _, _ = fileio.load_instance(preferences, providers)
        assert matrix.scores.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_missing_provider(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu1,i2,2.0\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.MissingProviderForItem) as info:
            fileio.load_instance(preferences, providers)
        assert str(info.value) == f"{providers}: item 'i2' has no provider assignment"

    def test_unknown_item_in_provider_file(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\nghost,a\n")
        with pytest.raises(errors.UnknownItemInProviderFile):
            fileio.load_instance(preferences, providers)

    def test_duplicate_triplet_keeps_last_and_warns(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv",
            "customer,item,score\nu1,i1,1.0\nu1,i2,9.0\nu1,i1,2.0\n",
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        with pytest.warns(errors.DuplicateTripletWarning):
            matrix, _, _ = fileio.load_instance(preferences, providers)
        assert matrix.scores[0, 0] == 2.0

    def test_parse_error_reports_line(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu1,i2,not-a-number\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        with pytest.raises(errors.ParseError) as info:
            fileio.load_instance(preferences, providers)
        assert info.value.line == 3

    def test_missing_column(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item\nu1,i1\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError):
            fileio.load_instance(preferences, providers)

    def test_empty_file(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "")
        providers = write(tmp_path / "q.csv", "item,provider\n")
        with pytest.raises(errors.ParseError):
            fileio.load_instance(preferences, providers)

    def test_header_only_file(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score\n")
        providers = write(tmp_path / "q.csv", "item,provider\n")
        with pytest.raises(errors.ParseError, match="no data rows") as info:
            fileio.load_instance(preferences, providers)
        assert info.value.line == 1

    @pytest.mark.parametrize("score", ["1_5", "\u0661\u0665", "\uff11\uff15"])
    def test_lenient_score_rejected(self, tmp_path, score):
        # Python's float() reads each of these as 15.0
        preferences = write(tmp_path / "p.csv", f"customer,item,score\nu1,i1,{score}\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError, match=f"score {score!r} is not a number") as info:
            fileio.load_instance(preferences, providers)
        assert info.value.line == 2

    def test_generated_files_round_trip_exactly(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(6, 15, 4, seed=11)
        preferences, providers = tfrom.write_instance_files(scores, assignments, tmp_path)
        matrix, catalog, _ = fileio.load_instance(preferences, providers)
        assert np.array_equal(matrix.scores, scores)
        # provider ids are compacted in item order but partition identically
        original_partition = {
            p: set(np.flatnonzero(assignments == p)) for p in set(assignments.tolist())
        }
        loaded_partition = {
            frozenset(np.flatnonzero(catalog.provider_of == p)) for p in range(catalog.l)
        }
        assert {frozenset(v) for v in original_partition.values()} == loaded_partition


TABLES = {
    "preferences": [
        ["customer", "item", "score"],
        ["u1", "i1", "0.5"],
        ["u1", "i2", "1.5"],
        ["u2", "i1", "2"],
    ],
    "providers": [["item", "provider"], ["i1", "a"], ["i2", "b"]],
    "recommendations": [
        ["customer", "rank", "item", "provider", "score"],
        ["u1", "1", "i2", "b", "1.5"],
        ["u1", "2", "i1", "a", "0.5"],
        ["u2", "1", "i1", "a", "2"],
        ["u2", "2", "i2", "b", "0"],
    ],
}


def csv_text(rows, end="\n"):
    return "".join(",".join(row) + end for row in rows)


class TestSharedTableRules:
    """Every input file is read by the same rules."""

    def load(self, tmp_path, kind, text):
        """Load all three files, with ``text`` as the file of ``kind``."""
        files = {name: tmp_path / f"{name}.csv" for name in TABLES}
        for name, rows in TABLES.items():
            write(files[name], text if name == kind else csv_text(rows))
        matrix, catalog, labels = fileio.load_instance(files["preferences"], files["providers"])
        served = fileio.read_recommendations(files["recommendations"], matrix, catalog, labels)
        return (
            matrix.scores.tolist(),
            [catalog.provider_labels[p] for p in catalog.provider_of],
            labels.customers,
            labels.items,
            [(req, rec.owner, rec.items) for req, rec in served],
        )

    def rejects(self, tmp_path, kind, text, message, line):
        with pytest.raises(errors.ParseError, match=message) as info:
            self.load(tmp_path, kind, text)
        assert info.value.path == tmp_path / f"{kind}.csv"
        assert info.value.line == line

    @pytest.mark.parametrize("kind", list(TABLES))
    def test_shared_rules(self, tmp_path, kind):
        rows = TABLES[kind]
        expected = self.load(tmp_path, kind, csv_text(rows))
        # names in any case with surrounding blanks, columns reversed, an extra column
        messy = [["  Note "] + [f" {name.upper()}\t" for name in reversed(rows[0])]]
        messy += [["x"] + row[::-1] for row in rows[1:]]
        padded = [rows[0]] + [[f" {cell} " for cell in row] for row in rows[1:]]
        blanks = [rows[0], rows[1], [""], ["   "], *rows[2:], ["\t"]]
        accepted = {
            "messy header": csv_text(messy),
            "padded cells": csv_text(padded),
            "CRLF": csv_text(rows, "\r\n"),
            "blank rows": csv_text(blanks),
            "byte-order mark": "\ufeff" + csv_text(rows),
        }
        for name, text in accepted.items():
            assert self.load(tmp_path, kind, text) == expected, name

        self.rejects(tmp_path, kind, "", "empty file", 1)
        self.rejects(tmp_path, kind, "\n" + csv_text(rows), "missing required column", 1)
        missing = rows[0][0]
        truncated = csv_text(row[1:] for row in rows)
        self.rejects(tmp_path, kind, truncated, f"missing required column '{missing}'", 1)
        short = csv_text(rows + [rows[1][:-1]])
        self.rejects(tmp_path, kind, short, "expected at least", len(rows) + 1)
        huge = csv_text(rows + [["x" * 200_000] + rows[1][1:]])
        self.rejects(tmp_path, kind, huge, "field larger than field limit", len(rows) + 1)
        last = rows[0][-1]
        repeated = csv_text([rows[0] + [last.upper()]] + [row + [row[-1]] for row in rows[1:]])
        self.rejects(tmp_path, kind, repeated, f"column '{last}' occurs more than once", 1)


positive_scores = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def raw_instances(draw):
    """Small (scores, assignments) pairs: every row has a positive score,
    but a column may be all zero (an item no customer rated)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0.0), positive_scores)
    scores = np.array(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    for u in range(m):
        if not (scores[u] > 0).any():
            scores[u, draw(st.integers(0, n - 1))] = draw(positive_scores)
    assignments = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return scores, assignments


class TestInstanceRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(raw_instances())
    # item 1 is rated by no customer
    @example((np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 1.0]]), np.array([0, 1, 1])))
    def test_write_then_load_is_identity(self, raw):
        scores, assignments = raw
        with tempfile.TemporaryDirectory() as tmp:
            preferences, providers = tfrom.write_instance_files(scores, assignments, tmp)
            matrix, catalog, labels = fileio.load_instance(preferences, providers)
        customers = [int(label) for label in labels.customers]
        items = [int(label) for label in labels.items]
        assert sorted(customers) == list(range(scores.shape[0]))
        assert sorted(items) == list(range(scores.shape[1]))
        assert np.array_equal(matrix.scores, scores[np.ix_(customers, items)])
        loaded = [catalog.provider_labels[p] for p in catalog.provider_of]
        assert loaded == [str(assignments[i]) for i in items]

    @pytest.mark.parametrize(
        "assignments",
        [["x", "y", "x"], [0.5, 1.5, 0.5], [0.2, 0.7, 0.2], ["a,b", 'say "hi"', "a,b"]],
    )
    def test_provider_labels_written_as_text(self, tmp_path, assignments):
        tfrom.write_instance_files(np.ones((2, 3)), assignments, tmp_path)
        _, catalog, labels = fileio.load_instance(
            tmp_path / "preferences.csv", tmp_path / "providers.csv"
        )
        assert labels.items == ("0", "1", "2")
        loaded = [catalog.provider_labels[p] for p in catalog.provider_of]
        assert loaded == [str(label) for label in assignments]
        # the same partition of items into providers
        assert [loaded.index(x) for x in loaded] == [assignments.index(x) for x in assignments]


# A small csv field size limit, so that cells over it stay small.
FIELD_LIMIT = 40
CUSTOMERS = ["u0", "u1", "7", "A"]
ITEMS = ["i0", "i1", "x", "9"]
# each a float() spelling of plain bytes
PLAIN_SCORES = ["nan", "inf", "-inf", "1e400", "-0.0", "+.5", "5.", "Infinity", "1E3", "0"]
ODD_SCORES = ["", "1_5", "\u0661\u0665", " 2", "0x10", "two", "\u00a01", "1\u00a0"]
# each mutation makes a preferences file not plain
MUTATIONS = [
    "bom", "bare cr", "mixed ends", "blank row", "blank-only row", "padded cell",
    "quoted cell", "underscore", "non-ascii", "odd score", "repeated column", "padded name",
    "missing column", "wider row", "narrower row", "duplicate pair", "long name",
    "long cell", "not utf-8",
]


@st.composite
def preference_files(draw):
    """``(preferences, providers, plain)``: the bytes of a preferences file
    and of a providers file for its items, and whether the preferences file
    is plain (``fileio._plain_preferences`` reads it)."""
    names = ["customer", "item", "score"]
    if draw(st.booleans()):
        names = draw(st.permutations(names))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, 3)), "note")
    header = [name.upper() if draw(st.booleans()) else name for name in names]
    score = st.one_of(st.floats(0.0, 1e300).map(repr), st.sampled_from(PLAIN_SCORES))
    triplets = draw(
        st.lists(
            st.tuples(st.sampled_from(CUSTOMERS), st.sampled_from(ITEMS), score),
            max_size=8,
            unique_by=lambda triplet: triplet[:2],
        )
    )
    rows = [
        [dict(zip(("customer", "item", "score", "note"), (*triplet, "n")))[name] for name in names]
        for triplet in triplets
    ]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    # a repeated pair is plain too: the last score wins whichever reader runs
    plain = bool(rows) and not set(mutations) - {"duplicate pair"}
    for mutation in mutations:
        j = draw(st.integers(0, len(header) - 1))
        if mutation == "repeated column":
            header.append(draw(st.sampled_from([header[j], header[j].upper(), "note"])))
            rows = [row + [row[j] if j < len(row) else "n"] for row in rows]
        elif mutation == "padded name":
            header[j] = f" {header[j]}\t"
        elif mutation == "missing column":
            del header[j]
            rows = [row[:j] + row[j + 1 :] for row in rows]
        elif mutation == "long name":
            header.append("h" * (FIELD_LIMIT + draw(st.integers(-1, 2))))
            rows = [row + ["n"] for row in rows]
        elif mutation == "blank row":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif mutation == "blank-only row":
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from([" ", "\t", "  "]))])
        elif mutation == "duplicate pair" and triplets:
            u, i, _ = triplets[draw(st.integers(0, len(triplets) - 1))]
            rows.append([dict(customer=u, item=i, score="3.5", note="n")[name] for name in names])
        elif rows and all(rows):
            r = draw(st.integers(0, len(rows) - 1))
            if mutation == "odd score" and "score" in map(str.lower, header):
                j = [name.lower() for name in header].index("score")
            if mutation == "wider row":
                rows[r] = rows[r] + ["w"]
            elif mutation == "narrower row":
                rows[r] = rows[r][:-1]
            elif j < len(rows[r]):
                text = rows[r][j]
                rows[r][j] = {
                    "padded cell": f" {text} ",
                    "quoted cell": f'"{text}"',
                    "underscore": text[:1] + "_" + text[1:],
                    "non-ascii": text + "\u00e9",
                    "odd score": draw(st.sampled_from(ODD_SCORES)),
                    "long cell": "7" * (FIELD_LIMIT + draw(st.integers(-1, 2))),
                }.get(mutation, text)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header) + end] + [",".join(row) + end for row in rows]
    if "mixed ends" in mutations:
        j = draw(st.integers(0, len(lines) - 1))
        lines[j] = lines[j].rstrip("\r\n") + ("\n" if end == "\r\n" else "\r\n")
    if "bare cr" in mutations:
        j = draw(st.integers(0, len(lines) - 1))
        lines[j] = lines[j].rstrip("\r\n") + "\r"
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    text = "\ufeff" * ("bom" in mutations) + "".join(lines)
    data = text.encode("utf-8")
    if "not utf-8" in mutations:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    items = list(dict.fromkeys(i for _, i, _ in triplets))
    if items and draw(st.booleans()):
        del items[draw(st.integers(0, len(items) - 1))]
    providers = "item,provider\n" + "".join(f"{i},p{j % 2}\n" for j, i in enumerate(items))
    return data, providers.encode(), plain


def load_outcome(preferences, providers):
    """Everything ``load_instance`` gives for the two files: its result, or
    its error's type, message and line; and the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            matrix, catalog, labels = fileio.load_instance(preferences, providers)
        except errors.TfromError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
        else:
            result = (
                matrix.scores.shape,
                matrix.scores.tobytes(),
                catalog.provider_of.tobytes(),
                catalog.sizes.tobytes(),
                catalog.provider_labels,
                labels,
            )
    return result, [(w.category, str(w.message)) for w in caught]


def only_in_blocks(monkeypatch, preferences):
    """Let ``_table`` read any file but ``preferences``, so that only the
    block reader can read it."""
    table = fileio._table

    def other_files(path, *args, **kwargs):
        assert path != preferences, "preferences.csv read row by row"
        return table(path, *args, **kwargs)

    monkeypatch.setattr(fileio, "_table", other_files)


class TestPlainPreferences:
    """``_plain_preferences`` reads plain files, and only those, exactly as
    the row reader ``_preferences`` does."""

    @settings(max_examples=300, deadline=None)
    @given(
        preference_files(), st.one_of(st.integers(1, 80), st.just(1 << 20)), st.integers(1, 3)
    )
    @example((b"customer,item,score," + b"h" * 41 + b"\nu0,i0,1,n\n", b"item,provider\ni0,a\n", False), 64, 1)
    @example((b"customer,item,score\n" + b"7" * 41 + b",i0,1\n", b"item,provider\ni0,a\n", False), 64, 1)
    @example((b"customer,item,score\nu0,i0,1,w\n", b"item,provider\ni0,a\n", False), 1 << 20, 1)
    @example((b"customer,item,score,note\nu0,i0,1\n", b"item,provider\ni0,a\n", False), 1 << 20, 1)
    @example((b"customer,item,score\nu0,i0,1\nu0,i0,2\n", b"item,provider\ni0,a\n", True), 1 << 20, 1)
    @example((b'customer,item,score\n"u0",i0,1\n', b"item,provider\ni0,a\n", False), 1 << 20, 1)
    @example((b"customer,item,score\r\nu0,i0,1\r\nu1,i0,2", b"item,provider\ni0,a\n", True), 4, 1)
    # three ranges of whole lines, the last without its CRLF; labels seen first in a later range
    @example((
        b"customer,item,score\r\nu0,i0,1\r\nu1,i1,2\r\nu0,x,3", b"item,provider\ni0,a\ni1,b\nx,a\n", True
    ), 8, 3)
    def test_agrees_with_the_row_reader(self, files, block, cores):
        data, providers_data, plain = files
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_BLOCK", block), \
                    mock.patch.object(fileio, "_cores", lambda: cores):
                preferences, providers = Path(tmp) / "p.csv", Path(tmp) / "q.csv"
                preferences.write_bytes(data)
                providers.write_bytes(providers_data)
                if plain:
                    assert fileio._plain_preferences(preferences) is not None
                both = load_outcome(preferences, providers)
                with mock.patch.object(fileio, "_plain_preferences", lambda path: None):
                    rows = load_outcome(preferences, providers)
        finally:
            csv.field_size_limit(limit)
        assert both == rows

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
    def test_pipe_is_read_once(self, tmp_path, prefix):
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        read, written = os.pipe()
        try:
            os.write(written, prefix + b"customer,item,score\nu1,i1,0.5\n")
            os.close(written)
            matrix, _, labels = fileio.load_instance(f"/dev/fd/{read}", providers)
        finally:
            os.close(read)
        assert matrix.scores.tolist() == [[0.5]] and labels.customers == ("u1",)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_generated_files_are_plain(self, tmp_path, monkeypatch, end):
        # 250x400 scores are about 2.6 MB of text: three blocks
        args = ["--m", "250", "--n", "400", "--l", "6", "--seed", "3", "--out", str(tmp_path)]
        assert cli.main(["gen", *args]) == 0
        preferences = tmp_path / "preferences.csv"
        preferences.write_bytes(preferences.read_bytes().replace(b"\r\n", end))
        only_in_blocks(monkeypatch, preferences)
        matrix, _, labels = fileio.load_instance(preferences, tmp_path / "providers.csv")
        scores, _ = tfrom.generate_synthetic(250, 400, 6, seed=3)
        assert matrix.scores.tobytes() == scores.tobytes()
        assert labels.customers == tuple(map(str, range(250)))
        assert labels.items == tuple(map(str, range(400)))

    def test_repeated_pairs_are_read_in_blocks(self, tmp_path, monkeypatch):
        args = ["--m", "250", "--n", "400", "--l", "6", "--seed", "3", "--out", str(tmp_path)]
        assert cli.main(["gen", *args]) == 0
        preferences, providers = tmp_path / "preferences.csv", tmp_path / "providers.csv"
        scores, _ = tfrom.generate_synthetic(250, 400, 6, seed=3)
        # two pairs of the file: the first repeats twice with different scores
        (u, i), (v, j) = np.argwhere(scores != 0)[[0, -1]].tolist()
        with open(preferences, "a", newline="") as handle:
            handle.write(f"{u},{i},0.25\r\n{v},{j},0.5\r\n{u},{i},0.75\r\n")
        with mock.patch.object(fileio, "_plain_preferences", lambda path: None):
            rows = load_outcome(preferences, providers)
        only_in_blocks(monkeypatch, preferences)
        blocks = load_outcome(preferences, providers)
        assert blocks == rows
        (shape, grid, *_), caught = blocks
        scores[u, i], scores[v, j] = 0.75, 0.5
        assert shape == scores.shape and grid == scores.tobytes()
        text = "duplicate rating for customer {!r}, item {!r}; keeping the last value"
        want = [text.format(str(a), str(b)) for a, b in ((u, i), (v, j), (u, i))]
        assert caught == [(errors.DuplicateTripletWarning, message) for message in want]


def ranged_file(tmp_path, bad_row=None):
    """A plain preferences file of 300 rows, about 7 kB, whose labels recur
    and also first appear late in the file; row ``bad_row`` is quoted, so
    not plain."""
    rows = [[f"c{r * 7 % 50}", f"i{r * r % 97}", repr(r / 7)] for r in range(300)]
    if bad_row is not None:
        rows[bad_row][0] = f'"{rows[bad_row][0]}"'
    path = tmp_path / f"p{bad_row}.csv"
    path.write_text("customer,item,score\n" + "".join(",".join(row) + "\n" for row in rows))
    return path


def same_columns(got, want):
    return got[:2] == want[:2] and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got[2:], want[2:])
    )


@pytest.fixture
def forked(monkeypatch):
    """The pids of every child forked while the test runs; blocks of 1000
    bytes on 3 cores, so ``ranged_file`` is read in three ranges."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(fileio, "_BLOCK", 1000)
    monkeypatch.setattr(fileio, "_cores", lambda: 3)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def serial_read(path):
    with mock.patch.object(fileio, "_cores", lambda: 1):
        return fileio._plain_preferences(path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestPlainReadersOnEveryCore:
    """The ranges of a plain file after the first are read in forked
    children, each reaped before ``_plain_preferences`` returns, into
    spools that leave nothing behind."""

    def test_ranges_read_in_children_give_the_serial_read(self, tmp_path, forked):
        path = ranged_file(tmp_path)
        want = serial_read(path)
        assert not forked
        parent, read, read_here = os.getpid(), fileio._plain_range, []

        def recorded(handle, start, stop, **kwargs):
            if os.getpid() == parent:
                read_here.append(start)
            return read(handle, start, stop, **kwargs)

        with mock.patch.object(fileio, "_plain_range", recorded):
            got = fileio._plain_preferences(path)
        assert len(forked) == 2
        assert_reaped(forked)
        assert read_here == [len("customer,item,score\n")]  # the first range only
        assert same_columns(got, want)
        assert same_columns(got, fileio._preferences(path))

    def test_a_line_longer_than_a_range(self, tmp_path, forked, monkeypatch):
        # 56 bytes of data rows, nominal cuts at 18 and 37 on 3 cores: both
        # fall in the first line, which ends the first of two ranges
        monkeypatch.setattr(fileio, "_BLOCK", 4)
        path = tmp_path / "p.csv"
        path.write_bytes(b"customer,item,score\nu0,i0," + b"1" * 33 + b"\nu1,i1,2\nu2,i0,3\n")
        got = fileio._plain_preferences(path)
        assert len(forked) == 1
        assert_reaped(forked)
        assert same_columns(got, serial_read(path))

    @pytest.mark.parametrize("bad_row", [0, 150, 299])
    def test_a_range_that_is_not_plain(self, tmp_path, forked, bad_row):
        path = ranged_file(tmp_path, bad_row)
        assert fileio._plain_preferences(path) is None
        assert len(forked) == 2
        assert_reaped(forked)

    @pytest.mark.parametrize(
        "failure", ["raises", "killed", "killed after a partial spool", "no fork", "no spool"]
    )
    def test_a_child_that_fails_has_its_range_read_here(self, tmp_path, forked, failure):
        path = ranged_file(tmp_path)
        want = serial_read(path)
        parent, read, send = os.getpid(), fileio._plain_range, fileio._send

        def child_read(*args, **kwargs):
            if os.getpid() != parent and failure == "raises":
                raise OSError("child")
            if os.getpid() != parent and failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return read(*args, **kwargs)

        def child_send(spool, part):
            if os.getpid() != parent:  # the head and a few label bytes
                stream = io.BytesIO()
                send(stream, part)
                spool.write(stream.getvalue()[: fileio._HEAD.size + 5])
                spool.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            send(spool, part)

        def no_fork():
            raise BlockingIOError("no process to spare")

        def no_spool(**kwargs):
            raise PermissionError("no spool")

        with mock.patch.object(fileio, "_plain_range", child_read), \
                mock.patch.object(fileio, "_send", child_send if "partial" in failure else send), \
                mock.patch.object(os, "fork", no_fork if failure == "no fork" else os.fork), \
                mock.patch.object(tempfile, "TemporaryFile",
                                  no_spool if failure == "no spool" else tempfile.TemporaryFile):
            got = fileio._plain_preferences(path)
        assert len(forked) == (0 if failure.startswith("no ") else 2)
        assert_reaped(forked)
        assert same_columns(got, want)

    @pytest.mark.parametrize("how", ["replaced", "samestat false in the child"])
    def test_a_path_that_stops_naming_the_file_has_its_range_read_here(
        self, tmp_path, forked, how
    ):
        # the children open the path anew: one that names another file by
        # then reads nothing of it, and its range is read from this
        # process's handle
        path = ranged_file(tmp_path)
        want = serial_read(path)
        parent, ranges, samestat = os.getpid(), fileio._ranges, os.path.samestat
        read, read_here = fileio._plain_range, []

        def then_replaced(handle, limit):
            cuts = ranges(handle, limit)
            if how == "replaced":  # as many bytes, other scores
                other = tmp_path / "other.csv"
                other.write_bytes(path.read_bytes().replace(b".", b"0"))
                os.replace(other, path)
            return cuts

        def recorded(handle, start, stop, **kwargs):
            if os.getpid() == parent:
                read_here.append(start)
            return read(handle, start, stop, **kwargs)

        def child_samestat(a, b):
            return samestat(a, b) and (how == "replaced" or os.getpid() == parent)

        with mock.patch.object(fileio, "_ranges", then_replaced), \
                mock.patch.object(fileio, "_plain_range", recorded), \
                mock.patch.object(os.path, "samestat", child_samestat):
            got = fileio._plain_preferences(path)
        assert len(forked) == 2
        assert_reaped(forked)
        assert len(read_here) == 3  # every range, the children's too
        assert same_columns(got, want)

    def test_no_spool_is_left_behind(self, tmp_path, forked, monkeypatch):
        path = ranged_file(tmp_path)
        spools = tmp_path / "spools"
        spools.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spools))
        got = fileio._plain_preferences(path)
        assert len(forked) == 2
        assert_reaped(forked)
        assert same_columns(got, serial_read(path))
        assert os.listdir(spools) == []

    def test_nothing_forks_while_a_second_thread_runs(self, tmp_path, forked):
        path = ranged_file(tmp_path)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = fileio._plain_preferences(path)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forked
        assert same_columns(got, serial_read(path))

    def test_no_resource_warning(self, tmp_path):
        # every path closes its spools and handles: a plain file, a range
        # that is not plain, a child that raises and a spool that cannot
        # be made
        paths = [ranged_file(tmp_path), ranged_file(tmp_path, 150)]
        code = """
import gc, os, sys, tempfile
from unittest import mock
from tfrom import fileio
plain, not_plain = sys.argv[1:]
parent, read = os.getpid(), fileio._plain_range
def failing(*args, **kwargs):
    if os.getpid() != parent:
        raise OSError("child")
    return read(*args, **kwargs)
def refused(*args, **kwargs):
    raise OSError("refused")
with mock.patch.object(fileio, "_BLOCK", 1000), mock.patch.object(fileio, "_cores", lambda: 3):
    assert fileio._plain_preferences(plain) is not None
    assert fileio._plain_preferences(not_plain) is None
    with mock.patch.object(fileio, "_plain_range", failing):
        assert fileio._plain_preferences(plain) is not None
    with mock.patch.object(tempfile, "TemporaryFile", refused):
        assert fileio._plain_preferences(plain) is not None
gc.collect()
"""
        env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])}
        command = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code]
        done = subprocess.run(
            [*command, *map(str, paths)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0 and not done.stderr, done.stderr


@st.composite
def served_batches(draw):
    """Random batch or online (request, list) pairs over a small catalog."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        owners = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
        steps = draw(st.lists(st.integers(1, 3), min_size=len(owners), max_size=len(owners)))
        requests = [int(r) for r in np.cumsum(steps) - 1]
    else:
        owners = draw(st.permutations(range(m)))[: draw(st.integers(1, m))]
        requests = [None] * len(owners)
    served = [
        (req, tfrom.RecommendationList(owner=u, items=tuple(draw(st.permutations(range(n)))[:k])))
        for req, u in zip(requests, owners)
    ]
    return m, n, served


class TestRecommendationsRoundTrip:

    def test_offline_lists(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(4, 9, 3, seed=13)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        labels = index_labels(matrix.m, matrix.n)
        lists = [tfrom.top_k(originals[u], 4) for u in range(4)]
        path = tmp_path / "recommendations.csv"
        fileio.write_recommendations(path, [(None, rec) for rec in lists], matrix, catalog, labels)
        loaded = fileio.read_recommendations(path, matrix, catalog, labels)
        assert [rec.items for _, rec in loaded] == [rec.items for rec in lists]
        assert all(req is None for req, _ in loaded)

    def test_online_lists_keep_request_order(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(3, 6, 2, seed=14)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        labels = index_labels(matrix.m, matrix.n)
        served = [
            (0, tfrom.top_k(originals[1], 2)),
            (1, tfrom.top_k(originals[1], 2)),
            (2, tfrom.top_k(originals[0], 2)),
        ]
        path = tmp_path / "recommendations.csv"
        fileio.write_recommendations(path, served, matrix, catalog, labels)
        loaded = fileio.read_recommendations(path, matrix, catalog, labels)
        assert [(req, rec.owner, rec.items) for req, rec in loaded] == [
            (req, rec.owner, rec.items) for req, rec in served
        ]

    @settings(max_examples=60, deadline=None)
    @given(served_batches())
    def test_write_then_read_is_identity(self, case):
        m, n, served = case
        matrix, catalog = tfrom.build_instance(np.ones((m, n)), [i % 2 for i in range(n)])
        labels = index_labels(m, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "recommendations.csv"
            fileio.write_recommendations(path, served, matrix, catalog, labels)
            loaded = fileio.read_recommendations(path, matrix, catalog, labels)
        assert [(req, rec.owner, rec.items) for req, rec in loaded] == [
            (req, rec.owner, rec.items) for req, rec in served
        ]

    @pytest.mark.parametrize("online", [False, True])
    def test_labels_that_need_quoting(self, tmp_path, online):
        customers = ["a,b", 'say "hi"', "two\nlines", "plain"]
        items = ["i,1", '"q"', "new\nline", "cr\rhere", "\u00e9t\u00e9", " pad "]
        providers = ['p,"1"', "p\n2", "p3"]
        rng = np.random.default_rng(21)
        with open(tmp_path / "p.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["customer", "item", "score"])
            writer.writerows([u, i, rng.random() + 0.1] for u in customers for i in items)
        with open(tmp_path / "q.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["item", "provider"])
            writer.writerows([i, providers[j % 3]] for j, i in enumerate(items))
        assert fileio._plain_preferences(tmp_path / "p.csv") is None  # the row reader reads it
        matrix, catalog, labels = fileio.load_instance(tmp_path / "p.csv", tmp_path / "q.csv")
        assert labels.customers == tuple(customers)
        assert labels.items == tuple(item.strip() for item in items)
        originals = tfrom.original_rankings(matrix)
        run = tfrom.tfrom_offline(matrix, catalog, originals, 3, FairnessMode.UNIFORM, seed=2)
        served = [(u if online else None, rec) for u, rec in enumerate(run.lists)]
        path = tmp_path / "recommendations.csv"
        fileio.write_recommendations(path, served, matrix, catalog, labels)
        loaded = fileio.read_recommendations(path, matrix, catalog, labels)
        assert [(req, rec.owner, rec.items) for req, rec in loaded] == [
            (req, rec.owner, rec.items) for req, rec in served
        ]

    def test_metrics_survive_round_trip(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(5, 12, 3, seed=15)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        labels = index_labels(matrix.m, matrix.n)
        run = tfrom.tfrom_offline(matrix, catalog, originals, 4, FairnessMode.UNIFORM, seed=1)
        path = tmp_path / "recommendations.csv"
        fileio.write_recommendations(path, [(None, rec) for rec in run.lists], matrix, catalog, labels)
        loaded = [
            rec for _, rec in fileio.read_recommendations(path, matrix, catalog, labels)
        ]
        before = tfrom.exposure(run.lists, catalog).per_provider
        after = tfrom.exposure(loaded, catalog).per_provider
        assert after == approx(before, abs=1e-9)
        q_before = tfrom.total_quality(tfrom.quality(run.lists, matrix, originals))
        q_after = tfrom.total_quality(tfrom.quality(loaded, matrix, originals))
        assert q_after == approx(q_before, abs=1e-9)


class TestTraceWriting:
    def test_trace_format(self, tmp_path):
        rows = [
            tfrom.TraceRow(
                step=5,
                algorithm="topk",
                total_quality=4.0,
                ndcg_variance=0.0,
                ndcg_variance_all=0.0,
                exposure_variance=1.25,
                qw_ratio_variance=0.5,
            )
        ]
        path = tmp_path / "trace.csv"
        fileio.write_trace(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["step", "algorithm", "total_quality"]
        assert lines[1].startswith("5,topk,4,0,0,1.25,0.5")

    def test_empty_trace_writes_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        fileio.write_trace(path, [])
        names = [f.name for f in dataclasses.fields(tfrom.TraceRow)]
        assert path.read_bytes() == (",".join(names) + "\r\n").encode()


def bit_pattern_float(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, (1 << 64) - 1).map(bit_pattern_float),
    st.sampled_from([-0.0, 5e-324, 2.225e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]),
)
LABEL_CELLS = st.one_of(
    # csv before Python 3.11 refuses to write NUL without an escapechar
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    st.sampled_from(
        ["", " ", " a ", "a,b", 'say "hi"', '"', "x\ny", "x\ry", "\r\n", "\u00e9\u4e2d", "%d%s"]
    ),
)
CELLS = {"int": st.integers(-(1 << 63), (1 << 63) - 1), "float": FLOAT_CELLS, "label": LABEL_CELLS}


@st.composite
def tables(draw):
    """``(kinds, rows)``: a table of two to five columns, each of int, float
    or label cells."""
    kinds = draw(st.lists(st.sampled_from(list(CELLS)), min_size=2, max_size=5))
    rows = draw(st.lists(st.tuples(*(CELLS[kind] for kind in kinds)), max_size=12))
    return kinds, rows


class TestWriteTable:
    """``_write_table`` writes the bytes ``csv.writer`` writes, given floats
    through ``_fmt`` and labels as they are."""

    def both(self, directory, kinds, rows) -> tuple[bytes, bytes]:
        """The bytes ``_write_table`` writes, then the reference's."""
        header = [f"c{j}" for j in range(len(kinds))]
        reference = Path(directory) / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(
                [fileio._fmt(x) if kind == "float" else x for kind, x in zip(kinds, row)]
                for row in rows
            )
        columns = []
        for j, kind in enumerate(kinds):
            values = [row[j] for row in rows]
            if kind == "label":
                columns.append(("s", fileio._label_cells(values)))
            elif kind == "int":
                columns.append(("d", np.array(values, dtype=np.int64)))
            else:
                columns.append((fileio._FLOAT, np.array(values, dtype=np.float64)))
        blocks = Path(directory) / "blocks.csv"
        fileio._write_table(blocks, header, columns)
        return blocks.read_bytes(), reference.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(tables(), st.sampled_from([1, 2, 5, 1 << 16]), st.integers(1, 3))
    @example((["int", "label"], []), 1 << 16, 1)
    @example((["label", "float"], [("", -0.0), (" a,b ", 5e-324), ('"\r\n"', math.nan)]), 1, 3)
    def test_matches_csv_writer(self, table, rows_per_block, cores):
        # on 2 or 3 cores, 2 or more blocks of rows are written in ranges
        kinds, rows = table
        with mock.patch.object(fileio, "_ROWS", rows_per_block), \
                mock.patch.object(fileio, "_cores", lambda: cores):
            with tempfile.TemporaryDirectory() as tmp:
                ours, reference = self.both(tmp, kinds, rows)
        assert ours == reference

    def test_more_rows_than_one_block(self, tmp_path):
        rng = np.random.default_rng(3)
        count = fileio._ROWS + 5
        floats = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        floats[:8] = [-0.0, 5e-324, 2.225e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]
        labels = rng.choice(["a,b", 'say "hi"', "x\ny", "", " pad ", "\u00e9"], count)
        ints = rng.integers(-(1 << 63), (1 << 63) - 1, count)
        rows = list(zip(ints.tolist(), floats.tolist(), labels.tolist()))
        ours, reference = self.both(tmp_path, ["int", "float", "label"], rows)
        assert ours == reference


def ranged_table():
    """The header and columns of a table of 300 rows, ints, floats and
    labels, some quoted and some not ASCII."""
    r = np.arange(300)
    labels = fileio._label_cells(["a,b", "plain", "\u00e9", 'say "hi"', ""])[r % 5]
    return ["id", "score", "label"], [("d", r * 7 - 900), (fileio._FLOAT, r / 7), ("s", labels)]


def serial_write(path, header, columns):
    with mock.patch.object(fileio, "_cores", lambda: 1):
        fileio._write_table(path, header, columns)
    return path.read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWritersOnEveryCore:
    """The row ranges of a table after the first are formatted in forked
    children, each reaped before ``_write_table`` returns or raises, and
    the table's directory holds the table alone afterwards."""

    @pytest.fixture(autouse=True)
    def ranges(self, forked, monkeypatch):
        # blocks of 40 rows on 3 cores: ranged_table is written in three ranges
        monkeypatch.setattr(fileio, "_ROWS", 40)

    def test_ranges_written_in_children_give_the_serial_write(self, tmp_path, forked):
        header, columns = ranged_table()
        want = serial_write(tmp_path / "serial.csv", header, columns)
        assert not forked
        parent, write, written_here = os.getpid(), fileio._write_rows, []

        def recorded(handle, start, stop, **kwargs):
            if os.getpid() == parent:
                written_here.append((start, stop))
            return write(handle, start, stop, **kwargs)

        path = tmp_path / "out" / "table.csv"
        path.parent.mkdir()
        with mock.patch.object(fileio, "_write_rows", recorded):
            fileio._write_table(path, header, columns)
        assert len(forked) == 2
        assert_reaped(forked)
        assert written_here == [(0, 100)]  # the first range only
        assert path.read_bytes() == want
        assert os.listdir(path.parent) == ["table.csv"]

    @pytest.mark.parametrize("failure", ["raises", "killed", "no fork", "no spool"])
    def test_a_child_that_fails_has_its_range_written_here(self, tmp_path, forked, failure):
        header, columns = ranged_table()
        want = serial_write(tmp_path / "serial.csv", header, columns)
        parent, write = os.getpid(), fileio._write_rows

        def child_write(handle, start, stop, **kwargs):
            if os.getpid() != parent and failure == "raises":
                raise OSError("child")
            if os.getpid() != parent:  # a few rows in the spool, then killed
                write(handle, start, start + 5, **kwargs)
                handle.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            return write(handle, start, stop, **kwargs)

        def no_fork():
            raise BlockingIOError("no process to spare")

        def no_spool(**kwargs):
            raise PermissionError("no spool")

        path = tmp_path / "out" / "table.csv"
        path.parent.mkdir()
        with mock.patch.object(fileio, "_write_rows", child_write), \
                mock.patch.object(os, "fork", no_fork if failure == "no fork" else os.fork), \
                mock.patch.object(tempfile, "TemporaryFile",
                                  no_spool if failure == "no spool" else tempfile.TemporaryFile):
            fileio._write_table(path, header, columns)
        assert len(forked) == (2 if failure in ("raises", "killed") else 0)
        assert_reaped(forked)
        assert path.read_bytes() == want
        assert os.listdir(path.parent) == ["table.csv"]

    def test_the_error_of_a_serial_write_with_every_child_reaped(self, tmp_path, forked):
        # a label that UTF-8 cannot encode, in the first range and in the
        # last: the caller raises what a serial write raises
        header, columns = ranged_table()
        labels = columns[2][1].copy()
        labels[[3, 290]] = "\ud800"
        columns[2] = ("s", labels)
        with pytest.raises(UnicodeEncodeError) as serial:
            serial_write(tmp_path / "serial.csv", header, columns)
        path = tmp_path / "out" / "table.csv"
        path.parent.mkdir()
        with pytest.raises(UnicodeEncodeError) as ranged:
            fileio._write_table(path, header, columns)
        assert str(ranged.value) == str(serial.value)
        assert len(forked) == 2
        assert_reaped(forked)
        # the table is written beside its path and removed: no part of it is left
        assert os.listdir(path.parent) == []

    def test_nothing_forks_while_a_second_thread_runs(self, tmp_path, forked):
        header, columns = ranged_table()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            fileio._write_table(tmp_path / "table.csv", header, columns)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forked
        assert (tmp_path / "table.csv").read_bytes() == serial_write(
            tmp_path / "serial.csv", header, columns
        )

    def test_no_resource_warning(self, tmp_path):
        # every path closes its spools and handles: ranges in children, a
        # child that raises, a spool that cannot be made, a fork that fails
        code = """
import gc, os, sys, tempfile
from unittest import mock
import numpy as np
from tfrom import fileio
parent, write = os.getpid(), fileio._write_rows
def failing(*args, **kwargs):
    if os.getpid() != parent:
        raise OSError("child")
    return write(*args, **kwargs)
def refused(*args, **kwargs):
    raise OSError("refused")
r = np.arange(300)
columns = [("d", r), (fileio._FLOAT, r / 7)]
def wrote(name):
    fileio._write_table(os.path.join(sys.argv[1], name), ["a", "b"], columns)
with mock.patch.object(fileio, "_ROWS", 40), mock.patch.object(fileio, "_cores", lambda: 3):
    wrote("children.csv")
    with mock.patch.object(fileio, "_write_rows", failing):
        wrote("failing.csv")
    with mock.patch.object(tempfile, "TemporaryFile", refused):
        wrote("no-spool.csv")
    with mock.patch.object(os, "fork", refused):
        wrote("no-fork.csv")
gc.collect()
"""
        env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])}
        command = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code]
        done = subprocess.run(
            [*command, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0 and not done.stderr, done.stderr
        tables = [path.read_bytes() for path in sorted(tmp_path.iterdir())]
        assert len(tables) == 4 and len(set(tables)) == 1


class TestWholeOrNothing:
    """A table or a summary replaces its path only once it is complete."""

    def unencodable(self):
        header, columns = ranged_table()
        labels = columns[2][1].copy()
        labels[290] = "\ud800"
        return header, columns[:2] + [("s", labels)]

    @pytest.mark.parametrize("cores", [1, 3])
    def test_a_failed_rewrite_leaves_the_table_as_it_was(self, tmp_path, monkeypatch, cores):
        monkeypatch.setattr(fileio, "_ROWS", 40)
        monkeypatch.setattr(fileio, "_cores", lambda: cores)
        path = tmp_path / "table.csv"
        header, columns = ranged_table()
        fileio._write_table(path, header, columns)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            fileio._write_table(path, *self.unencodable())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_a_failed_summary_leaves_the_old_one(self, tmp_path):
        path = tmp_path / "summary.json"
        fileio.write_summary(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            fileio.write_summary(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["summary.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            fileio._write_table(tmp_path / "table.csv", *ranged_table())
            fileio.write_summary(tmp_path / "summary.json", {})
        finally:
            os.umask(old)
        want = os.stat(tmp_path / "plain").st_mode
        assert want == stat.S_IFREG | (0o666 & ~umask)
        for name in ("table.csv", "summary.json"):
            assert os.stat(tmp_path / name).st_mode == want


class TestBoundaries:
    """The exact limits and first-of-several rules of the readers and
    writers."""

    @pytest.mark.parametrize("limit, plain", [(20, True), (19, False)])
    def test_a_line_as_long_as_the_field_limit_is_plain(self, tmp_path, limit, plain):
        # header and data line are 20 bytes each, their LF included
        preferences = tmp_path / "p.csv"
        preferences.write_bytes(b"customer,item,score\nu,i,0.1234567890123\n")
        old = csv.field_size_limit(limit)
        try:
            read = fileio._plain_preferences(preferences)
        finally:
            csv.field_size_limit(old)
        assert (read is not None) == plain
        if plain:
            assert read[:2] == (("u",), ("i",)) and read[4].tolist() == [0.1234567890123]

    @pytest.mark.parametrize("limit, plain", [(22, True), (21, False)])
    def test_a_header_as_long_as_the_field_limit_is_plain(self, tmp_path, limit, plain):
        # a 22-byte header, its LF included, and a short line
        preferences = tmp_path / "p.csv"
        preferences.write_bytes(b"customer,item,score,x\nu,i,1,n\n")
        old = csv.field_size_limit(limit)
        try:
            assert (fileio._plain_preferences(preferences) is not None) == plain
        finally:
            csv.field_size_limit(old)

    def test_repeated_pairs_warn_in_file_order(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu0,i0,1\nu1,i1,1\nu0,i0,2\nu1,i1,2\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni0,a\ni1,a\n")
        for plain in (True, False):
            with mock.patch.object(fileio, "_plain_preferences", fileio._plain_preferences
                                   if plain else (lambda path: None)):
                (_, scores, *_), caught = load_outcome(preferences, providers)
            assert [message for _, message in caught] == [
                "duplicate rating for customer 'u0', item 'i0'; keeping the last value",
                "duplicate rating for customer 'u1', item 'i1'; keeping the last value",
            ]
            assert np.frombuffer(scores).tolist() == [2.0, 0.0, 0.0, 2.0]

    def test_a_file_of_one_repeated_pair_warns(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score\nu0,i0,1\nu0,i0,2\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni0,a\n")
        (_, scores, *_), caught = load_outcome(preferences, providers)
        assert [message for _, message in caught] == [
            "duplicate rating for customer 'u0', item 'i0'; keeping the last value"
        ]
        assert np.frombuffer(scores).tolist() == [2.0]

    def test_first_missing_column_named(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,note\nu1,n\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError, match="missing required column 'item'"):
            fileio.load_instance(preferences, providers)

    def test_first_repeated_column_named(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score,score,item\nu1,i1,1,1,i1\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError, match="column 'item' occurs more than once"):
            fileio.load_instance(preferences, providers)

    def test_an_unrated_item_is_written_once_for_customer_0(self, tmp_path):
        scores = np.array([[1.0, 0.0, 0.5], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        preferences, _ = fileio.write_instance_files(scores, ["a", "b", "a"], tmp_path)
        assert preferences.read_text().splitlines() == [
            "customer,item,score", "0,0,1", "0,1,0", "0,2,0.5", "1,0,2", "2,2,3",
        ]

    def test_first_item_without_a_provider_named(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score\nu,i0,1\nu,i1,1\nu,i2,1\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni0,a\n")
        with pytest.raises(errors.MissingProviderForItem, match="item 'i1' has no provider"):
            fileio.load_instance(preferences, providers)

    def test_falling_request_names_both_customers(self, tmp_path):
        matrix, catalog = tfrom.build_instance([[1.0, 2.0], [2.0, 1.0]], ["a", "b"])
        path = write(tmp_path / "r.csv", "request,customer,rank,item\n3,c0,1,i0\n2,c1,1,i1\n")
        labels = fileio.InstanceLabels(customers=("c0", "c1"), items=("i0", "i1"))
        with pytest.raises(errors.ParseError) as info:
            fileio.read_recommendations(path, matrix, catalog, labels)
        assert "request 2 for customer 'c1' after request 3 for customer 'c0'" in str(info.value)
        assert info.value.line == 3
