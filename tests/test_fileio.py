import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

import tfrom
from tfrom import errors, fileio
from tfrom.targets import FairnessMode


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInstance:
    def test_minimal_round_trip(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv",
            "customer,item,score\nu1,i1,0.5\nu1,i2,1.5\nu2,i1,2.0\nu2,i2,0.25\n",
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,acme\ni2,zeta\n")
        matrix, catalog, labels = tfrom.load_instance(preferences, providers)
        assert matrix.m == 2 and matrix.n == 2
        assert labels.customers == ("u1", "u2")
        assert labels.items == ("i1", "i2")
        assert labels.providers == ("acme", "zeta")
        assert matrix.scores.tolist() == [[0.5, 1.5], [2.0, 0.25]]

    def test_sparse_triplets_densified_with_zeros(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu2,i2,2.0\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        matrix, _, _ = tfrom.load_instance(preferences, providers)
        assert matrix.scores.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_missing_provider(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu1,i2,2.0\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.MissingProviderForItem):
            tfrom.load_instance(preferences, providers)

    def test_unknown_item_in_provider_file(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\nghost,a\n")
        with pytest.raises(errors.UnknownItemInProviderFile):
            tfrom.load_instance(preferences, providers)

    def test_duplicate_triplet_keeps_last_and_warns(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv",
            "customer,item,score\nu1,i1,1.0\nu1,i2,9.0\nu1,i1,2.0\n",
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        with pytest.warns(errors.DuplicateTripletWarning):
            matrix, _, _ = tfrom.load_instance(preferences, providers)
        assert matrix.scores[0, 0] == 2.0

    def test_parse_error_reports_line(self, tmp_path):
        preferences = write(
            tmp_path / "p.csv", "customer,item,score\nu1,i1,1.0\nu1,i2,not-a-number\n"
        )
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\ni2,a\n")
        with pytest.raises(errors.ParseError) as info:
            tfrom.load_instance(preferences, providers)
        assert info.value.line == 3

    def test_missing_column(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "customer,item\nu1,i1\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError):
            tfrom.load_instance(preferences, providers)

    def test_empty_file(self, tmp_path):
        preferences = write(tmp_path / "p.csv", "")
        providers = write(tmp_path / "q.csv", "item,provider\n")
        with pytest.raises(errors.ParseError):
            tfrom.load_instance(preferences, providers)

    @pytest.mark.parametrize("score", ["1_5", "\u0661\u0665", "\uff11\uff15"])
    def test_lenient_score_rejected(self, tmp_path, score):
        # Python's float() reads each of these as 15.0
        preferences = write(tmp_path / "p.csv", f"customer,item,score\nu1,i1,{score}\n")
        providers = write(tmp_path / "q.csv", "item,provider\ni1,a\n")
        with pytest.raises(errors.ParseError, match=f"score {score!r} is not a number") as info:
            tfrom.load_instance(preferences, providers)
        assert info.value.line == 2

    def test_generated_files_round_trip_exactly(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(6, 15, 4, seed=11)
        preferences, providers = tfrom.write_instance_files(scores, assignments, tmp_path)
        matrix, catalog, _ = tfrom.load_instance(preferences, providers)
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
            [labels.providers[p] for p in catalog.provider_of],
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
            matrix, catalog, labels = tfrom.load_instance(preferences, providers)
        customers = [int(label) for label in labels.customers]
        items = [int(label) for label in labels.items]
        assert sorted(customers) == list(range(scores.shape[0]))
        assert sorted(items) == list(range(scores.shape[1]))
        assert np.array_equal(matrix.scores, scores[np.ix_(customers, items)])
        loaded = [labels.providers[p] for p in catalog.provider_of]
        assert loaded == [str(assignments[i]) for i in items]



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
        labels = tfrom.default_labels(matrix.m, matrix.n, catalog.l)
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
        labels = tfrom.default_labels(matrix.m, matrix.n, catalog.l)
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
        labels = tfrom.default_labels(m, n, catalog.l)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "recommendations.csv"
            fileio.write_recommendations(path, served, matrix, catalog, labels)
            loaded = fileio.read_recommendations(path, matrix, catalog, labels)
        assert [(req, rec.owner, rec.items) for req, rec in loaded] == [
            (req, rec.owner, rec.items) for req, rec in served
        ]

    def test_metrics_survive_round_trip(self, tmp_path):
        scores, assignments = tfrom.generate_synthetic(5, 12, 3, seed=15)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        labels = tfrom.default_labels(matrix.m, matrix.n, catalog.l)
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
