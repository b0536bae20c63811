import os
import re
import sys
import threading
import time
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import tfrom
from tfrom import errors, metrics, model


class TestBuildInstance:
    def test_minimal_two_by_two(self):
        matrix, catalog = tfrom.build_instance([[1, 2], [3, 4]], [0, 1])
        assert matrix.m == 2 and matrix.n == 2
        assert catalog.l == 2
        assert catalog.provider_of.tolist() == [0, 1]
        assert catalog.sizes.tolist() == [1, 1]

    def test_nan_rejected(self):
        with pytest.raises(errors.NonFiniteScore):
            tfrom.build_instance([[1.0, float("nan")]], [0, 0])

    def test_infinity_rejected(self):
        with pytest.raises(errors.NonFiniteScore):
            tfrom.build_instance([[1.0, float("inf")]], [0, 0])

    def test_negative_rejected(self):
        with pytest.raises(errors.NegativeScore):
            tfrom.build_instance([[1.0, -0.5]], [0, 0])

    def test_all_zero_row_rejected(self):
        with pytest.raises(errors.EmptyRow):
            tfrom.build_instance([[0, 0, 0]], [0, 0, 0])

    def test_assignment_length_mismatch(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.build_instance([[1, 2]], [0])

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([[1, 1], [np.nan, 1], [1, np.inf]], errors.NonFiniteScore,
             r"^score at \(customer 1, item 0\) is not finite$"),
            # the zero before the first negative is no negative
            ([[1, 0], [-1, 1], [1, -2]], errors.NegativeScore,
             r"^score at \(customer 1, item 0\) is negative$"),
            ([[1, 1], [0, 0], [0, 0]], errors.EmptyRow,
             "^customer 1 has no positive relevance score$"),
        ],
        ids=["non-finite", "negative", "empty-row"],
    )
    def test_first_bad_cell_named(self, grid, error, message):
        with pytest.raises(error, match=message):
            tfrom.build_instance(grid, [0, 0])

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (3,)])
    def test_empty_or_flat_grid_rejected(self, shape):
        message = re.escape(f"non-empty 2-d score grid, got shape {shape}")
        with pytest.raises(errors.InvalidShape, match=message):
            tfrom.build_instance(np.ones(shape), [0] * shape[-1])

    def test_provider_compaction_keeps_labels(self):
        # gap in the external ids disappears; labels preserved in
        # first-appearance order
        _, catalog = tfrom.build_instance([[1, 2, 3]], [0, 2, 2])
        assert catalog.l == 2
        assert catalog.provider_labels == (0, 2)
        assert list(catalog.provider_of) == [0, 1, 1]

    def test_string_labels(self):
        _, catalog = tfrom.build_instance([[1, 2]], ["acme", "zeta"])
        assert catalog.provider_labels == ("acme", "zeta")

    def test_catalog_consistency(self):
        rng = np.random.default_rng(3)
        scores = 1.0 - rng.random((4, 9))
        assignments = rng.integers(0, 4, size=9)
        assignments[:4] = np.arange(4)
        _, catalog = tfrom.build_instance(scores, assignments)
        assert int(catalog.sizes.sum()) == catalog.n
        for p in range(catalog.l):
            items = np.flatnonzero(catalog.provider_of == p)
            assert len(items) >= 1
            assert len(items) == catalog.sizes[p]
            assert (assignments[items] == assignments[items[0]]).all()


class TestOriginalRanking:
    def test_tie_broken_by_ascending_id(self):
        matrix, _ = tfrom.build_instance([[0.2, 0.9, 0.9, 0.1]], [0, 0, 0, 0])
        assert list(tfrom.original_ranking(matrix, 0).items) == [1, 2, 0, 3]

    def test_singleton(self):
        matrix, _ = tfrom.build_instance([[5.0]], [0])
        assert list(tfrom.original_ranking(matrix, 0).items) == [0]

    def test_strict_reverse(self):
        matrix, _ = tfrom.build_instance([[1, 2, 3]], [0, 0, 0])
        assert list(tfrom.original_ranking(matrix, 0).items) == [2, 1, 0]

    def test_unknown_customer(self):
        matrix, _ = tfrom.build_instance([[1.0]], [0])
        with pytest.raises(errors.UnknownCustomer):
            tfrom.original_ranking(matrix, 1)

    @pytest.mark.parametrize("u", [1.5, np.float64(0), "0", None, True])
    def test_customer_id_must_be_an_integer(self, u):
        # True used to give customer 1's ranking, owned by True
        matrix, _ = tfrom.build_instance([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        with pytest.raises(errors.UnknownCustomer, match="must be an integer"):
            tfrom.original_ranking(matrix, u)

    def test_negative_customer_id_rejected(self):
        matrix, _ = tfrom.build_instance([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        with pytest.raises(errors.UnknownCustomer, match="customer id must be >= 0, got -1"):
            tfrom.original_ranking(matrix, -1)

    @pytest.mark.parametrize("u", [np.int64(1), np.uint16(1)])
    def test_numpy_integer_customer_id_accepted(self, u):
        matrix, _ = tfrom.build_instance([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        ranked = tfrom.original_ranking(matrix, u)
        assert ranked.owner == 1
        assert ranked.items.tobytes() == tfrom.original_ranking(matrix, 1).items.tobytes()

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_ranking_is_a_permutation_with_sorted_scores(self, row):
        if not any(x > 0 for x in row):
            row[0] = 1.0
        matrix, _ = tfrom.build_instance([row], [0] * len(row))
        ranked = tfrom.original_ranking(matrix, 0)
        assert sorted(ranked.items) == list(range(len(row)))
        values = [row[i] for i in ranked.items]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(11)
        matrix, _ = tfrom.build_instance(
            1.0 - rng.random((3, 7)), rng.integers(0, 2, size=7)
        )
        first = tfrom.original_ranking(matrix, 1)
        second = tfrom.original_ranking(matrix, 1)
        assert list(first.items) == list(second.items)


class TestOriginalRankings:
    """One read-only sequence per matrix, which builds a customer's ranking
    when it is first indexed and keeps it."""

    def instance(self, m=5):
        rng = np.random.default_rng(3)
        return tfrom.build_instance(1.0 - rng.random((m, 4)), [0, 1, 0, 1])

    def test_no_ranking_built_until_indexed(self, monkeypatch):
        built = []
        real = model.RankedList
        monkeypatch.setattr(
            model, "RankedList", lambda **fields: built.append(fields["owner"]) or real(**fields)
        )
        matrix, catalog = self.instance()
        rankings = tfrom.original_rankings(matrix)
        assert built == [] and "order" in vars(matrix)
        rankings[3], rankings[3], rankings[1]
        assert built == [3, 1]
        # the re-rankers and quality take the matrix's own sequence whole
        run = tfrom.tfrom_offline(matrix, catalog, rankings, 2, tfrom.FairnessMode.UNIFORM, seed=0)
        tfrom.quality(run.lists, matrix, rankings)
        state = tfrom.OnlineState.fresh(matrix.m, catalog.l)
        tfrom.serve_request(state, 3, matrix, catalog, rankings[3], 2, tfrom.FairnessMode.UNIFORM)
        assert built == [3, 1]

    def test_one_kept_object_per_customer(self):
        matrix, _ = self.instance()
        rankings = tfrom.original_rankings(matrix)
        assert tfrom.original_rankings(matrix) is rankings
        first = rankings[2]
        assert rankings[2] is first is tfrom.original_ranking(matrix, 2)
        assert first.owner == 2 and first.items.tobytes() == matrix.order[2].tobytes()

    def test_sequence_rules(self):
        matrix, _ = self.instance()
        rankings = tfrom.original_rankings(matrix)
        assert isinstance(rankings, Sequence) and not isinstance(rankings, list)
        assert rankings[-1] is rankings[4] and rankings[-1].owner == 4
        assert rankings[np.int64(-5)] is rankings[0]
        for u in (5, -6):
            with pytest.raises(IndexError, match=f"^customer {u} outside universe of size 5$"):
                rankings[u]
        with pytest.raises(TypeError):
            rankings[1.0]
        with pytest.raises(TypeError):
            rankings[0] = rankings[1]
        part = rankings[1:4:2]
        assert type(part) is list and [r.owner for r in part] == [1, 3]
        assert part[0] is rankings[1]
        assert len(rankings) == 5
        assert [r.owner for r in rankings] == list(range(5))
        assert all(a is b for a, b in zip(rankings, rankings[:]))

    def test_threads_indexing_the_same_customers_get_rankings_that_pass(self):
        matrix, _ = self.instance(m=300)
        rankings = tfrom.original_rankings(matrix)
        got, wrong = [[] for _ in range(4)], []
        start = threading.Barrier(4)

        def read(out):
            try:
                start.wait(timeout=60)
                out.extend(rankings[u] for u in range(matrix.m))
            except Exception as exc:  # an error in a thread would only warn
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        for out in got:
            assert len(out) == matrix.m
            for u, ranked in enumerate(out):
                model._check_original(matrix, ranked, u)
                assert ranked is rankings[u]


@st.composite
def tie_heavy_grids(draw):
    """Scores in {0, 1, 2}, whole columns zero, at least one positive score
    per row; with a block size for ``PreferenceMatrix.order``."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    zero_columns = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zero_columns[draw(st.integers(0, n - 1))] = False
    cell = st.sampled_from([0.0, 1.0, 2.0])
    scores = np.array(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    scores[:, zero_columns] = 0.0
    live = np.flatnonzero(~np.array(zero_columns))
    for u in range(m):
        if not (scores[u] > 0).any():
            scores[u, draw(st.sampled_from(live.tolist()))] = 1.0
    return scores, draw(st.integers(1, m * n))


SCORE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0]),
    st.floats(0, 4),  # subnormals included
    st.floats(0, 4, width=32).map(float),
)
# valid cells and those a matrix refuses (NaN, inf, negative); rows of zeros get drawn too
HAND_BUILT_CELLS = st.one_of(
    SCORE_CELLS, st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.5, -5e-324, -2.0])
)


@st.composite
def order_grids(draw, cells=SCORE_CELLS):
    """(scores, block size): up to 4 rows of n in {1, 2, 3, 17, 256, 257}
    cells, each row a drawn head of cells repeated to length n (exact ties)
    with a few cells moved one ulp up (near ties, which share their key's
    high bits); with ``SCORE_CELLS`` every row holds a positive score."""
    n = draw(st.sampled_from([1, 2, 3, 17, 256, 257]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = np.resize(np.array(draw(st.lists(cells, min_size=1, max_size=12))), n)
        nudged = draw(st.lists(st.integers(0, n - 1), max_size=4))
        row[nudged] = np.nextafter(row[nudged], np.inf)
        if cells is SCORE_CELLS and not (row > 0).any():
            row[draw(st.integers(0, n - 1))] = 1.0
        rows.append(row)
    return np.array(rows), draw(st.sampled_from([1, n, 2 * n + 1, 1 << 16]))


def assert_stable_order(matrix, scores, block):
    with mock.patch.object(model, "_ORDER_BLOCK", block):
        order = matrix.order
    expected = oracles.stable_order(scores, block)
    assert order.dtype == expected.dtype
    assert order.tobytes() == expected.tobytes()


class TestOrder:
    @settings(max_examples=150, deadline=None)
    @given(order_grids())
    @example((np.array([[1.0, 1.0 + 2**-52]]), 1 << 16))  # a near tie, smaller id first
    @example((np.array([[0.0, -0.0, 0.0, 5e-324]]), 1 << 16))
    def test_bit_identical_to_the_stable_argsort(self, grid):
        scores, block = grid
        matrix, _ = tfrom.build_instance(scores, [0] * scores.shape[1])
        assert_stable_order(matrix, scores, block)

    @settings(max_examples=150, deadline=None)
    @given(order_grids(HAND_BUILT_CELLS))
    @example((np.array([[np.nan, 1.0, 2.0], [-1.0, 0.0, -0.0], [np.inf, -np.inf, np.inf]]), 6))
    @example((np.array([[1.0, 2.0], [-0.0, 0.0]]), 1 << 16))
    def test_hand_built_nan_inf_and_negative_scores(self, grid):
        # a hand-built matrix is checked as the builder checks it: a grid
        # with NaN, inf, a negative score or a row without a positive one
        # is refused with the builder's error and message, and so never
        # reaches order; any other orders as the stable argsort
        scores, block = grid
        invalid = not np.isfinite(scores).all() or (scores < 0).any() or not (
            (scores > 0).any(axis=1).all()
        )
        try:
            matrix = model.PreferenceMatrix(scores)
        except errors.ValidationError as exc:
            assert invalid
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                tfrom.build_instance(scores, [0] * scores.shape[1])
        else:
            assert not invalid
            assert_stable_order(matrix, scores, block)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8, ">f8"])
    def test_scores_that_are_not_float64_take_the_stable_argsort(self, dtype):
        # scores of another dtype, read-only or not, are kept as a read-only
        # float64 copy and order as those floats do: negated uint8 scores
        # used to wrap, which ranked the zero-score item first
        scores = np.array([[3, 1, 0, 2], [0, 2, 2, 1], [1, 1, 1, 3]], dtype=dtype)
        scores.setflags(write=False)
        matrix = model.PreferenceMatrix(scores)
        assert matrix.scores.dtype == np.float64 and not matrix.scores.flags.writeable
        with mock.patch.object(model, "_stable_order", wraps=model._stable_order) as stable:
            assert_stable_order(matrix, scores.astype(np.float64), 8)
        assert stable.call_count == 0  # both blocks of two rows take the keyed sort
        assert matrix.order.tolist() == [[0, 3, 1, 2], [1, 2, 3, 0], [3, 0, 1, 2]]

    def test_which_rows_take_the_stable_argsort(self):
        near = 1.0 + 2**-52  # 1.0 in every bit above the two low ones
        scores = np.array([
            [0.3, 0.2, 0.1, 0.4],
            [1.0, near, 0.5, 0.2],  # near tie, smaller score at the smaller id
            [0.5, 5e-324, 1e-323, 0.2],  # subnormals 1 and 2 ulp: a near tie
            [0.0, 5e-324, 0.5, 0.2],  # zero and the least subnormal: a near tie
            [1.0, 1.0, 1.0, 0.2],  # exact ties
            [near, 1.0, 0.5, -0.0],  # near tie in order, and -0.0
        ])
        with mock.patch.object(model, "_stable_order", wraps=model._stable_order) as stable:
            assert_stable_order(model.PreferenceMatrix(scores), scores, 1 << 16)
        (rows,), _ = stable.call_args
        assert stable.call_count == 1
        assert rows.tobytes() == scores[1:4].tobytes()

    def test_a_block_whose_first_row_is_sparse_takes_the_stable_argsort(self):
        # blocks of two rows of 16: a first row with fewer than 2 nonzero
        # scores in 16 sends its block to the stable argsort whole
        scores = np.tile(np.arange(16.0), (6, 1))
        scores[0] = scores[2] = 0.0
        scores[0, 5] = 1.0  # 1 in 16: stable
        scores[2, [5, 9]] = 1.0  # 2 in 16: keyed
        scores[5, 4] = np.nextafter(3.0, 4.0)  # a near tie after 3.0: fails the check
        with mock.patch.object(model, "_stable_order", wraps=model._stable_order) as stable:
            assert_stable_order(model.PreferenceMatrix(scores), scores, 32)
        called = [rows.tobytes() for (rows,), _ in stable.call_args_list]
        assert called == [scores[0:2].tobytes(), scores[5:6].tobytes()]

    @pytest.mark.parametrize("row", [
        [1.0] * 39 + [1.0 + 2**-52],  # a near tie after the ties: fails the check
        [0.0] * 39 + [1.0],  # sparse
    ])
    def test_stable_rows_keep_long_ties_in_id_order(self, row):
        # past numpy's small-sort cutoff an unstable argsort reorders ties
        scores = np.array([row, np.arange(40.0)])
        assert_stable_order(model.PreferenceMatrix(scores), scores, 1 << 16)

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_grids())
    @example((np.array([[0.0, 2.0, 0.0, 2.0]]), 1))  # m=1, zero columns, ties
    @example((np.array([[1.0], [2.0], [1.0]]), 1))  # n=1, one row per block
    @example((np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), 4))  # block ends mid-matrix
    def test_rows_match_oracle(self, grid):
        scores, block = grid
        matrix, _ = tfrom.build_instance(scores, [0] * scores.shape[1])
        with mock.patch.object(model, "_ORDER_BLOCK", block):
            order = matrix.order
        for u in range(matrix.m):
            assert order[u].tolist() == oracles._original_order(scores[u].tolist())

    def test_crosses_a_block_boundary(self):
        n = 1000
        rows = model._ORDER_BLOCK // n
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 3, size=(rows + 1, n)).astype(np.float64)
        scores[:, 0] = 1.0
        matrix, _ = tfrom.build_instance(scores, [0] * n)
        for u in (0, rows - 1, rows):
            assert matrix.order[u].tolist() == oracles._original_order(scores[u].tolist())

    def test_computed_once(self):
        matrix, _ = tfrom.build_instance([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        assert matrix.order is matrix.order

    @pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_smallest_unsigned_type_that_holds_every_item(self, n, dtype):
        scores = np.arange(1.0, n + 1.0)[None, :]
        matrix, _ = tfrom.build_instance(scores, [0] * n)
        assert matrix.order.dtype == dtype
        assert matrix.order[0].tolist() == list(range(n - 1, -1, -1))

    def test_hand_built_matrix_keeps_its_own_scores(self):
        # writing the caller's array later, before or after the first use
        # of order and the queues, changes none of them
        scores = np.array([[1.0, 2.0], [2.0, 1.0]])
        _, catalog = tfrom.build_instance(scores, [0, 1])
        used, unused = model.PreferenceMatrix(scores), model.PreferenceMatrix(scores)
        queues = used.provider_queues(catalog).positions.tolist()
        scores[:] = [[2.0, 1.0], [1.0, 2.0]]
        for matrix in (used, unused):
            assert matrix.scores.tolist() == [[1.0, 2.0], [2.0, 1.0]]
            assert not matrix.scores.flags.writeable
            assert matrix.order.tolist() == [[1, 0], [0, 1]]
            assert matrix.provider_queues(catalog).positions.tolist() == queues

    def test_read_only_scores_kept_as_they_are(self):
        matrix, _ = tfrom.build_instance([[1.0, 2.0]], [0, 0])
        assert model.PreferenceMatrix(matrix.scores).scores is matrix.scores

    @pytest.mark.parametrize("rows", [list, tuple])
    def test_rows_as_lists_or_tuples_kept_as_an_array(self, rows):
        # nested lists used to be kept as they were, so m and order ended
        # in a bare AttributeError
        grid = [[1.0, 3.0, 2.0], [2.0, 2.0, 0.0]]
        scores = rows(rows(row) for row in grid)
        matrix, array = model.PreferenceMatrix(scores), model.PreferenceMatrix(np.array(grid))
        assert isinstance(matrix.scores, np.ndarray) and not matrix.scores.flags.writeable
        assert matrix.scores.dtype == np.float64
        assert matrix.scores.tobytes() == array.scores.tobytes()
        assert (matrix.m, matrix.n) == (2, 3)
        assert matrix.order.tobytes() == array.order.tobytes()
        assert [ranked.items.tolist() for ranked in tfrom.original_rankings(matrix)] == [
            ranked.items.tolist() for ranked in tfrom.original_rankings(array)
        ]

    def test_rankings_are_read_only_views(self):
        rng = np.random.default_rng(8)
        matrix, _ = tfrom.build_instance(1.0 - rng.random((4, 5)), [0, 1, 0, 1, 2])
        assert not matrix.order.flags.writeable
        rankings = [*tfrom.original_rankings(matrix), tfrom.original_ranking(matrix, 2)]
        for ranked in rankings:
            assert not ranked.items.flags.writeable
            assert np.shares_memory(ranked.items, matrix.order)
            with pytest.raises(ValueError):
                ranked.items[0] = 0


class TestProviderQueues:
    def instance(self, seed, m=5, n=9, l=3):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=(m, n)).astype(np.float64)
        scores[:, 0] = 1.0
        assignments = np.concatenate([np.arange(l), rng.integers(0, l, size=n - l)])
        rng.shuffle(assignments)
        return scores, assignments

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_rows_group_the_order_by_provider(self, block):
        for seed in range(10):
            scores, assignments = self.instance(seed)
            matrix, catalog = tfrom.build_instance(scores, assignments)
            with mock.patch.object(model, "_ORDER_BLOCK", block):
                queues = matrix.provider_queues(catalog)
            providers = catalog.provider_of.tolist()
            for u in range(matrix.m):
                order = matrix.order[u].tolist()
                expected = sorted(range(matrix.n), key=lambda pos: (providers[order[pos]], pos))
                assert queues.positions[u].tolist() == expected
                for p in range(catalog.l):
                    group = queues.positions[u, queues.start[p] : queues.end[p]]
                    assert [providers[order[pos]] for pos in group] == [p] * catalog.sizes[p]
            assert not queues.positions.flags.writeable

    @staticmethod
    def relevance(matrix, catalog):
        """The memo's relevance, which the quality-weighted metric fills."""
        report = metrics.ExposureReport(np.zeros(catalog.l))
        metrics.quality_weighted_provider_fairness(report, matrix, catalog)
        return matrix._derived(catalog).relevance

    def test_memo_follows_the_catalog(self):
        scores, assignments = self.instance(3)
        matrix, first = tfrom.build_instance(scores, assignments)
        _, second = tfrom.build_instance(scores, assignments[::-1])
        queues = matrix.provider_queues(first)
        relevance = self.relevance(matrix, first)
        assert matrix.provider_queues(first) is queues
        assert self.relevance(matrix, first) is relevance
        assert relevance.tolist() == metrics.provider_relevance(matrix, first).tolist()
        assert not relevance.flags.writeable
        other = matrix.provider_queues(second)
        assert other.catalog is second
        assert other.positions.tolist() != queues.positions.tolist()
        other_relevance = self.relevance(matrix, second)
        assert other_relevance.tolist() == metrics.provider_relevance(matrix, second).tolist()
        assert other_relevance.tolist() != relevance.tolist()
        again = matrix.provider_queues(first)
        assert again.catalog is first
        assert again.positions.tolist() == queues.positions.tolist()
        assert self.relevance(matrix, first).tolist() == relevance.tolist()

    def test_relevance_builds_no_queues_and_fair_targets_neither(self):
        scores, assignments = self.instance(4)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        for mode in tfrom.FairnessMode:
            tfrom.fair_targets(mode, 1.0, catalog, matrix)
        assert "_memo" not in vars(matrix)
        with mock.patch.object(model, "ProviderQueues", side_effect=AssertionError("built")):
            self.relevance(matrix, catalog)
        assert matrix._derived(catalog).queues is None

    def test_threads_on_two_catalogs_read_their_own_fields(self):
        # four threads on two cores, two per catalog, swap the matrix's one
        # memo back and forth; every read must still be its own catalog's:
        # the queues, and the ratio variance that reads the relevance
        scores, assignments = self.instance(5, m=40, n=30, l=4)
        matrix, first = tfrom.build_instance(scores, assignments)
        _, second = tfrom.build_instance(scores, assignments[::-1])
        report = metrics.ExposureReport(np.arange(4.0))

        def fields(matrix, catalog):
            return (
                matrix.provider_queues(catalog).positions.tobytes(),
                metrics.quality_weighted_provider_fairness(report, matrix, catalog),
            )

        want = {id(c): fields(model.PreferenceMatrix(scores), c) for c in (first, second)}
        assert want[id(first)] != want[id(second)]
        wrong = []
        start = threading.Barrier(4)

        def read(catalog):
            try:
                start.wait(timeout=60)
                for _ in range(200):
                    if matrix.provider_queues(catalog).catalog is not catalog \
                            or fields(matrix, catalog) != want[id(catalog)]:
                        wrong.append(catalog)
            except Exception as exc:  # an error in a thread would only warn
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(c,)) for c in (first, second) * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("l, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_provider_keys_are_the_ids_in_the_smallest_type(self, l, dtype):
        assignments = np.arange(l).repeat(2)[::-1]
        matrix, catalog = tfrom.build_instance(np.ones((1, 2 * l)), assignments)
        keys = catalog.provider_keys
        assert keys.dtype == dtype and not keys.flags.writeable
        assert keys.tolist() == catalog.provider_of.tolist()
        assert catalog.provider_keys is keys

    @pytest.mark.parametrize(
        "provider_of, sizes",
        [([0, 2, 2], [1, 0, 2]), ([0, 1, 1], [1, 1, 1]), ([0, 1, 1], [2, 1])],
        ids=["empty-provider", "miscounted", "sizes-too-short"],
    )
    def test_catalog_that_breaks_the_group_bounds_rejected(self, provider_of, sizes):
        # refused where the catalog is built, so no provider_queues call sees one
        with pytest.raises(errors.ValidationError, match="catalog sizes"):
            model.Catalog(np.array(provider_of), np.array(sizes), tuple(range(len(sizes))))


def on_cores(monkeypatch, cores):
    monkeypatch.setattr(model, "_cores", lambda: cores)


class TestRunBlocks:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_blocks_interleave_over_the_cores(self, monkeypatch, cores, count):
        # thread t of c takes blocks t, t + c, ... in turn, the caller
        # thread 0; one thread per slice, none left running
        on_cores(monkeypatch, cores)
        seen = []
        before = threading.active_count()
        model._run_blocks(count, lambda b: seen.append((threading.current_thread(), b)))
        assert threading.active_count() == before
        by_thread = {}
        for thread, b in seen:
            by_thread.setdefault(thread, []).append(b)
        slices = [list(range(t, count, cores)) for t in range(min(cores, count))]
        assert sorted(by_thread.values()) == slices
        if count:
            assert by_thread[threading.current_thread()] == slices[0]

    def test_first_exception_in_thread_order_after_every_join(self, monkeypatch):
        # slices [0, 3], [1, 4] and [2, 5]: thread 2 raises first in time,
        # thread 1 first in thread order; thread 0's slow block still ends
        on_cores(monkeypatch, 3)
        done = []

        def work(b):
            if b == 0:
                time.sleep(0.05)
            if b == 2:
                raise KeyError(b)
            if b == 4:
                time.sleep(0.02)
                raise OSError(b)
            done.append(b)

        before = threading.active_count()
        with pytest.raises(OSError, match="4"):
            model._run_blocks(6, work)
        assert threading.active_count() == before
        assert sorted(done) == [0, 1, 3]

    def test_a_last_thread_exception_is_raised(self, monkeypatch):
        on_cores(monkeypatch, 2)

        def work(b):
            if b == 3:
                raise KeyError(b)

        with pytest.raises(KeyError):
            model._run_blocks(4, work)

    def test_cores_are_the_affinity_else_the_cpu_count(self, monkeypatch):
        assert model._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert model._cores() == (os.cpu_count() or 1)


@st.composite
def blocked_grids(draw):
    """(scores, block size, provider of each item) of 3 to 7 blocks of one
    or two rows, each with a positive score: cells with exact ties and
    subnormals, near-tie rows, that fail the keyed sort's check, and
    sparse rows, whose blocks take the stable argsort whole."""
    n = draw(st.sampled_from([1, 2, 3, 17, 40]))
    per_block = draw(st.integers(1, 2))
    rows = []
    for _ in range(per_block * draw(st.integers(3, 7))):
        kind = draw(st.sampled_from(["cells", "near-tie", "sparse"]))
        if kind == "sparse":
            row = np.zeros(n)
            row[draw(st.integers(0, n - 1))] = draw(SCORE_CELLS.filter(lambda cell: cell > 0))
        else:
            row = np.resize(np.array(draw(st.lists(SCORE_CELLS, min_size=1, max_size=6))), n)
            if kind == "near-tie":
                row[0] = np.nextafter(row[-1], np.inf)
            if not (row > 0).any():
                row[draw(st.integers(0, n - 1))] = 1.0
        rows.append(row)
    providers = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return np.array(rows), per_block * n, providers


class TestOrderOnEveryCore:
    @settings(max_examples=60, deadline=None)
    @given(blocked_grids())
    @example((np.array([[5e-324, 1.0], [0.0, 5e-324], [1.0, 1.0 + 2**-52], [2.0, 1.0]]), 2, [0, 1]))
    def test_bytes_and_fallback_do_not_depend_on_the_core_count(self, grid):
        scores, block, providers = grid
        _, catalog = tfrom.build_instance(np.ones((1, len(providers))), providers)
        expected = oracles.stable_order(scores, block).tobytes()
        got = set()
        for cores in (1, 2, 3):
            matrix = model.PreferenceMatrix(scores)
            with mock.patch.object(model, "_cores", lambda: cores), \
                    mock.patch.object(model, "_ORDER_BLOCK", block), \
                    mock.patch.object(model, "_stable_order", wraps=model._stable_order) as stable:
                order = matrix.order.tobytes()
                queues = matrix.provider_queues(catalog).positions.tobytes()
            assert order == expected
            fallback = tuple(rows.tobytes() for (rows,), _ in stable.call_args_list)
            got.add((order, queues, fallback))
        assert len(got) == 1

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_worker_exception_leaves_nothing_cached(self, monkeypatch, cores):
        # four blocks of one row; block 1 runs in a worker thread
        on_cores(monkeypatch, cores)
        monkeypatch.setattr(model, "_ORDER_BLOCK", 3)
        scores, assignments = TestProviderQueues().instance(6, m=4, n=3, l=2)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        run_blocks, raised_in = model._run_blocks, []

        def failing(count, work):
            def block(b):
                if b == 1:
                    raised_in.append(threading.current_thread())
                    raise KeyError("block")
                work(b)
            run_blocks(count, block)

        before = threading.active_count()
        monkeypatch.setattr(model, "_run_blocks", failing)
        with pytest.raises(KeyError, match="block"):
            matrix.order
        assert "order" not in vars(matrix)
        monkeypatch.setattr(model, "_run_blocks", run_blocks)
        order = matrix.order
        monkeypatch.setattr(model, "_run_blocks", failing)
        with pytest.raises(KeyError, match="block"):
            matrix.provider_queues(catalog)
        assert matrix._derived(catalog).queues is None
        assert matrix.order is order
        assert threading.active_count() == before
        assert threading.current_thread() not in raised_in and len(raised_in) == 2
        monkeypatch.setattr(model, "_run_blocks", run_blocks)
        assert order.tobytes() == oracles.stable_order(scores, 3).tobytes()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_no_thread_outlives_order_or_the_queues(self, monkeypatch, cores):
        on_cores(monkeypatch, cores)
        monkeypatch.setattr(model, "_ORDER_BLOCK", 18)
        scores, assignments = TestProviderQueues().instance(7, m=20, n=9, l=3)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        before = threading.active_count()
        matrix.provider_queues(catalog)
        assert threading.active_count() == before

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # 8 threads over 40 blocks of one row, every third row a near tie
        # that a worker marks for _stable_order: a lost mark or a row
        # written twice would change the bytes
        monkeypatch.setattr(model, "_ORDER_BLOCK", 30)
        scores, assignments = TestProviderQueues().instance(9, m=40, n=30, l=4)
        scores[::3, 1] = np.nextafter(scores[::3, 0], np.inf)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        serial = model.PreferenceMatrix(scores)
        on_cores(monkeypatch, 1)
        serial_queues = serial.provider_queues(catalog).positions
        on_cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            queues = matrix.provider_queues(catalog).positions
        finally:
            sys.setswitchinterval(interval)
        assert matrix.order.tobytes() == oracles.stable_order(scores, 30).tobytes()
        assert matrix.order.tobytes() == serial.order.tobytes()
        assert queues.tobytes() == serial_queues.tobytes()


class TestRecommendationList:
    def test_duplicates_rejected(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.RecommendationList(owner=0, items=(1, 1))

    def test_empty_rejected(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.RecommendationList(owner=0, items=())

    def test_items_not_a_sequence_rejected(self):
        with pytest.raises(errors.InvalidShape, match="items must be a sequence, got 5"):
            tfrom.RecommendationList(owner=0, items=5)


class TestRecommendationBlock:
    Block = tfrom.RecommendationBlock

    def test_rows_as_lists_of_python_ints(self):
        block = self.Block(np.array([1, 0], dtype=np.uint8), np.array([[2, 0], [1, 2]]))
        assert len(block) == 2 and block.k == 2
        assert [(rec.owner, rec.items) for rec in block] == [(1, (2, 0)), (0, (1, 2))]
        for rec in (*block, block[0], block[-1], block[np.int64(1)]):
            assert isinstance(rec, tfrom.RecommendationList)
            assert all(type(v) is int for v in (rec.owner, *rec.items))
        assert block[-1] == tfrom.RecommendationList(0, (1, 2))
        with pytest.raises(IndexError):
            block[2]

    def test_arrays_are_read_only_intp_copies(self):
        owners, items = np.array([0, 1]), np.array([[2, 0], [1, 2]])
        block = self.Block(owners, items)
        items[0, 0] = 1
        assert block.items.dtype == block.owners.dtype == np.intp
        assert block.items.tolist() == [[2, 0], [1, 2]]
        with pytest.raises(ValueError, match="read-only"):
            block.items[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            block.owners[0] = 1

    def test_slices_and_equality(self):
        block = self.Block([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        tail = block[1:]
        assert isinstance(tail, self.Block)
        assert tail == self.Block([1, 2], [(1, 2), (2, 0)])
        assert tail != self.Block([1, 2], [(1, 2), (0, 2)])
        assert block != tuple(block)
        assert list(block[::-1]) == list(reversed(block))

    @pytest.mark.parametrize(
        "owners, items, message",
        [
            ([0, 1], [(0, 1)], "one row of items per owner"),
            ([0, 1], [(0, 1), (1,)], "one row of items per owner"),
            ([0], [()], "at least one item"),
            ([], [], "at least one item"),
            ([0, 1], [(0, 1), (2, 2)], "^duplicate items in recommendation list for customer 1$"),
            ([0], [1, 2], "one row of items per owner"),
            (5, [[1, 2]], "one row of items per owner"),
            (np.array(5), np.array([[1, 2]]), "one row of items per owner"),
        ],
        ids=["rows", "ragged", "no-item", "no-list", "duplicate", "items-1d", "owner-scalar",
             "owner-0d"],
    )
    def test_shape_refused(self, owners, items, message):
        with pytest.raises(errors.InvalidShape, match=message):
            self.Block(owners, items)

    def test_item_range_left_to_the_consumers(self):
        # like RecommendationList, a block knows no instance
        block = self.Block([-1, 7], [(-3, 9), (5, 0)])
        assert [(rec.owner, rec.items) for rec in block] == [(-1, (-3, 9)), (7, (5, 0))]
