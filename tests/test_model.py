import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfrom
from tfrom import errors


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


class TestRecommendationList:
    def test_duplicates_rejected(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.RecommendationList(owner=0, items=(1, 1))

    def test_empty_rejected(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.RecommendationList(owner=0, items=())
