import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import tfrom
from tfrom import errors
from tfrom.metrics import (
    ExposureReport,
    QualityReport,
    customer_fairness,
    quality_weighted_provider_fairness,
)
from tfrom.model import RankedList

REL = 1e-12


def make_instance(rows, providers):
    return tfrom.build_instance(rows, providers)


class TestPositionWeight:
    def test_rank_one_undiscounted(self):
        assert tfrom.position_weight(1) == 1.0

    def test_rank_three_is_half(self):
        assert tfrom.position_weight(3) == approx(0.5, rel=REL)

    def test_rank_two(self):
        assert tfrom.position_weight(2) == approx(0.6309297535714574, rel=REL)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_invalid_rank(self, rank):
        with pytest.raises(errors.InvalidRank):
            tfrom.position_weight(rank)

    @given(st.integers(min_value=1, max_value=100000))
    def test_strictly_decreasing(self, rank):
        assert tfrom.position_weight(rank) > tfrom.position_weight(rank + 1)


class TestExposure:
    def test_two_item_list(self):
        matrix, catalog = make_instance([[2.0, 1.0]], [0, 1])
        rec = tfrom.RecommendationList(owner=0, items=(0, 1))
        report = tfrom.exposure([rec], catalog)
        assert report.per_provider == approx([1.0, 0.6309297535714574], rel=REL)

    def test_empty_collection(self):
        _, catalog = make_instance([[1.0, 1.0]], [0, 1])
        report = tfrom.exposure([], catalog)
        assert report.per_provider.tolist() == [0.0, 0.0]

    def test_additive_over_repeated_lists(self):
        _, catalog = make_instance([[1.0]], [0])
        rec = tfrom.RecommendationList(owner=0, items=(0,))
        report = tfrom.exposure([rec, rec], catalog)
        assert report.per_provider[0] == approx(2.0, rel=REL)

    def test_conservation(self):
        # m lists of length k always carry the same total exposure
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            matrix, catalog = make_instance(
                1.0 - rng.random((m, n)), rng.integers(0, 2, size=n)
            )
            lists = []
            for u in range(m):
                items = rng.permutation(n)[:k]
                lists.append(tfrom.RecommendationList(owner=u, items=tuple(int(i) for i in items)))
            report = tfrom.exposure(lists, catalog)
            assert report.per_provider.sum() == approx(
                tfrom.total_exposure(m, k), abs=1e-9
            )


class TestDcg:
    def test_three_items(self):
        matrix, _ = make_instance([[3.0, 2.0, 1.0]], [0, 0, 0])
        assert tfrom.dcg(0, [0, 1, 2], matrix) == approx(4.761859507142915, rel=REL)

    def test_single_item_undiscounted(self):
        matrix, _ = make_instance([[5.0]], [0])
        assert tfrom.dcg(0, [0], matrix) == 5.0

    def test_zero_scores(self):
        matrix, _ = make_instance([[1.0, 0.0, 0.0]], [0, 0, 0])
        assert tfrom.dcg(0, [1, 2], matrix) == 0.0

    def test_descending_order_maximizes(self):
        # brute force over every ordering of a fixed item set
        rng = np.random.default_rng(2)
        for k in (2, 3, 4):
            row = list(1.0 - rng.random(6))
            matrix, _ = make_instance([row], [0] * 6)
            items = list(rng.permutation(6)[:k])
            best = max(
                tfrom.dcg(0, perm, matrix) for perm in itertools.permutations(items)
            )
            sorted_items = sorted(items, key=lambda i: (-row[i], i))
            assert tfrom.dcg(0, sorted_items, matrix) == approx(best, rel=1e-12)


class TestNdcg:
    def test_identity_is_one(self):
        matrix, _ = make_instance([[3.0, 2.0, 1.0]], [0, 0, 0])
        original = tfrom.original_ranking(matrix, 0)
        rec = tfrom.top_k(original, 2)
        assert tfrom.ndcg(0, rec, matrix, original) == 1.0

    def test_reversed_list(self):
        matrix, _ = make_instance([[3.0, 2.0, 1.0]], [0, 0, 0])
        original = tfrom.original_ranking(matrix, 0)
        rec = tfrom.RecommendationList(owner=0, items=(2, 1, 0))
        expected = 3.761859507142915 / 4.761859507142915
        assert tfrom.ndcg(0, rec, matrix, original) == approx(expected, rel=REL)

    def test_zero_numerator(self):
        matrix, _ = make_instance([[3.0, 0.0, 0.0]], [0, 0, 0])
        original = tfrom.original_ranking(matrix, 0)
        rec = tfrom.RecommendationList(owner=0, items=(1, 2))
        assert tfrom.ndcg(0, rec, matrix, original) == 0.0

    def test_zero_ideal_rejected(self):
        matrix, _ = make_instance([[1.0, 0.0]], [0, 0])
        # an original ranking that puts the zero-score item first
        bogus = RankedList(owner=0, items=np.array([1, 0]))
        rec = tfrom.RecommendationList(owner=0, items=(1,))
        with pytest.raises(errors.ZeroIdealQuality):
            tfrom.ndcg(0, rec, matrix, bogus)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(n, 4) + 1))
            matrix, _ = make_instance(
                1.0 - rng.random((m, n)), rng.integers(0, 2, size=n)
            )
            u = int(rng.integers(0, m))
            original = tfrom.original_ranking(matrix, u)
            items = tuple(int(i) for i in rng.permutation(n)[:k])
            rec = tfrom.RecommendationList(owner=u, items=items)
            assert tfrom.ndcg(u, rec, matrix, original) <= 1.0 + 1e-12


class TestVariances:
    def test_uniform_fairness_equal_exposure(self):
        report = ExposureReport(per_provider=np.array([2.0, 2.0, 2.0]))
        assert tfrom.uniform_provider_fairness(report) == 0.0

    def test_uniform_fairness_two_providers(self):
        report = ExposureReport(per_provider=np.array([0.0, 2.0]))
        assert tfrom.uniform_provider_fairness(report) == approx(1.0, rel=REL)

    def test_uniform_fairness_single_provider(self):
        report = ExposureReport(per_provider=np.array([7.0]))
        assert tfrom.uniform_provider_fairness(report) == 0.0

    def test_customer_fairness_identical(self):
        q = QualityReport(per_customer_ndcg=np.ones(3))
        assert customer_fairness(q) == 0.0

    def test_customer_fairness_two_values(self):
        q = QualityReport(per_customer_ndcg=np.array([1.0, 0.5]))
        assert customer_fairness(q) == approx(0.0625, rel=REL)

    def test_customer_fairness_degenerate(self):
        q = QualityReport(per_customer_ndcg=np.array([0.3]))
        assert customer_fairness(q) == 0.0

    def test_total_quality(self):
        q = QualityReport(per_customer_ndcg=np.array([0.8, 0.6]))
        assert tfrom.total_quality(q) == approx(1.4, rel=REL)

    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=20),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_variance_translation_invariant(self, values, shift):
        base = ExposureReport(per_provider=np.array(values))
        shifted = ExposureReport(per_provider=np.array(values) + shift)
        assert tfrom.uniform_provider_fairness(shifted) == approx(
            tfrom.uniform_provider_fairness(base), rel=1e-7, abs=1e-7
        )

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=20),
        st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_variance_scales_quadratically(self, values, scale):
        base = ExposureReport(per_provider=np.array(values))
        scaled = ExposureReport(per_provider=np.array(values) * scale)
        assert tfrom.uniform_provider_fairness(scaled) == approx(
            tfrom.uniform_provider_fairness(base) * scale**2, rel=1e-9, abs=1e-12
        )


class TestQualityWeightedFairness:
    def test_proportional_exposure_is_fair(self):
        # relevance mass per provider is [1, 2, 3]; exposure matches it
        matrix, catalog = make_instance([[1.0, 2.0, 3.0]], [0, 1, 2])
        report = ExposureReport(per_provider=np.array([1.0, 2.0, 3.0]))
        assert quality_weighted_provider_fairness(report, matrix, catalog) == 0.0

    def test_single_provider_degenerate(self):
        matrix, catalog = make_instance([[1.0, 2.0]], [0, 0])
        report = tfrom.exposure(
            [tfrom.RecommendationList(owner=0, items=(1, 0))], catalog
        )
        assert quality_weighted_provider_fairness(report, matrix, catalog) == 0.0

    def test_equal_relevance_normalizes_to_ones(self):
        # both providers have the same mass, so ratios reduce to the
        # normalized exposures [0, 1] and the variance is 0.25
        matrix, catalog = make_instance([[1.0, 1.0]], [0, 1])
        report = ExposureReport(per_provider=np.array([0.0, 4.0]))
        assert quality_weighted_provider_fairness(
            report, matrix, catalog
        ) == approx(0.25, rel=REL)

    def test_min_relevance_provider_excluded(self):
        matrix, catalog = make_instance([[1.0, 2.0, 3.0]], [0, 1, 2])
        report = ExposureReport(per_provider=np.array([5.0, 2.0, 3.0]))
        # provider 0 normalizes to relevance 0 and must not blow up the ratio
        value = quality_weighted_provider_fairness(report, matrix, catalog)
        assert math.isfinite(value) and value >= 0.0


class TestQualityReport:
    def test_requires_exactly_one_list_per_customer(self):
        matrix, catalog = make_instance([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        originals = tfrom.original_rankings(matrix)
        lists = [tfrom.top_k(originals[0], 1)]
        with pytest.raises(errors.ValidationError):
            tfrom.quality(lists, matrix, originals)
        with pytest.raises(errors.ValidationError):
            tfrom.quality(lists * 2, matrix, originals)
