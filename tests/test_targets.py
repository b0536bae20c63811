import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles
import tfrom
from tfrom import errors
from tfrom.model import PreferenceMatrix
from tfrom.targets import FairnessMode

REL = 1e-12


class TestTotalExposure:
    def test_single_slot(self):
        assert tfrom.total_exposure(1, 1) == 1.0

    def test_two_customers_two_slots(self):
        assert tfrom.total_exposure(2, 2) == approx(3.261859507142915, rel=REL)

    def test_two_customers_three_slots(self):
        assert tfrom.total_exposure(2, 3) == approx(4.261859507142915, rel=REL)

    def test_slot_weights_summed_in_rank_order(self):
        # bit for bit the oracles' sum; at k = 6, 9 and 15-21 the sum in
        # reverse rank order differs in its last bit
        for k in range(1, 65):
            assert tfrom.total_exposure(1, k).hex() == oracles.sum_weights(k).hex()

    @pytest.mark.parametrize("m,k", [(0, 1), (1, 0), (-2, 3)])
    def test_invalid_dimensions(self, m, k):
        with pytest.raises(errors.InvalidDimension):
            tfrom.total_exposure(m, k)


class TestOnlineTotalExposure:
    def test_no_requests_yet(self):
        assert tfrom.online_total_exposure(0, 5) == 0.0

    def test_one_request_two_slots(self):
        assert tfrom.online_total_exposure(1, 2) == approx(1.6309297535714573, rel=REL)

    def test_ten_requests_single_slot(self):
        assert tfrom.online_total_exposure(10, 1) == 10.0

    def test_negative_rejected(self):
        with pytest.raises(errors.InvalidDimension):
            tfrom.online_total_exposure(-1, 2)

    @given(st.integers(1, 500), st.integers(1, 30))
    @settings(max_examples=100)
    def test_matches_batch_formula(self, c, k):
        assert tfrom.online_total_exposure(c, k) == tfrom.total_exposure(c, k)


class TestFairTargets:
    def test_uniform_proportional_to_catalog_size(self):
        matrix, catalog = tfrom.build_instance([[1, 1, 1, 1]], [0, 1, 1, 1])
        targets = tfrom.fair_targets(FairnessMode.UNIFORM, 4.0, catalog, matrix)
        assert targets.per_provider == approx([1.0, 3.0], rel=REL)

    def test_uniform_single_provider_takes_all(self):
        matrix, catalog = tfrom.build_instance([[1, 1]], [0, 0])
        targets = tfrom.fair_targets(FairnessMode.UNIFORM, 7.5, catalog, matrix)
        assert targets.per_provider == approx([7.5], rel=REL)

    def test_quality_weighted_proportional_to_mass(self):
        matrix, catalog = tfrom.build_instance([[2.0, 3.0]], [0, 1])
        targets = tfrom.fair_targets(FairnessMode.QUALITY_WEIGHTED, 10.0, catalog, matrix)
        assert targets.per_provider == approx([4.0, 6.0], rel=REL)

    def test_zero_relevance_rejected(self):
        # a matrix of zero relevance mass cannot be built, by hand either:
        # every row holds a positive score, so quality-weighted targets
        # always have a positive sum to split by
        with pytest.raises(errors.EmptyRow, match="^customer 0 has no positive relevance score$"):
            PreferenceMatrix(scores=np.zeros((1, 2)))
        matrix, catalog = tfrom.build_instance([[0.0, 5e-324]], [0, 1])
        targets = tfrom.fair_targets(FairnessMode.QUALITY_WEIGHTED, 5.0, catalog, matrix)
        assert targets.per_provider.tolist() == [0.0, 5.0]

    def test_negative_budget_rejected(self):
        matrix, catalog = tfrom.build_instance([[1.0]], [0])
        with pytest.raises(errors.InvalidDimension):
            tfrom.fair_targets(FairnessMode.UNIFORM, -1.0, catalog, matrix)

    def test_zero_budget_accepted(self):
        matrix, catalog = tfrom.build_instance([[1.0, 2.0]], [0, 1])
        targets = tfrom.fair_targets(FairnessMode.UNIFORM, 0.0, catalog, matrix)
        assert targets.per_provider.tolist() == [0.0, 0.0]

    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(2, 10))
    @settings(max_examples=60)
    def test_targets_sum_to_budget(self, seed, l_max, n):
        rng = np.random.default_rng(seed)
        l = min(l_max, n)
        assignments = np.concatenate([np.arange(l), rng.integers(0, l, size=n - l)])
        matrix, catalog = tfrom.build_instance(
            1.0 - rng.random((3, n)), assignments
        )
        for mode in FairnessMode:
            targets = tfrom.fair_targets(mode, 11.25, catalog, matrix)
            assert targets.per_provider.sum() == approx(11.25, abs=1e-9)
            assert (targets.per_provider >= 0).all()
        # the item counts sum to n exactly: dividing by n gives their bits
        uniform = tfrom.fair_targets(FairnessMode.UNIFORM, 11.25, catalog, matrix).per_provider
        assert uniform.tobytes() == (11.25 * catalog.sizes / float(catalog.sizes.sum())).tobytes()

    def test_uniform_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        scores = 1.0 - rng.random((2, 6))
        assignments = np.array([0, 0, 0, 1, 1, 2])
        matrix, catalog = tfrom.build_instance(scores, assignments)
        base = tfrom.fair_targets(FairnessMode.UNIFORM, 9.0, catalog, matrix)
        relabel = {0: 2, 1: 0, 2: 1}
        matrix2, catalog2 = tfrom.build_instance(
            scores, [relabel[int(p)] for p in assignments]
        )
        moved = tfrom.fair_targets(FairnessMode.UNIFORM, 9.0, catalog2, matrix2)
        # provider p of the first instance appears under a new id; its
        # share must not change
        for p in range(3):
            new_id = list(catalog2.provider_labels).index(relabel[p])
            assert moved.per_provider[new_id] == approx(base.per_provider[p], rel=REL)

    @given(st.floats(0.01, 1000, allow_nan=False))
    @settings(max_examples=60)
    def test_quality_weighted_scale_invariant(self, factor):
        rng = np.random.default_rng(21)
        scores = 1.0 - rng.random((3, 5))
        assignments = np.array([0, 1, 1, 2, 2])
        matrix, catalog = tfrom.build_instance(scores, assignments)
        scaled, _ = tfrom.build_instance(scores * factor, assignments)
        base = tfrom.fair_targets(FairnessMode.QUALITY_WEIGHTED, 4.0, catalog, matrix)
        same = tfrom.fair_targets(FairnessMode.QUALITY_WEIGHTED, 4.0, catalog, scaled)
        assert same.per_provider == approx(base.per_provider, rel=1e-9)
