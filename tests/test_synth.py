import numpy as np
import pytest

import tfrom
from tfrom import errors


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        a = tfrom.generate_synthetic(5, 12, 3, seed=9)
        b = tfrom.generate_synthetic(5, 12, 3, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = tfrom.generate_synthetic(5, 12, 3, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_shapes_and_validity(self):
        scores, assignments = tfrom.generate_synthetic(4, 10, 3, seed=1)
        assert scores.shape == (4, 10) and assignments.shape == (10,)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        assert catalog.l == 3
        assert (catalog.sizes >= 1).all()
        assert int(catalog.sizes.sum()) == 10

    def test_uniform_scores_in_unit_interval(self):
        scores, _ = tfrom.generate_synthetic(3, 50, 2, seed=2)
        assert (scores > 0).all() and (scores <= 1).all()

    def test_one_item_per_provider(self):
        # l == n: every provider offers exactly one item
        _, assignments = tfrom.generate_synthetic(2, 6, 6, seed=3)
        assert sorted(assignments) == list(range(6))

    def test_singleton_instance(self):
        scores, assignments = tfrom.generate_synthetic(1, 1, 1, seed=4)
        assert scores.shape == (1, 1) and list(assignments) == [0]

    def test_zero_skew_gives_equal_sizes(self):
        _, assignments = tfrom.generate_synthetic(2, 20, 4, provider_size_skew=0.0, seed=5)
        _, catalog = tfrom.build_instance(np.ones((2, 20)), assignments)
        assert catalog.sizes.tolist() == [5, 5, 5, 5]

    def test_skewed_sizes_vary(self):
        _, assignments = tfrom.generate_synthetic(2, 200, 8, provider_size_skew=1.0, seed=6)
        _, catalog = tfrom.build_instance(np.ones((2, 200)), assignments)
        assert catalog.sizes.max() > catalog.sizes.min()

    @pytest.mark.parametrize("dist", ["exponential", "lognormal"])
    def test_alternative_distributions_positive(self, dist):
        scores, _ = tfrom.generate_synthetic(3, 8, 2, score_distribution=dist, seed=7)
        assert (scores > 0).all()

    @pytest.mark.parametrize(
        "m,n,l", [(0, 5, 1), (5, 0, 1), (5, 5, 0), (2, 3, 4)]
    )
    def test_invalid_shapes(self, m, n, l):
        with pytest.raises(errors.InvalidShape):
            tfrom.generate_synthetic(m, n, l, seed=0)

    def test_unknown_distribution(self):
        with pytest.raises(errors.InvalidShape):
            tfrom.generate_synthetic(2, 4, 2, score_distribution="cauchy", seed=0)

    @pytest.mark.filterwarnings("error")
    def test_negative_skew_rejected(self):
        for skew in (-1.0, float("nan"), 1e-3, 1e-300):
            with pytest.raises(errors.InvalidShape):
                tfrom.generate_synthetic(2, 4, 2, provider_size_skew=skew, seed=0)
