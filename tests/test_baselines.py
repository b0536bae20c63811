import itertools

import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import random_mini_instance
from tfrom import errors
from tfrom.baselines import all_random


def build(rows, providers):
    matrix, catalog = tfrom.build_instance(rows, providers)
    return matrix, catalog, tfrom.original_rankings(matrix)


class TestTopK:
    def test_prefix(self):
        matrix, _, originals = build([[1.0, 2.0, 3.0]], [0, 0, 0])
        assert tfrom.top_k(originals[0], 2).items == (2, 1)

    def test_full_length(self):
        matrix, _, originals = build([[1.0, 2.0, 3.0]], [0, 0, 0])
        assert sorted(tfrom.top_k(originals[0], 3).items) == [0, 1, 2]

    def test_quality_is_always_one(self):
        rng = np.random.default_rng(4)
        matrix, _, originals = build(1.0 - rng.random((3, 6)), [0, 1, 0, 1, 0, 1])
        for u in range(3):
            rec = tfrom.top_k(originals[u], 4)
            assert tfrom.ndcg(u, rec, matrix, originals[u]) == 1.0

    def test_insufficient_items(self):
        _, _, originals = build([[1.0, 2.0]], [0, 1])
        with pytest.raises(errors.InsufficientItems):
            tfrom.top_k(originals[0], 3)

    def test_maximizes_total_quality_by_brute_force(self):
        # every other k-permutation of items scores at most as high
        rng = np.random.default_rng(12)
        matrix, _, originals = build([list(1.0 - rng.random(5))], [0, 1, 0, 1, 0])
        k = 3
        top = tfrom.ndcg(0, tfrom.top_k(originals[0], k), matrix, originals[0])
        for perm in itertools.permutations(range(5), k):
            rec = tfrom.RecommendationList(owner=0, items=perm)
            assert tfrom.ndcg(0, rec, matrix, originals[0]) <= top + 1e-12


class TestAllRandom:
    def test_full_draw_is_permutation(self):
        _, _, originals = build([[1.0, 2.0, 3.0]], [0, 0, 0])
        rec = all_random(originals[0], 3, seed=5)
        assert sorted(rec.items) == [0, 1, 2]

    def test_fixed_seed_reproduces(self):
        _, _, originals = build([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
        assert all_random(originals[0], 2, seed=9).items == all_random(
            originals[0], 2, seed=9
        ).items

    def test_insufficient_items(self):
        _, _, originals = build([[1.0]], [0])
        with pytest.raises(errors.InsufficientItems):
            all_random(originals[0], 2, seed=0)

    def test_draws_are_uniform(self):
        # n=4, k=1: each item should appear with frequency 1/4 +- 0.02
        _, _, originals = build([[4.0, 3.0, 2.0, 1.0]], [0, 0, 1, 1])
        counts = np.zeros(4)
        draws = 10_000
        for seed in range(draws):
            counts[all_random(originals[0], 1, seed=seed).items[0]] += 1
        assert counts / draws == approx([0.25] * 4, abs=0.02)


class TestMinimumExposure:
    def test_least_exposed_provider_wins(self):
        matrix, catalog, originals = build([[9.0, 1.0]], [0, 1])
        ledger = np.array([5.0, 0.0])
        rec = tfrom.minimum_exposure(originals[0], catalog, ledger, 1)
        assert catalog.provider_of[rec.items[0]] == 1

    def test_single_provider_degenerates_to_top_k(self):
        matrix, catalog, originals = build([[1.0, 3.0, 2.0]], [0, 0, 0])
        ledger = np.zeros(1)
        rec = tfrom.minimum_exposure(originals[0], catalog, ledger, 2)
        assert rec.items == tfrom.top_k(originals[0], 2).items

    def test_fresh_ledger_spreads_across_providers(self):
        matrix, catalog, originals = build(
            [[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]], [0, 0, 1, 1, 2, 2]
        )
        ledger = np.zeros(3)
        rec = tfrom.minimum_exposure(originals[0], catalog, ledger, 3)
        assert sorted(int(catalog.provider_of[i]) for i in rec.items) == [0, 1, 2]

    def test_ledger_accumulates_slot_weights(self):
        matrix, catalog, originals = build([[2.0, 1.0]], [0, 1])
        ledger = np.zeros(2)
        tfrom.minimum_exposure(originals[0], catalog, ledger, 2)
        assert ledger.sum() == approx(tfrom.total_exposure(1, 2), abs=1e-12)

    def test_spread_bounded_by_one_slot_weight(self):
        # equal provider sizes, enough items per provider: greedy
        # min-first filling keeps the ledger within one top-weight
        rng = np.random.default_rng(6)
        for _ in range(10):
            l, per = 3, 4
            n = l * per
            assignments = np.repeat(np.arange(l), per)
            rng.shuffle(assignments)
            matrix, catalog = tfrom.build_instance(1.0 - rng.random((3, n)), assignments)
            originals = tfrom.original_rankings(matrix)
            ledger = np.zeros(l)
            for u in range(3):
                tfrom.minimum_exposure(originals[u], catalog, ledger, per)
            assert ledger.max() - ledger.min() <= 1.0 + 1e-12

    def test_insufficient_items(self):
        matrix, catalog, originals = build([[1.0]], [0])
        with pytest.raises(errors.InsufficientItems):
            tfrom.minimum_exposure(originals[0], catalog, np.zeros(1), 2)


class TestMinimumExposureOracle:
    """Bit-equal to the item-space reference, one ledger shared by all
    customers, from zero and from tied nonzero start ledgers."""

    def test_matches_oracle(self):
        for case in range(120):
            rng = np.random.default_rng(7000 + case)
            scores, assignments = random_mini_instance(
                rng, max_m=4, max_n=8, max_l=4, ties=case % 2 == 1
            )
            matrix, catalog, originals = build(scores, assignments)
            providers = [int(p) for p in catalog.provider_of]
            k = int(rng.integers(1, matrix.n + 1))
            if case % 4 < 2:
                start = np.zeros(catalog.l)
            else:  # nonzero, and tied across providers
                start = rng.integers(1, 3, size=catalog.l).astype(np.float64)
            ledger = start.copy()
            mirror = start.tolist()
            for u in rng.integers(0, matrix.m, size=3 * matrix.m):
                u = int(u)
                rec = tfrom.minimum_exposure(originals[u], catalog, ledger, k)
                expected = oracles.minimum_exposure_oracle(
                    mirror, u, scores.tolist(), providers, k
                )
                assert list(rec.items) == expected
            assert ledger.tolist() == mirror
