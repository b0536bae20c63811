import itertools

import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import random_mini_instance
from tfrom import errors
from tfrom.baselines import all_random
from tfrom.online import OnlineState
from tfrom.targets import FairnessMode


def build(rows, providers):
    matrix, catalog = tfrom.build_instance(rows, providers)
    return matrix, catalog, tfrom.original_rankings(matrix)


# every re-ranker of the package, the two TFROM ones included, on one
# customer of an instance with n=3 items
RERANKERS = {
    "top_k": lambda matrix, catalog, originals, k: tfrom.top_k(originals[0], k),
    "all_random": lambda matrix, catalog, originals, k: all_random(originals[0], k, seed=0),
    "minimum_exposure": lambda matrix, catalog, originals, k: tfrom.minimum_exposure(
        originals[0], catalog, np.zeros(catalog.l), k
    ),
    "tfrom_offline": lambda matrix, catalog, originals, k: tfrom.tfrom_offline(
        matrix, catalog, originals, k, FairnessMode.UNIFORM, seed=0
    ),
    "serve_request": lambda matrix, catalog, originals, k: tfrom.serve_request(
        OnlineState.fresh(matrix.m, catalog.l),
        0, matrix, catalog, originals[0], k, FairnessMode.UNIFORM,
    ),
}


@pytest.mark.parametrize("name", list(RERANKERS))
@pytest.mark.parametrize(
    "k, error",
    [(0, errors.InvalidDimension), (-1, errors.InvalidDimension), (4, errors.InsufficientItems)],
)
def test_list_length_checked_alike(name, k, error):
    matrix, catalog, originals = build([[1.0, 2.0, 3.0]], [0, 1, 0])
    with pytest.raises(error):
        RERANKERS[name](matrix, catalog, originals, k)


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


def _read_only(ledger):
    ledger.setflags(write=False)
    return ledger


class TestMinimumExposureLedger:
    """The ledger is the caller's array and is checked before any slot."""

    @pytest.mark.parametrize(
        "ledger",
        [
            np.zeros(2, dtype=np.int64),  # would truncate every slot weight
            np.zeros(5),
            np.zeros(1),  # np.where would broadcast it over both providers
            np.zeros((1, 2)),
            np.array([0.0, np.inf]),
            np.array([np.inf, np.inf]),  # could pick a provider with no item left
            np.array([np.nan, 0.0]),
            [0.0, 0.0],
            _read_only(np.zeros(2)),
        ],
        ids=["int64", "length-5", "length-1", "2-d", "inf", "all-inf", "nan", "list",
             "read-only"],
    )
    def test_rejected(self, ledger):
        matrix, catalog, originals = build([[3.0, 2.0, 1.0]], [0, 1, 1])
        before = repr(ledger)
        with pytest.raises(errors.ValidationError, match="ledger"):
            tfrom.minimum_exposure(originals[0], catalog, ledger, 3)
        assert repr(ledger) == before


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

    @staticmethod
    def replay(rng, scores, assignments, k, start):
        """3*m calls on random customers, one ledger, checked slot for slot."""
        matrix, catalog, originals = build(scores, assignments)
        providers = [int(p) for p in catalog.provider_of]
        ledger = np.array(start, dtype=np.float64)
        mirror = ledger.tolist()
        for u in rng.integers(0, matrix.m, size=3 * matrix.m):
            u = int(u)
            rec = tfrom.minimum_exposure(originals[u], catalog, ledger, k)
            expected = oracles.minimum_exposure_oracle(mirror, u, scores.tolist(), providers, k)
            assert list(rec.items) == expected
        assert ledger.tolist() == mirror

    def test_single_provider(self):
        for case in range(40):
            rng = np.random.default_rng(7200 + case)
            scores, _ = random_mini_instance(rng, max_m=4, max_n=8, ties=case % 2 == 1)
            k = int(rng.integers(1, scores.shape[1] + 1))
            self.replay(rng, scores, np.zeros(scores.shape[1], dtype=int), k, [0.0])

    def test_full_length_lists(self):
        for case in range(40):
            rng = np.random.default_rng(7300 + case)
            scores, assignments = random_mini_instance(
                rng, max_m=4, max_n=8, max_l=4, ties=case % 2 == 1
            )
            l = int(assignments.max()) + 1
            self.replay(rng, scores, assignments, scores.shape[1], np.zeros(l))

    def test_one_item_providers(self):
        for case in range(40):
            rng = np.random.default_rng(7400 + case)
            scores, _ = random_mini_instance(rng, max_m=4, max_n=8, ties=case % 2 == 1)
            n = scores.shape[1]
            assignments = rng.permutation(n)
            k = int(rng.integers(1, n + 1))
            self.replay(rng, scores, assignments, k, np.zeros(n))

    def test_tied_nonzero_start(self):
        # every provider starts at the same nonzero load, so the first
        # slot of the first call is a full tie
        for case in range(40):
            rng = np.random.default_rng(7500 + case)
            scores, assignments = random_mini_instance(
                rng, max_m=4, max_n=8, max_l=4, ties=case % 2 == 1
            )
            l = int(assignments.max()) + 1
            k = int(rng.integers(1, scores.shape[1] + 1))
            start = np.full(l, float(rng.integers(1, 4)))
            self.replay(rng, scores, assignments, k, start)
