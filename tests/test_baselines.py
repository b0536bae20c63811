import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles
import tfrom
from conftest import (
    lists_bytes,
    minimum_exposure_cell,
    minimum_exposure_loop,
    random_mini_instance,
)
from tfrom import errors
from tfrom.baselines import _least_exposed_slots, _random_positions, all_random
from tfrom.model import RankedList
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


@pytest.mark.parametrize("name", ["tfrom_offline", "serve_request"])
@pytest.mark.parametrize("length", [2, 4])
def test_wrong_length_caller_rankings_rejected(name, length):
    matrix, catalog, originals = build([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 1, 0])
    wrong = [
        RankedList(owner=ranked.owner, items=np.resize(ranked.items, length))
        for ranked in originals
    ]
    with pytest.raises(errors.ValidationError, match=f"holds {length} items, not 3"):
        RERANKERS[name](matrix, catalog, wrong, 2)


@pytest.mark.parametrize("name", ["tfrom_offline", "serve_request"])
@pytest.mark.parametrize(
    "items",
    [
        lambda matrix: np.array([0, 0, 1]),
        lambda matrix: np.array([0, 1, 2]),
        lambda matrix: matrix.order[1],
        lambda matrix: tfrom.original_ranking(matrix, 1).items,
    ],
    ids=["repeated-item", "other-permutation", "other-row-view", "other-row"],
)
def test_caller_ranking_not_the_preference_order_rejected(name, items):
    # customer 0's order is [2, 1, 0]; customer 1's is [0, 2, 1]
    matrix, catalog, originals = build([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 1, 0])
    wrong = [RankedList(owner=0, items=items(matrix)), originals[1]]
    with pytest.raises(errors.ValidationError, match="not customer 0's preference order"):
        RERANKERS[name](matrix, catalog, wrong, 2)


@pytest.mark.parametrize("name", ["tfrom_offline", "serve_request"])
def test_caller_copies_of_the_preference_order_accepted(name):
    matrix, catalog, originals = build([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 1, 0])
    own = tfrom.original_ranking(matrix, 1).items
    assert own is originals[1].items is tfrom.original_ranking(matrix, 1).items

    def lists(rankings):
        served = RERANKERS[name](matrix, catalog, rankings, 2)
        return served.lists if name == "tfrom_offline" else served[0]

    for copy in (matrix.order[0], matrix.order[0].copy(), [2, 1, 0]):
        assert lists([RankedList(owner=0, items=copy), originals[1]]) == lists(originals)


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

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_draws_are_those_of_generator_choice(self, k):
        # the items, in draw order, of rng.choice over the ranking itself;
        # calls that share one generator continue its stream
        ranking = RankedList(owner=0, items=np.array([4, 0, 3, 1, 2]))
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            want = tuple(int(i) for i in twin.choice(ranking.items, size=k, replace=False))
            assert all_random(ranking, k, rng).items == want

    def test_seed_generator_continues_its_stream(self):
        _, _, originals = build([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        all_random(originals[0], 2, rng)
        twin.choice(4, size=2, replace=False)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer"),
         (None, "seed must be an integer"), (True, "seed must be an integer"),
         ([1, 2], "seed must be an integer"), (np.random.SeedSequence(1), "must be an integer")],
        ids=["negative", "float", "None", "bool", "list", "seed-sequence"],
    )
    def test_seed_follows_the_integer_rule(self, seed, message):
        _, _, originals = build([[1.0, 2.0, 3.0]], [0, 0, 1])
        with pytest.raises(errors.ValidationError, match=message):
            all_random(originals[0], 2, seed)

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

    def test_provider_without_an_item_in_the_ranking_is_passed_over(self):
        # a ranking shorter than n leaves provider 1 without an item, so
        # its lower load must not win a slot
        matrix, catalog, _ = build([[4.0, 3.0, 2.0, 1.0]], [0, 0, 1, 1])
        ledger = np.array([1.0, 0.0])
        prefix = RankedList(owner=0, items=matrix.order[0, :2])
        rec = tfrom.minimum_exposure(prefix, catalog, ledger, 2)
        assert rec.items == (0, 1)
        assert ledger.tolist() == [1.0 + 1.0 + tfrom.position_weight(2), 0.0]


class TestMinimumExposureCell:
    """The sweep's cell on the matrix's queues, against the per-call rule,
    on exact cases at the boundaries of the pick kernel."""

    @staticmethod
    def both(rows, providers, k):
        """The cell's (lists, ledger), checked equal to the per-call loop's."""
        matrix, catalog, originals = build(rows, providers)
        lists, ledger = minimum_exposure_cell(matrix, catalog, originals, k)
        loop_lists, loop_ledger = minimum_exposure_loop(matrix, catalog, originals, k)
        assert lists_bytes(lists) == lists_bytes(loop_lists)
        assert ledger.tobytes() == loop_ledger.tobytes()
        return [rec.items for rec in lists], ledger.tolist()

    def test_equal_loads_go_to_the_lowest_id(self):
        # every customer prefers provider 1's item; the loads tie at 0
        # (customer 0) and at 1 (customer 2), and provider 0 wins both
        lists, ledger = self.both([[1.0, 2.0]] * 3, [0, 1], 1)
        assert lists == [(0,), (1,), (0,)]
        assert ledger == [2.0, 1.0]

    def test_last_item_at_the_last_slot(self):
        # customer 0: provider 1's only item goes at slot 2, provider 0's
        # second and last at slot 3; both are open again for customer 1,
        # whose lower load (provider 1) comes first
        w2 = tfrom.position_weight(2)
        lists, ledger = self.both([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]], [0, 0, 1], 3)
        assert lists == [(0, 2, 1), (2, 1, 0)]
        assert ledger == [1.0 + 0.5 + w2 + 0.5, w2 + 1.0]

    def test_provider_out_mid_list_is_open_for_the_next_customer(self):
        # provider 1 owns one item: customer 0 takes it at slot 2, after
        # which only provider 0 is open; customer 1 takes it at slot 1
        w2, w3 = tfrom.position_weight(2), tfrom.position_weight(3)
        rows = [[3.0, 2.0, 1.0, 4.0]] * 2
        lists, ledger = self.both(rows, [0, 0, 0, 1], 3)
        assert lists == [(0, 3, 1), (3, 0, 1)]
        assert ledger == [1.0 + w3 + w2 + w3, w2 + 1.0]

    def test_one_item_providers_full_lists(self):
        # k = n = l: every provider runs out in every list
        rng = np.random.default_rng(3)
        rows = np.ceil(3 * rng.random((6, 5)))
        lists, _ = self.both(rows, [4, 2, 0, 3, 1], 5)
        assert all(sorted(items) == [0, 1, 2, 3, 4] for items in lists)


# exact ties are common among these loads, -0.0 and 0.0 among them
LOADS = [0.0, -0.0, 0.5, 1.0, 1.0 / math.log2(3)]


@st.composite
def kernel_cases(draw):
    """(ledger, start, end, k, lists) of the pick kernel: up to 8 providers
    with queues of 0 to 4 entries (an empty one included, and most shorter
    than k), and enough lists that k * lists falls below l and above it."""
    l = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 4), min_size=l, max_size=l))
    if sum(counts) == 0:
        counts[draw(st.integers(0, l - 1))] = 1
    # queues start anywhere, as in the matrix's rows, with gaps between them
    gaps = draw(st.lists(st.integers(0, 2), min_size=l, max_size=l))
    start = np.cumsum(np.array(gaps) + [0, *counts[:-1]])
    end = start + counts
    ledger = np.array(draw(st.lists(st.sampled_from(LOADS), min_size=l, max_size=l)))
    k = draw(st.integers(1, sum(counts)))
    lists = draw(st.integers(1, 5))
    return ledger, start, end, k, lists


@settings(max_examples=500, deadline=None)
@given(kernel_cases())
def test_pick_kernel_matches_the_argmin_loop(case):
    ledger, start, end, k, lists = case
    want_ledger = ledger.copy()
    want = oracles.least_exposed_slots_oracle(want_ledger, start, end, k, lists)
    got = _least_exposed_slots(ledger, start, end, k, lists)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ledger.tobytes() == want_ledger.tobytes()


@st.composite
def random_cases(draw):
    """(n, k, lists, seed) of the random cell's kernel: n up to 10,100,
    small more often, so that Floyd's picks collide; k from 1 to n, small
    more often; and lists 0, 1 or many, for a small k on both sides of
    8k, where the kernel starts drawing in one call."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 10_100)))
    k = draw(st.one_of(st.integers(1, min(n, 12)), st.integers(1, n)))
    many = draw(st.integers(max(2, 8 * k - 8), 8 * k + 16) if k <= 12 else st.integers(2, 3))
    lists = draw(st.sampled_from([0, 1, many]))
    return n, k, lists, draw(st.integers(0, 2**64 - 1))


def _check_random_positions(n, k, lists, seed=11):
    # n, k and lists may be numpy integers; the oracle gets plain ints
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    want = oracles.random_positions_oracle(twin, int(n), int(k), int(lists))
    got = _random_positions(rng, n, k, lists)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(random_cases())
def test_random_kernel_matches_one_choice_per_list(case):
    _check_random_positions(*case)


@pytest.mark.parametrize(
    "n, k, lists",
    [
        # both sides of choice's switch to a tail shuffle (n > 10000 and
        # k > n // 50), with 8k lists: only the bound on k keeps the
        # k > 100 cases on one choice per list
        (10_000, 200, 1600), (10_000, 201, 1608), (10_001, 200, 1600), (10_001, 201, 1608),
        (2**33, 3, 24),  # draws past 2**32
        (2000, 100, 800),  # the largest k drawn in one call
        (5, 5, 40),  # k = n: every pick past the first may collide
        (np.uint16(300), np.uint16(20), np.uint16(160)),
        (np.int64(7), np.uint8(2), np.int64(3)),
    ],
)
def test_random_kernel_pinned_cases(n, k, lists):
    _check_random_positions(n, k, lists)


class _CountingGenerator:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize(
    "n, k, lists, batched",
    [(50, 5, 40, True), (50, 5, 39, False), (2000, 100, 800, True), (2000, 101, 808, False),
     (10_001, 201, 1608, False), (9, 1, 8, True), (9, 1, 7, False), (9, 2, 0, False)],
)
def test_random_kernel_draws_in_one_call_where_cheaper(n, k, lists, batched):
    rng = _CountingGenerator(5)
    _random_positions(rng, n, k, lists)
    want = {"integers": 1} if batched else {"choice": lists}
    assert rng.calls == collections.Counter(want)  # a missing key counts 0


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

    def test_long_rankings(self):
        # 40 items: numpy's default argsort would not keep the items of one
        # provider in preference order
        for case in range(10):
            rng = np.random.default_rng(7600 + case)
            scores, assignments = random_mini_instance(
                rng, max_m=3, max_n=40, max_l=4, ties=case % 2 == 1
            )
            l = int(assignments.max()) + 1
            k = int(rng.integers(1, scores.shape[1] + 1))
            self.replay(rng, scores, assignments, k, np.zeros(l))

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
