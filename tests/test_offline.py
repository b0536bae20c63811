import math

import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import placement_log, random_mini_instance
from tfrom import errors
from tfrom.targets import FairnessMode


def build(rows, providers):
    matrix, catalog = tfrom.build_instance(rows, providers)
    return matrix, catalog, tfrom.original_rankings(matrix)


def assert_matches_oracle(run, rows, providers, k, mode, seed):
    """``run`` equals the straight-line interpreter's run in all six fields."""
    ref = oracles.offline_oracle(rows, providers, k, mode.value, seed=seed)
    assert [list(r.items) for r in run.lists] == ref["lists"]
    assert run.ledger.tolist() == ref["exposure"]
    assert run.quality.tolist() == ref["quality"]
    assert set(run.skipped) == ref["skipped"]
    assert run.step.tolist() == ref["step"]
    assert run.exposure_before.tolist() == ref["exposure_before"]


def checked_run(rows, providers, k, mode, seed):
    matrix, catalog, originals = build(rows, providers)
    run = tfrom.tfrom_offline(matrix, catalog, originals, k, mode, seed=seed)
    assert_matches_oracle(run, rows, providers, k, mode, seed)
    return run


def by_step(run, rank):
    """The customers placed at ``rank``, in the order they were placed."""
    column = run.step[:, rank - 1]
    return np.argsort(column, kind="stable").tolist()


class TestSmallCases:
    def test_single_provider_budget_exactly_binding(self):
        # one customer, one provider, k=2: the whole budget goes to the
        # only provider and both slots fit, so the output is the top-2
        matrix, catalog, originals = build([[5.0, 4.0, 3.0]], [0, 0, 0])
        run = tfrom.tfrom_offline(matrix, catalog, originals, 2, FairnessMode.UNIFORM, seed=0)
        assert run.lists[0].items == (0, 1)
        assert run.skipped == frozenset()

    def test_full_length_list_is_permutation(self):
        matrix, catalog, originals = build([[0.3, 0.9, 0.5, 0.1]], [0, 1, 0, 1])
        run = tfrom.tfrom_offline(matrix, catalog, originals, 4, FairnessMode.UNIFORM, seed=1)
        assert sorted(run.lists[0].items) == [0, 1, 2, 3]

    def test_placement_that_meets_the_limit_exactly_fits(self):
        # provider 0's quality-weighted budget is 1.999999999999, so its
        # limit (budget plus slack) is exactly 2.0: the second rank-1
        # placement brings it to exactly that and still fits
        matrix, catalog, originals = build([[1.0, 4.9994e-13], [1.0, 4.9994e-13]], [0, 1])
        run = tfrom.tfrom_offline(
            matrix, catalog, originals, 1, FairnessMode.QUALITY_WEIGHTED, seed=0
        )
        assert run.targets.per_provider[0] + 1e-12 == 2.0
        assert [rec.items for rec in run.lists] == [(0,), (0,)]
        assert run.skipped == frozenset()

    def test_phase_two_fills_two_slots_from_one_provider(self):
        # customer 0's ranks 4 and 5 stay open in phase 1 and both go to
        # provider 1, of items 1 and 5, which customer 0 ranks 5, 1 and
        # customer 1 ranks 1, 5: the second refill must follow customer
        # 0's own queue
        rows = [[3.0, 0.0, 1.0, 3.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]]
        run = checked_run(rows, [0, 1, 0, 2, 0, 1], 5, FairnessMode.QUALITY_WEIGHTED, seed=0)
        assert run.skipped == frozenset({(0, 4), (0, 5), (1, 5)})
        assert run.lists[0].items == (0, 3, 2, 5, 1)

    def test_insufficient_items(self):
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        with pytest.raises(errors.InsufficientItems):
            tfrom.tfrom_offline(matrix, catalog, originals, 3, FairnessMode.UNIFORM, seed=0)

    def test_zero_k_rejected(self):
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        with pytest.raises(errors.InvalidDimension):
            tfrom.tfrom_offline(matrix, catalog, originals, 0, FairnessMode.UNIFORM, seed=0)


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, None, 1.5, True, np.float64(2), "2"])
    def test_rejected_before_any_work(self, seed):
        # k = 0 would fail its own check, so the seed is checked first
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        for k in (1, 0):
            with pytest.raises(errors.ValidationError, match="seed"):
                tfrom.tfrom_offline(matrix, catalog, originals, k, FairnessMode.UNIFORM, seed)

    def test_numpy_integer_accepted(self):
        matrix, catalog, originals = build([[4.0, 3.0, 2.0, 1.0]] * 3, [0, 0, 1, 1])
        runs = [
            tfrom.tfrom_offline(matrix, catalog, originals, 2, FairnessMode.UNIFORM, seed)
            for seed in (np.int64(3), np.uint16(3), 3)
        ]
        for run in runs[:2]:
            assert run.step.tobytes() == runs[2].step.tobytes()
            assert run.exposure_before.tobytes() == runs[2].exposure_before.tobytes()
            assert [r.items for r in run.lists] == [r.items for r in runs[2].lists]


class TestSaturationEvents:
    """Providers that fill partway through a rank, each case also checked
    against the oracle in all six fields. With k = 1 the slot weight is
    1.0, so a provider admits floor(limit) placements."""

    QW = FairnessMode.QUALITY_WEIGHTED

    def test_provider_fills_exactly_at_its_limit(self):
        # three customers prefer item 0 (provider 0); item 1's score sets
        # provider 0's limit (budget plus slack) to exactly 2.0, so the
        # second placement meets it and fits, and the third customer moves
        # to provider 1
        rows = [[1.0, 0.5000000000007498]] * 3
        run = checked_run(rows, [0, 1], 1, self.QW, seed=0)
        assert run.targets.per_provider[0] + 1e-12 == 2.0
        first, second, third = by_step(run, 1)
        assert [run.lists[u].items for u in (first, second, third)] == [(0,), (0,), (1,)]
        assert [run.exposure_before[u, 0] for u in (first, second)] == [0.0, 1.0]
        assert run.ledger.tolist()[0] == 2.0
        assert run.skipped == frozenset()

    def test_first_placement_meets_the_limit_exactly(self):
        # item 1's score sets provider 1's limit to exactly 1.0, the weight
        # of one rank-1 slot: provider 1 is open from the start of the
        # rank, and takes the third customer once provider 0 is full
        rows = [[3.0, 1.4999999999977498]] * 3
        run = checked_run(rows, [0, 1], 1, self.QW, seed=0)
        assert run.targets.per_provider[1] + 1e-12 == 1.0
        first, second, third = by_step(run, 1)
        assert [run.lists[u].items for u in (first, second, third)] == [(0,), (0,), (1,)]
        assert run.ledger.tolist()[1] == 1.0
        assert run.skipped == frozenset()

    def test_one_ulp_below_the_exact_fit(self):
        # a limit one ulp below 2.0 admits one placement: the second
        # customer moves to provider 1, whose limit (about 1.0) then admits
        # no more, so the third is left for phase 2
        rows = [[1.0, 0.5000000000007501]] * 3
        run = checked_run(rows, [0, 1], 1, self.QW, seed=0)
        assert run.targets.per_provider[0] + 1e-12 == math.nextafter(2.0, -math.inf)
        first, second, third = by_step(run, 1)
        assert [run.lists[u].items for u in (first, second)] == [(0,), (1,)]
        assert run.skipped == frozenset({(third, 1)})

    def test_customer_chooses_again_twice(self):
        # one item per provider and a budget of 1.0 each. Seed 1 visits
        # customers 0, 1, 2; customer 2 prefers items 0, 1, 2 in that
        # order, finds provider 0 full after customer 0, then provider 1
        # full after customer 1, and takes item 2
        rows = [[3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [3.0, 2.0, 1.0]]
        run = checked_run(rows, [0, 1, 2], 1, FairnessMode.UNIFORM, seed=1)
        assert run.step[:, 0].tolist() == [0, 1, 2]
        assert [rec.items for rec in run.lists] == [(0,), (1,), (2,)]
        assert run.skipped == frozenset()

    def test_every_provider_full_partway_through_a_rank(self):
        # five customers, three one-item providers with room for one
        # placement each (5/3): the first three visits take items 0, 1, 2,
        # the last two find every provider full. Phase 2 gives the first of
        # them item 0 (all loads tie, so the best-ranked head wins) and the
        # second item 1, of the least-loaded provider left
        rows = [[3.0, 2.0, 1.0]] * 5
        run = checked_run(rows, [0, 1, 2], 1, FairnessMode.UNIFORM, seed=4)
        order = by_step(run, 1)
        assert [run.lists[u].items for u in order] == [(0,), (1,), (2,), (0,), (1,)]
        assert run.skipped == frozenset({(order[3], 1), (order[4], 1)})
        assert run.ledger.tolist() == [2.0, 2.0, 1.0]

    def test_mover_whose_open_queue_is_empty(self):
        # one item per provider; provider 0 never fits. Rank 1 (customers
        # 2, 0, 1) empties the provider-1 queues of customers 2 and 0. At
        # rank 2 (customers 2, 0, 1) providers 1 and 2 each admit one more
        # placement: customer 2 takes item 2, so customer 0 must move, and
        # its only open provider with room, 1, has an empty queue for it;
        # customer 1, visited later, still takes item 1
        rows = [[1.0, 9.0, 9.0], [2.0, 7.0, 1.0], [1.0, 4.0, 3.0]]
        run = checked_run(rows, [0, 1, 2], 2, self.QW, seed=77)
        assert by_step(run, 1) == [2, 0, 1]
        assert [rec.items for rec in run.lists] == [(1, 0), (2, 1), (1, 2)]
        assert run.skipped == frozenset({(0, 2)})


class TestGoldenMiniTable:
    """Two customers, four items split across two providers, k=2.

    Expected values were produced by the straight-line interpreter in
    oracles.py before this implementation existed, for both rank-1 visit
    orders, and are frozen here.
    """

    ROWS = [[4.0, 3.0, 2.0, 1.0], [4.0, 3.0, 2.0, 1.0]]
    PROVIDERS = [0, 0, 1, 1]

    def run(self, seed):
        matrix, catalog, originals = build(self.ROWS, self.PROVIDERS)
        return tfrom.tfrom_offline(matrix, catalog, originals, 2, FairnessMode.UNIFORM, seed=seed)

    def test_visit_order_0_then_1(self):
        run = self.run(seed=0)  # rank-1 shuffle visits customer 0 first
        assert [list(rec.items) for rec in run.lists] == [[0, 1], [2, 3]]
        assert run.ledger == approx([1.6309297535714575, 1.6309297535714575], rel=1e-12)
        assert run.quality == approx([1.0, 0.4464659496838199], rel=1e-12)
        assert run.skipped == frozenset()

    def test_visit_order_1_then_0(self):
        run = self.run(seed=3)  # rank-1 shuffle visits customer 1 first
        assert [list(rec.items) for rec in run.lists] == [[2, 3], [0, 1]]
        assert run.quality == approx([0.4464659496838199, 1.0], rel=1e-12)


def run_random_case(seed, mode=FairnessMode.UNIFORM, max_m=6, max_n=12, max_k=5):
    rng = np.random.default_rng(seed)
    scores, assignments = random_mini_instance(rng, max_m=max_m, max_n=max_n, max_l=4)
    matrix, catalog = tfrom.build_instance(scores, assignments)
    originals = tfrom.original_rankings(matrix)
    k = int(rng.integers(1, min(matrix.n, max_k) + 1))
    run = tfrom.tfrom_offline(matrix, catalog, originals, k, mode, seed=seed)
    return matrix, catalog, originals, k, run


class TestInvariants:
    def test_budget_safety_of_phase_one(self):
        for seed in range(25):
            _, catalog, _, _, run = run_random_case(seed)
            for event in placement_log(run, catalog):
                if event.phase == 1:
                    assert event.exposure_before + event.weight <= event.budget + 1e-12

    def test_rank_synchronization(self):
        # within each phase no later rank is filled before an earlier one
        # has been handled for all customers
        for seed in range(10):
            _, catalog, _, _, run = run_random_case(seed)
            assert sorted(run.step.ravel().tolist()) == list(range(run.step.size))
            events = placement_log(run, catalog)
            for phase in (1, 2):
                ranks = [e.rank for e in events if e.phase == phase]
                assert ranks == sorted(ranks)
            phases = [e.phase for e in events]
            assert phases == sorted(phases)

    def test_lists_complete_and_duplicate_free(self):
        for seed in range(25):
            matrix, _, _, k, run = run_random_case(seed)
            for rec in run.lists:
                assert rec.k == k
                assert all(0 <= item < matrix.n for item in rec.items)

    def test_ledger_matches_metrics_recompute(self):
        for seed in range(25):
            _, catalog, _, _, run = run_random_case(seed)
            report = tfrom.exposure(run.lists, catalog)
            assert run.ledger == approx(report.per_provider, abs=1e-9)

    def test_quality_matches_final_list_ndcg(self):
        for seed in range(25):
            matrix, _, originals, _, run = run_random_case(seed)
            for u, rec in enumerate(run.lists):
                assert run.quality[u] == approx(
                    tfrom.ndcg(u, rec, matrix, originals[u]), abs=1e-9
                )

    def test_exposure_conservation(self):
        for seed in range(25):
            matrix, _, _, k, run = run_random_case(seed)
            assert run.ledger.sum() == approx(
                tfrom.total_exposure(matrix.m, k), abs=1e-9
            )

    def test_skipped_slots_all_filled_in_phase_two(self):
        for seed in range(25):
            _, catalog, _, _, run = run_random_case(seed)
            events = placement_log(run, catalog)
            refilled = {(e.customer, e.rank) for e in events if e.phase == 2}
            assert refilled == set(run.skipped)

    def test_deterministic(self):
        for seed in (0, 7):
            _, _, _, _, first = run_random_case(seed)
            _, _, _, _, second = run_random_case(seed)
            assert [r.items for r in first.lists] == [r.items for r in second.lists]
            assert first.ledger.tolist() == second.ledger.tolist()

    def test_quality_weighted_mode_also_valid(self):
        for seed in range(10):
            matrix, catalog, _, k, run = run_random_case(
                seed, mode=FairnessMode.QUALITY_WEIGHTED
            )
            assert run.ledger.sum() == approx(
                tfrom.total_exposure(matrix.m, k), abs=1e-9
            )


class TestOracleEquivalence:
    def test_mini_fuzz_sample(self):
        # a slice of the acceptance fuzz: 20 continuous and 20 tie-heavy cases
        for case in [*range(20), *range(100, 120)]:
            rng = np.random.default_rng(1000 + case)
            scores, assignments = random_mini_instance(rng, ties=case >= 100)
            matrix, catalog = tfrom.build_instance(scores, assignments)
            originals = tfrom.original_rankings(matrix)
            k = int(rng.integers(1, min(matrix.n, 3) + 1))
            mode = "uniform" if case % 2 == 0 else "quality-weighted"
            run = tfrom.tfrom_offline(
                matrix, catalog, originals, k, FairnessMode(mode), seed=case
            )
            assert_matches_oracle(
                run, scores.tolist(), catalog.provider_of.tolist(), k, FairnessMode(mode), case
            )


class TestTradeOffDirection:
    def test_fairer_than_topk_but_not_higher_quality(self, golden_instance):
        matrix, catalog, originals = golden_instance
        k = 10
        run = tfrom.tfrom_offline(matrix, catalog, originals, k, FairnessMode.UNIFORM, seed=42)
        topk = [tfrom.top_k(originals[u], k) for u in range(matrix.m)]
        fair_run = tfrom.uniform_provider_fairness(tfrom.exposure(run.lists, catalog))
        fair_topk = tfrom.uniform_provider_fairness(tfrom.exposure(topk, catalog))
        assert fair_run < fair_topk
        quality_run = tfrom.total_quality(tfrom.quality(run.lists, matrix, originals))
        quality_topk = tfrom.total_quality(tfrom.quality(topk, matrix, originals))
        assert quality_topk == approx(float(matrix.m), rel=1e-12)
        assert quality_run <= quality_topk
