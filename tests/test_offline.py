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

    def test_insufficient_items(self):
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        with pytest.raises(errors.InsufficientItems):
            tfrom.tfrom_offline(matrix, catalog, originals, 3, FairnessMode.UNIFORM, seed=0)

    def test_zero_k_rejected(self):
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        with pytest.raises(errors.InvalidDimension):
            tfrom.tfrom_offline(matrix, catalog, originals, 0, FairnessMode.UNIFORM, seed=0)


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
            ref = oracles.offline_oracle(
                scores.tolist(), [int(p) for p in catalog.provider_of], k, mode, seed=case
            )
            assert [list(r.items) for r in run.lists] == ref["lists"]
            assert run.ledger.tolist() == ref["exposure"]
            assert run.quality.tolist() == ref["quality"]
            assert set(run.skipped) == ref["skipped"]
            assert run.step.tolist() == ref["step"]
            assert run.exposure_before.tolist() == ref["exposure_before"]


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
