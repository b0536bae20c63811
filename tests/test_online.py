import json
import math
from unittest import mock

import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import random_mini_instance
from tfrom import errors, model
from tfrom.experiments import StreamTracker
from tfrom.metrics import slot_weights
from tfrom.offline import BUDGET_SLACK
from tfrom.online import OnlineState
from tfrom.targets import FairnessMode


def build(rows, providers):
    matrix, catalog = tfrom.build_instance(rows, providers)
    return matrix, catalog, tfrom.original_rankings(matrix)


class TestSingleRequests:
    def test_cold_start_emits_top_k(self):
        # three providers, k=2: every budget is below the smallest slot
        # weight on the first request, so the budget pass selects nothing
        matrix, catalog, originals = build(
            [[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]], [0, 1, 2, 0, 1, 2]
        )
        state = OnlineState.fresh(1, catalog.l)
        rec, state = tfrom.serve_request(
            state, 0, matrix, catalog, originals[0], 2, FairnessMode.UNIFORM
        )
        assert rec.items == tfrom.top_k(originals[0], 2).items
        assert state.c_num == 1

    def test_single_provider_second_request_reuses_top_item(self):
        # budget after two requests is 2.0; the top item costs 1.0 per
        # request, so it fits again
        matrix, catalog, originals = build([[3.0, 1.0]], [0, 0])
        state = OnlineState.fresh(1, catalog.l)
        first, state = tfrom.serve_request(
            state, 0, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM
        )
        second, state = tfrom.serve_request(
            state, 0, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM
        )
        assert first.items == second.items == (0,)

    def test_repeated_requests_never_emit_duplicates(self):
        matrix, catalog, originals = build(
            [[5.0, 4.0, 3.0, 2.0, 1.0, 0.5]], [0, 0, 1, 1, 0, 1]
        )
        state = OnlineState.fresh(1, catalog.l)
        for _ in range(6):
            rec, state = tfrom.serve_request(
                state, 0, matrix, catalog, originals[0], 3, FairnessMode.UNIFORM
            )
            assert len(set(rec.items)) == 3
            assert all(0 <= item < matrix.n for item in rec.items)

    def test_unknown_customer(self):
        matrix, catalog, originals = build([[1.0]], [0])
        state = OnlineState.fresh(1, catalog.l)
        with pytest.raises(errors.UnknownCustomer):
            tfrom.serve_request(state, 5, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM)

    def test_insufficient_items(self):
        matrix, catalog, originals = build([[1.0, 2.0]], [0, 1])
        state = OnlineState.fresh(1, catalog.l)
        with pytest.raises(errors.InsufficientItems):
            tfrom.serve_request(state, 0, matrix, catalog, originals[0], 3, FairnessMode.UNIFORM)

    def test_mismatched_original_rejected(self):
        matrix, catalog, originals = build([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        state = OnlineState.fresh(2, catalog.l)
        with pytest.raises(errors.ValidationError):
            tfrom.serve_request(state, 0, matrix, catalog, originals[1], 1, FairnessMode.UNIFORM)


def serve_from(rows, providers, k, exposure, c_num, mode=FairnessMode.UNIFORM):
    """Serve customer 0 once from the state (exposure, c_num), check the list
    and the new exposure bits against the oracle, and return both."""
    matrix, catalog, originals = build(rows, providers)
    state = OnlineState(exposure=np.array(exposure, dtype=np.float64), c_num=c_num)
    rec, new = tfrom.serve_request(state, 0, matrix, catalog, originals[0], k, mode)
    mirror = oracles.fresh_online_state(matrix.m, catalog.l, list(exposure), c_num)
    expected = oracles.online_oracle_request(
        mirror, 0, np.asarray(rows, dtype=float).tolist(), catalog.provider_of.tolist(), k,
        mode.value,
    )
    assert list(rec.items) == expected
    assert new.exposure.tolist() == mirror["exposure"]
    return rec.items, new.exposure.tolist()


def shares(rows, providers, k, c_num):
    """Each provider's uniform budget after c_num requests."""
    matrix, catalog, _ = build(rows, providers)
    total = tfrom.online_total_exposure(c_num, k)
    return tfrom.fair_targets(FairnessMode.UNIFORM, total, catalog, matrix).per_provider.tolist()


def fitting_exactly(limit, w):
    """The exposure e with e + w == limit in floating point: a provider
    at e fits a slot of weight w with nothing to spare."""
    e = limit - w
    while e + w > limit:
        e = math.nextafter(e, -math.inf)
    while math.nextafter(e, math.inf) + w <= limit:
        e = math.nextafter(e, math.inf)
    assert e + w == limit
    return e


class TestBudgetPass:
    ROW = [[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]]  # the order is item 0, 1, ..., 5

    def test_cold_start_has_no_open_provider(self):
        # first request: each budget is 1.63/3 = 0.54, below both slot weights
        providers = [0, 1, 2, 0, 1, 2]
        budgets = shares(self.ROW, providers, 2, 1)
        w = slot_weights(2)
        assert all(w[-1] > budget + 1e-12 for budget in budgets)
        items, exposure = serve_from(self.ROW, providers, 2, [0.0] * 3, 0)
        assert items == (0, 1)
        assert exposure == [w[0], w[1], 0.0]

    def test_one_provider_taken_twice_then_another(self):
        # provider 0 has room for ranks 1 and 2 (1 + 0.63 <= 1.7) but not
        # for rank 3; provider 1 only for rank 3 (0.5 <= 0.55), so item 2,
        # provider 0's third, is passed over
        providers = [0, 0, 0, 1, 1, 1]
        share = shares(self.ROW, providers, 3, 3)
        exposure = [share[0] - 1.7, share[1] - 0.55]
        items, after = serve_from(self.ROW, providers, 3, exposure, 2)
        assert items == (0, 1, 3)
        assert after[1] == exposure[1] + slot_weights(3)[2]

    def test_provider_skips_a_rank_then_fits_again(self):
        # provider 0 takes rank 1, then lacks room for rank 2 (0.63 > 0.55)
        # but has it for rank 3 (0.5); provider 1 fits rank 2 only
        providers = [0, 0, 0, 1, 1, 1]
        share = shares(self.ROW, providers, 3, 3)
        exposure = [share[0] - 1.55, share[1] - 0.7]
        items, _ = serve_from(self.ROW, providers, 3, exposure, 2)
        assert items == (0, 3, 1)

    def test_queue_emptied_mid_request(self):
        # provider 0 owns items 0 and 1 and has room for every slot; once
        # its queue is empty, rank 3 fits no provider and pass 2 gives it
        # item 2, the best one left
        providers = [0, 0, 1, 1, 2, 2]
        share = shares(self.ROW, providers, 3, 3)
        items, after = serve_from(self.ROW, providers, 3, [0.0, share[1], share[2]], 2)
        assert items == (0, 1, 2)
        assert after[1] == share[1] + slot_weights(3)[2]

    def test_one_item_provider_emptied_at_rank_1(self):
        # provider 0 owns only item 0 and has room for ranks 1 and 2 (2.0);
        # provider 1 has room for rank 3 alone (0.5 <= 0.6), so rank 2 is
        # a vacancy that pass 2 fills with item 2 after pass 1 put item 1
        # at rank 3
        providers = [0, 1, 1, 2, 2, 2]
        share = shares(self.ROW, providers, 3, 10)
        exposure = [share[0] - 2.0, share[1] - 0.6, share[2]]
        items, _ = serve_from(self.ROW, providers, 3, exposure, 9)
        assert items == (0, 2, 1)

    def test_exact_fit_of_the_last_slot(self):
        # provider 0 fits rank 3 with nothing to spare and no earlier rank,
        # so its best item goes last; one ulp more exposure and it fits
        # nothing; provider 1 is at its budget
        providers = [0, 0, 0, 1, 1, 1]
        share = shares(self.ROW, providers, 3, 3)
        e = fitting_exactly(share[0] + BUDGET_SLACK, slot_weights(3)[2])
        items, _ = serve_from(self.ROW, providers, 3, [e, share[1]], 2)
        assert items == (1, 2, 0)
        over = math.nextafter(e, math.inf)
        items, _ = serve_from(self.ROW, providers, 3, [over, share[1]], 2)
        assert items == (0, 1, 2)

    def test_exact_fit_of_the_last_slot_after_a_take(self):
        # provider 0 takes rank 1, which leaves it exactly room for rank 3
        # (item 1); rank 2 fits no provider and pass 2 gives it item 2
        providers = [0, 0, 0, 1, 1, 1]
        share = shares(self.ROW, providers, 3, 3)
        w = slot_weights(3)
        after_rank_1 = fitting_exactly(share[0] + BUDGET_SLACK, w[2])
        e = fitting_exactly(after_rank_1, w[0])
        items, _ = serve_from(self.ROW, providers, 3, [e, share[1]], 2)
        assert items == (0, 2, 1)

    def test_single_provider_full_list(self):
        # l = 1 and k = n: ranks 1 and 2 fit the budget, 3 and 4 are vacancies
        row = [[3.0, 1.0, 2.0, 5.0]]
        budget = shares(row, [0] * 4, 4, 6)[0]
        items, after = serve_from(row, [0] * 4, 4, [budget - 1.7], 5)
        assert items == (3, 0, 2, 1)
        w = slot_weights(4)
        assert after == [budget - 1.7 + w[0] + w[1] + w[2] + w[3]]

    @pytest.mark.parametrize("mode", list(FairnessMode))
    def test_k_equals_n_mid_stream(self, mode):
        rng = np.random.default_rng(11)
        rows = rng.random((3, 9)).tolist()
        providers = [0, 1, 2, 3, 0, 1, 2, 0, 0]
        for c_num in (1, 4, 30):
            matrix, catalog, _ = build(rows, providers)
            budget = tfrom.fair_targets(
                mode, tfrom.online_total_exposure(c_num, 9), catalog, matrix
            ).per_provider
            exposure = (budget * rng.uniform(0.0, 1.2, size=4)).tolist()
            items, _ = serve_from(rows, providers, 9, exposure, c_num, mode)
            assert sorted(items) == list(range(9))

    def test_slot_weights_fall_strictly_with_rank(self):
        # the budget pass drops every provider over its limit at the last
        # slot, which is right only while the weights fall with rank
        weights = np.array(slot_weights(100_000))
        assert (np.diff(weights) < 0).all()

    def test_prebuilt_queues_are_reused(self):
        matrix, catalog, originals = build([[2.0, 1.0, 3.0], [1.0, 3.0, 2.0]], [0, 1, 0])
        queues = matrix.provider_queues(catalog)
        state = OnlineState.fresh(matrix.m, catalog.l)
        with mock.patch.object(model, "ProviderQueues", side_effect=AssertionError("rebuilt")):
            for u in (0, 1, 0):
                _, state = tfrom.serve_request(
                    state, u, matrix, catalog, originals[u], 2, FairnessMode.UNIFORM
                )
        assert matrix.provider_queues(catalog) is queues


class TestStateBoundary:
    """A served state must hold one finite, non-negative float64 exposure
    per provider and an integer request count, and the customer id must be
    an integer: 30 customers, 40 items, 4 providers, after 50 requests."""

    @pytest.fixture(scope="class")
    def instance(self):
        matrix, catalog = tfrom.build_instance(*tfrom.generate_synthetic(30, 40, 4, seed=5))
        return matrix, catalog, tfrom.original_rankings(matrix)

    def serve(self, instance, state, u=3):
        matrix, catalog, originals = instance
        return tfrom.serve_request(
            state, u, matrix, catalog, originals[3], 5, FairnessMode.UNIFORM
        )

    @pytest.mark.parametrize(
        "exposure, message",
        [
            (np.array([0, 0, 0, 1]), "float64 array, got int64"),
            (np.array([0.82, 0.63, 0.5, 1.0], dtype=np.float32), "float64 array, got float32"),
            ([0.82, 0.63, 0.5, 1.0], "float64 array, got list"),
            (np.zeros((2, 2)), r"1-d float64 array, got float64 array of shape \(2, 2\)"),
            (np.zeros(3), "tracks 3 providers, the catalog has 4"),
            (np.array([0.82, np.nan, 0.5, 1.0]), "finite and non-negative"),
            (np.array([0.82, np.inf, 0.5, 1.0]), "finite and non-negative"),
            (np.array([0.82, -0.1, 0.5, 1.0]), "finite and non-negative"),
        ],
        ids=["int64", "float32", "list", "2d", "short", "nan", "inf", "negative"],
    )
    def test_bad_exposure_rejected(self, instance, exposure, message):
        with pytest.raises(errors.ValidationError, match=message):
            self.serve(instance, OnlineState(exposure=exposure, c_num=50))

    @pytest.mark.parametrize("c_num", [-1, 2.5, 50.0, "50", True, None, np.float64(7)])
    def test_bad_request_count_rejected(self, instance, c_num):
        with pytest.raises(errors.ValidationError, match="request count"):
            self.serve(instance, OnlineState(exposure=np.full(4, 0.5), c_num=c_num))

    @pytest.mark.parametrize("u", [3.0, np.float64(3), "3", True, None, 1.5])
    def test_customer_id_must_be_an_integer(self, instance, u):
        state = OnlineState(exposure=np.full(4, 0.5), c_num=50)
        with pytest.raises(errors.UnknownCustomer, match="must be an integer"):
            self.serve(instance, state, u)

    @pytest.mark.parametrize("u", [np.int64(3), np.uint16(3)])
    def test_numpy_integer_customer_id_served(self, instance, u):
        state = OnlineState(exposure=np.full(4, 0.5), c_num=50)
        rec, after = self.serve(instance, state, u)
        plain, plain_after = self.serve(instance, state, 3)
        assert rec.items == plain.items
        assert after.exposure.tobytes() == plain_after.exposure.tobytes()


def replay_stream(seed, length_factor=6, mode=FairnessMode.UNIFORM):
    rng = np.random.default_rng(seed)
    scores, assignments = random_mini_instance(rng, max_m=4, max_n=8, max_l=3)
    matrix, catalog = tfrom.build_instance(scores, assignments)
    originals = tfrom.original_rankings(matrix)
    k = int(rng.integers(1, min(matrix.n, 3) + 1))
    stream = rng.integers(0, matrix.m, size=length_factor * matrix.m)
    state = OnlineState.fresh(matrix.m, catalog.l)
    tracker = StreamTracker(matrix, catalog, originals)
    served = []
    for u in stream:
        rec, state = tfrom.serve_request(
            state, int(u), matrix, catalog, originals[int(u)], k, mode
        )
        tracker.record(rec)
        served.append(rec)
    return matrix, catalog, originals, stream, served, state, tracker


class TestStateInvariants:
    def test_request_count_matches_service_counts(self):
        for seed in range(10):
            *_, state, tracker = replay_stream(seed)
            assert state.c_num == int(tracker.rec_time.sum())

    def test_exposure_matches_served_lists(self):
        for seed in range(10):
            _, catalog, _, _, served, state, _ = replay_stream(seed)
            report = tfrom.exposure(served, catalog)
            assert state.exposure == approx(report.per_provider, abs=1e-9)

    def test_average_quality_is_mean_of_request_quality(self):
        # replay the event log through the metrics module independently
        for seed in range(10):
            matrix, _, originals, _, served, _, tracker = replay_stream(seed)
            per_customer = {}
            for rec in served:
                per_customer.setdefault(rec.owner, []).append(
                    tfrom.ndcg(rec.owner, rec, matrix, originals[rec.owner])
                )
            for u, values in per_customer.items():
                assert tracker.avg_quality[u] == approx(np.mean(values), abs=1e-9)

    def test_average_quality_bounded(self):
        for seed in range(10):
            *_, tracker = replay_stream(seed)
            assert (tracker.avg_quality <= 1.0 + 1e-12).all()
            assert (tracker.avg_quality >= 0.0).all()

    def test_deterministic_given_stream(self):
        first = replay_stream(3)
        second = replay_stream(3)
        assert [r.items for r in first[4]] == [r.items for r in second[4]]

    def test_state_survives_serialization(self):
        matrix, catalog, originals, _, _, state, _ = replay_stream(5)
        clone = OnlineState.from_dict(state.to_dict())
        rec_a, _ = tfrom.serve_request(
            state, 0, matrix, catalog, originals[0], 2, FairnessMode.UNIFORM
        )
        rec_b, _ = tfrom.serve_request(
            clone, 0, matrix, catalog, originals[0], 2, FairnessMode.UNIFORM
        )
        assert rec_a.items == rec_b.items

    @pytest.mark.parametrize("mode", list(FairnessMode))
    def test_mid_stream_json_round_trip_continues_identically(self, mode):
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            scores, assignments = random_mini_instance(
                rng, max_m=4, max_n=8, max_l=3, ties=seed % 2 == 1
            )
            matrix, catalog = tfrom.build_instance(scores, assignments)
            originals = tfrom.original_rankings(matrix)
            k = int(rng.integers(1, min(matrix.n, 3) + 1))

            def serve(state, stream):
                lists = []
                for u in stream:
                    rec, state = tfrom.serve_request(
                        state, int(u), matrix, catalog, originals[int(u)], k, mode
                    )
                    lists.append(rec.items)
                return lists, state

            stream = rng.integers(0, matrix.m, size=8 * matrix.m)
            cut = int(rng.integers(1, stream.size))
            fresh = OnlineState.fresh(matrix.m, catalog.l)
            unbroken, final = serve(fresh, stream)
            head, state = serve(fresh, stream[:cut])
            restored = OnlineState.from_dict(json.loads(json.dumps(state.to_dict())))
            tail, resumed = serve(restored, stream[cut:])
            assert head + tail == unbroken
            assert resumed.exposure.tobytes() == final.exposure.tobytes()
            assert resumed.c_num == final.c_num

    def test_serving_does_not_mutate_input_state(self):
        matrix, catalog, originals = build([[2.0, 1.0]], [0, 1])
        state = OnlineState.fresh(1, catalog.l)
        before = state.to_dict()
        tfrom.serve_request(state, 0, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM)
        assert state.to_dict() == before


class TestStateRestore:
    def snapshot(self, **changes):
        payload = {"exposure": [1.0, 0.5, 0.0], "c_num": 2}
        payload.update(changes)
        return payload

    def test_round_trip(self):
        state = OnlineState.from_dict(self.snapshot())
        assert state.to_dict() == self.snapshot()

    @pytest.mark.parametrize("key", ["exposure", "c_num"])
    def test_missing_key(self, key):
        payload = self.snapshot()
        del payload[key]
        with pytest.raises(errors.ValidationError):
            OnlineState.from_dict(payload)

    @pytest.mark.parametrize(
        "exposure",
        [[[1.0, 0.5]], 1.0, [1.0, float("nan")], [1.0, float("inf")], [1.0, -0.5], ["a"]],
        ids=["2d", "scalar", "nan", "inf", "negative", "text"],
    )
    def test_bad_exposure(self, exposure):
        with pytest.raises(errors.ValidationError):
            OnlineState.from_dict(self.snapshot(exposure=exposure))

    @pytest.mark.parametrize("c_num", [-1, 1.5, 2.0, "2", True, None])
    def test_bad_request_count(self, c_num):
        with pytest.raises(errors.ValidationError):
            OnlineState.from_dict(self.snapshot(c_num=c_num))

    def test_wrong_provider_count_rejected_on_serve(self):
        matrix, catalog, originals = build([[2.0, 1.0]], [0, 1])
        state = OnlineState.from_dict({"exposure": [0.0, 0.0, 0.0], "c_num": 0})
        with pytest.raises(errors.ValidationError):
            tfrom.serve_request(state, 0, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM)


class TestStateContract:
    """A state is checked when it is built and its exposure is read-only,
    so ``serve_request`` trusts the states it returns."""

    def test_every_state_is_read_only(self):
        matrix, catalog, originals = build([[2.0, 1.0, 3.0], [1.0, 3.0, 2.0]], [0, 1, 0])
        fresh = OnlineState.fresh(matrix.m, catalog.l)
        _, served = tfrom.serve_request(
            fresh, 0, matrix, catalog, originals[0], 2, FairnessMode.UNIFORM
        )
        restored = OnlineState.from_dict(served.to_dict())
        built = OnlineState(exposure=np.ones(2), c_num=1)
        for state in (fresh, served, restored, built):
            assert not state.exposure.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                state.exposure[0] = 5.0
            assert type(state.c_num) is int

    def test_caller_array_is_copied(self):
        exposure = np.array([1.0, 0.5])
        state = OnlineState(exposure=exposure, c_num=np.int64(3))
        exposure[0] = 9.0
        assert state.exposure.tolist() == [1.0, 0.5]
        assert exposure.flags.writeable
        assert state.c_num == 3 and type(state.c_num) is int

    def test_bad_state_refused_when_built(self):
        # before any request: the error is the constructor's, not serve_request's
        with pytest.raises(errors.ValidationError, match="finite and non-negative"):
            OnlineState(exposure=np.array([1.0, -0.5]), c_num=0)
        with pytest.raises(errors.ValidationError, match="request count must be >= 0, got -1"):
            OnlineState(exposure=np.zeros(2), c_num=-1)

    @pytest.mark.parametrize(
        "state",
        [
            type("Lookalike", (), {"exposure": np.zeros(2), "c_num": 0})(),
            {"exposure": np.zeros(2), "c_num": 0},
            None,
        ],
        ids=["lookalike", "dict", "None"],
    )
    def test_only_an_online_state_is_served(self, state):
        matrix, catalog, originals = build([[2.0, 1.0]], [0, 1])
        with pytest.raises(errors.ValidationError, match="state must be an OnlineState, got"):
            tfrom.serve_request(state, 0, matrix, catalog, originals[0], 1, FairnessMode.UNIFORM)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"c_num": 0}, "^state snapshot lacks 'exposure'$"),
            ({"exposure": [0.0]}, "^state snapshot lacks 'c_num'$"),
            ({}, "^state snapshot lacks 'exposure'$"),  # the first key is named
            ({"exposure": ["a"], "c_num": 0}, "^state exposure is not a numeric vector: "),
            ({"exposure": [[0.0]], "c_num": 0},
             r"^state exposure must be a 1-d float64 array, got float64 array of shape \(1, 1\)$"),
            ({"exposure": 1.0, "c_num": 0},
             r"^state exposure must be a 1-d float64 array, got float64 array of shape \(\)$"),
            ({"exposure": [1.0, float("nan")], "c_num": 0},
             "^state exposure must be finite and non-negative$"),
            ({"exposure": [0.0], "c_num": 1.5}, "^state request count must be an integer, got 1.5$"),
            ({"exposure": [0.0], "c_num": -1}, "^state request count must be >= 0, got -1$"),
        ],
        ids=["no-exposure", "no-c_num", "empty", "text", "2d", "scalar", "nan", "float-count",
             "negative"],
    )
    def test_restore_messages(self, payload, message):
        with pytest.raises(errors.ValidationError, match=message):
            OnlineState.from_dict(payload)


class TestOracleEquivalence:
    def test_mini_fuzz_sample(self):
        # a slice of the acceptance fuzz: 20 continuous and 20 tie-heavy cases
        for case in [*range(20), *range(100, 120)]:
            rng = np.random.default_rng(5000 + case)
            scores, assignments = random_mini_instance(rng, ties=case >= 100)
            matrix, catalog = tfrom.build_instance(scores, assignments)
            originals = tfrom.original_rankings(matrix)
            providers = [int(p) for p in catalog.provider_of]
            k = int(rng.integers(1, min(matrix.n, 3) + 1))
            mode = "uniform" if case % 2 == 0 else "quality-weighted"
            state = OnlineState.fresh(matrix.m, catalog.l)
            tracker = StreamTracker(matrix, catalog, originals)
            mirror = oracles.fresh_online_state(matrix.m, catalog.l)
            for u in rng.integers(0, matrix.m, size=8 * matrix.m):
                u = int(u)
                rec, state = tfrom.serve_request(
                    state, u, matrix, catalog, originals[u], k, FairnessMode(mode)
                )
                tracker.record(rec)
                expected = oracles.online_oracle_request(
                    mirror, u, scores.tolist(), providers, k, mode
                )
                assert list(rec.items) == expected
            assert state.exposure.tolist() == mirror["exposure"]
            assert tracker.rec_time.tolist() == mirror["rec_time"]
            assert state.c_num == mirror["c_num"]
