import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import random_mini_instance
from tfrom import errors
from tfrom.experiments import StreamTracker
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
            tfrom.validate_recommendation_list(rec, matrix.n)

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
