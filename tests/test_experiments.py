import numpy as np
import pytest
from pytest import approx

import tfrom
from tfrom import baselines, errors, experiments, metrics, targets
from tfrom.experiments import (
    ExperimentConfig,
    StreamTracker,
    request_stream,
    run_offline_sweep,
    run_online_stream,
)
from tfrom.targets import FairnessMode


@pytest.fixture(scope="module")
def small_instance():
    scores, assignments = tfrom.generate_synthetic(6, 15, 3, seed=23)
    matrix, catalog = tfrom.build_instance(scores, assignments)
    return matrix, catalog


def offline_config(**overrides):
    base = dict(
        fairness=FairnessMode.UNIFORM,
        algorithms=("tfrom", "topk"),
        ks=(3, 5),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_empty_algorithms(self, small_instance):
        matrix, catalog = small_instance
        with pytest.raises(errors.ValidationError):
            run_offline_sweep(offline_config(algorithms=()), matrix, catalog)

    def test_unknown_algorithm(self, small_instance):
        matrix, catalog = small_instance
        with pytest.raises(errors.ValidationError):
            run_offline_sweep(offline_config(algorithms=("pagerank",)), matrix, catalog)

    def test_first_bad_entry_named(self, small_instance):
        matrix, catalog = small_instance
        with pytest.raises(errors.ValidationError, match="unknown algorithm 'pagerank'"):
            run_offline_sweep(offline_config(algorithms=("pagerank", "hits")), matrix, catalog)
        with pytest.raises(errors.InvalidDimension, match="list length must be >= 1"):
            run_offline_sweep(offline_config(ks=(0, 99)), matrix, catalog)

    def test_k_above_n(self, small_instance):
        matrix, catalog = small_instance
        with pytest.raises(errors.ValidationError):
            run_offline_sweep(offline_config(ks=(99,)), matrix, catalog)

    def test_online_needs_single_k(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(ks=(3, 5))
        with pytest.raises(errors.ValidationError):
            run_online_stream(config, matrix, catalog)

    def test_bad_multiplier(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(ks=(3,), stream_multiplier=0)
        with pytest.raises(errors.ValidationError):
            run_online_stream(config, matrix, catalog)


class TestOfflineSweep:
    def test_one_row_per_cell(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(algorithms=("tfrom", "topk", "random", "minexp"), ks=(4, 2, 6))
        result = run_offline_sweep(config, matrix, catalog)
        # in config order: k after k, and the algorithms within each k
        cells = [(algo, k) for k in config.ks for algo in config.algorithms]
        assert [(row.algorithm, row.step) for row in result.trace] == cells
        assert list(result.lists) == cells

    def test_topk_rows_have_maximal_quality(self, small_instance):
        matrix, catalog = small_instance
        result = run_offline_sweep(offline_config(algorithms=("topk",)), matrix, catalog)
        for row in result.trace:
            assert row.total_quality == approx(float(matrix.m), rel=1e-12)
            assert row.ndcg_variance == approx(0.0, abs=1e-15)

    def test_tfrom_fairer_than_topk(self, small_instance):
        matrix, catalog = small_instance
        result = run_offline_sweep(offline_config(ks=(5,)), matrix, catalog)
        by_algo = {row.algorithm: row for row in result.trace}
        assert by_algo["tfrom"].exposure_variance < by_algo["topk"].exposure_variance

    def test_exposure_conservation_every_cell(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(algorithms=("tfrom", "topk", "random", "minexp"), ks=(2, 5))
        result = run_offline_sweep(config, matrix, catalog)
        for (algo, k), lists in result.lists.items():
            report = tfrom.exposure(lists, catalog)
            assert report.per_provider.sum() == approx(
                tfrom.total_exposure(matrix.m, k), abs=1e-9
            )

    def test_metric_values_finite_and_nonnegative(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(algorithms=("tfrom", "topk", "random", "minexp"))
        for row in run_offline_sweep(config, matrix, catalog).trace:
            for value in (
                row.total_quality,
                row.ndcg_variance,
                row.ndcg_variance_all,
                row.exposure_variance,
                row.qw_ratio_variance,
            ):
                assert np.isfinite(value) and value >= 0.0

    def test_deterministic(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(algorithms=("tfrom", "random"))
        first = run_offline_sweep(config, matrix, catalog)
        second = run_offline_sweep(config, matrix, catalog)
        assert first.trace == second.trace


class TestOnlineStream:
    def test_row_count_is_multiplier_per_algorithm(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(
            ks=(3,), algorithms=("tfrom", "topk"), stream_multiplier=4
        )
        result = run_online_stream(config, matrix, catalog)
        # one algorithm after another, in config order
        assert [(row.algorithm, row.step) for row in result.trace] == [
            (algo, step) for algo in config.algorithms for step in (6, 12, 18, 24)
        ]
        assert list(result.served) == list(config.algorithms)

    def test_each_baseline_serves_its_own_calls(self, small_instance):
        # request by request: the random lists continue one generator seeded
        # [seed, 3], and the minimum-exposure lists share one ledger
        matrix, catalog = small_instance
        config = offline_config(ks=(3,), algorithms=("random", "minexp"), stream_multiplier=2)
        result = run_online_stream(config, matrix, catalog)
        originals = tfrom.original_rankings(matrix)
        stream = request_stream(config.seed, matrix.m, 2 * matrix.m).tolist()
        rng, ledger = np.random.default_rng([config.seed, 3]), np.zeros(catalog.l)
        want = {
            "random": [baselines.all_random(originals[u], 3, rng) for u in stream],
            "minexp": [
                baselines.minimum_exposure(originals[u], catalog, ledger, 3) for u in stream
            ],
        }
        for algo, lists in want.items():
            assert result.served[algo] == list(enumerate(lists))

    def test_topk_quality_grows_one_per_request(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(ks=(3,), algorithms=("topk",), stream_multiplier=5)
        result = run_online_stream(config, matrix, catalog)
        for row in result.trace:
            assert row.total_quality == float(row.step)

    def test_identical_stream_across_algorithms(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(
            ks=(2,), algorithms=("topk", "minexp"), stream_multiplier=3
        )
        result = run_online_stream(config, matrix, catalog)
        owners_topk = [rec.owner for _, rec in result.served["topk"]]
        owners_minexp = [rec.owner for _, rec in result.served["minexp"]]
        assert owners_topk == owners_minexp

    def test_first_tfrom_response_matches_topk(self):
        # enough providers that the first request has no admissible budget
        scores, assignments = tfrom.generate_synthetic(
            5, 20, 5, provider_size_skew=0.0, seed=31
        )
        matrix, catalog = tfrom.build_instance(scores, assignments)
        config = offline_config(
            ks=(2,), algorithms=("tfrom", "topk"), stream_multiplier=1
        )
        result = run_online_stream(config, matrix, catalog)
        assert (
            result.served["tfrom"][0][1].items == result.served["topk"][0][1].items
        )

    def test_deterministic(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(
            ks=(3,), algorithms=("tfrom", "random"), stream_multiplier=2
        )
        first = run_online_stream(config, matrix, catalog)
        second = run_online_stream(config, matrix, catalog)
        assert first.trace == second.trace
        assert [r.items for _, r in first.served["random"]] == [
            r.items for _, r in second.served["random"]
        ]

    def test_trace_every_overrides_granularity(self, small_instance):
        matrix, catalog = small_instance
        config = offline_config(
            ks=(2,),
            algorithms=("topk",),
            stream_multiplier=2,
            trace_every=3,
        )
        result = run_online_stream(config, matrix, catalog)
        assert [row.step for row in result.trace] == [3, 6, 9, 12]


ALL_FOUR = ("tfrom", "topk", "random", "minexp")


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def one_provider_instance():
    scores, _ = tfrom.generate_synthetic(6, 15, 3, seed=23)
    return tfrom.build_instance(scores, np.zeros(15, dtype=int))


class TestStreamTracker:
    def test_unserved_customers_count_in_the_all_variance_only(self, small_instance):
        matrix, catalog = small_instance
        originals = tfrom.original_rankings(matrix)
        tracker = StreamTracker(matrix, catalog, originals)
        tracker.record(tfrom.top_k(originals[0], 3))
        row = tracker.row(1, "topk")
        assert row.ndcg_variance == 0.0  # one served customer, at NDCG 1
        want = np.var([1.0] + [0.0] * (matrix.m - 1))
        assert row.ndcg_variance_all == approx(want, rel=1e-12) and want > 0

    def test_plain_lists_skip_the_entry_rule(self, small_instance, monkeypatch):
        # Python-int lists in range pass the tracker's own guard, the ends of
        # both ranges included; anything else goes to _entry_columns, which
        # raises on a bad entry
        matrix, catalog = small_instance
        tracker = StreamTracker(matrix, catalog, tfrom.original_rankings(matrix))
        calls = []
        rule = experiments._entry_columns
        monkeypatch.setattr(
            experiments, "_entry_columns", lambda *args: calls.append(args) or rule(*args)
        )
        m, n = matrix.m, matrix.n
        for u, items in [(0, (0, n - 1)), (m - 1, (n - 1, 0)), (2, (5,))]:
            tracker.record(tfrom.RecommendationList(u, items))
        assert calls == []
        tracker.record(tfrom.RecommendationList(1, (np.int64(3), 4)))
        assert len(calls) == 1


class TestRatioVariancePin:
    """Trace rows take the providers' relevance once per sweep or tracker;
    every row's ratio variance is still the public metric's, bit for bit."""

    @pytest.mark.parametrize("mode", list(FairnessMode))
    @pytest.mark.parametrize("shape", ["three providers", "one provider"])
    def test_sweep_rows(self, small_instance, mode, shape):
        matrix, catalog = small_instance if shape == "three providers" else one_provider_instance()
        config = offline_config(fairness=mode, algorithms=ALL_FOUR, ks=(2, 5))
        result = run_offline_sweep(config, matrix, catalog)
        for row in result.trace:
            report = tfrom.exposure(result.lists[row.algorithm, row.step], catalog)
            want = metrics.quality_weighted_provider_fairness(report, matrix, catalog)
            assert same_float(row.qw_ratio_variance, want)
            if catalog.l == 1:
                assert same_float(row.qw_ratio_variance, 0.0)

    @pytest.mark.parametrize("mode", list(FairnessMode))
    @pytest.mark.parametrize("shape", ["three providers", "one provider"])
    def test_stream_tracker_rows(self, small_instance, mode, shape):
        matrix, catalog = small_instance if shape == "three providers" else one_provider_instance()
        config = offline_config(fairness=mode, algorithms=ALL_FOUR, ks=(3,), stream_multiplier=3)
        result = run_online_stream(config, matrix, catalog)
        originals = tfrom.original_rankings(matrix)
        for algo, served in result.served.items():
            tracker = StreamTracker(matrix, catalog, originals)
            for step, (_, rec) in enumerate(served, start=1):
                tracker.record(rec)
                report = metrics.ExposureReport(per_provider=tracker.per_provider.copy())
                want = metrics.quality_weighted_provider_fairness(report, matrix, catalog)
                assert same_float(tracker.row(step, algo).qw_ratio_variance, want)
                if catalog.l == 1:
                    assert same_float(want, 0.0)

    def test_relevance_once_per_matrix_and_catalog(self, monkeypatch):
        # a sweep and a four-algorithm stream on one (matrix, catalog) share
        # one relevance vector; quality-weighted fair_targets computes its
        # own on every call
        scores, assignments = tfrom.generate_synthetic(6, 15, 3, seed=23)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        calls, targets_calls = [], []
        relevance = metrics.provider_relevance

        def spy(into):
            return lambda *args: into.append(args) or relevance(*args)

        monkeypatch.setattr(metrics, "provider_relevance", spy(calls))
        monkeypatch.setattr(targets, "provider_relevance", spy(targets_calls))
        run_offline_sweep(offline_config(algorithms=ALL_FOUR, ks=(2, 5)), matrix, catalog)
        run_online_stream(offline_config(algorithms=ALL_FOUR, ks=(3,)), matrix, catalog)
        assert calls == [(matrix, catalog)] and targets_calls == []
        for _ in range(3):
            tfrom.fair_targets(FairnessMode.QUALITY_WEIGHTED, 1.0, catalog, matrix)
        assert targets_calls == [(matrix, catalog)] * 3 and len(calls) == 1


@pytest.mark.parametrize("k", [1, 4, 15])
def test_random_cell_is_one_stream_of_all_random_calls(small_instance, k):
    # m calls in customer order on one generator seeded [seed, 3, k]: the
    # stream a faster draw must keep
    matrix, catalog = small_instance
    config = offline_config(algorithms=("random",), ks=(k,))
    cell = run_offline_sweep(config, matrix, catalog).lists["random", k]
    originals = tfrom.original_rankings(matrix)
    rng = np.random.default_rng([config.seed, 3, k])
    want = np.array([baselines.all_random(originals[u], k, rng).items for u in range(matrix.m)])
    assert cell.owners.tobytes() == np.arange(matrix.m).tobytes()
    assert cell.items.tobytes() == want.astype(np.intp).tobytes()
