import numpy as np
import pytest
from pytest import approx

import tfrom
from tfrom import errors
from tfrom.experiments import ExperimentConfig, run_offline_sweep, run_online_stream
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
        config = offline_config(algorithms=("tfrom", "topk", "random", "minexp"), ks=(2, 4, 6))
        result = run_offline_sweep(config, matrix, catalog)
        assert len(result.trace) == 12
        assert {(row.algorithm, row.step) for row in result.trace} == {
            (algo, k) for algo in config.algorithms for k in config.ks
        }

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
        per_algo = {}
        for row in result.trace:
            per_algo.setdefault(row.algorithm, []).append(row.step)
        assert per_algo["tfrom"] == per_algo["topk"] == [6, 12, 18, 24]

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
