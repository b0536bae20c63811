"""End-to-end acceptance gate.

Each test implements one numbered criterion at its stated tolerance,
measures its own runtime and prints one PASS line (run with ``-s`` or
``-rA`` to see them; an assertion failure marks the criterion FAIL).
Golden values were pinned from the first reference run of this
implementation on the checksummed synthetic instance.
"""

import hashlib
import time

import numpy as np
import pytest
from pytest import approx

import oracles
import tfrom
from conftest import GOLDEN_PARAMS, GOLDEN_SHA256, random_mini_instance
from tfrom.cli import main as cli_main
from tfrom.experiments import ExperimentConfig, run_online_stream
from tfrom.online import OnlineState
from tfrom.targets import FairnessMode

REL = 1e-12

# pinned on the first reference run (k=10, seed=42, uniform fairness)
GOLDEN_TOTAL_QUALITY_K10 = 199.90332917021806
GOLDEN_EXPOSURE_VARIANCE = {
    "tfrom": 0.14843436625421585,
    "topk": 23.580357080159963,
    "minexp": 0.03399927550556731,
}


def report(number: int, name: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({elapsed:.2f}s)" if limit is None else f" ({elapsed:.2f}s < {limit:.0f}s)"
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")
    if limit is not None:
        assert elapsed < limit


@pytest.fixture(scope="module")
def golden_offline_runs(golden_instance):
    matrix, catalog, originals = golden_instance
    runs = {}
    runs["tfrom"] = tfrom.tfrom_offline(
        matrix, catalog, originals, 10, FairnessMode.UNIFORM, seed=42
    ).lists
    runs["topk"] = tuple(tfrom.top_k(originals[u], 10) for u in range(matrix.m))
    ledger = np.zeros(catalog.l)
    runs["minexp"] = tuple(
        tfrom.minimum_exposure(originals[u], catalog, ledger, 10)
        for u in range(matrix.m)
    )
    return runs


def test_golden_instance_checksum(golden_raw):
    scores, assignments = golden_raw
    digest = hashlib.sha256(scores.tobytes() + assignments.tobytes()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_criterion_01_formula_exactness():
    started = time.perf_counter()
    assert tfrom.position_weight(1) == approx(1.0, rel=REL)
    assert tfrom.position_weight(3) == approx(0.5, rel=REL)
    assert tfrom.position_weight(2) == approx(0.6309297535714574, rel=REL)

    matrix, catalog = tfrom.build_instance([[3.0, 2.0, 1.0]], [0, 0, 0])
    original = tfrom.original_ranking(matrix, 0)
    assert tfrom.dcg(0, [0, 1, 2], matrix) == approx(4.761859507142915, rel=REL)
    single, _ = tfrom.build_instance([[5.0]], [0])
    assert tfrom.dcg(0, [0], single) == approx(5.0, rel=REL)

    assert tfrom.ndcg(0, tfrom.top_k(original, 3), matrix, original) == approx(1.0, rel=REL)
    reversed_list = tfrom.RecommendationList(owner=0, items=(2, 1, 0))
    assert tfrom.ndcg(0, reversed_list, matrix, original) == approx(
        3.761859507142915 / 4.761859507142915, rel=REL
    )

    assert tfrom.total_exposure(1, 1) == approx(1.0, rel=REL)
    assert tfrom.total_exposure(2, 2) == approx(3.261859507142915, rel=REL)
    assert tfrom.total_exposure(2, 3) == approx(4.261859507142915, rel=REL)
    assert tfrom.online_total_exposure(0, 4) == 0.0
    assert tfrom.online_total_exposure(1, 2) == approx(1.6309297535714573, rel=REL)
    assert tfrom.online_total_exposure(10, 1) == approx(10.0, rel=REL)

    m4, c4 = tfrom.build_instance([[1, 1, 1, 1]], [0, 1, 1, 1])
    assert tfrom.fair_targets(FairnessMode.UNIFORM, 4.0, c4, m4).per_provider == approx(
        [1.0, 3.0], rel=REL
    )
    m1, c1 = tfrom.build_instance([[1, 1]], [0, 0])
    assert tfrom.fair_targets(FairnessMode.UNIFORM, 6.0, c1, m1).per_provider == approx(
        [6.0], rel=REL
    )
    mq, cq = tfrom.build_instance([[2.0, 3.0]], [0, 1])
    assert tfrom.fair_targets(
        FairnessMode.QUALITY_WEIGHTED, 10.0, cq, mq
    ).per_provider == approx([4.0, 6.0], rel=REL)

    two, ctwo = tfrom.build_instance([[2.0, 1.0]], [0, 1])
    rec = tfrom.RecommendationList(owner=0, items=(0, 1))
    assert tfrom.exposure([rec], ctwo).per_provider == approx(
        [1.0, 0.6309297535714574], rel=REL
    )
    report(1, "formula exactness", started, limit=1.0)


def test_criterion_02_quality_bound_property():
    started = time.perf_counter()
    checked_equality = 0
    for case in range(1000):
        rng = np.random.default_rng(20_000 + case)
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        scores = 1.0 - rng.random((m, n))
        matrix, _ = tfrom.build_instance(scores, rng.integers(0, 2, size=n))
        u = int(rng.integers(0, m))
        original = tfrom.original_ranking(matrix, u)
        items = tuple(int(i) for i in rng.permutation(n)[:k])
        value = tfrom.ndcg(
            u, tfrom.RecommendationList(owner=u, items=items), matrix, original
        )
        assert value <= 1.0 + 1e-12
        if len(np.unique(scores[u])) == n:  # tie-free row
            top = tfrom.top_k(original, k)
            assert tfrom.ndcg(u, top, matrix, original) == 1.0
            checked_equality += 1
    assert checked_equality > 900
    report(2, "quality never exceeds the original list", started, limit=10.0)


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    # cases 100..199 draw tie-heavy integer scores
    for case in range(200):
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

    for case in range(200):
        rng = np.random.default_rng(5000 + case)
        scores, assignments = random_mini_instance(rng, ties=case >= 100)
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        providers = [int(p) for p in catalog.provider_of]
        k = int(rng.integers(1, min(matrix.n, 3) + 1))
        mode = "uniform" if case % 2 == 0 else "quality-weighted"
        state = OnlineState.fresh(matrix.m, catalog.l)
        mirror = oracles.fresh_online_state(matrix.m, catalog.l)
        for u in rng.integers(0, matrix.m, size=8 * matrix.m):
            u = int(u)
            rec, state = tfrom.serve_request(
                state, u, matrix, catalog, originals[u], k, FairnessMode(mode)
            )
            expected = oracles.online_oracle_request(
                mirror, u, scores.tolist(), providers, k, mode
            )
            assert list(rec.items) == expected
        assert state.exposure.tolist() == mirror["exposure"]
    report(3, "oracle equivalence, zero mismatches", started, limit=30.0)


def test_criterion_04_budget_safety_on_golden_run(golden_instance):
    started = time.perf_counter()
    matrix, catalog, originals = golden_instance
    run = tfrom.tfrom_offline(matrix, catalog, originals, 10, FairnessMode.UNIFORM, seed=42)
    violations = sum(
        1
        for event in run.events
        if event.phase == 1 and event.exposure_before + event.weight > event.budget + 1e-12
    )
    assert violations == 0
    report(4, "phase-1 budget safety on the golden run", started)


def test_criterion_05_exposure_conservation(golden_instance, golden_offline_runs):
    started = time.perf_counter()
    matrix, catalog, originals = golden_instance
    for lists in golden_offline_runs.values():
        report_ = tfrom.exposure(lists, catalog)
        assert report_.per_provider.sum() == approx(
            tfrom.total_exposure(matrix.m, 10), abs=1e-9
        )
    for k in (1, 5, 20):
        run = tfrom.tfrom_offline(matrix, catalog, originals, k, FairnessMode.UNIFORM, seed=1)
        assert run.ledger.sum() == approx(tfrom.total_exposure(matrix.m, k), abs=1e-9)
    report(5, "exposure conservation", started)


def test_criterion_06_exposure_variance_ordering(golden_instance, golden_offline_runs):
    started = time.perf_counter()
    _, catalog, _ = golden_instance
    matrix, _, _ = golden_instance
    variance = {
        name: tfrom.uniform_provider_fairness(tfrom.exposure(lists, catalog))
        for name, lists in golden_offline_runs.items()
    }
    assert variance["tfrom"] < 0.05 * variance["topk"]
    assert variance["minexp"] <= 1.5 * variance["tfrom"]
    for name, pinned in GOLDEN_EXPOSURE_VARIANCE.items():
        assert variance[name] == approx(pinned, rel=1e-9)
    report(6, "fairness ordering vs baselines", started, limit=60.0)


def test_criterion_07_quality_retention(golden_instance, golden_offline_runs):
    started = time.perf_counter()
    matrix, _, originals = golden_instance
    quality = tfrom.total_quality(
        tfrom.quality(golden_offline_runs["tfrom"], matrix, originals)
    )
    assert quality >= 0.85 * matrix.m
    assert quality == approx(GOLDEN_TOTAL_QUALITY_K10, abs=1e-9)
    report(7, "quality retention at k=10", started)


def test_criterion_08_online_cold_start(golden_instance):
    started = time.perf_counter()
    matrix, catalog, originals = golden_instance
    stream = tfrom.request_stream(42, matrix.m, 1)
    for u in (int(stream[0]), 0):
        state = OnlineState.fresh(matrix.m, catalog.l)
        rec, _ = tfrom.serve_request(
            state, u, matrix, catalog, originals[u], 10, FairnessMode.UNIFORM
        )
        assert rec.items == tfrom.top_k(originals[u], 10).items
    report(8, "first online response equals top-k", started)


def test_criterion_09_online_long_run_fairness(golden_instance):
    started = time.perf_counter()
    matrix, catalog, _ = golden_instance
    config = ExperimentConfig(
        fairness=FairnessMode.UNIFORM,
        algorithms=("tfrom", "topk"),
        ks=(10,),
        seed=42,
        stream_multiplier=10,
    )
    result = run_online_stream(config, matrix, catalog)
    rows = {(row.algorithm, row.step): row for row in result.trace}
    final = 10 * matrix.m
    assert (
        rows[("tfrom", final)].exposure_variance < rows[("topk", final)].exposure_variance
    )
    assert (
        rows[("topk", final)].exposure_variance > rows[("topk", matrix.m)].exposure_variance
    )
    report(9, "long-run exposure fairness ordering", started, limit=120.0)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    instance_dir = tmp_path / "instance"
    assert (
        cli_main(
            [
                "gen",
                "--m",
                str(GOLDEN_PARAMS["m"]),
                "--n",
                str(GOLDEN_PARAMS["n"]),
                "--l",
                str(GOLDEN_PARAMS["l"]),
                "--provider-size-skew",
                str(GOLDEN_PARAMS["provider_size_skew"]),
                "--seed",
                str(GOLDEN_PARAMS["seed"]),
                "--out",
                str(instance_dir),
            ]
        )
        == 0
    )
    flags = [
        "--preferences",
        str(instance_dir / "preferences.csv"),
        "--providers",
        str(instance_dir / "providers.csv"),
        "--algorithms",
        "tfrom,topk",
        "--seed",
        "42",
        "--out",
        str(tmp_path / "run"),
    ]
    snapshots = []
    for _ in range(2):
        assert cli_main(["offline", "--k", "5,10", *flags]) == 0
        snapshots.append(
            (
                (tmp_path / "run" / "trace.csv").read_bytes(),
                (tmp_path / "run" / "summary.json").read_bytes(),
            )
        )
    assert snapshots[0] == snapshots[1]

    snapshots = []
    for _ in range(2):
        assert (
            cli_main(
                ["online", "--k", "10", "--stream-multiplier", "2", *flags]
            )
            == 0
        )
        snapshots.append(
            (
                (tmp_path / "run" / "trace.csv").read_bytes(),
                (tmp_path / "run" / "summary.json").read_bytes(),
            )
        )
    assert snapshots[0] == snapshots[1]
    report(10, "byte-identical reruns", started)


def test_criterion_11_scaling_smoke():
    started = time.perf_counter()

    def timed_run(m, n, k):
        scores, assignments = tfrom.generate_synthetic(
            m, n, 20, "uniform", GOLDEN_PARAMS["provider_size_skew"], seed=7
        )
        matrix, catalog = tfrom.build_instance(scores, assignments)
        originals = tfrom.original_rankings(matrix)
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            tfrom.tfrom_offline(matrix, catalog, originals, k, FairnessMode.UNIFORM, seed=7)
            best = min(best, time.perf_counter() - t0)
        return best

    big = timed_run(500, 1000, 20)
    assert big < 300.0
    times = {m: timed_run(m, 1000, 20) for m in (100, 200, 400)}
    slope = np.polyfit(
        [np.log(m) for m in times], [np.log(t) for t in times.values()], 1
    )[0]
    assert slope <= 2.4
    print(f"  scaling: m=500 run {big:.2f}s, log-log slope {slope:.2f}")
    report(11, "scaling smoke test", started, limit=300.0)
