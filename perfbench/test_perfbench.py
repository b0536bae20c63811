"""Self-test of the benchmark on tiny instances: every workload passes its
checks and reports every metric, and corrupted outputs count as failures.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import speed  # noqa: E402
import tfrom  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "cli-pipeline-1m": dataclasses.replace(
        bench.WORKLOADS["cli-pipeline-1m"], m=30, n=40, l=4, setup_repeats=2
    ),
    "rerank-2k": dataclasses.replace(
        bench.WORKLOADS["rerank-2k"], m=40, n=50, l=5, requests=60, setup_repeats=2
    ),
    "stream-wide": dataclasses.replace(
        bench.WORKLOADS["stream-wide"], m=200, n=20, l=4, requests=60, setup_repeats=2
    ),
}


def run_tiny(name, tmp_path, trace=False, expected=None):
    return bench.measure(
        TINY[name], seed=3, seconds=0, trace=trace, expected=expected, work=tmp_path / "work"
    )


def iterations(result) -> int:
    return result["report"]["iterations"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_passes_and_reports_every_metric(name, trace, tmp_path):
    result = run_tiny(name, tmp_path, trace=trace)
    assert result["report"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    assert set(result["values"]) == wanted
    assert not (tmp_path / "work").exists()


def test_end_to_end_metrics_are_never_zero(tmp_path):
    for name in TINY:
        assert all(run_tiny(name, tmp_path)["values"].values()), name


def test_scaled_time_drops_kernel_runs_and_scales_to_reference():
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [0.1, 0.2, 0.2, 0.3]
    sampler.cpu_durations = [0.05, 0.1, 0.1, 0.15]
    # one kernel's share of those, as (wall, CPU) seconds
    sampler.kernel_times["memory"] = [(0.01, 0.005), (0.02, 0.01), (0.02, 0.01), (0.03, 0.015)]
    # kernels at 1.0 and 2.0 ran inside; 0.0 and 3.0 are the nearest outside
    reference = speed.KERNELS["memory"].reference_s
    assert sampler.unscaled(0.5, 2.5) == pytest.approx(1.6)
    assert sampler.scaled(["memory"], 0.5, 2.5) == pytest.approx(1.6 * reference / 0.02)
    # with no kernel run inside, the neighbours on both sides set the speed
    assert sampler.scaled(["memory"], 1.5, 1.6) == pytest.approx(0.1 * reference / 0.02)
    # given CPU clocks, CPU seconds against the kernel's CPU seconds
    assert sampler.unscaled(0.5, 2.5, 10.0, 11.0) == pytest.approx(0.8)
    assert sampler.scaled(["memory"], 0.5, 2.5, 10.0, 11.0) == pytest.approx(
        0.8 * reference / 0.01
    )
    # two kernels: the geometric mean of their speeds
    sampler.kernel_times["compute"] = [(0.04, 0.04)] * 4
    both = (reference / 0.02 * speed.KERNELS["compute"].reference_s / 0.04) ** 0.5
    assert sampler.scaled(["compute", "memory"], 0.5, 2.5) == pytest.approx(1.6 * both)


@pytest.mark.parametrize("kernels", [["compute"], ["compute", "memory"]])
def test_memory_heavy_slowdown_scales_like_raw_time(kernels):
    """Work that streams through memory between the kernel runs slows the
    scaled time by the same ratio as the raw time: the kernel's speed, the
    divisor, does not depend on what the measured work left in the caches."""
    big = np.ones(20_000_000)  # 160 MB, more than the last-level cache
    small = np.random.default_rng(0).random(2000)

    def work(seconds, heavy):
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            np.sort(small)
            if heavy:
                np.add(big, 1.0, out=big)
        return start, time.perf_counter()

    pairs = []
    with speed.SpeedSampler() as sampler:
        for _ in range(12):
            # adjacent chunks see about the same host speed
            pairs.append((work(0.2, False), work(0.2, True)))
    raw = [sampler.unscaled(*h) / sampler.unscaled(*l) for l, h in pairs]
    scaled = [sampler.scaled(kernels, *h) / sampler.scaled(kernels, *l) for l, h in pairs]
    assert statistics.median(s / r for s, r in zip(scaled, raw)) == pytest.approx(1, abs=0.1)


def test_every_request_counts_and_a_stalled_one_shows_in_p99(monkeypatch, tmp_path):
    serve = tfrom.online.serve_request
    calls = []

    def stalled(*args, **kwargs):
        calls.append(1)
        if len(calls) % 10 == 0:  # busy for longer than the sampler's interval
            until = time.thread_time() + 2 * speed.INTERVAL_S
            while time.thread_time() < until:
                pass
        return serve(*args, **kwargs)

    monkeypatch.setattr(tfrom.online, "serve_request", stalled)
    result = run_tiny("stream-wide", tmp_path)
    report = result["report"]
    assert report["request_samples"] == TINY["stream-wide"].requests * iterations(result)
    assert report["unscaled"]["request_p99_us"] >= 2 * speed.INTERVAL_S * 1e6
    assert result["values"]["request_p99_us"] > 10 * result["values"]["request_p50_us"]


def test_recorded_digest_mismatch_fails(tmp_path):
    digests = dict(run_tiny("rerank-2k", tmp_path)["report"]["digests"])
    digests["sweep/topk_k10"] = "0" * 64
    result = run_tiny("rerank-2k", tmp_path, expected=digests)
    assert result["failed"] == iterations(result)


def test_swapped_item_in_an_offline_list_fails(monkeypatch, tmp_path):
    clean = run_tiny("rerank-2k", tmp_path)["report"]["digests"]
    rerank = tfrom.experiments.tfrom_offline

    def swapped(*args, **kwargs):
        run = rerank(*args, **kwargs)
        first = run.lists[0]
        first = dataclasses.replace(first, items=(first.items[1], first.items[0], *first.items[2:]))
        return dataclasses.replace(run, lists=(first, *run.lists[1:]))

    monkeypatch.setattr(tfrom.experiments, "tfrom_offline", swapped)
    result = run_tiny("rerank-2k", tmp_path, expected=clean)
    assert result["failed"] == len(TINY["rerank-2k"].ks) * iterations(result)
    assert all("sweep/tfrom" in p for p in result["report"]["problems"])


def test_swapped_item_in_a_served_list_fails(monkeypatch, tmp_path):
    clean = run_tiny("stream-wide", tmp_path)["report"]["digests"]
    serve = tfrom.online.serve_request
    calls = []

    def swapped(*args, **kwargs):
        rec, state = serve(*args, **kwargs)
        calls.append(1)
        if len(calls) == 5:
            rec = dataclasses.replace(rec, items=(rec.items[1], rec.items[0], *rec.items[2:]))
        return rec, state

    monkeypatch.setattr(tfrom.online, "serve_request", swapped)
    result = run_tiny("stream-wide", tmp_path, expected=clean)
    # The stream digest cannot say which request went wrong, so all fail;
    # the clean second iteration then differs from the first.
    assert result["failed"] == TINY["stream-wide"].requests * iterations(result)


def test_invalid_item_fails_without_recorded_digests(monkeypatch, tmp_path):
    serve = tfrom.online.serve_request

    def out_of_range(state, u, matrix, *args):
        rec, state = serve(state, u, matrix, *args)
        if state.c_num == 3:
            rec = dataclasses.replace(rec, items=(matrix.n, *rec.items[1:]))
        return rec, state

    monkeypatch.setattr(tfrom.online, "serve_request", out_of_range)
    result = run_tiny("rerank-2k", tmp_path)
    assert result["failed"] == iterations(result)


def test_changed_byte_in_trace_csv_fails(monkeypatch, tmp_path):
    clean = run_tiny("cli-pipeline-1m", tmp_path)["report"]["digests"]
    write_trace = tfrom.fileio.write_trace

    def flipped(path, rows):
        write_trace(path, rows)
        data = bytearray(Path(path).read_bytes())
        data[-2] ^= 1
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(tfrom.fileio, "write_trace", flipped)
    result = run_tiny("cli-pipeline-1m", tmp_path, expected=clean)
    problems = result["report"]["problems"]
    # the offline and the online command of every iteration
    assert result["failed"] == 2 * iterations(result)
    assert all("trace.csv: digest differs" in p for p in problems)


def test_cross_check_catches_a_changed_metric(monkeypatch, tmp_path):
    # only `tfrom metrics` writes a summary whose results are a dict
    write_summary = tfrom.fileio.write_summary

    def shifted(path, payload):
        results = payload.get("results")
        if isinstance(results, dict):
            results = dict(results, total_quality=results["total_quality"] * (1 + 1e-15))
            payload = dict(payload, results=results)
        write_summary(path, payload)

    monkeypatch.setattr(tfrom.fileio, "write_summary", shifted)
    result = run_tiny("cli-pipeline-1m", tmp_path)
    assert result["failed"] == iterations(result)
    assert "total_quality" in result["report"]["problems"][0]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rerank-2k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
