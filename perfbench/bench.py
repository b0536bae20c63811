"""Workloads of the tfrom benchmark, its timing loop and its metrics.

A run sets up ``setup_repeats`` times (``setup_s`` is the median), then
repeats one fixed iteration of work while the ``--seconds`` budget allows,
and at least ``min_iterations`` times, and reports medians. Every
iteration starts from the same inputs and a fresh state, so every repeat
must give the same output digests.

With tracing on, iterations alternate between untraced and traced; the
per-layer metrics come from the traced ones, and the difference of the
two medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import resource
import shutil
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tfrom import (
    baselines,
    cli,
    experiments,
    fileio,
    metrics,
    model,
    offline,
    online,
    synth,
    targets,
)
from tfrom.targets import FairnessMode

from checks import (
    Gate,
    check_list,
    check_lists,
    check_recommendations,
    cross_check,
    digest_array,
    digest_file,
    digest_lists,
    read_providers,
)
from spans import REQUEST_SPAN, Tracer, top_level_seconds, totals
from speed import HoldAlarm, SpeedSampler

# The calibration kernels of speed.py that scale each kind of interval:
# ``compute`` where small numpy calls and Python loops dominate, both where
# passes over the m*n score matrix do.
COMPUTE = ("compute",)
MIXED = ("compute", "memory")
ALL_COMPUTE = {"setup": COMPUTE, "iteration": COMPUTE, "requests": COMPUTE}

ALGORITHMS = ("tfrom", "topk", "random", "minexp")
REPLAY_SPAN = "experiments.run_online_stream"

# Every function a span is recorded around, at the binding its caller looks
# up. Per-slot helpers (position_weight, dcg, ndcg) are left out: a wrapper
# would cost more than the work it measures.
BINDINGS = (
    (synth, "generate_synthetic", "synth.generate_synthetic"),
    (cli, "generate_synthetic", "synth.generate_synthetic"),
    (fileio, "write_instance_files", "fileio.write_instance_files"),
    (fileio, "load_instance", "fileio.load_instance"),
    (fileio, "write_recommendations", "fileio.write_recommendations"),
    (fileio, "read_recommendations", "fileio.read_recommendations"),
    (fileio, "write_trace", "fileio.write_tables"),
    (fileio, "write_summary", "fileio.write_tables"),
    (fileio, "build_instance", "model.build_instance"),
    (model, "build_instance", "model.build_instance"),
    (model, "original_rankings", "model.original_rankings"),
    (experiments, "original_rankings", "model.original_rankings"),
    (cli, "original_rankings", "model.original_rankings"),
    (offline, "fair_targets", "targets.fair_targets"),
    (online, "fair_targets", "targets.fair_targets"),
    (targets, "provider_relevance", "metrics.provider_relevance"),
    (metrics, "provider_relevance", "metrics.provider_relevance"),
    (metrics, "quality", "metrics.quality"),
    (cli, "quality", "metrics.quality"),
    (metrics, "exposure", "metrics.exposure"),
    (cli, "exposure", "metrics.exposure"),
    (experiments, "tfrom_offline", "offline.tfrom_offline"),
    (online, "serve_request", REQUEST_SPAN),
    (experiments, "serve_request", REQUEST_SPAN),
    (baselines, "minimum_exposure", "baselines.minimum_exposure"),
    (baselines, "top_k", "baselines.top_k"),
    (baselines, "all_random", "baselines.all_random"),
    (experiments, "run_offline_sweep", "experiments.run_offline_sweep"),
    (cli, "run_offline_sweep", "experiments.run_offline_sweep"),
    (experiments, "run_online_stream", REPLAY_SPAN),
    (cli, "run_online_stream", REPLAY_SPAN),
)

# Untraced iterations still time every serve_request call, at the binding
# of each of its two callers: the in-memory request loops and the CLI replay.
PROBES = (
    (online, "serve_request", REQUEST_SPAN),
    (experiments, "serve_request", REQUEST_SPAN),
)


class SetupFailed(RuntimeError):
    """Set-up produced nothing the timed phase can run on."""


@dataclasses.dataclass
class Sample:
    """One iteration of the timed phase: its ``(start, end)``, and each
    request's with the thread's CPU clock at both ends."""

    span: tuple[float, float]
    requests: list[tuple[float, float, float, float]]

    @property
    def wall(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def request_loop(self) -> tuple[float, float, float, float]:
        """From the start of the first request to the end of the last."""
        first, last = self.requests[0], self.requests[-1]
        return first[0], last[1], first[2], last[3]


@dataclasses.dataclass(frozen=True)
class CliPipeline:
    """`tfrom gen` as set-up, then `offline`, `online` and `metrics` in a
    fresh directory per iteration, each through the CLI entry point."""

    m: int
    n: int
    l: int
    fairness: str = "quality-weighted"
    ks: tuple[int, ...] = (10, 20)
    stream_algorithms: tuple[str, ...] = ("tfrom", "topk")
    k: int = 10
    stream_multiplier: int = 1
    setup_repeats: int = 3
    # 3000 request samples; fewer leave the p99 too noisy
    min_iterations: int = 3
    # CSV code dominates set-up and iterations; provider_relevance, a pass
    # over the 8 MB score matrix, is 80% of each request.
    speed_kernels: dict = dataclasses.field(
        default_factory=lambda: {**ALL_COMPUTE, "requests": MIXED}
    )

    def start(self, seed, gate, tracer, work):
        return _CliRun(self, seed, gate, tracer, work)


@dataclasses.dataclass(frozen=True)
class InMemory:
    """A synthetic instance held in memory: an optional offline sweep, then
    a closed loop of ``requests`` serve_request calls from one caller."""

    m: int
    n: int
    l: int
    fairness: FairnessMode
    ks: tuple[int, ...]
    requests: int
    k: int = 10
    setup_repeats: int = 9
    min_iterations: int = 2
    speed_kernels: dict = dataclasses.field(default_factory=lambda: dict(ALL_COMPUTE))

    def start(self, seed, gate, tracer, work):
        return _InMemoryRun(self, seed, gate, tracer)


WORKLOADS = {
    "cli-pipeline-1m": CliPipeline(m=1000, n=1000, l=20),
    "rerank-2k": InMemory(
        m=2000, n=2000, l=20, fairness=FairnessMode.UNIFORM, ks=(10, 20), requests=8000
    ),
    # provider_relevance, a pass over the 20 MB score matrix, is 90% of
    # each request; the per-customer original_rankings loop is the set-up.
    "stream-wide": InMemory(
        m=50_000, n=50, l=10, fairness=FairnessMode.QUALITY_WEIGHTED, ks=(), requests=1200,
        speed_kernels={**ALL_COMPUTE, "iteration": MIXED, "requests": MIXED},
    ),
}


def _sweep_config(fairness, algorithms, ks, seed):
    # `mode` is slated for removal from ExperimentConfig; pass it only while
    # the field exists, so the benchmark runs on both sides of that change.
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    extra = {"mode": "offline"} if "mode" in fields else {}
    return experiments.ExperimentConfig(
        fairness=fairness, algorithms=algorithms, ks=ks, seed=seed, **extra
    )


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _CliRun:
    def __init__(self, spec: CliPipeline, seed: int, gate: Gate, tracer: Tracer, work: Path):
        self.spec, self.seed, self.gate, self.tracer = spec, seed, gate, tracer
        self.work = work
        self.instance = None
        self.providers: dict[str, str] = {}

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def _command(self, name: str, argv):
        """The command's exit code, or the exception it raised."""
        try:
            return self.tracer.call(f"cli.{name}", _quiet_main, argv)
        except Exception as exc:  # an uncaught error is a failed command
            return exc

    def _checked(self, name: str, code, problems) -> None:
        if code != 0:
            problems.insert(0, f"ended with {code!r}")
        self.gate.operation(name, problems)

    def setup(self, rep: int) -> tuple[float, float]:
        spec, out = self.spec, self.work / f"instance{rep}"
        argv = ["gen", "--m", str(spec.m), "--n", str(spec.n), "--l", str(spec.l)]
        start = perf_counter()
        code = self._command("gen", [*argv, "--seed", str(self.seed), "--out", str(out)])
        span = (start, perf_counter())
        problems = []
        for name in ("preferences.csv", "providers.csv"):
            try:
                problems += self.gate.digest(f"gen/{name}", digest_file(out / name))
            except OSError as exc:
                problems.append(repr(exc))
        self._checked("gen", code, problems)
        if code != 0:
            raise SetupFailed(f"tfrom gen ended with {code!r}")
        if self.instance is not None:
            shutil.rmtree(self.instance)
        self.instance = out
        self.providers = read_providers(out / "providers.csv")
        return span

    def iteration(self, index: int) -> Sample:
        spec, out = self.spec, self.work / f"iter{index}"
        files = [
            "--preferences", str(self.instance / "preferences.csv"),
            "--providers", str(self.instance / "providers.csv"),
        ]
        run = [*files, "--fairness", spec.fairness, "--seed", str(self.seed)]
        commands = {
            "offline": ["offline", *run, "--algorithms", ",".join(ALGORITHMS),
                        "--k", ",".join(map(str, spec.ks)), "--out", str(out / "offline")],
            "online": ["online", *run, "--algorithms", ",".join(spec.stream_algorithms),
                       "--k", str(spec.k), "--stream-multiplier", str(spec.stream_multiplier),
                       "--out", str(out / "online")],
            "metrics": ["metrics", *files, "--recommendations",
                        str(out / "online" / "tfrom" / "recommendations.csv"),
                        "--out", str(out / "metrics")],
        }
        first = len(self.tracer.spans)
        start = perf_counter()
        codes = {name: self._command(name, argv) for name, argv in commands.items()}
        sample = Sample((start, perf_counter()), self.tracer.requests_since(first))
        self._check_outputs(out, codes)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def _check_outputs(self, out: Path, codes) -> None:
        spec = self.spec
        problems = []
        for algo in ALGORITHMS:
            for k in spec.ks:
                problems += self._check_file(out / "offline", f"{algo}_k{k}", k, spec.m)
        problems += self._digest(out / "offline", "trace.csv")
        self._checked("offline", codes["offline"], problems)

        problems = []
        for algo in spec.stream_algorithms:
            problems += self._check_file(
                out / "online", algo, spec.k, spec.m * spec.stream_multiplier
            )
        problems += self._digest(out / "online", "trace.csv")
        self._checked("online", codes["online"], problems)

        problems = cross_check(out / "metrics" / "summary.json", out / "online" / "trace.csv")
        self._checked("metrics", codes["metrics"], problems)

    def _check_file(self, root: Path, cell: str, k: int, lists: int) -> list[str]:
        path = root / cell / "recommendations.csv"
        problems = check_recommendations(path, self.providers, k, lists)
        return problems or self._digest(root, f"{cell}/recommendations.csv")

    def _digest(self, root: Path, name: str) -> list[str]:
        try:
            value = digest_file(root / name)
        except OSError as exc:
            return [repr(exc)]
        return self.gate.digest(f"{root.name}/{name}", value)


class _InMemoryRun:
    def __init__(self, spec: InMemory, seed: int, gate: Gate, tracer: Tracer):
        self.spec, self.seed, self.gate, self.tracer = spec, seed, gate, tracer

    def prepare(self) -> None:
        spec = self.spec
        self.scores, self.assignments = synth.generate_synthetic(
            spec.m, spec.n, spec.l, seed=self.seed
        )
        self.stream = [int(u) for u in experiments.request_stream(self.seed, spec.m, spec.requests)]
        self.config = (
            _sweep_config(spec.fairness, ALGORITHMS, spec.ks, self.seed) if spec.ks else None
        )

    def setup(self, rep: int) -> tuple[float, float]:
        start = perf_counter()
        matrix, catalog = model.build_instance(self.scores, self.assignments)
        originals = model.original_rankings(matrix)
        online.OnlineState.fresh(matrix.m, catalog.l)
        span = (start, perf_counter())
        self.matrix, self.catalog, self.originals = matrix, catalog, originals
        return span

    def iteration(self, index: int) -> Sample:
        spec, matrix, catalog, originals = self.spec, self.matrix, self.catalog, self.originals
        state = online.OnlineState.fresh(matrix.m, catalog.l)
        served = []
        sweep = None
        first = len(self.tracer.spans)
        start = perf_counter()
        if self.config is not None:
            try:
                sweep = experiments.run_offline_sweep(self.config, matrix, catalog)
            except Exception as exc:  # a failed sweep fails each of its cells
                sweep = exc
        for u in self.stream:
            try:
                rec, state = online.serve_request(
                    state, u, matrix, catalog, originals[u], spec.k, spec.fairness
                )
            except Exception as exc:  # a failed request is counted, the loop goes on
                rec = exc
            served.append(rec)
        sample = Sample((start, perf_counter()), self.tracer.requests_since(first))
        if self.config is not None:
            self._check_sweep(sweep)
        self._check_requests(served, state)
        return sample

    def _check_sweep(self, sweep) -> None:
        m, n = self.matrix.m, self.matrix.n
        for k in self.spec.ks:
            for algo in ALGORITHMS:
                key = f"sweep/{algo}_k{k}"
                if isinstance(sweep, Exception):
                    problems = [repr(sweep)]
                else:
                    lists = sweep.lists.get((algo, k))
                    problems = check_lists(lists, m, n, k)
                    problems = problems or self.gate.digest(key, digest_lists(lists))
                self.gate.operation(key, problems)

    def _check_requests(self, served, state) -> None:
        n, k = self.matrix.n, self.spec.k
        each = [
            [repr(rec)] if isinstance(rec, Exception) else check_list(rec, n, k, u)
            for u, rec in zip(self.stream, served)
        ]
        # The stream digests cover every list and the final exposure ledger;
        # a mismatch cannot be pinned on one request, so it fails them all.
        whole = []
        if not any(each):
            whole = self.gate.digest("requests/lists", digest_lists(served))
            whole += self.gate.digest("requests/exposure", digest_array(state.exposure))
        for u, problems in zip(self.stream, each):
            self.gate.operation(f"request for customer {u}", problems + whole)


def measure(spec, seed: int, seconds: float, trace: bool, expected=None, work=None) -> dict:
    """Run one workload and return its gate counts, metric values and report.

    ``expected`` maps digest keys to recorded digests; ``work`` is a scratch
    directory for CLI workloads, removed at the end. Untraced runs scale
    their times to the reference speed of ``speed.SpeedSampler``, whose
    kernel is held back while a request runs; traced runs report raw seconds.
    """
    sampler = None if trace else SpeedSampler()
    gate, counters = Gate(expected), Counter()
    tracer = Tracer() if trace else Tracer(request_guard=HoldAlarm)
    hooks = _hooks(counters)
    runner = spec.start(seed, gate, tracer, work)
    untraced: list[Sample] = []
    traced: list[Sample] = []
    with contextlib.ExitStack() as cleanup:
        if work is not None:
            cleanup.callback(shutil.rmtree, work, ignore_errors=True)
        cleanup.callback(tracer.uninstall)
        if sampler is not None:
            cleanup.enter_context(sampler)
        if trace:
            tracer.install(BINDINGS, hooks)
        tracer.phase = "input"
        runner.prepare()
        tracer.phase = "setup"
        setups = [runner.setup(rep) for rep in range(spec.setup_repeats)]
        tracer.uninstall()
        while True:
            traced_now = trace and len(untraced) > len(traced)
            tracer.phase = "iter" if traced_now else "probe"
            tracer.install(BINDINGS if traced_now else PROBES, hooks if traced_now else None)
            try:
                sample = runner.iteration(len(untraced) + len(traced))
            finally:
                tracer.uninstall()
            (traced if traced_now else untraced).append(sample)
            # The budget counts measured time, not the checks between
            # iterations.
            done = len(untraced) + len(traced)
            measured = sum(s.wall for s in untraced + traced)
            enough = traced if trace else len(untraced) >= spec.min_iterations
            if measured + measured / done > seconds and enough:
                break

    if trace:
        reps = {"input": 1, "setup": spec.setup_repeats, "iter": len(traced)}
        values = _per_layer(tracer.spans, counters, reps, traced, untraced)
        raw = _end_to_end(setups, untraced, lambda kind, *interval: _elapsed(*interval))
    else:
        kernels = spec.speed_kernels
        values = _end_to_end(
            setups, untraced, lambda kind, *interval: sampler.scaled(kernels[kind], *interval)
        )
        raw = _end_to_end(setups, untraced, lambda kind, *interval: sampler.unscaled(*interval))
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "values": values,
        "tracer": tracer,
        "report": {
            "setups": len(setups),
            "iterations": len(untraced),
            "iteration_walls": [s.wall for s in untraced],
            "traced_iterations": len(traced),
            "request_samples": sum(len(s.requests) for s in untraced),
            "unscaled": raw,
            "kernel_samples": len(sampler.durations) if sampler else 0,
            "kernel_median_s": {
                name: statistics.median(wall for wall, _ in times)
                for name, times in sampler.kernel_times.items()
                if times
            } if sampler else {},
            "failed_share": gate.failed / max(gate.attempted, 1),
            "problems": gate.problems,
            "digests": gate.digests,
        },
    }


def _hooks(counters: Counter) -> dict:
    def loaded(result, args):
        # `tfrom gen` writes one row per nonzero score and no duplicates,
        # so the rows read are the nonzero entries of the loaded matrix.
        counters["rows"] += int(np.count_nonzero(result[0].scores))

    def reranked(result, args):
        matrix, k = args[0], args[3]
        counters["slots"] += matrix.m * k
        counters["skipped"] += len(result.skipped)

    def served(result, args):
        rec, state = result
        original, k = args[4], args[5]
        counters["requests"] += 1
        counters["state_bytes"] += sum(
            value.nbytes
            for value in (getattr(state, f.name) for f in dataclasses.fields(state))
            if isinstance(value, np.ndarray)
        )
        counters["topk"] += rec.items == tuple(original.items[:k].tolist())

    return {
        "fileio.load_instance": loaded,
        "offline.tfrom_offline": reranked,
        REQUEST_SPAN: served,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _elapsed(start: float, end: float, cpu_start=None, cpu_end=None) -> float:
    return end - start if cpu_start is None else cpu_end - cpu_start


def _end_to_end(setups, samples: list[Sample], seconds):
    """End-to-end values, with ``seconds(kind, *interval)`` timing each
    interval of a kind: ``setup``, ``iteration`` or ``requests``.

    Set-up and iterations are timed in wall seconds, requests in the CPU
    seconds of the thread. The latency percentiles take every request of
    the run. Throughput is requests per second of the request loop, from the
    first request to the end of the last, with the caller's own work
    between requests.
    """
    latencies = [seconds("requests", *span) * 1e6 for s in samples for span in s.requests]
    p50, p99 = np.percentile(latencies, [50, 99]) if latencies else (0.0, 0.0)
    with_requests = [s for s in samples if s.requests]
    loops = sum(seconds("requests", *s.request_loop) for s in with_requests)
    return {
        "setup_s": statistics.median(seconds("setup", *span) for span in setups),
        "wall_s": statistics.median(seconds("iteration", *s.span) for s in samples),
        "request_p50_us": float(p50),
        "request_p99_us": float(p99),
        "requests_per_s": _ratio(sum(len(s.requests) for s in with_requests), loops),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(spans, counters: Counter, reps: dict, traced, untraced) -> dict:
    """Per-layer values for one set-up plus one iteration of the timed phase."""
    table = totals(spans)

    def per_run(name: str, column: int = 0) -> float:
        return sum(
            (table[phase, name][column] / n for phase, n in reps.items() if (phase, name) in table),
            0.0,
        )

    load_s = per_run("fileio.load_instance") * reps["iter"]
    traced_wall = statistics.median(s.wall for s in traced)
    requests = counters["requests"]
    return {
        "fileio.load_instance_s": per_run("fileio.load_instance"),
        "fileio.ingest_rows_per_s": _ratio(counters["rows"], load_s),
        "fileio.write_instance_files_s": per_run("fileio.write_instance_files"),
        "fileio.write_recommendations_s": per_run("fileio.write_recommendations"),
        "fileio.read_recommendations_s": per_run("fileio.read_recommendations"),
        "fileio.write_tables_s": per_run("fileio.write_tables"),
        "model.build_instance_s": per_run("model.build_instance"),
        "model.original_rankings_s": per_run("model.original_rankings"),
        "model.original_rankings_calls": per_run("model.original_rankings", 2),
        "targets.fair_targets_s": per_run("targets.fair_targets"),
        "targets.fair_targets_calls": per_run("targets.fair_targets", 2),
        "metrics.provider_relevance_s": per_run("metrics.provider_relevance"),
        "metrics.provider_relevance_calls": per_run("metrics.provider_relevance", 2),
        "metrics.quality_s": per_run("metrics.quality"),
        "metrics.exposure_s": per_run("metrics.exposure"),
        "offline.tfrom_offline_s": per_run("offline.tfrom_offline"),
        "offline.phase1_fill_share": _ratio(
            counters["slots"] - counters["skipped"], counters["slots"]
        ),
        "offline.skipped_slots": counters["skipped"] / reps["iter"],
        "online.serve_request_s": per_run(REQUEST_SPAN),
        "online.serve_request_self_s": per_run(REQUEST_SPAN, 1),
        "online.serve_request_calls": per_run(REQUEST_SPAN, 2),
        "online.state_bytes_per_request": _ratio(counters["state_bytes"], requests),
        "online.topk_share": _ratio(counters["topk"], requests),
        "baselines.minimum_exposure_s": per_run("baselines.minimum_exposure"),
        "baselines.top_k_s": per_run("baselines.top_k"),
        "baselines.all_random_s": per_run("baselines.all_random"),
        "experiments.run_offline_sweep_self_s": per_run("experiments.run_offline_sweep", 1),
        "experiments.run_online_stream_self_s": per_run(REPLAY_SPAN, 1),
        "cli.gen_s": per_run("cli.gen"),
        "cli.offline_s": per_run("cli.offline"),
        "cli.online_s": per_run("cli.online"),
        "cli.metrics_s": per_run("cli.metrics"),
        "synth.generate_synthetic_s": per_run("synth.generate_synthetic"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(s.wall for s in untraced),
        "trace.top_level_share": _ratio(
            top_level_seconds(spans, "iter"), sum(s.wall for s in traced)
        ),
    }
