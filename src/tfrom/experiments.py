"""Experiment protocols: batch k-sweeps and request-stream replays.

The batch protocol runs every (k, algorithm) cell on the same instance
and records one metric row per cell. The stream protocol samples a single
seeded request sequence (uniform over customers, with replacement) and
replays it through every algorithm independently, recording a metric row
every ``trace_every`` requests. ``StreamTracker`` is the one place where
stream quality and exposure are accounted: the replay feeds it, and so
does ``tfrom metrics`` when it re-reads a served stream. Both read the
providers' relevance and the customers' ideal gains from the instance's
memos, through ``metrics.quality_weighted_provider_fairness`` and
``metrics._top_k_dcg``. Identical seeds reproduce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import baselines, metrics
from .errors import InvalidDimension, ValidationError
from .model import (
    Catalog,
    PreferenceMatrix,
    RankedList,
    RecommendationBlock,
    RecommendationList,
    _block,
    _check_catalog,
    _check_integer,
    _check_k,
    _entry_columns,
    original_rankings,
)
from .offline import tfrom_offline
from .online import OnlineState, serve_request
from .targets import FairnessMode, _check_mode

ALGORITHMS = ("tfrom", "topk", "random", "minexp")

# tags keep the random baseline's draws decoupled from the request stream
_SEED_TAG = {"stream": 0, "random": 3}


@dataclass
class ExperimentConfig:
    fairness: FairnessMode
    algorithms: tuple[str, ...]
    ks: tuple[int, ...]
    seed: int
    stream_multiplier: int = 10
    trace_every: int | None = None

    def validate(self, n: int) -> None:
        _check_mode(self.fairness)
        if not self.algorithms:
            raise ValidationError("the algorithm set must not be empty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValidationError(
                    f"unknown algorithm {name!r}; choose from {ALGORITHMS}"
                )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValidationError("duplicate algorithm names")
        if not self.ks:
            raise ValidationError("at least one k value is required")
        for k in self.ks:
            _check_k(k, n)
        if len(set(self.ks)) != len(self.ks):
            raise ValidationError("duplicate k values")
        _check_integer("seed", self.seed, 0)
        _check_integer("stream multiplier", self.stream_multiplier, 1)
        if self.trace_every is not None:
            _check_integer("trace granularity", self.trace_every, 1)


@dataclass(frozen=True)
class TraceRow:
    step: int
    algorithm: str
    total_quality: float
    ndcg_variance: float
    ndcg_variance_all: float
    exposure_variance: float
    qw_ratio_variance: float

    @classmethod
    def from_reports(
        cls,
        step: int,
        algorithm: str,
        report: metrics.ExposureReport,
        qreport: metrics.QualityReport,
        matrix: PreferenceMatrix,
        catalog: Catalog,
    ) -> "TraceRow":
        """The row of a batch on ``matrix`` and ``catalog``: one list per
        customer."""
        ndcg_var = metrics.customer_fairness(qreport)
        return cls(
            step=step,
            algorithm=algorithm,
            total_quality=metrics.total_quality(qreport),
            ndcg_variance=ndcg_var,
            ndcg_variance_all=ndcg_var,
            exposure_variance=metrics.uniform_provider_fairness(report),
            qw_ratio_variance=metrics.quality_weighted_provider_fairness(report, matrix, catalog),
        )


class StreamTracker:
    """Cumulative accounting of one served stream, fed from its lists only.

    Exposure adds up slot by slot in request order; each customer's
    quality is the running mean of the NDCG of their requests. A request's
    ideal gain is read from the matrix's memo when its customer's original
    is the matrix's own ranking, and computed per request otherwise.
    """

    def __init__(
        self, matrix: PreferenceMatrix, catalog: Catalog, originals: Sequence[RankedList]
    ):
        self.matrix, self.catalog, self.originals = matrix, catalog, originals
        # every original of the matrix's own sequence is its own ranking
        self._own = originals is matrix._rankings
        self.per_provider = np.zeros(catalog.l)
        self.avg_quality = np.zeros(matrix.m)
        self.rec_time = np.zeros(matrix.m, dtype=np.int64)
        _check_catalog(matrix, catalog)
        # Python ints index ``per_provider`` faster than numpy scalars do
        self._provider_of = catalog.provider_of.tolist()

    def record(self, rec: RecommendationList) -> None:
        u, k, m, n = rec.owner, rec.k, self.matrix.m, self.matrix.n
        if not (type(u) is int and set(map(type, rec.items)) <= {int}
                and 0 <= u < m and 0 <= min(rec.items) and max(rec.items) < n):
            _entry_columns((u,), (rec.items,), m, n)  # raises on a bad entry, naming it
        for w, item in zip(metrics.slot_weights(k), rec.items):
            self.per_provider[self._provider_of[item]] += w
        ideal = metrics._top_k_dcg(self.matrix, k)[u]
        own = self._own or self.originals[u].items is self.matrix._rankings[u].items
        if not (ideal > 0.0 and own):
            ideal = metrics._ideal_dcg(u, k, self.matrix, self.originals[u])
        request_ndcg = metrics.dcg(u, rec.items, self.matrix) / ideal
        t = int(self.rec_time[u])
        self.avg_quality[u] = (self.avg_quality[u] * t + request_ndcg) / (t + 1)
        self.rec_time[u] = t + 1

    def row(self, step: int, algorithm: str) -> TraceRow:
        served = self.rec_time > 0
        report = metrics.ExposureReport(per_provider=self.per_provider)
        return TraceRow(
            step=step,
            algorithm=algorithm,
            total_quality=float(np.dot(self.avg_quality, self.rec_time)),
            ndcg_variance=float(np.var(self.avg_quality[served])),
            ndcg_variance_all=float(np.var(self.avg_quality)),
            exposure_variance=metrics.uniform_provider_fairness(report),
            qw_ratio_variance=metrics.quality_weighted_provider_fairness(
                report, self.matrix, self.catalog
            ),
        )


@dataclass
class OfflineSweepResult:
    trace: list[TraceRow]
    lists: dict[tuple[str, int], RecommendationBlock] = field(default_factory=dict)


@dataclass
class OnlineStreamResult:
    trace: list[TraceRow]
    served: dict[str, list[tuple[int, RecommendationList]]] = field(default_factory=dict)


def _offline_cell(
    algo: str,
    k: int,
    config: ExperimentConfig,
    matrix: PreferenceMatrix,
    catalog: Catalog,
    originals: Sequence[RankedList],
) -> RecommendationBlock:
    """One sweep cell's lists, customer u's in row u. Each baseline gives
    the lists of m calls in customer order, from ``matrix.order`` (the
    originals are its rows): the random cell the draws of m ``all_random``
    calls on one generator seeded ``[seed, 3, k]``, which
    ``baselines._random_positions`` takes from one ``Generator.integers``
    call for all m lists where that is faster."""
    if algo == "tfrom":
        return tfrom_offline(matrix, catalog, originals, k, config.fairness, config.seed).lists
    owners, order = np.arange(matrix.m), matrix.order
    if algo == "topk":
        return _block(owners, order[:, :k])
    if algo == "random":
        rng = np.random.default_rng([config.seed, _SEED_TAG["random"], k])
        positions = baselines._random_positions(rng, matrix.n, k, matrix.m)
    else:
        # the matrix's queues are the originals' queues
        queues = matrix.provider_queues(catalog)
        picks = baselines._least_exposed_slots(
            np.zeros(catalog.l), queues.start, queues.end, k, matrix.m
        )
        positions = np.take_along_axis(queues.positions, picks, axis=1)
    return _block(owners, np.take_along_axis(order, positions, axis=1))


def run_offline_sweep(
    config: ExperimentConfig, matrix: PreferenceMatrix, catalog: Catalog
) -> OfflineSweepResult:
    """One metric row per (k, algorithm) cell; cells see identical inputs."""
    config.validate(matrix.n)
    _check_catalog(matrix, catalog)
    originals = original_rankings(matrix)
    result = OfflineSweepResult(trace=[])
    for k in config.ks:
        for algo in config.algorithms:
            lists = _offline_cell(algo, k, config, matrix, catalog, originals)
            result.trace.append(
                TraceRow.from_reports(
                    k,
                    algo,
                    metrics.exposure(lists, catalog),
                    metrics.quality(lists, matrix, originals),
                    matrix,
                    catalog,
                )
            )
            result.lists[(algo, k)] = lists
    return result


def request_stream(seed: int, m: int, length: int) -> np.ndarray:
    """The seeded request sequence shared by every algorithm in a run:
    ``length`` customer ids drawn uniformly from ``0..m-1``. ``m`` must be
    an integer >= 1 (InvalidDimension), ``seed`` and ``length`` integers
    >= 0 (ValidationError)."""
    _check_integer("seed", seed, 0)
    m = _check_integer("customer count", m, 1, InvalidDimension)
    length = _check_integer("stream length", length, 0)
    return np.random.default_rng([seed, _SEED_TAG["stream"]]).integers(0, m, size=length)


def run_online_stream(
    config: ExperimentConfig, matrix: PreferenceMatrix, catalog: Catalog
) -> OnlineStreamResult:
    """Replay one request stream through each algorithm independently."""
    config.validate(matrix.n)
    if len(config.ks) != 1:
        raise ValidationError("online runs take exactly one k value")
    m = matrix.m
    k = config.ks[0]
    originals = original_rankings(matrix)
    length = int(config.stream_multiplier) * m
    every = int(config.trace_every) if config.trace_every is not None else m
    stream = request_stream(config.seed, m, length)

    result = OnlineStreamResult(trace=[])
    for algo in config.algorithms:
        tracker = StreamTracker(matrix, catalog, originals)
        served: list[tuple[int, RecommendationList]] = []
        state = OnlineState.fresh(m, catalog.l)
        ledger = np.zeros(catalog.l)
        rng = np.random.default_rng([config.seed, _SEED_TAG["random"]])
        for idx, u in enumerate(stream):
            u = int(u)
            if algo == "tfrom":
                rec, state = serve_request(
                    state, u, matrix, catalog, originals[u], k, config.fairness
                )
            elif algo == "topk":
                rec = baselines.top_k(originals[u], k)
            elif algo == "random":
                rec = baselines.all_random(originals[u], k, rng)
            else:
                rec = baselines.minimum_exposure(originals[u], catalog, ledger, k)
            tracker.record(rec)
            served.append((idx, rec))
            if (idx + 1) % every == 0:
                result.trace.append(tracker.row(idx + 1, algo))
        result.served[algo] = served
    return result
