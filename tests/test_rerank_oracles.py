"""Hypothesis differential tests of both TFROM re-rankers and the
minimum-exposure baseline against the straight-line interpreters in
oracles.py, on the edge shapes of the queue design: one-item providers
whose queue empties mid-list, k = n, l = 1, l = n, all-zero item columns,
tie-heavy integer scores, and one matrix re-ranked under two catalogs in
a row. Offline runs with many more customers than providers fill providers
partway through a rank, so customers choose again within it. Online streams start either fresh or from a drawn mid-stream state,
whose exposures sit around the fair shares, so the budget pass has room to
place items from the first request on. The sweep's minimum-exposure cell is
compared with the per-call baseline it replaces, on rating-scale scores."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tfrom
from conftest import lists_bytes, minimum_exposure_cell, minimum_exposure_loop
from tfrom.experiments import StreamTracker
from tfrom.online import OnlineState
from tfrom.targets import FairnessMode

SHAPES = ["any", "l=1", "l=n", "one-item providers"]


@st.composite
def assignments(draw, n):
    """Provider ids for n items, every provider owning at least one."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "l=1":
        l = 1
    elif shape == "l=n":
        l = n
    else:
        l = draw(st.integers(1, n))
    if shape == "one-item providers":
        extra = [0] * (n - l)  # providers 1..l-1 own one item each
    else:
        extra = draw(st.lists(st.integers(0, l - 1), min_size=n - l, max_size=n - l))
    return draw(st.permutations(list(range(l)) + extra))


def score_grid(draw, m, n):
    """An m x n score matrix with whole zero columns and, half the time,
    scores in {0, 1, 2}; every row keeps a positive score."""
    if draw(st.booleans()):
        cell = st.sampled_from([0.0, 1.0, 2.0])
    else:
        cell = st.floats(0.0, 1.0)
    scores = np.array(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    zero_columns = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    live = draw(st.integers(0, n - 1))
    zero_columns[live] = False
    scores[:, zero_columns] = 0.0
    scores[~(scores > 0).any(axis=1), live] = 1.0
    return scores


@st.composite
def instances(draw):
    """(scores, providers, k, mode): up to 4 customers and 12 items; k = n
    half the time."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    scores = score_grid(draw, m, n)
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    mode = draw(st.sampled_from(list(FairnessMode)))
    return scores, draw(assignments(n)), k, mode


@st.composite
def crowded_instances(draw):
    """(scores, providers, k, mode): 5 to 40 customers sharing 2 to 4
    providers of up to 8 items; k = n half the time. Every customer's
    scores carry the same per-item popularity, so many customers want the
    same providers, which then fill partway through a rank."""
    m = draw(st.integers(5, 40))
    n = draw(st.integers(2, 8))
    l = draw(st.integers(2, min(n, 4)))
    extra = draw(st.lists(st.integers(0, l - 1), min_size=n - l, max_size=n - l))
    providers = draw(st.permutations(list(range(l)) + extra))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    mode = draw(st.sampled_from(list(FairnessMode)))
    popularity = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=n, max_size=n))
    return score_grid(draw, m, n) + popularity, providers, k, mode


def check_offline(matrix, catalog, scores, k, mode, seed):
    run = tfrom.tfrom_offline(
        matrix, catalog, tfrom.original_rankings(matrix), k, mode, seed=seed
    )
    providers = catalog.provider_of.tolist()
    ref = oracles.offline_oracle(scores.tolist(), providers, k, mode.value, seed=seed)
    assert [list(r.items) for r in run.lists] == ref["lists"]
    assert run.ledger.tolist() == ref["exposure"]
    assert run.quality.tolist() == ref["quality"]
    assert set(run.skipped) == ref["skipped"]
    assert run.step.tolist() == ref["step"]
    assert run.exposure_before.tolist() == ref["exposure_before"]


@st.composite
def mid_stream(draw, matrix, catalog, k, mode):
    """(exposure, c_num) of a stream after c_num requests: each provider's
    exposure is its fair share of those requests times a drawn factor, so
    some providers have room for several slots and others for none."""
    c_num = draw(st.integers(1, 40))
    shares = tfrom.fair_targets(
        mode, tfrom.online_total_exposure(c_num, k), catalog, matrix
    ).per_provider.tolist()
    factor = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.5)
    factors = draw(st.lists(factor, min_size=catalog.l, max_size=catalog.l))
    return [share * f for share, f in zip(shares, factors)], c_num


class Stream:
    """One served stream and its oracle mirror, fed one request at a time,
    from a fresh state or from ``start``, an (exposure, c_num) pair."""

    def __init__(self, matrix, catalog, scores, k, mode, start=None):
        self.matrix, self.catalog, self.scores, self.k, self.mode = (
            matrix, catalog, scores, k, mode
        )
        self.originals = tfrom.original_rankings(matrix)
        self.tracker = StreamTracker(matrix, catalog, self.originals)
        exposure, c_num = ([0.0] * catalog.l, 0) if start is None else start
        self.state = OnlineState(exposure=np.array(exposure), c_num=c_num)
        self.mirror = oracles.fresh_online_state(matrix.m, catalog.l, exposure, c_num)

    def serve(self, u):
        rec, self.state = tfrom.serve_request(
            self.state, u, self.matrix, self.catalog, self.originals[u], self.k, self.mode
        )
        self.tracker.record(rec)
        expected = oracles.online_oracle_request(
            self.mirror, u, self.scores.tolist(), self.catalog.provider_of.tolist(), self.k,
            self.mode.value,
        )
        assert list(rec.items) == expected

    def check(self):
        assert self.state.exposure.tolist() == self.mirror["exposure"]
        assert self.state.c_num == self.mirror["c_num"]
        assert self.tracker.rec_time.tolist() == self.mirror["rec_time"]


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_offline_matches_oracle(instance, seed):
    scores, providers, k, mode = instance
    matrix, catalog = tfrom.build_instance(scores, providers)
    check_offline(matrix, catalog, scores, k, mode, seed)


@settings(max_examples=40, deadline=None)
@given(crowded_instances(), st.integers(0, 2**32 - 1))
def test_offline_crowded_matches_oracle(instance, seed):
    scores, providers, k, mode = instance
    matrix, catalog = tfrom.build_instance(scores, providers)
    check_offline(matrix, catalog, scores, k, mode, seed)


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_online_stream_matches_oracle(instance, data):
    scores, providers, k, mode = instance
    matrix, catalog = tfrom.build_instance(scores, providers)
    requests = data.draw(st.lists(st.integers(0, matrix.m - 1), min_size=1, max_size=12))
    start = data.draw(st.none() | mid_stream(matrix, catalog, k, mode))
    stream = Stream(matrix, catalog, scores, k, mode, start)
    for u in requests:
        stream.serve(u)
    stream.check()


@settings(max_examples=30, deadline=None)
@given(instances(), st.data())
def test_one_matrix_under_two_catalogs(instance, data):
    # each call asks the matrix for the queues of another catalog than the
    # call before it, so a stale memo would serve the wrong provider groups
    scores, providers, k, mode = instance
    matrix, first = tfrom.build_instance(scores, providers)
    _, second = tfrom.build_instance(scores, data.draw(assignments(matrix.n)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for catalog in (first, second, first):
        check_offline(matrix, catalog, scores, k, mode, seed)
    streams = [Stream(matrix, catalog, scores, k, mode) for catalog in (first, second)]
    requests = data.draw(st.lists(st.integers(0, matrix.m - 1), min_size=2, max_size=8))
    for i, u in enumerate(requests):
        streams[i % 2].serve(u)
    for stream in streams:
        stream.check()


@settings(max_examples=50, deadline=None)
@given(instances(), st.data())
def test_minimum_exposure_matches_oracle(instance, data):
    # one ledger across a customer sequence, from zero or from tied
    # nonzero loads
    scores, providers, k, _ = instance
    matrix, catalog = tfrom.build_instance(scores, providers)
    originals = tfrom.original_rankings(matrix)
    start = data.draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=catalog.l, max_size=catalog.l)
    )
    ledger = np.array(start)
    mirror = list(start)
    for u in data.draw(st.lists(st.integers(0, matrix.m - 1), min_size=1, max_size=12)):
        rec = tfrom.minimum_exposure(originals[u], catalog, ledger, k)
        expected = oracles.minimum_exposure_oracle(
            mirror, u, scores.tolist(), catalog.provider_of.tolist(), k
        )
        assert list(rec.items) == expected
    assert ledger.tolist() == mirror


@st.composite
def rated_instances(draw):
    """(scores, providers, k): 1 to 30 customers rating up to 12 items on a
    0..5 scale, mostly 0, so ties are the rule; k = n half the time."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 12))
    rating = st.sampled_from([0.0] * 5 + [1.0, 2.0, 3.0, 4.0, 5.0])
    scores = np.array(
        draw(st.lists(st.lists(rating, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    scores[~(scores > 0).any(axis=1), draw(st.integers(0, n - 1))] = 1.0
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    return scores, draw(assignments(n)), k


@settings(max_examples=80, deadline=None)
@given(rated_instances())
def test_minimum_exposure_cell_matches_per_call_loop(instance):
    # the sweep cell picks from the matrix's queues in one kernel call; the
    # loop calls minimum_exposure once per customer on one ledger
    scores, providers, k = instance
    matrix, catalog = tfrom.build_instance(scores, providers)
    originals = tfrom.original_rankings(matrix)
    lists, ledger = minimum_exposure_cell(matrix, catalog, originals, k)
    loop_lists, loop_ledger = minimum_exposure_loop(matrix, catalog, originals, k)
    assert lists_bytes(lists) == lists_bytes(loop_lists)
    assert ledger.tobytes() == loop_ledger.tobytes()
