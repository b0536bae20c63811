"""Differential tests of the column scoring in metrics.py (``exposure``,
``quality``, the ``tfrom_offline`` ideal gain and ``StreamTracker``)
against slot-by-slot reference loops built from ``position_weight`` and
``dcg``, compared bit for bit with ``tobytes()``; and of the lists as one
``RecommendationBlock`` against the same lists one by one, in the scores,
the written file and every sweep cell."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tfrom
from conftest import minimum_exposure_loop
from tfrom import baselines, errors, fileio, metrics
from tfrom.experiments import ALGORITHMS, ExperimentConfig, StreamTracker, _offline_cell
from tfrom.model import PreferenceMatrix, RankedList, RecommendationBlock, RecommendationList


def reference_exposure(lists, catalog):
    per_item = np.zeros(catalog.n)
    for rec in lists:
        for pos, item in enumerate(rec.items):
            per_item[item] += tfrom.position_weight(pos + 1)
    per_provider = np.zeros(catalog.l)
    for item, p in enumerate(catalog.provider_of):
        per_provider[p] += per_item[item]
    return per_provider


def reference_quality(lists, matrix, originals):
    dcgs = np.full(matrix.m, np.nan)
    idcgs = np.full(matrix.m, np.nan)
    for rec in lists:
        u = rec.owner
        if not np.isnan(dcgs[u]):
            raise errors.ValidationError(f"two lists for customer {u}")
        dcgs[u] = tfrom.dcg(u, rec.items, matrix)
        idcgs[u] = tfrom.dcg(u, originals[u].items[: rec.k], matrix)
    if np.isnan(dcgs).any():
        missing = int(np.flatnonzero(np.isnan(dcgs))[0])
        raise errors.ValidationError(f"no list for customer {missing}")
    # the ideal list is the customer's own top-k, the first wrong one named
    for u, ranked in enumerate(originals):
        if ranked.items.tolist() != oracles._original_order(matrix.scores[u].tolist()):
            message = f"original ranking at index {u} is not customer {u}'s preference order"
            raise errors.ValidationError(message)
    # every row holds a positive score, so no ideal gain is zero
    assert (idcgs > 0).all()
    # Python floats, as ``ndcg`` divides
    return np.array([d / i for d, i in zip(dcgs.tolist(), idcgs.tolist())])


class ReferenceTracker:
    """StreamTracker's accounting, slot by slot and without the cache."""

    def __init__(self, matrix, catalog, originals):
        # StreamTracker.row reads matrix and catalog too: its ratio variance
        # is pinned to the public metric in test_experiments.py
        self.matrix, self.catalog, self.originals = matrix, catalog, originals
        self.per_provider = np.zeros(catalog.l)
        self.avg_quality = np.zeros(matrix.m)
        self.rec_time = np.zeros(matrix.m, dtype=np.int64)

    def record(self, rec):
        for pos, item in enumerate(rec.items):
            self.per_provider[self.catalog.provider_of[item]] += tfrom.position_weight(pos + 1)
        u = rec.owner
        request_ndcg = tfrom.ndcg(u, rec, self.matrix, self.originals[u])
        t = int(self.rec_time[u])
        self.avg_quality[u] = (self.avg_quality[u] * t + request_ndcg) / (t + 1)
        self.rec_time[u] = t + 1


def outcome(call):
    """(value, None) or (None, (error type, message)) of ``call()``."""
    try:
        return call(), None
    except errors.TfromError as exc:
        return None, (type(exc), str(exc))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# scores with many ties, 1-5 ratings and subnormals, each mixed with zeros
TIES = st.sampled_from([0.0, 1.0, 2.0])
RATINGS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
SUBNORMALS = st.sampled_from([0.0, 5e-324, 1e-310, 2e-308, 1.0])


@st.composite
def instances(draw, cells=(TIES, st.floats(0.0, 1.0))):
    """(matrix, catalog): up to 5 customers and 10 items, scores drawn from
    one of ``cells`` ({0, 1, 2} or [0, 1] by default), every row with a
    positive score."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    cell = draw(st.sampled_from(cells))
    scores = np.array(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    scores[~(scores > 0).any(axis=1), draw(st.integers(0, n - 1))] = 1.0
    l = draw(st.integers(1, n))
    providers = draw(st.permutations(list(range(l)) + [0] * (n - l)))
    return tfrom.build_instance(scores, providers)


def a_list(draw, u, n):
    """Customer u's list of any length 1..n, items in any order."""
    k = draw(st.integers(1, n))
    return RecommendationList(owner=u, items=tuple(draw(st.permutations(range(n)))[:k]))


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_quality_and_exposure_match_the_slot_loops(instance, data):
    # mixed lengths, lists in any owner order, and, when drawn, a repeated
    # or a missing customer, or rankings that need not be the preference
    # order, which are refused after the lists' own faults
    matrix, catalog = instance
    lists = [a_list(data.draw, u, matrix.n) for u in range(matrix.m)]
    lists = data.draw(st.permutations(lists))
    if data.draw(st.booleans()):
        lists = data.draw(
            st.lists(st.sampled_from(lists), min_size=1, max_size=2 * matrix.m)
        )
    if data.draw(st.booleans()):
        originals = tfrom.original_rankings(matrix)
    else:
        originals = [
            RankedList(owner=u, items=np.array(data.draw(st.permutations(range(matrix.n)))))
            for u in range(matrix.m)
        ]
    got, got_error = outcome(lambda: tfrom.quality(lists, matrix, originals).per_customer_ndcg)
    want, want_error = outcome(lambda: reference_quality(lists, matrix, originals))
    assert got_error == want_error
    if want_error is None:
        assert same_bits(got, want)
    assert same_bits(
        tfrom.exposure(iter(lists), catalog).per_provider, reference_exposure(lists, catalog)
    )


@settings(max_examples=60, deadline=None)
@given(instances(cells=(TIES, RATINGS, SUBNORMALS, st.floats(0.0, 1.0))), st.data())
def test_top_k_dcg_matches_dcg(instance, data):
    # the matrix keeps the vector, and it has the bits of every customer's
    # own ideal gain, the dcg of their top k; ndcg divides by it, given a
    # copy of the row as the original too
    matrix, _ = instance
    k = data.draw(st.integers(1, matrix.n))
    want = np.array([tfrom.dcg(u, matrix.order[u, :k], matrix) for u in range(matrix.m)])
    gains = metrics._top_k_dcg(matrix, k)
    assert same_bits(gains, want)
    assert (gains > 0).all()
    copies = [RankedList(u, matrix.order[u].copy()) for u in range(matrix.m)]
    tops = [RecommendationList(u, tuple(matrix.order[u, :k].tolist())) for u in range(matrix.m)]
    assert [tfrom.ndcg(u, tops[u], matrix, copies[u]) for u in range(matrix.m)] == [1.0] * matrix.m
    assert metrics._top_k_dcg(matrix, k) is gains and not gains.flags.writeable


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_stream_tracker_matches_the_uncached_reference(instance, data):
    # requests revisit customers, and k varies between requests, so the
    # memo must answer per (customer, k); equal originals that are not the
    # matrix's rows pass their O(n) check and read the same memo
    matrix, catalog = instance
    originals = tfrom.original_rankings(matrix)
    if data.draw(st.booleans()):
        originals = [RankedList(u, ranked.items.copy()) for u, ranked in enumerate(originals)]
    tracker = StreamTracker(matrix, catalog, originals)
    reference = ReferenceTracker(matrix, catalog, originals)
    owners = data.draw(st.lists(st.integers(0, matrix.m - 1), min_size=1, max_size=16))
    for u in owners:
        rec = a_list(data.draw, u, matrix.n)
        tracker.record(rec)
        reference.record(rec)
    for name in ("per_provider", "avg_quality", "rec_time"):
        assert same_bits(getattr(tracker, name), getattr(reference, name))
    step = len(owners)
    assert tracker.row(step, "x") == StreamTracker.row(reference, step, "x")


def test_subnormal_ideal_gain_gives_a_quiet_inf():
    # a ranking that put a subnormal score first made the ideal gain
    # 2.2e-309 and the NDCG overflow to inf; such a ranking is refused
    # now, and a subnormal top score of the customer's own divides by
    # itself, quietly
    matrix, _ = tfrom.build_instance([[2.2e-309, 1.0], [1.0, 0.0], [2.2e-309, 0.0]], [0, 0])
    originals = list(tfrom.original_rankings(matrix))
    lists = [RecommendationList(u, items) for u, items in enumerate([(1,), (0,), (0,)])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tfrom.quality(lists, matrix, originals).per_customer_ndcg
        want = reference_quality(lists, matrix, originals)
    assert same_bits(got, want)
    assert got.tolist() == [1.0, 1.0, 1.0]
    originals[0] = RankedList(owner=0, items=np.array([0, 1]))
    message = "^original ranking at index 0 is not customer 0's preference order$"
    with pytest.raises(errors.ValidationError, match=message):
        tfrom.quality(lists, matrix, originals)


def test_generator_and_empty_iterable():
    matrix, catalog = tfrom.build_instance([[3.0, 1.0, 2.0], [1.0, 2.0, 0.0]], [0, 1, 1])
    lists = [RecommendationList(0, (2, 0)), RecommendationList(1, (1,))]
    from_generator = tfrom.exposure((rec for rec in lists), catalog).per_provider
    assert same_bits(from_generator, reference_exposure(lists, catalog))
    assert same_bits(tfrom.exposure(iter(()), catalog).per_provider, np.zeros(2))
    with pytest.raises(errors.ValidationError, match="^no list for customer 0$"):
        tfrom.quality([], matrix, tfrom.original_rankings(matrix))


def test_error_messages():
    matrix, catalog = tfrom.build_instance([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1])
    originals = tfrom.original_rankings(matrix)
    one = {u: RecommendationList(u, (0,)) for u in range(3)}
    # the first list whose customer came before names that customer
    with pytest.raises(errors.ValidationError, match="^two lists for customer 2$"):
        tfrom.quality([one[1], one[2], one[0], one[2], one[1]], matrix, originals)
    with pytest.raises(errors.ValidationError, match="^two lists for customer 1$"):
        tfrom.quality([one[1], one[1]], matrix, originals)
    with pytest.raises(errors.ValidationError, match="^no list for customer 1$"):
        tfrom.quality([one[2], one[0]], matrix, originals)
    # an original that is not the customer's preference order is refused,
    # by the tracker when it is built: the bogus one put a zero score
    # first, and the short one held fewer items than its customer's list
    bogus = list(originals)
    bogus[1] = RankedList(owner=1, items=np.array([0, 1]))
    message = "^original ranking at index 1 is not customer 1's preference order$"
    with pytest.raises(errors.ValidationError, match=message):
        tfrom.quality(list(one.values()), matrix, bogus)
    with pytest.raises(errors.ValidationError, match=message):
        StreamTracker(matrix, catalog, bogus)
    short = list(originals)
    short[2] = RankedList(owner=2, items=matrix.order[2, :1])
    message = "^original ranking at index 2 holds 1 items, not 2$"
    with pytest.raises(errors.ValidationError, match=message):
        tfrom.quality([one[0], one[1], RecommendationList(2, (1, 0))], matrix, short)
    with pytest.raises(errors.ValidationError, match=message):
        StreamTracker(matrix, catalog, short)
    # a row of zeros, which used to give a zero ideal gain at the first
    # request of its customer, cannot be built
    with pytest.raises(errors.EmptyRow, match="^customer 1 has no positive relevance score$"):
        PreferenceMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))


def spy(monkeypatch, name, calls, label):
    """Record ``label(*args)`` of every call of ``metrics.<name>``."""
    real = getattr(metrics, name)
    monkeypatch.setattr(metrics, name, lambda *args: calls.append(label(*args)) or real(*args))


def test_ideal_gain_is_computed_once_per_matrix_and_k(monkeypatch):
    # every tracker on the matrix, quality, ndcg and tfrom_offline read the
    # one vector per k, whether the originals are the matrix's own or
    # equal copies of them
    matrix, catalog = tfrom.build_instance([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 0, 1])
    originals = tfrom.original_rankings(matrix)
    sums = []
    spy(monkeypatch, "_dcg_sums", sums, lambda matrix, owners, items, ranks: int(ranks.max()) + 1)
    requests = [(0, (0, 1)), (1, (2, 1)), (0, (1,)), (1, (0, 2)), (0, (2,))]
    copies = list(originals)
    copies[1] = RankedList(1, originals[1].items.copy())
    for given in (originals, copies, originals):
        tracker = StreamTracker(matrix, catalog, given)
        for u, items in requests:
            tracker.record(RecommendationList(u, items))
    assert sums == [2, 1]
    sums.clear()
    tfrom.quality(RecommendationBlock([0, 1], [[1, 0], [2, 1]]), matrix, copies)
    tfrom.tfrom_offline(matrix, catalog, originals, 1, tfrom.FairnessMode.UNIFORM, seed=0)
    tfrom.ndcg(1, RecommendationList(1, (0, 2)), matrix, copies[1])
    assert sums == [2]  # the lists' own gains


def test_quality_reads_the_ideal_gains_only_for_the_matrix_rows(monkeypatch):
    # the ideal gains come from the matrix's memo, one vector per list
    # length, whatever the originals (the matrix's own or equal copies):
    # quality's one _dcg_sums call is the lists' own, once the memo holds
    # k = 1 and k = n
    matrix, _ = tfrom.build_instance([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 0, 1])
    originals = tfrom.original_rankings(matrix)
    copies = [RankedList(u, ranked.items.copy()) for u, ranked in enumerate(originals)]
    gains = {k: metrics._top_k_dcg(matrix, k) for k in (1, 3)}
    sums, tops = [], []
    spy(monkeypatch, "_dcg_sums", sums, lambda *args: None)
    spy(monkeypatch, "_top_k_dcg", tops, lambda matrix, k: k)
    cases = [
        (RecommendationBlock([1, 0], [[2, 0, 1], [0, 1, 2]]), originals, [3]),
        (RecommendationBlock([1, 0], [[2], [0]]), originals, [1]),
        (RecommendationBlock([1, 0], [[2, 0, 1], [0, 1, 2]]), copies, [3]),
        ([RecommendationList(0, (2,)), RecommendationList(1, (0, 2, 1))], copies, [1, 3]),
        ([RecommendationList(1, (2,)), RecommendationList(0, (0, 2, 1))], originals, [1, 3]),
    ]
    for lists, given, lengths in cases:
        sums.clear(), tops.clear()
        got = tfrom.quality(lists, matrix, given).per_customer_ndcg
        assert len(sums) == 1 and tops == lengths
        assert same_bits(got, reference_quality(lists, matrix, originals))
    assert all(metrics._top_k_dcg(matrix, k) is gains[k] for k in gains)
    # a sequence of another length is refused, not read past m
    with pytest.raises(errors.ValidationError, match="^expected 2 original rankings, got 3$"):
        tfrom.quality(cases[1][0], matrix, list(originals) + originals[:1])


def a_block(draw, matrix):
    """k-item lists over ``matrix``'s items, k = n or any k, with owners in
    any order and, when drawn, a customer repeated or missing."""
    m, n = matrix.m, matrix.n
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    owners = draw(st.permutations(range(m)))
    if draw(st.booleans()):
        owners = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    rows = [draw(st.permutations(range(n)))[:k] for _ in owners]
    return RecommendationBlock(owners, rows)


def written(served, matrix, catalog):
    labels = fileio.InstanceLabels(
        customers=tuple(f"c{u}" for u in range(matrix.m)),
        items=tuple(f"i,{i}" for i in range(matrix.n)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "recommendations.csv"
        fileio.write_recommendations(path, served, matrix, catalog, labels)
        return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_block_scores_and_writes_as_its_lists(instance, data):
    # tied scores, k = n and m = 1 among the draws; a repeated or missing
    # customer gives quality's error both ways
    matrix, catalog = instance
    block = a_block(data.draw, matrix)
    lists = tuple(block)
    originals = tfrom.original_rankings(matrix)
    # equal originals that are not the matrix's rows take quality's other path
    copies = [RankedList(u, ranked.items.copy()) for u, ranked in enumerate(originals)]
    got, got_error = outcome(lambda: tfrom.quality(block, matrix, originals).per_customer_ndcg)
    for given in (originals, copies):
        want, want_error = outcome(lambda: tfrom.quality(lists, matrix, given).per_customer_ndcg)
        assert got_error == want_error
        if want_error is None:
            assert same_bits(got, want)
    assert same_bits(
        tfrom.exposure(block, catalog).per_provider, tfrom.exposure(lists, catalog).per_provider
    )
    pairs = [(None, rec) for rec in lists]
    assert written(block, matrix, catalog) == written(pairs, matrix, catalog)


def parent_cell(algo, k, config, matrix, catalog, originals):
    """A sweep cell's lists as m separate lists, one call per customer in
    id order, as the sweep built them before it built blocks."""
    m = matrix.m
    if algo == "tfrom":
        ref = oracles.offline_oracle(
            matrix.scores.tolist(), catalog.provider_of.tolist(), k, config.fairness.value,
            seed=config.seed,
        )
        return [RecommendationList(u, tuple(items)) for u, items in enumerate(ref["lists"])]
    if algo == "topk":
        return [baselines.top_k(originals[u], k) for u in range(m)]
    if algo == "random":
        rng = np.random.default_rng([config.seed, 3, k])
        draws = [rng.choice(originals[u].items, size=k, replace=False) for u in range(m)]
        return [RecommendationList(u, tuple(int(i) for i in row)) for u, row in enumerate(draws)]
    return list(minimum_exposure_loop(matrix, catalog, originals, k)[0])


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_sweep_cells_hold_the_lists_of_the_per_customer_calls(instance, data):
    matrix, catalog = instance
    k = data.draw(st.one_of(st.just(matrix.n), st.integers(1, matrix.n)))
    mode = data.draw(st.sampled_from(list(tfrom.FairnessMode)))
    config = ExperimentConfig(mode, ALGORITHMS, (k,), seed=data.draw(st.integers(0, 3)))
    originals = tfrom.original_rankings(matrix)
    for algo in ALGORITHMS:
        block = _offline_cell(algo, k, config, matrix, catalog, originals)
        assert isinstance(block, RecommendationBlock)
        got = [(rec.owner, rec.items) for rec in block]
        want = parent_cell(algo, k, config, matrix, catalog, originals)
        assert got == [(rec.owner, rec.items) for rec in want]
        assert all(type(v) is int for owner, items in got for v in (owner, *items))
