"""Argument rules shared by every entry point: the integer rule for counts,
indices and seeds, the fairness-mode check, the range of list entries, a
catalog's item count against the matrix, the grid rule of a matrix however
it is built, the originals of the quality measures, and the customer and
the list ``ndcg`` scores.

The instance has m = 2 customers, n = 3 items and l = 2 providers. The
seed of ``tfrom_offline`` and the customer id of ``original_ranking`` and
``serve_request`` are covered by ``TestSeed`` (test_offline.py),
``TestOriginalRanking`` (test_model.py) and ``TestStateBoundary``
(test_online.py).
"""

import re
from dataclasses import astuple

import numpy as np
import pytest
from pytest import approx

import tfrom
from tfrom import errors, fileio, metrics, model
from tfrom.baselines import all_random
from tfrom.experiments import (
    ExperimentConfig,
    StreamTracker,
    request_stream,
    run_offline_sweep,
    run_online_stream,
)
from tfrom.online import OnlineState
from tfrom.targets import FairnessMode

UNIFORM = FairnessMode.UNIFORM
MATRIX, CATALOG = tfrom.build_instance([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [0, 1, 0])
ORIGINALS = tfrom.original_rankings(MATRIX)


def lists_array(lists):
    return np.array([[rec.owner, *rec.items] for rec in lists], dtype=np.int64)


def config(**overrides):
    base = dict(fairness=UNIFORM, algorithms=("tfrom", "topk", "random"), ks=(2,), seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def sweep(cfg):
    result = run_offline_sweep(cfg, MATRIX, CATALOG)
    rows = [(r.step, *astuple(r)[2:]) for r in result.trace]
    return [np.array(rows, dtype=np.float64), *map(lists_array, result.lists.values())]


def stream(cfg):
    result = run_online_stream(cfg, MATRIX, CATALOG)
    rows = [(r.step, *astuple(r)[2:]) for r in result.trace]
    served = [lists_array(rec for _, rec in pairs) for pairs in result.served.values()]
    return [np.array(rows, dtype=np.float64), *served]


def offline_run(k):
    run = tfrom.tfrom_offline(MATRIX, CATALOG, ORIGINALS, k, UNIFORM, seed=0)
    return [lists_array(run.lists), run.ledger, run.quality, run.step, run.exposure_before]


def served_once(k):
    rec, state = tfrom.serve_request(
        OnlineState.fresh(2, 2), 0, MATRIX, CATALOG, ORIGINALS[0], k, UNIFORM
    )
    return [lists_array([rec]), state.exposure]


def min_exposure(k):
    ledger = np.zeros(CATALOG.l)
    rec = tfrom.minimum_exposure(ORIGINALS[0], CATALOG, ledger, k)
    return [lists_array([rec]), ledger]


def synthetic(m=3, n=4, l=2, seed=1):
    return list(tfrom.generate_synthetic(m, n, l, seed=seed))


DIM, SHAPE, VALUE = errors.InvalidDimension, errors.InvalidShape, errors.ValidationError

# name: (an accepted value, the error a non-integer raises, the call); each
# call returns its outputs as a list of arrays
ENTRY_POINTS = {
    "top_k k": (2, DIM, lambda v: [lists_array([tfrom.top_k(ORIGINALS[0], v)])]),
    "all_random k": (2, DIM, lambda v: [lists_array([all_random(ORIGINALS[0], v, seed=0)])]),
    "all_random seed": (3, VALUE, lambda v: [lists_array([all_random(ORIGINALS[0], 2, seed=v)])]),
    "minimum_exposure k": (2, DIM, min_exposure),
    "tfrom_offline k": (2, DIM, offline_run),
    "serve_request k": (2, DIM, served_once),
    "ExperimentConfig ks": (2, VALUE, lambda v: sweep(config(ks=(v,)))),
    # without tfrom, whose own seed check would answer first
    "ExperimentConfig seed": (3, VALUE, lambda v: sweep(config(seed=v, algorithms=("random",)))),
    "stream_multiplier": (3, VALUE, lambda v: stream(config(stream_multiplier=v))),
    "trace_every": (2, VALUE, lambda v: stream(config(trace_every=v))),
    "request_stream seed": (3, VALUE, lambda v: [request_stream(v, 5, 20)]),
    "request_stream m": (5, DIM, lambda v: [request_stream(3, v, 20)]),
    "request_stream length": (20, VALUE, lambda v: [request_stream(3, 5, v)]),
    "generate_synthetic seed": (3, VALUE, lambda v: synthetic(seed=v)),
    "generate_synthetic m": (3, SHAPE, lambda v: synthetic(m=v)),
    "generate_synthetic n": (4, SHAPE, lambda v: synthetic(n=v)),
    "generate_synthetic l": (2, SHAPE, lambda v: synthetic(l=v)),
    "total_exposure m": (3, DIM, lambda v: [np.float64(tfrom.total_exposure(v, 2))]),
    "total_exposure k": (2, DIM, lambda v: [np.float64(tfrom.total_exposure(3, v))]),
    "online_total_exposure": (3, DIM, lambda v: [np.float64(tfrom.online_total_exposure(v, 2))]),
    "online_total_exposure k": (2, DIM, lambda v: [np.float64(tfrom.online_total_exposure(3, v))]),
    "OnlineState.fresh": (2, DIM, lambda v: [OnlineState.fresh(2, v).exposure]),
    "position_weight": (2, errors.InvalidRank, lambda v: [np.float64(tfrom.position_weight(v))]),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@pytest.mark.parametrize(
    "value", [1.5, np.float64(2), "2", None, True], ids=["float", "np-float", "str", "None", "bool"]
)
def test_non_integer_refused(name, value):
    _, error, call = ENTRY_POINTS[name]
    if name == "trace_every" and value is None:
        call(value)  # the default: a trace row every m requests
        return
    with pytest.raises(error, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_gives_identical_output(name, kind):
    good, _, call = ENTRY_POINTS[name]
    plain, numpy = call(good), call(kind(good))
    assert [a.tobytes() for a in numpy] == [a.tobytes() for a in plain]


@pytest.mark.parametrize(
    "m, length, error, message",
    [(0, 20, DIM, "customer count must be >= 1, got 0"),
     (-1, 20, DIM, "customer count must be >= 1, got -1"),
     (5, -1, VALUE, "stream length must be >= 0, got -1")],
)
def test_request_stream_range_refused(m, length, error, message):
    # numpy's own ValueError used to answer each of these
    with pytest.raises(error, match=message):
        request_stream(3, m, length)


def test_empty_request_stream():
    assert request_stream(3, 5, 0).size == 0


@pytest.mark.parametrize(
    "field, value",
    [("ks", (2, 3.0)), ("seed", 1.5), ("stream_multiplier", 1.5), ("trace_every", 1.5)],
)
def test_config_refused_before_any_work(field, value):
    # the re-rankers would refuse most of these too, but only partway through a run
    with pytest.raises(errors.ValidationError, match="must be an integer"):
        config(**{field: value}).validate(MATRIX.n)


@pytest.mark.parametrize(
    "call",
    [
        lambda mode: tfrom.fair_targets(mode, 3.0, CATALOG, MATRIX),
        lambda mode: tfrom.tfrom_offline(MATRIX, CATALOG, ORIGINALS, 2, mode, seed=0),
        lambda mode: tfrom.serve_request(
            OnlineState.fresh(2, 2), 0, MATRIX, CATALOG, ORIGINALS[0], 2, mode
        ),
        lambda mode: config(fairness=mode).validate(MATRIX.n),
    ],
    ids=["fair_targets", "tfrom_offline", "serve_request", "ExperimentConfig"],
)
@pytest.mark.parametrize("mode", ["uniform", "quality-weighted", None])
def test_mode_must_be_a_fairness_mode(call, mode):
    # "uniform" used to be read as quality-weighted: [0.27, 2.73], not [1, 2]
    with pytest.raises(errors.ValidationError, match="fairness mode must be a FairnessMode"):
        call(mode)


# catalogs of 2 and 4 items, each with MATRIX's l = 2 providers: with 2 the
# calls below used to end in a bare IndexError, and with 4 some returned
# results, a provider's queue running past the row
OTHER_CATALOGS = {
    n: tfrom.build_instance(np.ones((1, n)), [0, 1] * (n // 2))[1] for n in (2, 4)
}
QUALITY = FairnessMode.QUALITY_WEIGHTED
CATALOG_USERS = {
    "provider_relevance": lambda catalog: metrics.provider_relevance(MATRIX, catalog),
    "fair_targets": lambda catalog: tfrom.fair_targets(QUALITY, 3.0, catalog, MATRIX),
    "provider_queues": lambda catalog: MATRIX.provider_queues(catalog),
    "serve_request": lambda catalog: tfrom.serve_request(
        OnlineState.fresh(2, 2), 0, MATRIX, catalog, ORIGINALS[0], 2, UNIFORM
    ),
    "tfrom_offline": lambda catalog: tfrom.tfrom_offline(
        MATRIX, catalog, ORIGINALS, 2, UNIFORM, seed=0
    ),
    "run_offline_sweep": lambda catalog: run_offline_sweep(config(), MATRIX, catalog),
    "run_online_stream": lambda catalog: run_online_stream(config(), MATRIX, catalog),
}


@pytest.mark.parametrize("n", list(OTHER_CATALOGS))
@pytest.mark.parametrize("name", list(CATALOG_USERS))
def test_catalog_of_another_item_count_refused(name, n):
    with pytest.raises(errors.InvalidShape, match=f"^{n} provider assignments for 3 items$"):
        CATALOG_USERS[name](OTHER_CATALOGS[n])


@pytest.mark.parametrize(
    "provider_of, sizes",
    [([0, 0, 1], [1, 1]), ([0, 0, 2], [2, 1]), ([0, 1 << 40], [1, 1]), ([0, 2, 2], [1, 0, 2]),
     ([0, -1, 1], [2, 1]), ([[0, 0, 1]], [2, 1])],
    ids=["miscounted", "id-past-sizes", "id-far-past-sizes", "empty-provider", "negative-id",
         "not-a-vector"],
)
def test_catalog_refused_where_it_is_built(provider_of, sizes):
    # each used to be built: fair_targets(UNIFORM, 10.0, ...) on the first
    # returned targets that sum to 6.67, and provider_queues refused it
    # only when it was first called
    message = "^catalog sizes must count each provider's items, one or more$"
    with pytest.raises(errors.ValidationError, match=message):
        model.Catalog(provider_of, sizes, tuple(range(len(sizes))))


@pytest.mark.parametrize("provider_of", [[0, 0, 1], (0, 0, 1), np.array([0, 0, 1], np.uint8)])
def test_catalog_keeps_read_only_int64_arrays(provider_of):
    # a list used to be kept as it was: .n ended in a bare AttributeError
    catalog = model.Catalog(provider_of, [2, 1], ("a", "b"))
    assert (catalog.n, catalog.l) == (3, 2)
    for array in (catalog.provider_of, catalog.sizes):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert catalog.provider_of.tolist() == [0, 0, 1] and catalog.sizes.tolist() == [2, 1]
    targets = tfrom.fair_targets(UNIFORM, 10.0, catalog, MATRIX).per_provider
    assert targets.tolist() == approx([20 / 3, 10 / 3])


def test_catalog_from_build_instance_kept_as_it_is():
    catalog = model.Catalog(CATALOG.provider_of, CATALOG.sizes, CATALOG.provider_labels)
    assert catalog.provider_of is CATALOG.provider_of and catalog.sizes is CATALOG.sizes


REC = tfrom.RecommendationList
GOOD = [REC(0, (2, 1)), REC(1, (0, 2))]
# past int64 (or below it), numpy's conversion of a list entry used to end
# every consumer in a bare OverflowError
BIG = 2**70


def score(consumer, lists, tmp_path):
    if consumer == "exposure":
        tfrom.exposure(lists, CATALOG)
    elif consumer == "quality":
        tfrom.quality(lists, MATRIX, ORIGINALS)
    elif consumer == "write_recommendations":
        labels = fileio.InstanceLabels(customers=("a", "b"), items=("x", "y", "z"))
        served = [(None, rec) for rec in lists]
        fileio.write_recommendations(tmp_path / "out.csv", served, MATRIX, CATALOG, labels)
    else:
        tracker = StreamTracker(MATRIX, CATALOG, ORIGINALS)
        for rec in lists:
            before = (tracker.per_provider.tolist(), tracker.rec_time.tolist())
            try:
                tracker.record(rec)
            except errors.ValidationError:
                # a refused list leaves the tracker as it was
                assert (tracker.per_provider.tolist(), tracker.rec_time.tolist()) == before
                raise


CONSUMERS = ["exposure", "quality", "write_recommendations", "StreamTracker.record"]


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize(
    "bad, message",
    [(REC(1, (0, -1)), "customer 1 holds unknown item -1"),
     (REC(1, (3, 0)), "customer 1 holds unknown item 3"),
     (REC(1, (BIG, 0)), f"^list for customer 1 holds unknown item {BIG}$"),
     (REC(1, (-BIG, 0)), f"^list for customer 1 holds unknown item {-BIG}$")],
    ids=["item-negative", "item-n", "item-past-int64", "item-below-int64"],
)
def test_out_of_range_item_refused(consumer, bad, message, tmp_path):
    with pytest.raises(errors.ValidationError, match=message):
        score(consumer, [GOOD[0], bad], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS[1:])
@pytest.mark.parametrize("owner", [2, -1, BIG, -BIG])
def test_out_of_range_owner_refused(consumer, owner, tmp_path):
    message = f"customer {owner} outside universe of size 2"
    with pytest.raises(errors.UnknownCustomer, match=message):
        score(consumer, [GOOD[0], REC(owner, (0, 2))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_owner_range_checked_before_item_range(consumer, tmp_path):
    owner = BIG if consumer == "exposure" else -1  # exposure reads no owner's range
    with pytest.raises(errors.UnknownCustomer, match=f"^list for customer {owner} outside"):
        score(consumer, [GOOD[0], REC(owner, (3, 0))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS[1:])
def test_first_out_of_range_owner_named(consumer, tmp_path):
    with pytest.raises(errors.UnknownCustomer, match="customer -1 outside"):
        score(consumer, [GOOD[0], REC(-1, (0, 2)), REC(2, (0, 2))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_in_range_lists_accepted(consumer, tmp_path):
    score(consumer, GOOD, tmp_path)


NON_INTEGERS = [1.5, True, np.float64(2), "2", None, np.True_]
NON_INTEGER_IDS = ["float", "bool", "np-float", "str", "None", "np-bool"]


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("item", NON_INTEGERS, ids=NON_INTEGER_IDS)
def test_non_integer_item_refused(consumer, item, tmp_path):
    # numpy used to read 1.5, True and "2" as item 1 or 2, and None failed
    # with a bare TypeError
    with pytest.raises(errors.ValidationError, match="customer 1: an item must be an integer"):
        score(consumer, [GOOD[0], REC(1, (item, 0))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("owner", NON_INTEGERS, ids=NON_INTEGER_IDS)
def test_non_integer_owner_refused(consumer, owner, tmp_path):
    # an owner of 0.5 used to end quality in a bare TypeError
    with pytest.raises(errors.UnknownCustomer, match="list owner must be an integer"):
        score(consumer, [GOOD[0], REC(owner, (0, 2))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_first_non_integer_named(consumer, tmp_path):
    lists = [GOOD[0], REC(1, (0, 2.5)), REC(0.5, (0, 2))]
    with pytest.raises(errors.ValidationError, match="got 2.5"):
        score(consumer, lists, tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_first_non_integer_in_a_row_named(consumer, tmp_path):
    with pytest.raises(errors.ValidationError, match="got 1.5$"):
        score(consumer, [GOOD[0], REC(1, (1.5, "x"))], tmp_path)


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_entries_score_alike(kind):
    # 0 and 1 are the values whose type the column conversion looks at
    numpy = [REC(kind(rec.owner), tuple(map(kind, rec.items))) for rec in GOOD]
    assert tfrom.quality(numpy, MATRIX, ORIGINALS).per_customer_ndcg.tobytes() == \
        tfrom.quality(GOOD, MATRIX, ORIGINALS).per_customer_ndcg.tobytes()
    assert tfrom.exposure(numpy, CATALOG).per_provider.tobytes() == \
        tfrom.exposure(GOOD, CATALOG).per_provider.tobytes()
    plain, tracker = StreamTracker(MATRIX, CATALOG, ORIGINALS), StreamTracker(MATRIX, CATALOG, ORIGINALS)
    for rec, twin in zip(GOOD, numpy):
        plain.record(rec)
        tracker.record(twin)
    assert tracker.per_provider.tobytes() == plain.per_provider.tobytes()
    assert tracker.avg_quality.tobytes() == plain.avg_quality.tobytes()


class Index:
    """An index type that is no ``numbers.Integral``: it has ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def entry_outcome(consumer, lists):
    """What ``consumer`` makes of ``lists``: its output bytes, or the type
    and message of the error it raised."""
    try:
        if consumer == "RecommendationBlock":
            block = tfrom.RecommendationBlock([r.owner for r in lists], [r.items for r in lists])
            return block.owners.tobytes() + block.items.tobytes()
        if consumer == "exposure":
            return tfrom.exposure(lists, CATALOG).per_provider.tobytes()
        if consumer == "quality":
            return tfrom.quality(lists, MATRIX, ORIGINALS).per_customer_ndcg.tobytes()
        tracker = StreamTracker(MATRIX, CATALOG, ORIGINALS)
        for rec in lists:
            tracker.record(rec)
        return tracker.per_provider.tobytes() + tracker.avg_quality.tobytes()
    except errors.TfromError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("consumer", ["RecommendationBlock", "exposure", "quality",
                                      "StreamTracker.record"])
@pytest.mark.parametrize("value", [0, 1, 2])
@pytest.mark.parametrize("where", ["owner", "item"])
def test_index_type_entry_reads_as_its_integer(where, value, consumer):
    # array("q") reads any __index__, and only the entries at 0 or 1 have
    # their type looked at, for bools: such an entry used to be refused
    # there and accepted above
    def lists(entry):
        if where == "owner":  # customer 2 lies outside the instance
            return [REC(entry, (2, 1)), REC(1 if value == 0 else 0, (0, 2))]
        return [REC(0, (entry, (value + 1) % 3)), REC(1, (0, 2))]

    plain = entry_outcome(consumer, lists(value))
    index = entry_outcome(consumer, lists(Index(value)))
    if isinstance(plain, tuple):
        index = (index[0], index[1].replace(repr(Index(value)), str(value)))
    assert index == plain



WIDE_MATRIX, WIDE_CATALOG = tfrom.build_instance(
    1.0 - np.random.default_rng(0).random((2, 256)), [i % 2 for i in range(256)]
)
WIDE_ORIGINALS = tfrom.original_rankings(WIDE_MATRIX)


def wide_offline(k):
    run = tfrom.tfrom_offline(WIDE_MATRIX, WIDE_CATALOG, WIDE_ORIGINALS, k, UNIFORM, seed=0)
    return [lists_array(run.lists), run.ledger]


def wide_request(k=10, c_num=0):
    rec, state = tfrom.serve_request(
        OnlineState(np.zeros(2), c_num), 0, WIDE_MATRIX, WIDE_CATALOG, WIDE_ORIGINALS[0], k, UNIFORM
    )
    return [lists_array([rec]), state.exposure, np.array([state.c_num])]


# name: (a value that, as np.uint8, wraps in the call's arithmetic; the call)
NARROW = {
    "tfrom_offline k": (255, wide_offline),
    "serve_request k": (255, lambda v: wide_request(k=v)),
    "serve_request c_num": (255, lambda v: wide_request(c_num=v)),
    "minimum_exposure k": (255, lambda v: [lists_array([tfrom.minimum_exposure(
        WIDE_ORIGINALS[0], WIDE_CATALOG, np.zeros(2), v)])]),
    "total_exposure k": (255, lambda v: [np.float64(tfrom.total_exposure(2, v))]),
    "position_weight": (255, lambda v: [np.float64(tfrom.position_weight(v))]),
    "stream_multiplier": (200, lambda v: stream(config(stream_multiplier=v))),
    "trace_every": (5, lambda v: stream(config(stream_multiplier=200, trace_every=v))),
}


@pytest.mark.parametrize("name", list(NARROW))
def test_narrow_numpy_integer_does_not_wrap(name):
    # np.uint8(255) + 1 is 0 and np.uint8(200) * 2 is 144; the checks hand
    # back Python ints
    value, call = NARROW[name]
    assert [a.tobytes() for a in call(np.uint8(value))] == [a.tobytes() for a in call(value)]


@pytest.mark.parametrize("owner", [BIG, -BIG])
def test_exposure_refuses_an_owner_outside_intp(owner, tmp_path):
    # exposure reads no owner's range, but an owner must fit an intp
    message = f"^list for customer {owner} outside the intp range$"
    with pytest.raises(errors.UnknownCustomer, match=message):
        score("exposure", [GOOD[0], REC(owner, (0, 2))], tmp_path)


@pytest.mark.parametrize("consumer", CONSUMERS[1:])
def test_owner_past_int64_named_in_list_order(consumer, tmp_path):
    with pytest.raises(errors.UnknownCustomer, match="^list for customer -1 outside"):
        score(consumer, [GOOD[0], REC(-1, (0, 2)), REC(BIG, (0, 2))], tmp_path)
    with pytest.raises(errors.UnknownCustomer, match=f"^list for customer {BIG} outside"):
        score(consumer, [GOOD[0], REC(BIG, (0, 2)), REC(-1, (0, 2))], tmp_path)


def outcome(call):
    try:
        call()
    except errors.TfromError as exc:
        return type(exc), str(exc)
    return None


NAMED_NON_INTEGERS = list(zip(NON_INTEGER_IDS, NON_INTEGERS))
BAD_LISTS = {
    **{f"item-{name}": [GOOD[0], REC(1, (bad, 0))] for name, bad in NAMED_NON_INTEGERS},
    **{f"owner-{name}": [GOOD[0], REC(bad, (0, 2))] for name, bad in NAMED_NON_INTEGERS},
    "item-past-int64": [GOOD[0], REC(1, (BIG, 0))],
    "item-below-int64": [GOOD[0], REC(1, (-BIG, 0))],
    "owner-past-int64": [GOOD[0], REC(BIG, (0, 2))],
    "owner-below-int64": [GOOD[0], REC(-BIG, (0, 2))],
    "first-in-list-order": [GOOD[0], REC(1, (0, 2.5)), REC(0.5, (0, 2))],
    "first-in-a-row": [GOOD[0], REC(1, (1.5, "x"))],
    # the column reads True as 1, and only the entries at 0 or 1 have their type looked at
    "item-bool-after-a-larger-id": [GOOD[0], REC(1, (2, True))],
    "owners-before-items": [REC(0, (BIG, 1)), REC(BIG, (0, 2))],
    # intp's ends: the columns clip entries past intp to them
    "item-intp-max": [GOOD[0], REC(1, (2**63 - 1, 0))],
    "item-intp-min": [GOOD[0], REC(1, (-2**63, 0))],
    "owner-intp-max": [GOOD[0], REC(2**63 - 1, (0, 2))],
    "owner-intp-min": [GOOD[0], REC(-2**63, (0, 2))],
}


@pytest.mark.parametrize("lists", BAD_LISTS.values(), ids=BAD_LISTS.keys())
def test_block_refuses_entries_as_exposure_does(lists):
    # exposure, like the block, knows no universe of customers
    build = lambda: tfrom.RecommendationBlock([r.owner for r in lists], [r.items for r in lists])
    want = outcome(lambda: tfrom.exposure(lists, CATALOG))
    assert want is not None
    assert outcome(build) == want


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize(
    "owners, items, error, message",
    [([0, 1], [(2, 1), (3, 0)], errors.ValidationError, "customer 1 holds unknown item 3"),
     ([0, 1], [(2, 1), (-1, 0)], errors.ValidationError, "customer 1 holds unknown item -1"),
     ([0, 2], [(2, 1), (0, 1)], errors.UnknownCustomer, "customer 2 outside universe of size 2")],
    ids=["item-n", "item-negative", "owner-m"],
)
def test_out_of_range_block_refused(consumer, owners, items, error, message, tmp_path):
    block = tfrom.RecommendationBlock(owners, items)
    if consumer == "exposure" and error is errors.UnknownCustomer:
        tfrom.exposure(block, CATALOG)  # reads no owner's range
        return
    with pytest.raises(error, match=message):
        if consumer == "write_recommendations":
            labels = fileio.InstanceLabels(customers=("a", "b"), items=("x", "y", "z"))
            fileio.write_recommendations(tmp_path / "out.csv", block, MATRIX, CATALOG, labels)
        else:
            score(consumer, block, tmp_path)


@pytest.mark.parametrize(
    "payload, message",
    [(None, "^state snapshot must be a mapping, got NoneType$"),
     ("exposure c_num", "^state snapshot must be a mapping, got str$"),
     ({"exposure": [10**400], "c_num": 0}, "^state exposure is not a numeric vector: "),
     ({"exposure": [1, "2"], "c_num": 0}, "^state exposure entries must be ints or floats, got str$"),
     ({"exposure": [True], "c_num": 0}, "^state exposure entries must be ints or floats, got bool$")],
    ids=["None", "text", "past-float", "numeric-text", "bool"],
)
def test_state_snapshot_refused(payload, message):
    # what to_dict cannot produce: a bare TypeError or OverflowError used to
    # answer the first three, and the last two loaded as numbers
    with pytest.raises(errors.ValidationError, match=message):
        OnlineState.from_dict(payload)


@pytest.mark.parametrize(
    "requests, message",
    [((0.5, 1.7), "^request index of list 0 must be an integer, got 0.5$"),
     ((1, 0), "^request index of list 1 must be >= 2, got 0$"),
     ((0, 0), "^request index of list 1 must be >= 1, got 0$"),
     ((True, 2), "^request index of list 0 must be an integer, got True$"),
     ((0, None), "^request index of list 1 must be an integer, got None$"),
     (("0", "1"), "^request index of list 0 must be an integer, got '0'$")],
    ids=["fraction", "falling", "repeated", "bool", "None-after-int", "text"],
)
def test_request_index_refused(requests, message, tmp_path):
    # what read_recommendations misreads or refuses: 0.5 and 1.7 used to be
    # written as 0 and 1 and True as 1, a falling or repeated index was
    # written and then refused on reading, None and text ended in a bare
    # TypeError
    labels = fileio.InstanceLabels(customers=("a", "b"), items=("x", "y", "z"))
    path = tmp_path / "out.csv"
    with pytest.raises(errors.ValidationError, match=message):
        fileio.write_recommendations(path, list(zip(requests, GOOD)), MATRIX, CATALOG, labels)
    assert not path.exists()


@pytest.mark.parametrize(
    "scores, error, message",
    [(np.ones(3), SHAPE, "expected a non-empty 2-d score grid, got shape (3,)"),
     (np.ones((1, 2, 3)), SHAPE, "expected a non-empty 2-d score grid, got shape (1, 2, 3)"),
     (np.ones((0, 3)), SHAPE, "expected a non-empty 2-d score grid, got shape (0, 3)"),
     (np.ones((2, 0)), SHAPE, "expected a non-empty 2-d score grid, got shape (2, 0)"),
     ([[1.0, 1.0], [1.0, np.nan]], errors.NonFiniteScore,
      "score at (customer 1, item 1) is not finite"),
     ([[1.0, np.inf]], errors.NonFiniteScore, "score at (customer 0, item 1) is not finite"),
     ([[-np.inf, 1.0]], errors.NonFiniteScore, "score at (customer 0, item 0) is not finite"),
     ([[1.0, 0.0], [-1.0, 2.0]], errors.NegativeScore, "score at (customer 1, item 0) is negative"),
     ([[1.0, -5e-324]], errors.NegativeScore, "score at (customer 0, item 1) is negative"),
     ([[1.0, 2.0], [0.0, -0.0]], errors.EmptyRow, "customer 1 has no positive relevance score")],
    ids=["1-d", "3-d", "no-rows", "no-columns", "nan", "inf", "-inf", "negative",
         "least-negative", "zero-row"],
)
def test_hand_built_matrix_refused_as_the_builder_refuses(scores, error, message):
    # each used to be built by hand: NaN and negative scores then gave
    # quality-weighted tfrom_offline lists, a row of zeros two
    # RuntimeWarnings, a 1-d grid a bare IndexError or ValueError later
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        model.PreferenceMatrix(scores)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tfrom.build_instance(scores, [0] * np.shape(scores)[-1])


# customer 1's original, not as matrix.order[1]: (the ranking, the end of
# the message)
NOT_THE_ORDER = {
    "wrong-owner": (model.RankedList(0, ORIGINALS[1].items), "owned by 0, not 1"),
    "too-short": (model.RankedList(1, ORIGINALS[1].items[:2]), "holds 2 items, not 3"),
    "permuted": (
        model.RankedList(1, ORIGINALS[1].items[[1, 0, 2]]), "is not customer 1's preference order"
    ),
}
# (where the message places the ranking, the call given customer 0's and
# customer 1's originals)
ORIGINAL_USERS = {
    "quality": (" at index 1", lambda originals: tfrom.quality(GOOD, MATRIX, originals)),
    "ndcg": ("", lambda originals: tfrom.ndcg(1, GOOD[1], MATRIX, originals[1])),
    "StreamTracker.record": (
        " at index 1",
        lambda originals: StreamTracker(MATRIX, CATALOG, originals).record(GOOD[1]),
    ),
}


@pytest.mark.parametrize("user", list(ORIGINAL_USERS))
@pytest.mark.parametrize("bad", list(NOT_THE_ORDER))
def test_original_that_is_not_the_preference_order_refused(user, bad):
    # each used to be scored: a ranking of another owner, a prefix of the
    # order or another permutation gave its own ideal gain; a tracker
    # refuses it when it is built
    ranked, end = NOT_THE_ORDER[bad]
    where, call = ORIGINAL_USERS[user]
    message = re.escape(f"original ranking{where} {end}")
    with pytest.raises(errors.ValidationError, match=f"^{message}$"):
        call([ORIGINALS[0], ranked])


@pytest.mark.parametrize(
    "u, rec, error, message",
    [(True, GOOD[1], errors.UnknownCustomer, "customer id must be an integer, got True"),
     (2, REC(2, (0, 2)), errors.UnknownCustomer, "customer 2 outside universe of size 2"),
     (1, REC(0, (2, 1)), errors.ValidationError, "list owned by 0, not 1"),
     (1, REC(1, (0, -1)), errors.ValidationError, "list for customer 1 holds unknown item -1"),
     (1, REC(1, (3, 0)), errors.ValidationError, "list for customer 1 holds unknown item 3"),
     (1, REC(1, (1.5, 0)), errors.ValidationError,
      "list for customer 1: an item must be an integer, got 1.5"),
     (1, REC(2, (0, 2)), errors.UnknownCustomer, "list for customer 2 outside universe of size 2"),
     (1, REC(0.5, (0, 2)), errors.UnknownCustomer, "list owner must be an integer, got 0.5")],
    ids=["customer-id-bool", "customer-id-outside", "foreign-owner", "item-negative", "item-n",
         "item-not-integer", "owner-outside", "owner-not-integer"],
)
def test_ndcg_holds_its_customer_and_list_to_the_rules(u, rec, error, message):
    # customer 1's ndcg used to score a list of customer 0's, or of no
    # customer's, and read item -1 as item 2; item 3 or 1.5, and a customer
    # id of True, ended in a bare IndexError or TypeError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tfrom.ndcg(u, rec, MATRIX, ORIGINALS[1])
