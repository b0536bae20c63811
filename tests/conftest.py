import collections

import numpy as np
import pytest

import tfrom

# Desk-scale reference instance used across the suite: 200 customers, 500
# items, 20 providers (sizes 24-26), uniform scores, fixed seed. Generated
# once per session; the acceptance suite checks its checksum.
GOLDEN_PARAMS = dict(
    m=200, n=500, l=20, score_distribution="uniform", provider_size_skew=64.0, seed=42
)
GOLDEN_SHA256 = "a6c250e4b73595b866086c0e469d719705701ec8bf3132941b6b8fa1bb98f8b1"


@pytest.fixture(scope="session")
def golden_raw():
    return tfrom.generate_synthetic(**GOLDEN_PARAMS)


@pytest.fixture(scope="session")
def golden_instance(golden_raw):
    scores, assignments = golden_raw
    matrix, catalog = tfrom.build_instance(scores, assignments)
    return matrix, catalog, tfrom.original_rankings(matrix)


def random_mini_instance(rng, max_m=3, max_n=6, max_l=3, ties=False):
    """Small random instance; every provider owns at least one item.

    With ``ties`` the scores are integers in {0, 1, 2} with at least one
    positive entry per row, so equal scores (and zeros) are common and the
    tie-break rules get exercised.
    """
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    l = int(rng.integers(1, min(n, max_l) + 1))
    assignments = np.concatenate([np.arange(l), rng.integers(0, l, size=n - l)])
    rng.shuffle(assignments)
    if ties:
        scores = rng.integers(0, 3, size=(m, n)).astype(np.float64)
        scores[np.arange(m), rng.integers(0, n, size=m)] = rng.integers(1, 3, size=m)
    else:
        scores = 1.0 - rng.random((m, n))
    return scores, assignments


Placement = collections.namedtuple(
    "Placement", "phase rank customer item provider weight exposure_before budget"
)


def placement_log(run, catalog):
    """The placements of an offline run in execution order, rebuilt from its
    two per-slot columns, ``lists``, ``skipped`` and ``targets``; a phase-2
    placement has no budget."""
    log = []
    for u, rec in enumerate(run.lists):
        for rank, item in enumerate(rec.items, start=1):
            p = int(catalog.provider_of[item])
            phase = 2 if (u, rank) in run.skipped else 1
            budget = float(run.targets.per_provider[p]) if phase == 1 else None
            before = float(run.exposure_before[u, rank - 1])
            placement = Placement(
                phase, rank, u, item, p, tfrom.position_weight(rank), before, budget
            )
            log.append((int(run.step[u, rank - 1]), placement))
    return [placement for _, placement in sorted(log, key=lambda entry: entry[0])]
