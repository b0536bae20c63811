"""Straight-line reference interpreters for the two re-ranking procedures,
the minimum-exposure baseline, the random baseline's draws and the
preference order.

Written before the production implementations and kept deliberately dumb:
plain Python lists and dicts, no vectorization, no shared code with the
package beyond the seeded permutation used for the rank-1 customer order
(which is part of the algorithm contract, not of the logic under test).

Both interpreters use the same numeric conventions the package documents:
  * slot weight 1/log2(rank+1), ranks 1-based;
  * budget admission check with a 1e-12 slack;
  * quality increments v / (log2(rank+1) * ideal_gain);
  * customer order for ranks >= 2 is descending accumulated quality with
    ascending-id tie-break; vacancy refill prefers the provider with the
    lowest exposure, then the highest score, then the lowest item id;
  * the minimum-exposure baseline picks the provider with the lowest
    ledger exposure among those with an item left (lowest provider id on
    ties), then that provider's highest-scoring item, then the lowest id.
"""

import math

import numpy as np

SLACK = 1e-12


def _weights(k):
    return [1.0 / math.log2(r + 1) for r in range(1, k + 1)]


def sum_weights(k):
    total = 0.0
    for rank in range(1, k + 1):
        total += 1.0 / math.log2(rank + 1)
    return total


def _original_order(row):
    n = len(row)
    return sorted(range(n), key=lambda i: (-row[i], i))


def _ideal_gain(row, order, k):
    total = 0.0
    for pos in range(k):
        total += row[order[pos]] / math.log2(pos + 2)
    return total


def _fair_split(mode, total, scores, providers, n_providers):
    sizes = [0] * n_providers
    for p in providers:
        sizes[p] += 1
    if mode == "uniform":
        return [total * sizes[p] / len(providers) for p in range(n_providers)]
    if mode != "quality-weighted":
        raise ValueError(mode)
    item_mass = []
    for i in range(len(providers)):
        col = 0.0
        for row in scores:
            col += row[i]
        item_mass.append(col)
    mass = [0.0] * n_providers
    for p in range(n_providers):
        for i in range(len(providers)):
            if providers[i] == p:
                mass[p] += item_mass[i]
    mass_sum = 0.0
    for p in range(n_providers):
        mass_sum += mass[p]
    return [total * mass[p] / mass_sum for p in range(n_providers)]


def offline_oracle(scores, providers, k, mode, seed):
    """Interpret the two-phase batch procedure on plain Python data.

    scores: list of m rows of n floats; providers: n provider ids (0..l-1).
    Returns a dict with lists, exposure, quality, skipped slots, the
    per-provider budgets and, per slot (customer u, rank r at [u][r - 1]),
    the 0-based execution index ("step") and the placed provider's
    exposure just before the placement ("exposure_before"), suitable for
    field-by-field comparison.
    """
    m = len(scores)
    n = len(scores[0])
    n_providers = max(providers) + 1
    weights = _weights(k)
    budget_total = float(m) * sum_weights(k)
    budgets = _fair_split(mode, budget_total, scores, providers, n_providers)

    orders = [_original_order(scores[u]) for u in range(m)]
    ideal = [_ideal_gain(scores[u], orders[u], k) for u in range(m)]

    exposure = [0.0] * n_providers
    q = [0.0] * m
    lists = [[-1] * k for _ in range(m)]
    step = [[-1] * k for _ in range(m)]
    exposure_before = [[0.0] * k for _ in range(m)]
    placed = 0
    recommended = [set() for _ in range(m)]
    skipped = set()

    for rank in range(1, k + 1):
        w = weights[rank - 1]
        if rank == 1:
            visit = list(np.random.default_rng(seed).permutation(m))
        else:
            visit = sorted(range(m), key=lambda u: (-q[u], u))
        for u in visit:
            chosen = None
            for item in orders[u]:
                if item in recommended[u]:
                    continue
                p = providers[item]
                if exposure[p] + w <= budgets[p] + SLACK:
                    chosen = item
                    break
            if chosen is None:
                skipped.add((u, rank))
            else:
                p = providers[chosen]
                lists[u][rank - 1] = chosen
                step[u][rank - 1] = placed
                placed += 1
                exposure_before[u][rank - 1] = exposure[p]
                exposure[p] += w
                q[u] += scores[u][chosen] / (math.log2(rank + 1) * ideal[u])
                recommended[u].add(chosen)

    for rank in range(1, k + 1):
        w = weights[rank - 1]
        for u in range(m):
            if lists[u][rank - 1] != -1:
                continue
            best = None
            best_key = None
            for item in orders[u]:
                if item in recommended[u]:
                    continue
                key = (exposure[providers[item]], -scores[u][item], item)
                if best_key is None or key < best_key:
                    best = item
                    best_key = key
            p = providers[best]
            lists[u][rank - 1] = best
            step[u][rank - 1] = placed
            placed += 1
            exposure_before[u][rank - 1] = exposure[p]
            exposure[p] += w
            q[u] += scores[u][best] / (math.log2(rank + 1) * ideal[u])
            recommended[u].add(best)

    return {
        "lists": lists,
        "exposure": exposure,
        "quality": q,
        "skipped": skipped,
        "budgets": budgets,
        "step": step,
        "exposure_before": exposure_before,
    }


def fresh_online_state(m, n_providers, exposure=None, c_num=0):
    """A stream state with empty per-customer accounts: zero exposure after
    no requests, or the given ``exposure`` list after ``c_num`` requests (a
    stream picked up in the middle)."""
    return {
        "exposure": [0.0] * n_providers if exposure is None else list(exposure),
        "q": [0.0] * m,
        "rec_time": [0] * m,
        "c_num": c_num,
    }


def online_oracle_request(state, u, scores, providers, k, mode):
    """Serve one request, mutating ``state``; returns the emitted list.

    Budgets are recomputed from the request count including the incoming
    request. Vacancies left by the budget pass are refilled from the head
    of the remaining preference order.
    """
    n_providers = max(providers) + 1
    weights = _weights(k)
    budget_total = float(state["c_num"] + 1) * sum_weights(k)
    budgets = _fair_split(mode, budget_total, scores, providers, n_providers)

    order = _original_order(scores[u])
    ideal = _ideal_gain(scores[u], order, k)

    exposure = state["exposure"]
    out = [-1] * k
    used = set()
    q_temp = 0.0

    for rank in range(1, k + 1):
        w = weights[rank - 1]
        for item in order:
            if item in used:
                continue
            p = providers[item]
            if exposure[p] + w <= budgets[p] + SLACK:
                out[rank - 1] = item
                exposure[p] += w
                q_temp += scores[u][item] / (math.log2(rank + 1) * ideal)
                used.add(item)
                break

    for rank in range(1, k + 1):
        if out[rank - 1] != -1:
            continue
        for item in order:
            if item not in used:
                head = item
                break
        p = providers[head]
        out[rank - 1] = head
        exposure[p] += weights[rank - 1]
        q_temp += scores[u][head] / (math.log2(rank + 1) * ideal)
        used.add(head)

    t = state["rec_time"][u]
    state["q"][u] = (state["q"][u] * t + q_temp) / (t + 1)
    state["rec_time"][u] = t + 1
    state["c_num"] += 1
    return out


def minimum_exposure_oracle(ledger, u, scores, providers, k):
    """Fill one list from the least-exposed provider, mutating ``ledger``.

    Works in item space: scores[u] is read directly, never a precomputed
    ranking. Returns the emitted list.
    """
    weights = _weights(k)
    row = scores[u]
    used = set()
    out = []
    for rank in range(1, k + 1):
        provider = None
        for item in range(len(row)):
            if item in used:
                continue
            p = providers[item]
            if provider is None or (ledger[p], p) < (ledger[provider], provider):
                provider = p
        best = None
        for item in range(len(row)):
            if item in used or providers[item] != provider:
                continue
            if best is None or (-row[item], item) < (-row[best], best):
                best = item
        out.append(best)
        used.add(best)
        ledger[provider] += weights[rank - 1]
    return out


def least_exposed_slots_oracle(ledger, start, end, k, lists):
    """The minimum-exposure pick kernel as one ``argmin`` per slot:
    ``lists`` consecutive length-k lists on the queues ``start[p]`` to
    ``end[p] - 1``. Each list opens every provider with an entry; a slot
    takes the open provider of least load (lowest id on ties, the order of
    ``argmin``) and its next entry, and adds the slot weight to ``ledger``
    in place; a provider whose queue the list used up is closed until the
    list ends. Returns the lists x k queue indices."""
    closed = start == end
    start, end = start.tolist(), end.tolist()
    weights = _weights(k)
    picks = []
    for _ in range(lists):
        head = start.copy()
        open_load = np.where(closed, np.inf, ledger)
        for w in weights:
            p = int(open_load.argmin())
            picks.append(head[p])
            head[p] += 1
            ledger[p] += w
            open_load[p] = ledger[p] if head[p] < end[p] else np.inf
    return np.array(picks, dtype=np.intp).reshape(lists, k)


def random_positions_oracle(rng, n, k, lists):
    """The sweep's random cell as one ``rng.choice`` per list: ``lists``
    rows of k distinct positions out of n, in draw order, continuing the
    generator's stream."""
    drawn = np.empty((lists, k), dtype=np.intp)
    for row in drawn:
        row[:] = rng.choice(n, size=k, replace=False)
    return drawn


def stable_order(scores, block=1 << 16):
    """Every row's preference order as ``PreferenceMatrix.order`` computed
    it before its keyed sort: one stable argsort of the negated scores per
    block of rows, in the smallest unsigned type that holds n - 1."""
    m, n = scores.shape
    order = np.empty((m, n), dtype=np.min_scalar_type(n - 1))
    rows = max(1, block // n)
    for lo in range(0, m, rows):
        order[lo : lo + rows] = np.argsort(-scores[lo : lo + rows], axis=1, kind="stable")
    return order
