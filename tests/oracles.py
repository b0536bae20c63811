"""Straight-line reference interpreters for the two re-ranking procedures
and the minimum-exposure baseline.

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


def fresh_online_state(m, n_providers):
    return {
        "exposure": [0.0] * n_providers,
        "q": [0.0] * m,
        "rec_time": [0] * m,
        "c_num": 0,
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
