"""Exposure budgets: total available exposure and per-provider fair shares.

A batch of m lists of length k carries a fixed total amount of exposure
(the sum of all slot weights). A fairness mode splits that budget across
providers: proportional to catalog size (uniform) or to total relevance
mass (quality-weighted). The online variant is the same formula with the
number of requests served in place of m, so the budget grows as the
stream progresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDimension, ZeroTotalRelevance
from .metrics import position_weight, provider_relevance
from .model import Catalog, PreferenceMatrix


class FairnessMode(Enum):
    UNIFORM = "uniform"
    QUALITY_WEIGHTED = "quality-weighted"


@dataclass(frozen=True)
class FairTargets:
    """An exposure budget's per-provider fair split."""

    per_provider: np.ndarray


def _slot_sum(k: int) -> float:
    total = 0.0
    for rank in range(1, k + 1):
        total += position_weight(rank)
    return total


def total_exposure(m: int, k: int) -> float:
    """Exposure delivered by m lists of length k."""
    if m < 1:
        raise InvalidDimension(f"customer count must be >= 1, got {m}")
    if k < 1:
        raise InvalidDimension(f"list length must be >= 1, got {k}")
    return float(m) * _slot_sum(k)


def online_total_exposure(c_num: int, k: int) -> float:
    """Exposure delivered by the first ``c_num`` requests of a stream."""
    if c_num < 0:
        raise InvalidDimension(f"request count must be >= 0, got {c_num}")
    if c_num == 0:
        return 0.0
    return float(c_num) * _slot_sum(k)


def fair_targets(
    mode: FairnessMode,
    total: float,
    catalog: Catalog,
    matrix: PreferenceMatrix,
) -> FairTargets:
    """Split an exposure budget across providers under the given mode:
    ``total * weight / weight.sum()``, where a provider's weight is its item
    count (uniform; the counts sum to n) or its relevance mass."""
    if total < 0:
        raise InvalidDimension(f"exposure budget must be >= 0, got {total}")
    if mode is FairnessMode.UNIFORM:
        weight = catalog.sizes
    else:
        weight = provider_relevance(matrix, catalog)
    weight_sum = float(weight.sum())
    if weight_sum <= 0.0:
        raise ZeroTotalRelevance("all relevance scores are zero")
    return FairTargets(per_provider=total * weight / weight_sum)
