"""Exposure budgets: total available exposure and per-provider fair shares.

A batch of m lists of length k carries a fixed total amount of exposure
(the sum of all slot weights). A fairness mode splits that budget across
providers: proportional to catalog size (uniform) or to total relevance
mass (quality-weighted). The online variant is the same formula with the
number of requests served in place of m, so the budget grows as the
stream progresses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDimension, ValidationError
from .metrics import provider_relevance, slot_weights
from .model import Catalog, PreferenceMatrix, _check_integer


class FairnessMode(Enum):
    UNIFORM = "uniform"
    QUALITY_WEIGHTED = "quality-weighted"


@dataclass(frozen=True)
class FairTargets:
    """An exposure budget's per-provider fair split."""

    per_provider: np.ndarray


@functools.lru_cache(maxsize=64)
def _slot_sum(k: int) -> float:
    total = 0.0
    for weight in slot_weights(k):
        total += weight
    return total


def total_exposure(m: int, k: int) -> float:
    """Exposure delivered by m lists of length k."""
    _check_integer("customer count", m, 1, InvalidDimension)
    k = _check_integer("list length", k, 1, InvalidDimension)
    return float(m) * _slot_sum(k)


def online_total_exposure(c_num: int, k: int) -> float:
    """Exposure delivered by the first ``c_num`` requests of a stream."""
    _check_integer("request count", c_num, 0, InvalidDimension)
    k = _check_integer("list length", k, 1, InvalidDimension)
    return float(c_num) * _slot_sum(k)


def _check_mode(mode) -> None:
    """The mode check of ``fair_targets`` and ``ExperimentConfig``."""
    if not isinstance(mode, FairnessMode):
        raise ValidationError(f"fairness mode must be a FairnessMode, got {mode!r}")


def fair_targets(
    mode: FairnessMode,
    total: float,
    catalog: Catalog,
    matrix: PreferenceMatrix,
) -> FairTargets:
    """Split an exposure budget across providers under the given mode:
    ``total * weight / weight_sum``, where a provider's weight is its item
    count (uniform: the counts sum to n, so ``weight_sum`` is n with no
    reduction) or its relevance mass (quality-weighted: their sum, positive
    since every row of the matrix holds a positive score)."""
    _check_mode(mode)
    if total < 0:
        raise InvalidDimension(f"exposure budget must be >= 0, got {total}")
    if mode is FairnessMode.UNIFORM:
        weight, weight_sum = catalog.sizes, float(catalog.n)
    else:
        weight = provider_relevance(matrix, catalog)
        weight_sum = float(weight.sum())
    return FairTargets(per_provider=total * weight / weight_sum)
