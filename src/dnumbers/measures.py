"""Belief-interval uncertainty measures for D numbers.

The known uncertainty KU sums, over the known elements, one minus the
Euclidean distance between each singleton's belief interval and the most
uncertain interval [0, 1]. The unknown uncertainty is Pl({X}) times a
pluggable function of the cardinality of X; since that function is left
open, the coefficient Pl({X}) is the primary output.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import BeliefInterval, DNumber, _Value, belief_interval, pl


class UnknownModel(str, Enum):
    """How to evaluate the unknown-uncertainty term from its coefficient."""

    COEFFICIENT = "coefficient"   # report Pl(X) only, no evaluation
    UNIT = "unit"                 # U = 1
    CARDINALITY = "cardinality"   # U = |X|
    LOG2 = "log2"                 # U = log2 |X|


class TotalUncertainty(_Value):
    """The (KU, UU) pair; ``uu_evaluated`` is present when a model applies."""

    __match_args__ = ("ku", "uu_coefficient", "uu_evaluated")

    def __init__(self, ku: float, uu_coefficient: float,
                 uu_evaluated: float | None = None):
        object.__setattr__(self, "ku", ku)
        object.__setattr__(self, "uu_coefficient", uu_coefficient)
        object.__setattr__(self, "uu_evaluated", uu_evaluated)


def interval_distance_to_unit(interval: BeliefInterval) -> float:
    """Euclidean distance from a belief interval to [0, 1]."""
    lo = min(max(interval.lower, 0.0), 1.0)
    hi = min(max(interval.upper, 0.0), 1.0)
    return math.sqrt(lo * lo + (hi - 1.0) * (hi - 1.0))


def singleton_terms(d: DNumber) -> list[tuple[BeliefInterval, float]]:
    """Each known singleton's belief interval and KU term, in frame order."""
    intervals = [belief_interval(d, 1 << i) for i in range(d.frame.size)]
    return [(iv, 1.0 - interval_distance_to_unit(iv)) for iv in intervals]


def ku(d: DNumber) -> float:
    """Known uncertainty: the fsum of the terms of :func:`singleton_terms`."""
    return math.fsum(term for _, term in singleton_terms(d))


def uu_coefficient(d: DNumber) -> float:
    """Unknown-uncertainty coefficient Pl({X})."""
    return pl(d, d.frame.x_mask)


def total_uncertainty(d: DNumber,
                      model: UnknownModel | str = UnknownModel.COEFFICIENT,
                      ) -> TotalUncertainty:
    """The total uncertainty tuple of a completed D number under ``model``,
    an :class:`UnknownModel` or its name (another name raises ``ValueError``);
    the cardinality and log2 models read |X| from ``d.frame``."""
    model = UnknownModel(model)
    coeff = uu_coefficient(d)
    known = ku(d)
    if model is UnknownModel.COEFFICIENT:
        return TotalUncertainty(known, coeff)
    if model is UnknownModel.UNIT:
        return TotalUncertainty(known, coeff, coeff)
    cardinality = d.frame.unknown_cardinality
    if cardinality is None:
        raise ValueError(f"model {model.value!r} needs a known cardinality for X")
    if model is UnknownModel.CARDINALITY:
        value = coeff * cardinality
    else:
        value = coeff * math.log2(cardinality)
    if math.isinf(value):  # Pl(X) may pass 1 by MASS_TOL at the largest |X|
        raise ValueError(f"model {model.value!r} evaluates UU beyond float range")
    return TotalUncertainty(known, coeff, value)
