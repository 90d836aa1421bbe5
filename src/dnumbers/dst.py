"""Classical Dempster-Shafer belief/plausibility over frozensets of labels.

Kept deliberately independent of the bitmask machinery in :mod:`.core` so
it can serve as a second route in degeneration checks.
"""

from __future__ import annotations

import math

from .core import DNumber


def is_bpa(d: DNumber) -> bool:
    """True iff ``d`` is a classical basic probability assignment.

    Requires completed input with no mass touching X and a fully
    exclusive frame.
    """
    if not d.completed:
        return False
    if any(m & d.frame.x_mask for m in d.masses):
        return False
    return not d.frame.degrees


def bel_m(masses: dict[frozenset, float], a: frozenset) -> float:
    """Classical belief: sum of m(B) over B ⊆ A."""
    return math.fsum([v for b, v in masses.items() if b <= a])


def pl_m(masses: dict[frozenset, float], a: frozenset) -> float:
    """Classical plausibility: sum of m(B) over B with B ∩ A nonempty."""
    return math.fsum([v for b, v in masses.items() if b & a])


def mass_function(d: DNumber) -> dict[frozenset, float]:
    """Extract the classical mass function of a D number that is a BPA."""
    if not is_bpa(d):
        raise ValueError("not a classical BPA")
    return {frozenset(d.frame.labels_of(m)): v for m, v in d.masses.items()}
