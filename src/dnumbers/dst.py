"""Classical Dempster-Shafer belief/plausibility over frozensets of labels.

Kept deliberately independent of the bitmask machinery in :mod:`.core` so
it can serve as a second route in degeneration checks.
"""

from __future__ import annotations

import math

from .core import DNumber


def bel_m(masses: dict[frozenset, float], a: frozenset) -> float:
    """Classical belief: sum of m(B) over B ⊆ A."""
    return math.fsum([v for b, v in masses.items() if b <= a])


def pl_m(masses: dict[frozenset, float], a: frozenset) -> float:
    """Classical plausibility: sum of m(B) over B with B ∩ A nonempty."""
    return math.fsum([v for b, v in masses.items() if b & a])


def mass_function(d: DNumber) -> dict[frozenset, float]:
    """The classical mass function of ``d``; ``ValueError`` unless ``d`` is a
    classical BPA: completed, no mass touching X, and a fully exclusive frame."""
    if (not d.completed or d.frame.degrees
            or any(m & d.frame.x_mask for m in d.masses)):
        raise ValueError("not a classical BPA")
    return {frozenset(d.frame.labels_of(m)): v for m, v in d.masses.items()}
