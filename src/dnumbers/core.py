"""Frames with non-exclusive elements, D numbers, and their belief/plausibility measures.

A frame holds an ordered set of labeled elements plus one distinguished
"unknown" element X, together with the pairwise non-exclusivity degrees.
Subsets are plain integer bitmasks over the element indices 0..N-1, with
bit N reserved for X.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

#: Tolerance for mass-sum validation.
MASS_TOL = 1e-9

#: Reserved label for the unknown element.
X_LABEL = "X"


def is_number(value) -> bool:
    """True for an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Frame:
    """Ordered element labels, the unknown element X, and pairwise degrees.

    ``elements`` holds at least one label, each nonempty, unique and not
    "X"; ``unknown_cardinality`` is ``None`` or an ``int`` >= 2. ``degrees``
    is a read-only copy of a map from ``int`` pairs (i, j), 0 <= i < j <= N,
    to a degree in (0, 1]; index N = ``len(elements)`` stands for X, absent
    pairs default to 0, and anything else (a ``bool`` too) raises ``ValueError``.

    ``adjacency`` is derived from ``degrees`` once, when the frame is
    made: for each index 0..N, X included, the bitmask of its stored
    neighbours and a read-only map from neighbour index to degree. It
    takes no part in equality or ``repr``. :meth:`nonexclusivity` reads
    it, so a call on disjoint sets costs one mask intersection per member
    of the smaller set plus one read per stored pair between the sets.
    :meth:`lookup` reads ``degrees``, which keeps it an independent route
    for the oracle. Instances are immutable, tables included.
    """

    elements: tuple[str, ...]
    unknown_cardinality: int | None
    degrees: Mapping[tuple[int, int], float]
    adjacency: tuple[tuple[int, Mapping[int, float]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a frame needs at least one element")
        seen = set()
        for label in self.elements:
            if not label:
                raise ValueError("element labels must be nonempty")
            if label == X_LABEL:
                raise ValueError(f"{X_LABEL!r} is reserved for the unknown element")
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen.add(label)
        card = self.unknown_cardinality
        if card is not None and not (type(card) is int and card >= 2):
            raise ValueError(f"unknown cardinality {card!r} is not an int of at least 2")
        degrees = dict(self.degrees)
        x = len(self.elements)
        rows: list[dict[int, float]] = [{} for _ in range(x + 1)]
        for key, p in degrees.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(type(k) is int for k in key)
                    and 0 <= key[0] < key[1] <= x):
                raise ValueError(f"degree key {key!r} is not a pair (i, j) "
                                 f"with 0 <= i < j <= {x}")
            if not (is_number(p) and 0.0 < p <= 1.0):
                raise ValueError(f"degree {p!r} for pair {key} outside (0, 1]")
            i, j = key
            rows[i][j] = rows[j][i] = p
        object.__setattr__(self, "degrees", MappingProxyType(degrees))
        object.__setattr__(self, "adjacency", tuple(
            (sum(1 << j for j in row), MappingProxyType(row)) for row in rows))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def x_index(self) -> int:
        return len(self.elements)

    @property
    def x_mask(self) -> int:
        return 1 << len(self.elements)

    @property
    def theta_mask(self) -> int:
        """Mask of all known elements (X excluded)."""
        return (1 << len(self.elements)) - 1

    @property
    def full_mask(self) -> int:
        """Mask of the whole frame including X."""
        return (1 << (len(self.elements) + 1)) - 1

    def lookup(self, i: int, j: int) -> float:
        """Stored singleton-pair degree; 1 on the diagonal, 0 if absent."""
        if i == j:
            return 1.0
        key = (i, j) if i < j else (j, i)
        return self.degrees.get(key, 0.0)

    def nonexclusivity(self, a: int, b: int) -> float:
        """Non-exclusivity degree between two nonempty subsets.

        1 whenever the subsets intersect; otherwise the maximum stored
        degree over all element pairs drawn from the two sets, 0 when no
        pair is stored.
        """
        if a == 0 or b == 0:
            raise ValueError("non-exclusivity is undefined for the empty set")
        if a & b:
            return 1.0
        if a.bit_count() > b.bit_count():
            a, b = b, a
        # iter_indices inlined twice: this is the inner loop of every Pl
        best = 0.0
        adjacency = self.adjacency
        while a:
            low = a & -a
            neighbours, row = adjacency[low.bit_length() - 1]
            hits = b & neighbours
            while hits:
                bit = hits & -hits
                p = row[bit.bit_length() - 1]
                if p > best:
                    best = p
                hits ^= bit
            a ^= low
        return best

    def index_of(self, label: str) -> int:
        if label == X_LABEL:
            return self.x_index
        try:
            return self.elements.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}") from None

    def subset(self, labels) -> int:
        """Bitmask for a collection of labels ("X" allowed)."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Labels of a subset mask, frame order, X last."""
        out = [self.elements[i] for i in range(self.size) if mask >> i & 1]
        if mask & self.x_mask:
            out.append(X_LABEL)
        return tuple(out)


def iter_indices(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_frame(labels, unknown_cardinality="unknown", degrees=()) -> Frame:
    """Build a frame from labels; :class:`Frame` checks labels and cardinality.

    ``unknown_cardinality`` is "unknown" or ``None`` for an unknown size.
    ``degrees`` is an iterable of ((label_a, label_b), p) pairs, p in
    [0, 1]; labels may include the reserved "X". The symmetric closure is
    taken, identical-label pairs are forced to degree 1, and zeros are not
    stored. A pair given twice must get the same degree, zero included.
    """
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    index[X_LABEL] = len(labels)
    given: dict[tuple[int, int], float] = {}  # zeros too, to catch conflicts
    for (la, lb), p in degrees:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"degree {p} for pair ({la!r}, {lb!r}) outside [0, 1]")
        for label in (la, lb):
            if label not in index:
                raise ValueError(f"unknown label {label!r}")
        i, j = sorted((index[la], index[lb]))
        if i == j:
            continue  # forced to 1, never stored
        if given.setdefault((i, j), p) != p:
            raise ValueError(f"conflicting degrees for pair ({la!r}, {lb!r})")
    card = None if unknown_cardinality == "unknown" else unknown_cardinality
    return Frame(labels, card, {key: p for key, p in given.items() if p})


@dataclass(frozen=True)
class DNumber:
    """A mass assignment over nonempty subsets of the frame.

    ``masses`` maps nonzero ``int`` masks inside the frame to finite,
    nonnegative masses totalling at most 1 within :data:`MASS_TOL`; anything
    else raises ``ValueError``. It is kept as a read-only copy without zeros,
    in ascending-mask order, from which ``total_mass`` (its fsum) and
    ``completed`` (total 1 within the tolerance) are derived. Immutable.
    """

    frame: Frame
    masses: Mapping[int, float]
    completed: bool = field(init=False)
    total_mass: float = field(init=False)

    def __post_init__(self):
        full = self.frame.full_mask
        for mask, mass in self.masses.items():
            if type(mask) is not int or mask & ~full:
                raise ValueError(f"subset mask {mask!r} is not an int inside the frame")
            if mask == 0:
                raise ValueError("mass on the empty set: D(∅) must be 0")
            if not (is_number(mass) and 0.0 <= mass < math.inf):
                raise ValueError(f"mass {mass!r}: not a number, negative or not finite")
        masses = {m: v for m, v in sorted(self.masses.items()) if v > 0.0}
        total = math.fsum(masses.values())
        if total > 1.0 + MASS_TOL:
            raise ValueError(f"total mass {total} exceeds 1")
        object.__setattr__(self, "masses", MappingProxyType(masses))
        object.__setattr__(self, "total_mass", total)
        object.__setattr__(self, "completed", abs(total - 1.0) <= MASS_TOL)


def build_dnumber(frame: Frame, entries) -> DNumber:
    """Build a D number from (mask, mass) entries.

    Each mass is converted with ``float``, a negative one is rejected
    before duplicate subsets are merged (so a merge cannot hide it), and
    the merged table goes to :class:`DNumber`, which holds every other rule.
    """
    merged: dict[int, float] = {}
    for mask, mass in entries:
        mass = float(mass)
        if mass < 0.0:
            raise ValueError(f"negative mass {mass}")
        merged[mask] = merged.get(mask, 0.0) + mass
    return DNumber(frame, merged)


def complete(d: DNumber) -> DNumber:
    """Assign the residual mass 1 - ΣD(B) to the singleton {X}.

    Already-complete inputs are returned unchanged, which makes the
    operation idempotent.
    """
    if d.completed:
        return d
    residual = (d.frame.x_mask, 1.0 - d.total_mass)
    return build_dnumber(d.frame, [*d.masses.items(), residual])


def _require_completed(d: DNumber) -> None:
    if not d.completed:
        raise ValueError("operation requires a completed D number")


def bel(d: DNumber, a: int) -> float:
    """Belief of subset ``a``: total mass of focal sets contained in it."""
    _require_completed(d)
    if a == 0:
        return 0.0
    return math.fsum(v for m, v in d.masses.items() if m & ~a == 0)


def pl(d: DNumber, a: int) -> float:
    """Plausibility of subset ``a``: mass weighted by non-exclusivity.

    Reduces to the classical plausibility when all stored degrees are 0.
    """
    _require_completed(d)
    if a == 0:
        return 0.0
    frame = d.frame
    return math.fsum(frame.nonexclusivity(m, a) * v for m, v in d.masses.items())


@dataclass(frozen=True)
class BeliefInterval:
    """Support range [Bel(A), Pl(A)] for a proposition."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (-MASS_TOL <= self.lower <= self.upper + MASS_TOL
                and self.upper <= 1.0 + MASS_TOL):
            raise ValueError(f"malformed belief interval [{self.lower}, {self.upper}]")


def belief_interval(d: DNumber, a: int) -> BeliefInterval:
    """Belief interval [bel, pl] of subset ``a``."""
    return BeliefInterval(bel(d, a), pl(d, a))


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
