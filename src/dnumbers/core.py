"""Frames with non-exclusive elements, D numbers, and their belief/plausibility measures.

A frame holds an ordered set of labeled elements plus one distinguished
"unknown" element X, together with the pairwise non-exclusivity degrees.
Subsets are plain integer bitmasks over the element indices 0..N-1, with
bit N reserved for X.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping
from operator import itemgetter
from types import MappingProxyType

#: Tolerance for mass-sum validation.
MASS_TOL = 1e-9

#: Reserved label for the unknown element.
X_LABEL = "X"

#: Largest frame size for which exhaustive subset enumeration is allowed.
ENUMERATION_CAP = 6


def is_number(value) -> bool:
    """True for an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cardinality_error(card) -> str | None:
    """Why ``card`` cannot be the known size of X, or ``None``: it must be an
    ``int``, not a ``bool``, from 2 to ``sys.float_info.max``, the largest
    that converts to a ``float``."""
    if type(card) is int and 2 <= card <= sys.float_info.max:
        return None
    return f"must be an integer from 2 to {sys.float_info.max!r}, got {card!r}"


#: The characters of label rules 1 and 5-7: surrogates, Cc, U+2028, U+2029, "|"
_FORBIDDEN = re.compile("[\ud800-\udfff\x00-\x1f\x7f-\x9f\u2028\u2029|]")


def label_error(label: str, before) -> str | None:
    """Why ``label`` cannot follow the labels ``before`` in a frame, or ``None``.

    The rules, first broken first reported: (1) valid Unicode text, as
    UTF-8 cannot encode a lone surrogate; (2) nonempty; (3) other than "X";
    (4) not among ``before``; no (5) control character (Cc) or (6) U+2028
    or U+2029, which split a table row; (7) no "|", which joins labels in
    ``measure --subsets all``. :class:`Frame` raises the reason and
    ``parse_document`` reports it as ``frame[k]``.
    """
    found = _FORBIDDEN.findall(label)  # empty for nearly every label
    if found and max(found) >= "\ud800":  # surrogates sort last in the class
        return f"label {label!r} is not valid Unicode text"
    if not label:
        return "label must be nonempty"
    if label == X_LABEL:
        return f"label {X_LABEL!r} is reserved for the unknown element"
    if label in before:
        return f"duplicate label {label!r}"
    if not found:
        return None
    if any(c < " " or "\x7f" <= c <= "\x9f" for c in found):
        return f"label {label!r} contains a control character"
    if "\u2028" in found or "\u2029" in found:
        return f"label {label!r} contains a line or paragraph separator"
    return f"label {label!r} contains '|'"


def pair_errors(index: Mapping[str, int], degrees: dict[tuple[int, int], float],
                entries):
    """Yield ``(key, reason)`` for each ``(key, pair, p)`` in ``entries``
    whose labels cannot have degree ``p``, in one loop over the entries.

    The rules, first broken first reported: ``pair`` is a list or tuple of
    two ``str`` labels; p is an ``int`` or ``float``, not a ``bool``, in
    [0, 1]; ``index`` (each label to its index, "X" too) holds both
    labels; they differ; the pair is not in ``degrees`` with another
    degree. Else p is recorded in ``degrees`` as read, keyed (i, j),
    i < j, zeros too, so a conflict shows at the later entry.
    ``parse_document`` reports every reason at its entry, and
    :func:`build_frame` raises the first.
    """
    for key, pair, p in entries:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and isinstance(a := pair[0], str) and isinstance(b := pair[1], str)):
            yield key, '"pair" must be two labels'
        elif not ((type(p) is float or is_number(p)) and 0.0 <= p <= 1.0):
            yield key, f"degree {p!r} outside [0, 1]"
        elif (i := index.get(a)) is None or (j := index.get(b)) is None:
            yield key, f"unknown label {(a if i is None else b)!r}"
        elif i == j:
            yield key, f"pair names {a!r} twice"
        elif degrees.setdefault((i, j) if i < j else (j, i), p) != p:
            yield key, f"conflicting degrees for pair ({a!r}, {b!r})"


def mass_error(mask: int, mass) -> str | None:
    """Why ``mass`` cannot be D of the subset ``mask``, or ``None``.

    The rules on one mass, first broken first reported: (1) ``mask`` is
    not 0, as D(∅) = 0; (2) ``mass`` is an ``int`` or ``float``, not a
    ``bool``, from 0 to 1 + :data:`MASS_TOL`. Nothing is converted first,
    so ``"0.5"``, ``True``, NaN and an ``int`` beyond float range are
    rejected. :class:`DNumber` and :func:`build_dnumber` raise the reason,
    ``parse_document`` reports it as ``masses[k]``, and each checks the
    total itself.
    """
    if mask == 0:
        return "mass on empty set: D(∅) must be 0"
    if (type(mass) is float or is_number(mass)) and 0.0 <= mass <= 1.0 + MASS_TOL:
        return None
    return f"mass must be a nonnegative number no greater than 1, got {mass!r}"


def _iter(values, name: str):
    """An iterator over ``values``, or ``ValueError`` naming ``name`` and
    the type of ``values`` when they are not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} {type(values).__name__} are not iterable") from None


class _Value:
    """An immutable value whose fields, in order, are ``__match_args__``.

    The package's one value mechanism: ``==`` on the field tuples of two
    instances of the same class (else ``NotImplemented``), a ``repr``
    naming each field, ``match`` patterns, :meth:`replace`, and hashing and
    pickling. A read-only table hashes as the ``frozenset`` of its items,
    and ``pickle`` and ``copy.deepcopy`` rebuild through the constructor,
    checks included, from the fields in order, each table as a ``dict``.
    Setting or deleting any attribute raises ``AttributeError``; a
    constructor stores its fields, and a derived value, with
    ``object.__setattr__``.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(tuple([frozenset(v.items()) if type(v) is MappingProxyType else v
                           for v in self._fields()]))

    def __reduce__(self):
        """Rebuilt through the constructor; a derived value is not kept."""
        return type(self), tuple([dict(v) if type(v) is MappingProxyType else v
                                  for v in self._fields()])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed, rebuilt through the
        constructor, so every check runs again; a name that is not a field
        raises ``TypeError``."""
        fields = {name: getattr(self, name) for name in self.__match_args__}
        return type(self)(**(fields | changes))

    __replace__ = replace  # copy.replace, Python 3.13+


class _computed_once:
    """A method run on first read, its value then stored as the attribute.

    Only for the tables that ``validate``, ``gen`` and serialization must
    not pay for, :attr:`Frame.adjacency` and :attr:`DNumber.singleton_pl`.
    Like ``functools.cached_property``, but the value is stored with
    ``object.__setattr__``, which also gets past the blocking
    ``__setattr__`` of a :class:`_Value`, instead of through
    ``instance.__dict__``. On CPython 3.11 reading
    ``__dict__`` turns an object's inline attribute values into a dict,
    and every later attribute read on it costs about three times as much.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.name, value)  # shadows this descriptor
        return value


class Frame(_Value):
    """Ordered element labels, the unknown element X, and pairwise degrees.

    ``elements`` is kept as a tuple of at least one ``str`` label, each
    passing the seven rules of :func:`label_error`, so every frame can be
    written as a document; ``unknown_cardinality`` is ``None`` or passes
    :func:`cardinality_error`. ``degrees`` is a read-only table of
    ``float(p)``, zeros dropped, for a map from ``int`` pairs (i, j),
    0 <= i < j <= N, to degrees p in [0, 1]: index N = ``len(elements)``
    stands for X, and a 0 means an exclusive pair, as an absent pair does.
    Anything else (a ``bool``, non-iterable elements, a ``set`` or
    ``frozenset`` of elements, whose order would follow the hash seed, a
    non-``Mapping`` table) raises ``ValueError``; a ``str`` of one-letter
    labels, subclasses of ``tuple`` and ``float`` pass. Each input is
    walked once.

    The inputs are the only fields, listed in ``__match_args__``; each
    value derived from them is read-only and takes no part in equality,
    ``repr``, :meth:`replace` or pickling. Set once: ``size`` N,
    ``index`` (label to index, "X" to N), ``x_mask`` {X}, ``theta_mask``
    Θ and ``full_mask`` Θ ∪ {X}.
    ``adjacency``, which ``validate``, ``gen`` and serialization never
    build, is derived on first read and then kept: for each index 0..N,
    X included, a read-only map from neighbour index to degree, the row of
    that index. Invariant: each row lists its neighbours strongest-first,
    by non-increasing degree, ties in the order of ``degrees``, filled
    from the table sorted once, the order :meth:`nonexclusivity` and
    :attr:`DNumber.singleton_pl` walk.
    Instances are immutable, tables included: setting or deleting any
    attribute raises ``AttributeError``.
    """

    __match_args__ = ("elements", "unknown_cardinality", "degrees")

    def __init__(self, elements, unknown_cardinality: int | None,
                 degrees: Mapping[tuple[int, int], float]):
        if isinstance(elements, (set, frozenset)):
            raise ValueError(f"elements {type(elements).__name__} "
                             f"have no fixed order")
        elements = tuple(_iter(elements, "elements"))
        if not elements:
            raise ValueError("a frame needs at least one element")
        index = {}
        for i, label in enumerate(elements):
            if not isinstance(label, str):
                raise ValueError(f"label {label!r} is not a str")
            if reason := label_error(label, index):
                raise ValueError(reason)
            index[label] = i
        x = index[X_LABEL] = len(elements)
        card = unknown_cardinality
        if card is not None and (reason := cardinality_error(card)):
            raise ValueError(f"unknown_cardinality {reason}")
        if not isinstance(degrees, Mapping):
            raise ValueError(f"degree table {type(degrees).__name__} is not a mapping")
        table = {}
        for key, p in degrees.items():
            # inlined, exact float before the call: runs once per given pair
            if not (isinstance(key, tuple) and len(key) == 2
                    and type(key[0]) is int and type(key[1]) is int
                    and 0 <= key[0] < key[1] <= x):
                raise ValueError(f"degree key {key!r} is not a pair (i, j) "
                                 f"with 0 <= i < j <= {x}")
            if not ((type(p) is float or is_number(p)) and 0.0 <= p <= 1.0):
                raise ValueError(f"degree {p!r} for pair {key} outside [0, 1]")
            if p:
                table[key] = float(p)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "unknown_cardinality", card)
        object.__setattr__(self, "index", MappingProxyType(index))
        object.__setattr__(self, "degrees", MappingProxyType(table))
        object.__setattr__(self, "size", x)
        object.__setattr__(self, "x_mask", 1 << x)
        object.__setattr__(self, "theta_mask", (1 << x) - 1)
        object.__setattr__(self, "full_mask", (2 << x) - 1)

    @_computed_once  # read by every nonexclusivity call and the kernel
    def adjacency(self) -> tuple[Mapping[int, float], ...]:
        """Each index's row, 0..N, X last: neighbour -> degree, strongest-first."""
        rows: list[dict[int, float]] = [{} for _ in range(len(self.elements) + 1)]
        for (i, j), p in sorted(self.degrees.items(), key=itemgetter(1), reverse=True):
            rows[i][j] = rows[j][i] = p
        return tuple(map(MappingProxyType, rows))

    def nonexclusivity(self, a: int, b: int) -> float:
        """Non-exclusivity degree between two nonempty subsets.

        1 whenever the subsets intersect; otherwise the maximum stored
        degree over all element pairs drawn from the two sets, 0 when no
        pair is stored. On disjoint sets it walks the strongest-first row
        of each member of the smaller set, and stops at the first
        neighbour in the other set or at a degree no larger than the best
        so far. A mask with bits outside the frame raises ``ValueError``.
        """
        if (a | b) & ~self.full_mask:  # a negative mask has bits outside too
            raise ValueError(f"subset mask {a if a & ~self.full_mask else b!r} "
                             f"is not inside the frame")
        if a == 0 or b == 0:
            raise ValueError("non-exclusivity is undefined for the empty set")
        if a & b:
            return 1.0
        if a.bit_count() > b.bit_count():
            a, b = b, a
        # set bits walked inline, low to high: this is the inner loop of every Pl
        best = 0.0
        adjacency = self.adjacency
        while a:
            low = a & -a
            for j, p in adjacency[low.bit_length() - 1].items():
                if p <= best:
                    break
                if b >> j & 1:
                    best = p
                    break
            a ^= low
        return best

    def index_of(self, label: str) -> int:
        """Index of ``label`` read from ``index``, N for "X"; a label the
        frame does not hold, or an unhashable one, raises ``ValueError``."""
        try:
            return self.index[label]
        except (KeyError, TypeError):
            raise ValueError(f"unknown label {label!r}") from None

    def subset(self, labels) -> int:
        """Bitmask for a collection of labels ("X" allowed)."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Labels of a subset mask, frame order, X last, in one pass over
        ``bin(mask)`` from the low end: O(N) in C plus O(|mask|) steps.
        A mask with bits outside the frame raises ``ValueError``."""
        if mask & ~self.full_mask:
            raise ValueError(f"subset mask {mask!r} is not inside the frame")
        labels = (*self.elements, X_LABEL)
        bits = bin(mask)[:1:-1]  # bit i at position i
        found = []
        i = bits.find("1")
        while i >= 0:
            found.append(labels[i])
            i = bits.find("1", i + 1)
        return tuple(found)


def build_frame(labels, unknown_cardinality=None, degrees=()) -> Frame:
    """Build a frame from labels; :class:`Frame` checks labels and cardinality.

    This is the library's label-level constructor. ``parse_document`` and
    ``oracle.generate_raw`` do not call it: each already holds index pairs
    and builds its :class:`Frame` from them directly.

    ``unknown_cardinality`` is ``None`` for an unknown size.
    The labels and the cardinality are checked first, then ``degrees``, an
    iterable of ((label_a, label_b), p) entries (else ``ValueError``);
    labels may include the reserved "X", read through ``Frame.index``. An
    entry that is not a (pair, p) tuple or list, or a pair that breaks a
    :func:`pair_errors` rule, raises the first reason, p unconverted: so
    "0.3", ``True`` and a pair naming one label twice are rejected. The symmetric closure is taken, and
    :class:`Frame` drops the zeros and stores each degree as a ``float``.
    """
    frame = Frame(labels, unknown_cardinality, {})
    given: dict[tuple[int, int], float] = {}
    entries = ((None, *entry) if isinstance(entry, (tuple, list)) and len(entry) == 2
               else (None, None, None) for entry in _iter(degrees, "degrees"))
    for _, reason in pair_errors(frame.index, given, entries):
        raise ValueError(reason)
    return frame.replace(degrees=given)


class DNumber(_Value):
    """A mass assignment over nonempty subsets of the frame.

    ``masses`` maps ``int`` masks inside the frame to masses, each entry
    passing :func:`mass_error` (checked after the mask is found inside the
    frame) and all totalling at most 1 + :data:`MASS_TOL`; anything else
    raises ``ValueError``, as do a non-:class:`Frame` ``frame`` and a
    non-``Mapping`` table. It is kept as a read-only copy of ``float``
    masses without zeros, in ascending-mask order. Immutable, as a
    :class:`Frame` is.

    The inputs are the only fields, listed in ``__match_args__``; each
    value derived from them is read-only and takes no part in equality,
    ``repr``, :meth:`replace` or pickling. Set once: ``total_mass``, the
    masses' fsum, and ``completed``, true within ``MASS_TOL`` of 1 on
    either side, so :func:`complete` only ever adds a positive residual.
    ``singleton_pl`` is derived on first use and then kept: a read-only
    tuple of Pl({i}) for every index 0..N, X last.
    """

    __match_args__ = ("frame", "masses")

    def __init__(self, frame: Frame, masses: Mapping[int, float]):
        if not isinstance(frame, Frame):
            raise ValueError(f"frame {type(frame).__name__} is not a Frame")
        if not isinstance(masses, Mapping):
            raise ValueError(f"mass table {type(masses).__name__} is not a mapping")
        full = frame.full_mask
        for mask, mass in masses.items():
            if type(mask) is not int or mask & ~full:
                raise ValueError(f"subset mask {mask!r} is not an int inside the frame")
            if reason := mass_error(mask, mass):
                raise ValueError(reason)
        masses = {m: float(v) for m, v in sorted(masses.items()) if v > 0.0}
        total = math.fsum(masses.values())
        if total > 1.0 + MASS_TOL:
            raise ValueError(f"total mass {total} exceeds 1")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masses", MappingProxyType(masses))
        object.__setattr__(self, "total_mass", total)
        object.__setattr__(self, "completed", 1.0 - total <= MASS_TOL)

    @_computed_once
    def singleton_pl(self) -> tuple[float, ...]:
        """Pl({i}) for every index 0..N, X last, from one sweep per index.

        A one-member focal set {j} reaches j with degree 1 and each
        neighbour i of j with p(i, j), read off j's ``Frame.adjacency``
        row. Each wider set b is scanned once, bit by bit: each index j it
        holds gets the term D(b), at degree 1, and records b's position
        in ``masses`` order. Then each index i's row is walked
        strongest-first, and a neighbour j with degree p reaches the sets
        holding j, but not i, that no earlier step reached: p is the
        largest degree between i and a member of such a set b. The walk
        stops once every set is reached, or at the end of the row.
        Each degree is the factor :meth:`Frame.nonexclusivity` gives for
        (b, {i}), so the products ``degree * D(b)`` are the ones
        :func:`pl` would sum, and ``fsum`` makes the totals bit-identical.
        Costs one row per one-member set, Σ_b |b| bits for the others,
        then per index the walk to its first full cover or row end, plus
        one product per reached (i, b).
        """
        adjacency = self.frame.adjacency
        terms: list[list[float]] = [[] for _ in adjacency]
        weights = []  # D(b) of the wider focal sets, by position
        holds = [0] * len(adjacency)  # index -> positions of the wider sets holding it
        for b, w in self.masses.items():
            if b & (b - 1) == 0:
                j = b.bit_length() - 1
                terms[j].append(w)
                for i, p in adjacency[j].items():
                    terms[i].append(p * w)
                continue
            position = 1 << len(weights)
            weights.append(w)
            while b:  # high bit first: fewer int operations than b & -b
                j = b.bit_length() - 1
                holds[j] |= position
                terms[j].append(w)  # degree 1
                b ^= 1 << j
        every = (1 << len(weights)) - 1
        for held, row, out in zip(holds, adjacency, terms):
            if remaining := every ^ held:
                for j, p in row.items():  # strongest first
                    if reached := remaining & holds[j]:
                        remaining ^= reached
                        while reached:
                            k = reached.bit_length() - 1
                            out.append(p * weights[k])
                            reached ^= 1 << k
                        if not remaining:
                            break
        return tuple(map(math.fsum, terms))


def build_dnumber(frame: Frame, entries) -> DNumber:
    """Build a D number from (mask, mass) entries that may repeat a mask.

    ``entries`` that are not iterable raise ``ValueError``. Each entry is
    checked for what a merge of duplicate subsets would hide, before the
    merge: it must unpack to a (mask, mass) pair, its
    mask must be an ``int``, not a ``bool`` (``1.0`` and ``True`` would
    merge into the key ``1``), and its mass must pass :func:`mass_error`.
    Each raises ``ValueError`` with its reason, so ``True``, ``"0.5"``
    and ``10**400`` are rejected. The merged table goes to
    :class:`DNumber`, which holds every other rule and stores each mass
    as a ``float``. A table that already holds one mass per mask can go
    to :class:`DNumber` directly, as :func:`complete`'s and
    ``oracle.generate_raw``'s do.
    """
    merged: dict[int, float] = {}
    for entry in _iter(entries, "entries"):
        try:
            mask, mass = entry
        except (TypeError, ValueError):
            raise ValueError(f"entry {entry!r} is not a (mask, mass) pair") from None
        if type(mask) is not int:
            raise ValueError(f"subset mask {mask!r} is not an int inside the frame")
        if reason := mass_error(mask, mass):
            raise ValueError(reason)
        merged[mask] = merged.get(mask, 0.0) + mass
    return DNumber(frame, merged)


def complete(d: DNumber) -> DNumber:
    """Assign the residual mass 1 - ΣD(B) to the singleton {X}.

    The residual is added to D({X}), if any, in a table that goes to
    :class:`DNumber` directly. Already-complete inputs are returned
    unchanged, which makes the operation idempotent.
    """
    if d.completed:
        return d
    x = d.frame.x_mask
    return DNumber(d.frame, {**d.masses, x: d.masses.get(x, 0.0) + (1.0 - d.total_mass)})


def _query_error(d: DNumber, a: int) -> ValueError:
    """Why Bel or Pl of ``a`` is undefined on ``d``, which the caller has
    found incomplete or ``a`` to reach outside the frame."""
    if not d.completed:
        return ValueError("operation requires a completed D number")
    return ValueError(f"subset mask {a!r} is not inside the frame")


def bel(d: DNumber, a: int) -> float:
    """Belief of subset ``a``: total mass of focal sets contained in it.

    A singleton or {X} contains no focal set but itself, so its Bel is
    D({i}) read from ``d.masses``, the same ``float`` as the sum (no zeros
    are stored). A mask with bits outside the frame raises ``ValueError``.
    """
    if not d.completed or a & ~d.frame.full_mask:
        raise _query_error(d, a)
    if a & (a - 1) == 0:  # one bit, or the empty set, which holds no mass
        return d.masses.get(a, 0.0)
    return math.fsum([v for m, v in d.masses.items() if m & ~a == 0])


def pl(d: DNumber, a: int) -> float:
    """Plausibility of subset ``a``: mass weighted by non-exclusivity.

    A singleton or {X} is read from :attr:`DNumber.singleton_pl`. Any
    other subset sums ``Frame.nonexclusivity(b, a) * D(b)`` over the focal
    sets b: a focal set that meets ``a`` adds D(b) itself, as its factor
    is 1, and only the disjoint ones go through
    :meth:`Frame.nonexclusivity`. Reduces to the classical plausibility
    when all stored degrees are 0. A mask with bits outside the frame
    raises ``ValueError``.
    """
    if not d.completed or a & ~d.frame.full_mask:
        raise _query_error(d, a)
    if a & (a - 1) == 0:  # one bit, or the empty set
        return d.singleton_pl[a.bit_length() - 1] if a else 0.0
    nonexclusivity = d.frame.nonexclusivity
    return math.fsum([v if m & a else nonexclusivity(m, a) * v
                      for m, v in d.masses.items()])


class BeliefInterval(_Value):
    """Support range [Bel(A), Pl(A)] for a proposition."""

    __match_args__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        if not (-MASS_TOL <= lower <= upper + MASS_TOL and upper <= 1.0 + MASS_TOL):
            raise ValueError(f"malformed belief interval [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def belief_interval(d: DNumber, a: int) -> BeliefInterval:
    """Belief interval [bel, pl] of subset ``a``."""
    return BeliefInterval(bel(d, a), pl(d, a))
