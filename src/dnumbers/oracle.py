"""Brute-force and DST reference measures, instance generation, theorem checkers.

Everything here recomputes results by literal enumeration on small frames
so the production routines in :mod:`.core` and :mod:`.measures` can be
checked against an independent path. Each property suite is a draw and a
violation function ``violation(d, context) -> float``, which can be
called on any instance. One trial loop draws for every suite but set
consistency, which enumerates its instances, and every suite records
through :meth:`CheckReport.check`, which keeps a failure as ``(d, context)``.
"""

from __future__ import annotations

import math
import random
import string

from . import dst, measures
from .core import (
    ENUMERATION_CAP,
    MASS_TOL,
    BeliefInterval,
    DNumber,
    Frame,
    _Value,
    belief_interval,
    build_dnumber,
    complete,
)


class GeneratorConfig(_Value):
    """Settings of :func:`generate_raw`, checked when made.

    ``focal_count`` ``None`` stands for 3 focal sets, or all 2^N - 1 nonempty
    subsets of Θ when there are fewer, and is replaced by that count; ``gen``
    and ``check`` both take it as their default. An ``int`` field given a
    ``bool``, ``None`` or ``float``, or a negative seed, raises ``ValueError``.
    """

    __match_args__ = ("frame_size", "focal_count", "completeness", "exclusivity", "seed")

    def __init__(self, frame_size: int = 3, focal_count: int | None = None,
                 completeness: str = "random", exclusivity: str = "random-degrees",
                 seed: int = 0):
        for name, value in (("frame_size", frame_size), ("seed", seed)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if seed < 0:  # random.Random seeds with |seed|, so -s would repeat s
            raise ValueError(f"seed must be nonnegative, got {seed}")
        if not 1 <= frame_size <= ENUMERATION_CAP:
            raise ValueError(f"frame size must be in [1, {ENUMERATION_CAP}]")
        if focal_count is None:
            focal_count = min(3, 2 ** frame_size - 1)
        if type(focal_count) is not int:
            raise ValueError(f"focal_count must be an int, got {focal_count!r}")
        if focal_count < 1:
            raise ValueError("focal count must be at least 1")
        if focal_count > 2 ** frame_size - 1:
            raise ValueError(f"focal count {focal_count} infeasible on a frame of "
                             f"size {frame_size}")
        if completeness not in ("complete", "incomplete", "random"):
            raise ValueError(f"bad completeness {completeness!r}")
        if exclusivity not in ("exclusive", "random-degrees"):
            raise ValueError(f"bad exclusivity {exclusivity!r}")
        for name, value in zip(self.__match_args__, (frame_size, focal_count,
                                                     completeness, exclusivity, seed)):
            object.__setattr__(self, name, value)


class CheckReport:
    """Outcome of a property run over generated or enumerated instances, an accumulator.

    A suite hands each instance d with its context and violation function to
    :meth:`check`, which keeps each failing ``(d, context)`` in ``failures``.
    """

    def __init__(self, trials: int = 0):
        self.trials = trials
        self.failures: list[tuple[DNumber, dict]] = []
        self.max_violation = 0.0
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, violation, tol: float, d: DNumber, context: dict) -> None:
        """Fold ``violation(d, context)``, which may add to ``context``, into
        the report; a ``ValueError`` it raises is an unbounded violation, its
        message ``error``.

        A violation above ``tol`` appends the pair ``(d, context)`` to
        ``failures``, as values: nothing is copied or serialized.
        """
        try:
            violation = violation(d, context)
        except ValueError as exc:
            violation, context["error"] = math.inf, str(exc)
        self.max_violation = max(self.max_violation, violation)
        if violation > tol:
            self.failures.append((d, context))


def iter_indices(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def trial_rng(seed: int, index: int) -> random.Random:
    """Deterministic per-trial RNG derived from (seed, trial index)."""
    return random.Random(f"{seed}:{index}")


def generate_raw(config: GeneratorConfig, rng: random.Random | None = None) -> DNumber:
    """One raw (possibly incomplete) D number on a random frame, ``d.frame``.

    The frame is built as a :class:`Frame` straight from its index pairs:
    with random degrees, each pair (i, j), i < j <= N, X included, draws
    one degree in turn, which :class:`Frame` drops if 0. The focal
    masks are distinct draws, so they make the :class:`DNumber` as drawn.
    """
    if rng is None:
        rng = random.Random(config.seed)
    n = config.frame_size
    degrees = {}
    if config.exclusivity == "random-degrees":
        degrees = {(i, j): rng.random()
                   for i in range(n + 1) for j in range(i + 1, n + 1)}
    frame = Frame(tuple(string.ascii_lowercase[:n]), 2, degrees)

    focal = rng.sample(range(1, 2 ** n), config.focal_count)
    weights = [-math.log(1.0 - rng.random()) for _ in focal]
    scale = math.fsum(weights)

    completeness = config.completeness
    if completeness == "random":
        completeness = rng.choice(["complete", "incomplete"])
    total = 1.0 if completeness == "complete" else max(rng.random(), 1e-6)

    masses = {m: w / scale * total for m, w in zip(focal, weights)}
    return DNumber(frame, masses)


def generate(config: GeneratorConfig, rng: random.Random | None = None) -> DNumber:
    """One random completed D number, reproducible by seed."""
    return complete(generate_raw(config, rng))


def literal_nonexclusivity(frame: Frame, a: int, b: int) -> float:
    """Non-exclusivity by definition: 1 if the nonempty subsets share an element,
    else the largest ``frame.degrees`` value over pairs (i in a, j in b), or 0."""
    if a & b:
        return 1.0
    degrees, members = frame.degrees, list(iter_indices(b))
    return max([degrees.get((i, j) if i < j else (j, i), 0.0)
                for i in iter_indices(a) for j in members], default=0.0)


def _check_enumerable(frame: Frame) -> None:
    if frame.size > ENUMERATION_CAP:
        raise ValueError(f"enumeration limited to frames of size {ENUMERATION_CAP}")


def oracle_bel_pl(d: DNumber, a: int) -> BeliefInterval:
    """Belief interval by literal definition.

    Bel walks the 2^|A| - 1 nonempty subsets of ``a`` and sums their
    masses. Pl walks all focal sets and weights each focal set B by
    :func:`literal_nonexclusivity` (1 on intersection, the pairwise-max
    degree over |B| x |A| pairs on disjointness, 0 for A = ∅), read from
    the stored degrees. Both sums are taken with
    ``math.fsum`` and not clamped, so a total just above 1 shows as it does
    in :func:`.core.belief_interval`. A negative mask, or one with bits
    outside the frame, raises ``ValueError``.
    """
    _check_enumerable(d.frame)
    if not d.completed:
        raise ValueError("oracle requires a completed D number")
    if a & ~d.frame.full_mask:  # a negative mask has bits outside too
        raise ValueError(f"subset mask {a!r} is not inside the frame")
    masses, subsets, b = d.masses, [], a
    while b:  # the nonempty subsets of a, largest first
        subsets.append(masses.get(b, 0.0))
        b = (b - 1) & a
    lower = math.fsum(subsets)
    upper = math.fsum([mass if b & a else literal_nonexclusivity(d.frame, b, a) * mass
                       for b, mass in masses.items()])
    return BeliefInterval(lower, upper)


def _run_trials(trials, config, violation, tol, draw_context=None) -> CheckReport:
    """Check ``violation`` on trial t's :func:`generate` instance d, drawn from
    ``trial_rng(config.seed, t)``, in the context ``{"trial": t}`` and what
    ``draw_context(d, rng)`` draws next from that RNG; failures in trial order."""
    report = CheckReport(trials)
    for t in range(trials):
        rng = trial_rng(config.seed, t)
        d = generate(config, rng)
        context = {"trial": t}
        if draw_context:
            context.update(draw_context(d, rng))
        report.check(violation, tol, d, context)
    return report


def range_violation(d: DNumber, context: dict) -> float:
    """How far KU leaves [0, N] or UU [0, 1]; adds both as ``ku`` and ``uu``."""
    k, u = measures.ku(d), measures.uu_coefficient(d)
    context.update(ku=k, uu=u)
    return max(0.0, -k, k - d.frame.size, -u, u - 1.0)


def check_range(trials: int, config: GeneratorConfig) -> CheckReport:
    """Theorem: 0 <= KU <= N and 0 <= UU <= 1, to ``MASS_TOL``: UU is at most the total."""
    return _run_trials(trials, config, range_violation, MASS_TOL)


def _mix_with_vacuous(d: DNumber, weight: float) -> DNumber:
    """Blend a completed D number with the vacuous one (mass on Θ ∪ {X}); the blend is
    complete as built, as its total 1 - (1 - w)(1 - t) is nearer 1 than d's total t."""
    entries = [(m, (1.0 - weight) * v) for m, v in d.masses.items()]
    entries.append((d.frame.full_mask, weight))
    return build_dnumber(d.frame, entries)


def monotonicity_violation(d: DNumber, context: dict) -> float:
    """How far ``context["pair"]`` fails to hold ``d``'s intervals, KU and UU."""
    outer = context["pair"]
    violation = max(0.0, measures.ku(d) - measures.ku(outer),
                    measures.uu_coefficient(d) - measures.uu_coefficient(outer))
    for a in range(1, d.frame.full_mask + 1):
        inside, around = belief_interval(d, a), belief_interval(outer, a)
        violation = max(violation, around.lower - inside.lower,
                        inside.upper - around.upper)
    return violation


def check_monotonicity(trials: int, config: GeneratorConfig) -> CheckReport:
    """Theorem: interval nesting for every subset implies KU and UU ordering.

    Unconditioned random pairs essentially never nest, so each generated
    instance is paired with its blend with the vacuous D number, whose
    interval holds the instance's on every subset by construction: Bel
    drops by the factor 1 - w and Pl gains w(1 - Pl) >= -w·``MASS_TOL``. A shortfall
    beyond ``MASS_TOL`` counts toward the pair's violation, as KU or UU falling does.
    """
    return _run_trials(trials, config, monotonicity_violation, MASS_TOL,
                       lambda d, rng: {"pair": _mix_with_vacuous(d, rng.random())})


def set_consistency_violation(d: DNumber, context: dict) -> float:
    """How far KU is from ``context["expected"]``; adds KU as ``observed``."""
    observed = context["observed"] = measures.ku(d)
    return abs(observed - context["expected"])


def set_consistency_bound(n: int) -> float:
    """Bound n·2^-50 on set consistency's rounding, |KU - expected|, on n elements,
    with u = 2^-53 (Higham 2002, ch. 4): a member of A has the term 1 (0 if |A| = 1);
    any other element's Pl is its degree p, and its term 1 - sqrt((p - 1)^2) rounds
    four times on values at most 1, so lies within 4u of p; KU's fsum, the degrees'
    fsum and |A| + that fsum round by at most u·n each: 7u·n < 8u·n in all."""
    return n * 2.0 ** -50


def check_set_consistency(frame: Frame) -> CheckReport:
    """Theorem: D(A) = 1 with A ⊆ Θ gives KU = |A| + Σ degrees to Θ \\ A, to rounding.

    Holds for |A| >= 2. For singleton A the implemented KU formula yields
    only the degree sum (the |A| term vanishes because the singleton's
    interval is [1, 1]); that case is checked against the degree sum, noted,
    and left out of the trial count.
    """
    _check_enumerable(frame)
    report, tol = CheckReport(), set_consistency_bound(frame.size)
    for a in range(1, frame.theta_mask + 1):
        d = DNumber(frame, {a: 1.0})  # complete as made
        size = a.bit_count()
        # from the stored degrees: Frame.nonexclusivity is what KU is checked on
        degree_sum = math.fsum(literal_nonexclusivity(frame, 1 << i, a)
                               for i in range(frame.size) if not a >> i & 1)
        report.trials += size > 1  # |A| = 1 is noted, not counted
        context = {"expected": size + degree_sum if size > 1 else degree_sum}
        report.check(set_consistency_violation, tol, d, context)
        if size == 1 and "observed" in context:
            report.notes.append(
                f"|A| = 1 deviation: A = {{{', '.join(frame.labels_of(a))}}}: "
                f"observed KU = {context['observed']:.7f} (degree sum), "
                f"set-consistency formula would give {1 + degree_sum:.7f}")
    return report


def degeneration_violation(d: DNumber, context: dict) -> float:
    """Largest gap between the core, oracle and DST Bel and Pl on Θ's subsets, and
    between KU and its classical reference, taken from the same DST pass: each
    singleton's Bel and Pl clamped to [0, 1], as KU's distance is, in frame order."""
    masses = dst.mass_function(d)
    worst, terms = 0.0, []
    for a in range(1, d.frame.theta_mask + 1):
        labels = frozenset(d.frame.labels_of(a))
        lower, upper = dst.bel_m(masses, labels), dst.pl_m(masses, labels)
        for route in (belief_interval(d, a), oracle_bel_pl(d, a)):
            worst = max(worst, abs(route.lower - lower), abs(route.upper - upper))
        if not a & (a - 1):  # a singleton; they come in frame order
            lo, hi = min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0)
            terms.append(1.0 - math.sqrt(lo * lo + (hi - 1.0) * (hi - 1.0)))
    return max(worst, abs(measures.ku(d) - math.fsum(terms)))


def check_degeneration(trials: int, config: GeneratorConfig) -> CheckReport:
    """Classical BPAs: all Bel/Pl routes and both KU routes must agree.

    Instances are drawn complete and on an exclusive frame whatever
    ``config`` says, so that each one is a classical BPA.
    """
    config = config.replace(completeness="complete", exclusivity="exclusive")
    return _run_trials(trials, config, degeneration_violation, 0.0)


def oracle_violation(d: DNumber, context: dict) -> float:
    """Largest gap between the core and oracle Bel or Pl of any subset."""
    worst = 0.0
    for a in range(1, d.frame.full_mask + 1):
        fast, slow = belief_interval(d, a), oracle_bel_pl(d, a)
        worst = max(worst, abs(fast.lower - slow.lower),
                    abs(fast.upper - slow.upper))
    return worst


def check_oracle_equivalence(trials: int, config: GeneratorConfig) -> CheckReport:
    """Core belief intervals equal the literal-definition oracle, all subsets, exactly:
    both form the same rounded products and sum them with ``math.fsum``."""
    return _run_trials(trials, config, oracle_violation, 0.0)
