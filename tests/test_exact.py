"""Bel, Pl and KU against exact arithmetic, with derived error bounds.

``check`` compares float routes with each other; this compares them with
the exact values, so a fault shared by every float route shows too. The
masses and degrees of a drawn D number are floats, and so exact rationals;
the exact Bel and Pl are taken over them with ``fractions.Fraction``, and
the exact KU, which needs square roots, with ``decimal`` at 60 digits. With
u = 2^-53, the unit roundoff (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, ch. 2 and 4):

- **Bel** is ``math.fsum`` of masses, or one mass: the exact sum correctly
  rounded, so it equals ``float`` of the exact sum.
- **Pl** is ``fsum`` of the terms D(B), exact, and p·D(B), each rounded
  once, so within u·p·D(B). The terms are nonnegative, so their exact sum
  is within u·E of the exact Pl, E; fsum's rounding adds u·(1 + u)·E. So
  |Pl - E| <= (2u + u²)·E, under 2 ulp of E.
- **KU** sums N terms 1 - sqrt(lo² + (hi - 1)²). Per term: lo = D({i})
  is exact; hi is within 2u of the exact Pl by the bound above, and the
  distance moves by at most as much; hi - 1, the two squares, their sum
  and the root round once each on values at most 1, moving the distance
  by 3u; 1 - distance rounds by u. So each term is within 6u, and fsum
  of the terms, at most N, adds u·N: 7u·N in all, below the 8u·N
  checked, which leaves u·N for the terms in u² and the 60-digit
  reference's own error, below N·10^-59.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import dnumbers as dn
from dnumbers import oracle
from dnumbers.oracle import literal_nonexclusivity

U = Fraction(1, 2 ** 53)


@st.composite
def drawn(draw):
    """A completed D number as ``check`` draws them, at N = 1..6."""
    n = draw(st.integers(1, 6))
    return oracle.generate(oracle.GeneratorConfig(
        frame_size=n, focal_count=draw(st.integers(1, min(2 ** n - 1, 8))),
        exclusivity=draw(st.sampled_from(["exclusive", "random-degrees"])),
        seed=draw(st.integers(0, 2 ** 32))))


def exact_bel(d, a):
    return sum((Fraction(v) for m, v in d.masses.items() if m & ~a == 0), Fraction(0))


def exact_pl(d, a):
    return sum((Fraction(v) if m & a else Fraction(v) * Fraction(
        literal_nonexclusivity(d.frame, m, a)) for m, v in d.masses.items()), Fraction(0))


def decimal_ku(d):
    """KU at 60 digits from the exact singleton intervals, clamped to [0, 1]."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for i in range(d.frame.size):
            lo, hi = (min(max(Decimal(x.numerator) / x.denominator, Decimal(0)),
                          Decimal(1))
                      for x in (exact_bel(d, 1 << i), exact_pl(d, 1 << i)))
            total += 1 - (lo * lo + (hi - 1) * (hi - 1)).sqrt()
        return Fraction(total)


EXACT = settings(derandomize=True, max_examples=150, deadline=None)


@EXACT
@given(drawn())
def test_bel_is_the_exact_sum_correctly_rounded(d):
    for a in range(1, d.frame.full_mask + 1):
        assert dn.bel(d, a) == float(exact_bel(d, a)), a


@EXACT
@given(drawn())
def test_pl_is_within_two_ulp_of_the_exact_value(d):
    for a in range(1, d.frame.full_mask + 1):
        exact = exact_pl(d, a)
        assert abs(Fraction(dn.pl(d, a)) - exact) <= (2 * U + U * U) * exact, a


@EXACT
@given(drawn())
def test_ku_is_within_8_n_u_of_the_60_digit_reference(d):
    assert abs(Fraction(dn.ku(d)) - decimal_ku(d)) <= 8 * d.frame.size * U
