"""The abstract's three claims, each in a checkable form.

The measure is said to capture non-exclusiveness, non-specificity and
discord at once. Each test below states one claim as an exact property of
``ku`` and ``uu_coefficient`` on the D numbers it concerns.
"""

import random
import string

import pytest

import dnumbers as dn
from dnumbers import oracle


@pytest.mark.parametrize("n", range(1, 7))
def test_non_exclusiveness_raising_a_degree_never_lowers_pl_ku_or_uu(n):
    # Bel reads no degree; every Pl term is a degree times a mass, so each
    # Pl, each KU term and Pl({X}) can only rise, exactly, with rounding
    config = oracle.GeneratorConfig(frame_size=n, seed=99)
    for t in range(300):
        rng = oracle.trial_rng(config.seed, t)
        d = oracle.generate(config, rng)
        frame = d.frame
        pair = rng.choice(sorted(frame.degrees))
        p = frame.degrees[pair]
        degrees = {**frame.degrees, pair: rng.choice([1.0, p + (1.0 - p) * rng.random()])}
        raised = dn.DNumber(frame.replace(degrees=degrees), d.masses)
        for a in range(1, frame.full_mask + 1):
            assert dn.bel(raised, a) == dn.bel(d, a)
            assert dn.pl(raised, a) >= dn.pl(d, a)
        assert dn.ku(raised) >= dn.ku(d)
        assert dn.uu_coefficient(raised) >= dn.uu_coefficient(d)


@pytest.mark.parametrize("exclusivity", ["exclusive", "random-degrees"])
@pytest.mark.parametrize("n", range(1, 7))
def test_non_specificity_vacuous_dnumber_tops_ku_and_uu(n, exclusivity):
    # all mass on Θ ∪ {X}: every singleton's interval is [0, 1], the most
    # uncertain one, so KU = N and UU = 1, the top of their ranges
    for seed in range(5):
        frame = oracle.generate_raw(oracle.GeneratorConfig(
            frame_size=n, exclusivity=exclusivity, seed=seed)).frame
        vacuous = dn.DNumber(frame, {frame.full_mask: 1.0})
        assert dn.ku(vacuous) == n
        assert dn.uu_coefficient(vacuous) == 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_discord_on_singletons_ku_zero_exactly_when_categorical(n):
    # on an exclusive frame each term 1 - √(m² + (1 - m)²) is 0 exactly for
    # m in {0, 1}: KU is 0 only when one singleton holds all the mass
    frame = dn.Frame(tuple(string.ascii_lowercase[:n]), None, {})
    for i in range(n):
        assert dn.ku(dn.DNumber(frame, {1 << i: 1.0})) == 0.0
    rng = random.Random(n)
    trials = 100 if n > 1 else 0  # on one element every such D number is categorical
    for _ in range(trials):
        members = rng.sample(range(n), rng.randint(2, n))
        weights = [rng.random() + 1e-3 for _ in members]
        total = sum(weights)
        d = dn.DNumber(frame, {1 << i: w / total for i, w in zip(members, weights)})
        assert d.completed
        assert dn.ku(d) > 0.0
