import dataclasses
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dnumbers as dn
from dnumbers.core import iter_indices

from conftest import completed_dnumbers, raw_dnumbers


def exclusive(labels):
    return dn.build_frame(labels, 2, [])


class TestBuildFrame:
    @pytest.mark.parametrize("degrees", [
        {(5, 9): 0.5}, {(0, 3): 0.5}, {(1, 0): 0.5}, {(0, 0): 0.5},
        {(-1, 1): 0.5}, {(0, 1, 2): 0.5}, {"ab": 0.5}, {(0.0, 1): 0.5},
        {(0, 1): 0.0}, {(0, 1): -0.5}, {(0, 1): 1.5}, {(0, 1): math.nan},
        {(0, 1): "0.5"}, {(False, True): 0.5}, {(0, True): 0.5}, {(0, 1): True}])
    def test_malformed_degree_table(self, degrees):
        with pytest.raises(ValueError, match="degree"):
            dn.Frame(("a", "b"), 2, degrees)

    def test_degree_table_bounds_accepted(self):
        f = dn.Frame(("a", "b"), 2, {(0, 2): 1.0, (1, 2): 1e-300})
        assert f.nonexclusivity(f.subset("ab"), f.x_mask) == f.lookup(0, 2) == 1.0

    def test_default_degrees_are_zero(self):
        f = exclusive("ab")
        assert f.nonexclusivity(f.subset("a"), f.subset("b")) == 0.0

    def test_degrees_symmetric(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        assert f.lookup(0, 1) == f.lookup(1, 0) == 0.3

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            dn.build_frame(["a", "a"], 2, [])

    def test_reserved_label(self):
        with pytest.raises(ValueError, match="reserved"):
            dn.build_frame(["a", "X"], 2, [])

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            dn.build_frame("ab", 2, [(("a", "b"), 1.2)])

    def test_unknown_label_in_pair(self):
        with pytest.raises(ValueError, match="unknown label"):
            dn.build_frame("ab", 2, [(("a", "z"), 0.5)])

    def test_small_unknown_cardinality(self):
        with pytest.raises(ValueError, match="at least 2"):
            dn.build_frame("ab", 1, [])

    def test_self_degree_is_one(self):
        f = exclusive("ab")
        assert f.lookup(0, 0) == 1.0
        assert f.lookup(f.x_index, f.x_index) == 1.0

    def test_x_pair_allowed(self):
        f = dn.build_frame("ab", "unknown", [(("a", "X"), 0.7)])
        assert f.lookup(0, f.x_index) == 0.7
        assert f.unknown_cardinality is None

    @pytest.mark.parametrize("first,second", [(0.0, 0.5), (0.5, 0.0)])
    def test_conflicting_degrees_in_either_order(self, first, second):
        with pytest.raises(ValueError, match="conflicting degrees"):
            dn.build_frame("ab", 2, [(("a", "b"), first), (("b", "a"), second)])

    def test_repeated_zero_degree_is_not_stored(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.0), (("a", "b"), 0.0)])
        assert dict(f.degrees) == {}


class TestFrameInvariants:
    """Built directly, a ``Frame`` holds to the same rules as ``build_frame``."""

    @pytest.mark.parametrize("elements,cardinality,needle", [
        (("a", "a"), 2, "duplicate label 'a'"),
        (("a", "X"), 2, "reserved"),
        (("a", ""), 2, "nonempty"),
        ((), 2, "at least one element"),
        (("a", "b"), 1, "at least 2"),
        (("a", "b"), True, "at least 2"),
        (("a", "b"), 2.0, "at least 2"),
    ])
    def test_rejected(self, elements, cardinality, needle):
        with pytest.raises(ValueError, match=needle):
            dn.Frame(elements, cardinality, {})

    @pytest.mark.parametrize("cardinality", [2.9, "3", True, 0])
    def test_build_frame_does_not_coerce_cardinality(self, cardinality):
        with pytest.raises(ValueError, match="at least 2"):
            dn.build_frame("ab", cardinality, [])

    @pytest.mark.parametrize("cardinality", ["unknown", None])
    def test_unknown_size(self, cardinality):
        assert dn.build_frame("ab", cardinality, []).unknown_cardinality is None


class TestNonexclusivity:
    def test_intersecting_sets_give_one(self):
        f = exclusive("abc")
        assert f.nonexclusivity(f.subset("ab"), f.subset("bc")) == 1.0

    def test_singleton_lookup(self):
        f = dn.build_frame("abc", 2, [(("a", "c"), 0.4)])
        assert f.nonexclusivity(f.subset("a"), f.subset("c")) == 0.4

    def test_max_extension_over_disjoint_sets(self):
        f = dn.build_frame("abc", 2, [(("a", "c"), 0.2), (("b", "c"), 0.5)])
        assert f.nonexclusivity(f.subset("ab"), f.subset("c")) == 0.5
        # must match enumeration over singleton pairs
        brute = max(f.lookup(i, j)
                    for i in iter_indices(f.subset("ab"))
                    for j in iter_indices(f.subset("c")))
        assert f.nonexclusivity(f.subset("ab"), f.subset("c")) == brute

    def test_empty_subset_rejected(self):
        f = exclusive("ab")
        with pytest.raises(ValueError):
            f.nonexclusivity(0, f.subset("a"))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 32), st.data())
    def test_equals_max_over_stored_pairs(self, n, density, seed, data):
        # the literal definition over ``lookup``, which reads ``degrees``,
        # not the adjacency; on intersecting sets the diagonal gives 1
        rng = random.Random(seed)
        f = dn.Frame(tuple(f"e{i}" for i in range(n)), None, {
            (i, j): min(rng.random() * 1.1, 1.0) or 1.0  # 1 in 11 exactly 1
            for i in range(n + 1) for j in range(i + 1, n + 1)
            if rng.random() < density})
        # wide masks, or at most three members, where X often attains the max
        masks = st.integers(1, f.full_mask) | st.sets(
            st.integers(0, n), min_size=1, max_size=3).map(
                lambda s: sum(1 << i for i in s))
        a = data.draw(masks, label="a")
        b = data.draw(masks, label="b")
        if data.draw(st.booleans(), label="disjoint") and b & ~a:
            b &= ~a
        literal = max(f.lookup(i, j) for i in iter_indices(a) for j in iter_indices(b))
        assert f.nonexclusivity(a, b) == f.nonexclusivity(b, a) == literal


class TestBuildDNumber:
    def test_vacuous_is_completed(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert d.completed
        assert d.masses == {f.theta_mask: 1.0}

    def test_raw_total(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.6)])
        assert not d.completed
        assert d.total_mass == pytest.approx(0.6)

    def test_total_above_one(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="exceeds 1"):
            dn.build_dnumber(f, [(f.subset("a"), 0.7), (f.subset("b"), 0.7)])

    def test_negative_mass(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="negative"):
            dn.build_dnumber(f, [(f.subset("a"), -0.1)])

    def test_empty_set_mass(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="empty set"):
            dn.build_dnumber(f, [(0, 0.5)])

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass(self, mass):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="not finite"):
            dn.build_dnumber(f, [(f.subset("a"), mass)])

    def test_duplicates_merged_zeros_dropped(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(1, 0.2), (1, 0.3), (2, 0.0)])
        assert d.masses == {1: 0.5}

    def test_negative_entry_not_hidden_by_merge(self):
        f = exclusive("ab")
        with pytest.raises(ValueError, match="negative"):
            dn.build_dnumber(f, [(1, -0.1), (1, 0.3)])


class TestDNumberInvariants:
    """Built directly, a ``DNumber`` holds to the same rules as ``build_dnumber``
    and works out ``completed`` and ``total_mass`` from its masses."""

    @pytest.mark.parametrize("masses,needle", [
        ({1: -3.0, 2: 0.5}, "negative"),
        ({1: math.nan}, "not finite"),
        ({1: math.inf}, "not finite"),
        ({1: True}, "not a number"),
        ({1: "0.5"}, "not a number"),
        ({8: 0.5}, "inside the frame"),
        ({-1: 0.5}, "inside the frame"),
        ({True: 0.5}, "inside the frame"),
        ({1.0: 0.5}, "inside the frame"),
        ({0: 0.5}, "empty set"),
        ({1: 0.7, 2: 0.7}, "exceeds 1"),
    ])
    def test_rejected(self, masses, needle):
        with pytest.raises(ValueError, match=needle):
            dn.DNumber(exclusive("ab"), masses)

    @pytest.mark.parametrize("field", ["completed", "total_mass"])
    def test_derived_fields_not_arguments(self, field):
        f = exclusive("ab")
        with pytest.raises(TypeError):
            dn.DNumber(f, {f.theta_mask: 1.0}, **{field: True})

    def test_replace_recomputes_derived_fields(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert d.completed and d.total_mass == 1.0
        raw = dataclasses.replace(d, masses={1: 0.25})
        assert raw.completed is False
        assert raw.total_mass == 0.25
        with pytest.raises(ValueError, match="completed"):
            dn.bel(raw, 1)

    def test_direct_table_is_canonical(self):
        f = exclusive("ab")
        d = dn.DNumber(f, {f.x_mask: 0.5, f.subset("b"): 0.0, f.subset("a"): 0.5})
        assert list(d.masses.items()) == [(f.subset("a"), 0.5), (f.x_mask, 0.5)]
        assert d.completed
        assert d == dn.build_dnumber(f, [(f.subset("a"), 0.5), (f.x_mask, 0.5)])


class TestReadOnlyTables:
    def test_degrees_read_only(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        with pytest.raises(TypeError):
            f.degrees[(0, 1)] = 1.0
        assert f.lookup(0, 1) == 0.3

    def test_adjacency_read_only(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        with pytest.raises(TypeError):
            f.adjacency[0][1][1] = 1.0
        with pytest.raises(TypeError):
            f.adjacency[0][1][f.x_index] = 1.0
        with pytest.raises(TypeError):
            f.adjacency[0] = (f.x_mask, {f.x_index: 1.0})
        assert f.nonexclusivity(f.subset("a"), f.subset("b")) == 0.3
        assert f.nonexclusivity(f.subset("a"), f.x_mask) == 0.0

    def test_adjacency_outside_equality_and_repr(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        assert f == dn.Frame(("a", "b"), 2, {(0, 1): 0.3})
        assert "adjacency" not in repr(f)

    def test_masses_read_only(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.5)]))
        with pytest.raises(TypeError):
            d.masses[f.subset("b")] = 0.5
        assert dn.pl(d, f.subset("b")) == 0.0

    def test_frame_copies_its_table(self):
        table = {(0, 1): 0.3}
        f = dn.Frame(("a", "b"), 2, table)
        table[(0, 1)] = 1.0
        assert f.lookup(0, 1) == 0.3


class TestComplete:
    def test_residual_goes_to_x(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        assert d.masses == {f.subset("a"): 0.6, f.x_mask: pytest.approx(0.4)}

    def test_complete_input_unchanged(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.complete(d) is d

    def test_residual_with_composite_focal_sets(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(
            f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5)]))
        assert d.masses[f.x_mask] == pytest.approx(0.2)
        assert d.total_mass == pytest.approx(1.0)

    @given(raw_dnumbers())
    def test_idempotent(self, d):
        once = dn.complete(d)
        assert dn.complete(once) == once


class TestBelPl:
    def test_bel_vacuous(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.bel(d, f.subset("a")) == 0.0

    def test_bel_sums_contained_masses(self):
        f = exclusive("abc")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.bel(d, f.subset("ab")) == pytest.approx(0.8)

    def test_bel_requires_completed(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.6)])
        with pytest.raises(ValueError, match="completed"):
            dn.bel(d, f.subset("a"))
        with pytest.raises(ValueError, match="completed"):
            dn.pl(d, f.subset("a"))

    def test_pl_exclusive(self):
        f = exclusive("abc")
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.pl(d, f.subset("c")) == pytest.approx(0.2)

    def test_pl_with_nonexclusive_degree(self):
        f = dn.build_frame("abc", 2, [(("b", "c"), 0.4)])
        d = dn.build_dnumber(f, [(f.subset("a"), 0.3), (f.subset("ab"), 0.5),
                                 (f.theta_mask, 0.2)])
        assert dn.pl(d, f.subset("c")) == pytest.approx(0.3 * 0 + 0.5 * 0.4 + 0.2)

    def test_pl_of_x_is_residual_mass(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        assert dn.pl(d, f.x_mask) == pytest.approx(0.4)

    def test_empty_set_conventions(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        assert dn.bel(d, 0) == 0.0
        assert dn.pl(d, 0) == 0.0


class TestBeliefInterval:
    def test_total_ignorance(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        iv = dn.belief_interval(d, f.subset("a"))
        assert (iv.lower, iv.upper) == (0.0, 1.0)

    def test_certainty(self):
        f = exclusive("ab")
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        iv = dn.belief_interval(d, f.subset("a"))
        assert (iv.lower, iv.upper) == (1.0, 1.0)

    def test_nonexclusive_upper(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0)])
        iv = dn.belief_interval(d, f.subset("b"))
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(0.3)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            dn.BeliefInterval(0.8, 0.2)


class TestIsBpa:
    def test_vacuous_exclusive(self):
        f = exclusive("ab")
        assert dn.is_bpa(dn.build_dnumber(f, [(f.theta_mask, 1.0)]))

    def test_mass_on_x(self):
        f = exclusive("ab")
        d = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
        assert not dn.is_bpa(d)

    def test_nonexclusive_frame(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
        assert not dn.is_bpa(dn.build_dnumber(f, [(f.subset("a"), 1.0)]))


class TestProperties:
    @given(completed_dnumbers())
    def test_nonexclusivity_symmetric(self, d):
        f = d.frame
        for a in range(1, f.full_mask + 1):
            for b in range(1, f.full_mask + 1):
                assert f.nonexclusivity(a, b) == f.nonexclusivity(b, a)

    @given(completed_dnumbers())
    def test_containment_forces_unity(self, d):
        f = d.frame
        for a in range(1, f.full_mask + 1):
            for b in range(1, f.full_mask + 1):
                if b & ~a == 0:
                    assert f.nonexclusivity(b, a) == 1.0

    @given(completed_dnumbers())
    def test_bel_le_pl(self, d):
        for a in range(1, d.frame.full_mask + 1):
            assert dn.bel(d, a) <= dn.pl(d, a) + dn.MASS_TOL

    @given(completed_dnumbers(max_size=3))
    def test_monotone_in_subset(self, d):
        full = d.frame.full_mask
        for a in range(1, full + 1):
            for c in range(1, full + 1):
                if a & ~c == 0:
                    assert dn.bel(d, a) <= dn.bel(d, c) + dn.MASS_TOL
                    assert dn.pl(d, a) <= dn.pl(d, c) + dn.MASS_TOL

    @given(completed_dnumbers())
    def test_normalization(self, d):
        full = d.frame.full_mask
        assert dn.bel(d, full) == pytest.approx(1.0, abs=dn.MASS_TOL)
        assert dn.pl(d, full) == pytest.approx(1.0, abs=dn.MASS_TOL)

    @given(completed_dnumbers())
    def test_masses_canonically_ordered(self, d):
        masks = list(d.masses)
        assert masks == sorted(masks)
        assert all(v > 0 for v in d.masses.values())
        assert math.isclose(d.total_mass, 1.0, abs_tol=dn.MASS_TOL)
