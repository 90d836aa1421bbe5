import json
import math
import sys

import pytest
from hypothesis import given

import dnumbers as dn
from dnumbers import dst, measures, oracle
from dnumbers.measures import UnknownModel

from conftest import completed_dnumbers, make


class TestIntervalDistance:
    def test_most_uncertain(self):
        assert dn.interval_distance_to_unit(dn.BeliefInterval(0, 1)) == 0.0

    def test_certain(self):
        assert dn.interval_distance_to_unit(dn.BeliefInterval(1, 1)) == 1.0

    def test_generic_point(self):
        got = dn.interval_distance_to_unit(dn.BeliefInterval(0.2, 0.7))
        assert got == pytest.approx(math.sqrt(0.04 + 0.09), abs=1e-12)

    def test_malformed(self):
        with pytest.raises(ValueError):
            dn.BeliefInterval(0.5, 0.2)


class TestKu:
    def test_vacuous_equals_frame_size(self):
        _, d = make("ab", [("ab", 1.0)])
        assert dn.ku(d) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_bayesian(self):
        _, d = make("ab", [("a", 0.5), ("b", 0.5)])
        assert dn.ku(d) == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)

    def test_nonexclusiveness_contributes(self):
        _, d = make("ab", [("a", 1.0)], [(("a", "b"), 0.3)])
        assert dn.ku(d) == pytest.approx(0.3, abs=1e-12)

    def test_certainty_minimum(self):
        _, d = make("abc", [("a", 1.0)])
        assert dn.ku(d) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("labels, terms", [(["a"], [0.0]), (["a", "b"], [1.0, 1.0])],
                             ids=["one-element", "two-elements"])
    def test_bounds_above_one_clamp_to_one(self, labels, terms):
        # an accepted total of 1 + 1e-9 puts Bel({a}), or Pl of each, above 1
        doc = {"frame": labels, "masses": [{"set": labels, "mass": 1.000000001}]}
        _, d = dn.parse_document(json.dumps(doc))
        assert [term for _, term in measures.singleton_terms(dn.complete(d))] == terms

    def test_raw_input_rejected(self):
        frame = dn.build_frame("ab", 2, [])
        raw = dn.build_dnumber(frame, [(frame.subset("a"), 0.6)])
        with pytest.raises(ValueError, match="completed"):
            dn.ku(raw)

    def test_bayesian_maximum_at_uniform(self):
        # grid search over exclusive Bayesian D numbers on two elements
        best_p, best_ku = None, -1.0
        for step in range(101):
            p = step / 100
            _, d = make("ab", [("a", p), ("b", 1.0 - p)])
            k = dn.ku(d)
            if k > best_ku:
                best_p, best_ku = p, k
        assert best_p == pytest.approx(0.5)


class TestUuCoefficient:
    def test_residual_mass_identity(self):
        _, d = make("ab", [("a", 0.6)])
        assert dn.uu_coefficient(d) == pytest.approx(0.4, abs=1e-12)

    def test_information_complete(self):
        _, d = make("ab", [("a", 0.4), ("b", 0.6)])
        assert dn.uu_coefficient(d) == 0.0

    def test_configurable_x_degree(self):
        _, d = make("ab", [("a", 0.6)], [(("a", "X"), 1.0)])
        assert dn.uu_coefficient(d) == pytest.approx(1.0, abs=1e-12)


class TestTotalUncertainty:
    def test_vacuous_tuple(self):
        _, d = make("ab", [("ab", 1.0)])
        tu = dn.total_uncertainty(d)
        assert tu.ku == pytest.approx(2.0, abs=1e-12)
        assert tu.uu_coefficient == 0.0
        assert tu.uu_evaluated is None

    def test_full_pipeline(self):
        _, d = make("ab", [("a", 0.6)])
        tu = dn.total_uncertainty(d, UnknownModel.UNIT)
        a_term = 1 - math.sqrt(0.36 + 0.16)
        assert tu.ku == pytest.approx(a_term, abs=1e-9)
        assert tu.uu_coefficient == pytest.approx(0.4, abs=1e-12)
        assert tu.uu_evaluated == pytest.approx(0.4, abs=1e-12)

    def test_log_cardinality(self):
        _, d = make("ab", [("a", 0.6)], cardinality=2)
        tu = dn.total_uncertainty(d, UnknownModel.LOG2)
        assert tu.uu_evaluated == pytest.approx(0.4 * math.log2(2), abs=1e-12)

    def test_cardinality_model(self):
        _, d = make("ab", [("a", 0.6)], cardinality=4)
        tu = dn.total_uncertainty(d, UnknownModel.CARDINALITY)
        assert tu.uu_evaluated == pytest.approx(1.6, abs=1e-12)

    def test_cardinality_required(self):
        _, d = make("ab", [("a", 0.6)], cardinality=None)
        with pytest.raises(ValueError, match="cardinality"):
            dn.total_uncertainty(d, UnknownModel.CARDINALITY)

    def test_evaluate_unknown_coefficient_only(self):
        _, d = make("ab", [("a", 0.7)], cardinality=None)
        tu = dn.total_uncertainty(d, UnknownModel.COEFFICIENT)
        assert tu.uu_evaluated is None and tu.uu_coefficient == pytest.approx(0.3)

    def test_evaluate_unknown_beyond_float_range(self):
        # Pl({X}) may pass 1 by MASS_TOL, and |X| is the largest cardinality
        frame = dn.build_frame(["a"], int(sys.float_info.max))
        ax = frame.subset(["a", "X"])
        over = dn.DNumber(frame, {ax: 1.0000000005})
        with pytest.raises(ValueError, match="'cardinality'.*float range"):
            dn.total_uncertainty(over, UnknownModel.CARDINALITY)
        exact = dn.DNumber(frame, {ax: 1.0})
        tu = dn.total_uncertainty(exact, UnknownModel.CARDINALITY)
        assert tu.uu_evaluated == sys.float_info.max

    def test_model_by_name(self):
        _, d = make("ab", [("a", 0.6)], cardinality=4)
        assert dn.total_uncertainty(d, "cardinality").uu_evaluated == pytest.approx(1.6)
        for model in UnknownModel:
            assert dn.total_uncertainty(d, model.value) == dn.total_uncertainty(d, model)

    def test_unknown_model_name_rejected(self):
        _, d = make("ab", [("a", 0.6)], cardinality=4)
        with pytest.raises(ValueError, match="'bogus'"):
            dn.total_uncertainty(d, "bogus")


class TestDstReference:
    """``degeneration_violation`` holds KU to the classical reference it takes
    from its own DST pass; 0.0 is exact agreement of every route."""

    def test_vacuous(self):
        _, d = make("ab", [("ab", 1.0)])
        assert oracle.degeneration_violation(d, {}) == 0.0
        assert dn.ku(d) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_bayesian(self):
        _, d = make("ab", [("a", 0.5), ("b", 0.5)])
        assert oracle.degeneration_violation(d, {}) == 0.0
        assert dn.ku(d) == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)

    def test_matches_ku(self, monkeypatch):
        _, d = make("ab", [("a", 0.3), ("ab", 0.7)])
        assert oracle.degeneration_violation(d, {}) == 0.0
        ku = measures.ku
        monkeypatch.setattr(measures, "ku", lambda d: ku(d) + 1e-13)
        assert oracle.degeneration_violation(d, {}) > 0.0

    def test_rejects_non_bpa(self):
        _, d = make("ab", [("a", 0.6)])
        with pytest.raises(ValueError, match="BPA"):
            oracle.degeneration_violation(d, {})

    def test_classical_formulas(self):
        _, d = make("abc", [("a", 0.3), ("ab", 0.5), ("abc", 0.2)])
        m = dst.mass_function(d)
        assert dst.bel_m(m, frozenset("ab")) == pytest.approx(0.8)
        assert dst.pl_m(m, frozenset("c")) == pytest.approx(0.2)


def permuted_copy(d, order):
    frame = d.frame
    labels = [frame.elements[i] for i in order]
    inverse = {old: new for new, old in enumerate(order)}
    inverse[frame.size] = frame.size

    def relabel(i):
        return "X" if i == frame.size else labels[inverse[i]]

    degrees = [((relabel(i), relabel(j)), p) for (i, j), p in frame.degrees.items()]
    new_frame = dn.build_frame(labels, frame.unknown_cardinality, degrees)
    entries = []
    for mask, mass in d.masses.items():
        names = [relabel(i) for i in range(frame.size + 1) if mask >> i & 1]
        entries.append((new_frame.subset(names), mass))
    return dn.complete(dn.build_dnumber(new_frame, entries))


class TestPermutationInvariance:
    @given(completed_dnumbers(max_size=4))
    def test_measures_invariant_under_relabeling(self, d):
        order = list(range(d.frame.size))
        order.reverse()
        other = permuted_copy(d, order)
        assert dn.ku(other) == pytest.approx(dn.ku(d), abs=1e-12)
        assert dn.uu_coefficient(other) == pytest.approx(
            dn.uu_coefficient(d), abs=1e-12)

    @given(completed_dnumbers(max_size=4))
    def test_range_bounds(self, d):
        assert -1e-9 <= dn.ku(d) <= d.frame.size + 1e-9
        assert -1e-9 <= dn.uu_coefficient(d) <= 1 + 1e-9
