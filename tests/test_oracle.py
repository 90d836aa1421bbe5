import json
import math

import pytest
from hypothesis import given, settings

import dnumbers as dn
from dnumbers import document, dst, oracle

from conftest import completed_dnumbers, make


class TestOracleBelPl:
    def test_vacuous(self):
        f, d = make("ab", [("ab", 1.0)])
        iv = oracle.oracle_bel_pl(d, f.subset("a"))
        assert (iv.lower, iv.upper) == (0.0, 1.0)

    def test_literal_two_branch_sum(self):
        f, d = make("abc", [("a", 0.3), ("ab", 0.5), ("abc", 0.2)])
        iv = oracle.oracle_bel_pl(d, f.subset("c"))
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(0.2, abs=1e-12)

    def test_requires_completed(self):
        f = dn.build_frame("ab", 2, [])
        raw = dn.build_dnumber(f, [(f.subset("a"), 0.6)])
        with pytest.raises(ValueError, match="completed"):
            oracle.oracle_bel_pl(raw, f.subset("a"))

    def test_enumeration_cap(self):
        f = dn.build_frame("abcdefg", 2, [])
        d = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
        with pytest.raises(ValueError, match="enumeration limited"):
            oracle.oracle_bel_pl(d, f.subset("a"))

    def test_total_above_one_not_clamped(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.4)])
        d = dn.build_dnumber(f, [(f.subset("a"), 1.0000000005)])
        assert d.completed
        for a in range(1, f.full_mask + 1):
            fast = dn.belief_interval(d, a)
            slow = oracle.oracle_bel_pl(d, a)
            assert fast == slow

    @pytest.mark.parametrize("a", [-1, -2, -(1 << 3), 1 << 3, 1 << 5, 0b1011])
    def test_mask_outside_the_frame_raises(self, a):
        f, d = make("ab", [("a", 0.6), ("ab", 0.4)])
        with pytest.raises(ValueError, match="not inside the frame"):
            oracle.oracle_bel_pl(d, a)
        with pytest.raises(ValueError, match="not inside the frame"):
            dn.belief_interval(d, a)

    def test_empty_set(self):
        f, d = make("ab", [("a", 0.6), ("ab", 0.4)])
        iv = oracle.oracle_bel_pl(d, 0)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    @settings(max_examples=80)
    @given(completed_dnumbers(max_size=6))
    def test_bel_equals_sum_over_every_mask_of_the_frame(self, d):
        # reference: every mask of the frame filtered by containment in a
        full = d.frame.full_mask
        for a in range(full + 1):
            reference = math.fsum(d.masses.get(b, 0.0)
                                  for b in range(1, full + 1) if b & ~a == 0)
            assert oracle.oracle_bel_pl(d, a).lower.hex() == reference.hex()

    @settings(max_examples=60)
    @given(completed_dnumbers(max_size=4))
    def test_matches_core_exhaustively(self, d):
        for a in range(1, d.frame.full_mask + 1):
            fast = dn.belief_interval(d, a)
            slow = oracle.oracle_bel_pl(d, a)
            assert fast.lower == pytest.approx(slow.lower, abs=1e-12)
            assert fast.upper == pytest.approx(slow.upper, abs=1e-12)


class TestGenerate:
    def test_single_focal_complete(self):
        cfg = oracle.GeneratorConfig(frame_size=2, focal_count=1,
                                     completeness="complete",
                                     exclusivity="exclusive", seed=1)
        d = oracle.generate(cfg)
        assert len(d.masses) == 1
        assert next(iter(d.masses.values())) == pytest.approx(1.0)

    def test_incomplete_gets_completed(self):
        cfg = oracle.GeneratorConfig(frame_size=3, focal_count=3,
                                     completeness="incomplete",
                                     exclusivity="exclusive", seed=5)
        raw = oracle.generate_raw(cfg)
        assert raw.total_mass < 1.0
        d = dn.complete(raw)
        assert d.completed
        assert d.masses[raw.frame.x_mask] == pytest.approx(1.0 - raw.total_mass)

    def test_deterministic_per_seed(self):
        cfg = oracle.GeneratorConfig(frame_size=4, focal_count=5, seed=99)
        a, b = oracle.generate(cfg), oracle.generate(cfg)
        assert a == b
        ra, rb = oracle.generate_raw(cfg), oracle.generate_raw(cfg)
        assert dn.serialize_document(ra) == dn.serialize_document(rb)

    def test_infeasible_focal_count(self):
        with pytest.raises(ValueError, match="infeasible"):
            oracle.GeneratorConfig(frame_size=2, focal_count=9)

    @pytest.mark.parametrize("size, count", [(1, 1), (2, 3), (6, 3)])
    def test_default_focal_count(self, size, count):
        assert oracle.GeneratorConfig(frame_size=size).focal_count == count

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            oracle.GeneratorConfig(frame_size=7)

    @pytest.mark.parametrize("field,value,needle", [
        ("focal_count", 0, "at least 1"),
        ("frame_size", 3.5, "frame_size must be an int, got 3.5"),
        ("frame_size", True, "frame_size must be an int, got True"),
        ("focal_count", 2.5, "focal_count must be an int, got 2.5"),
        ("focal_count", True, "focal_count must be an int, got True"),
        ("seed", None, "seed must be an int, got None"),
        ("seed", False, "seed must be an int, got False"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("completeness", "sometimes", "bad completeness"),
        ("exclusivity", "none", "bad exclusivity"),
    ])
    def test_bad_config(self, field, value, needle):
        with pytest.raises(ValueError, match=needle):
            oracle.GeneratorConfig(**{field: value})


class TestCheckers:
    def test_range_green(self):
        for n in (2, 3, 4):
            report = oracle.check_range(
                200, oracle.GeneratorConfig(frame_size=n, seed=n))
            assert report.ok, report.failures[:1]

    def test_monotonicity_green(self):
        report = oracle.check_monotonicity(
            200, oracle.GeneratorConfig(frame_size=3, seed=3))
        assert report.ok
        assert report.trials == 200

    def test_monotonicity_trivial_pairs(self):
        f, d = make("abc", [("a", 0.2), ("bc", 0.5)])
        vacuous = dn.build_dnumber(f, [(f.full_mask, 1.0)])
        # blend weights 0 and 1 give the instance itself and the vacuous one
        assert oracle._mix_with_vacuous(d, 0.0) == d
        assert oracle._mix_with_vacuous(d, 1.0) == vacuous
        for a in range(1, f.full_mask + 1):
            inner, outer = dn.belief_interval(d, a), dn.belief_interval(vacuous, a)
            assert outer.lower <= inner.lower and inner.upper <= outer.upper
        assert dn.ku(vacuous) == pytest.approx(3.0, abs=1e-12)

    def test_set_consistency_exclusive(self):
        frame = dn.build_frame("abc", 2, [])
        report = oracle.check_set_consistency(frame)
        assert report.ok
        d = dn.build_dnumber(frame, [(frame.subset("ab"), 1.0)])
        assert dn.ku(d) == pytest.approx(2.0, abs=1e-9)

    def test_set_consistency_with_degrees(self):
        frame = dn.build_frame("abc", 2, [(("c", "a"), 0.2), (("c", "b"), 0.5)])
        report = oracle.check_set_consistency(frame)
        assert report.ok
        d = dn.build_dnumber(frame, [(frame.subset("ab"), 1.0)])
        assert dn.ku(d) == pytest.approx(2.5, abs=1e-9)

    def test_set_consistency_reports_singleton_deviation(self):
        frame = dn.build_frame("ab", 2, [])
        report = oracle.check_set_consistency(frame)
        assert report.ok
        assert any("|A| = 1 deviation" in note for note in report.notes)
        d = dn.build_dnumber(frame, [(frame.subset("a"), 1.0)])
        assert dn.ku(d) == pytest.approx(0.0, abs=1e-9)  # not the formula's 1

    def test_degeneration_green(self):
        report = oracle.check_degeneration(
            200, oracle.GeneratorConfig(frame_size=4, focal_count=5))
        assert report.ok
        assert report.max_violation <= 1e-12

    def test_degeneration_takes_one_dst_pass(self, monkeypatch):
        # one mass function per trial, and one Bel and Pl per subset of Θ:
        # the KU reference reuses the singletons' pair
        calls = {}
        for name in ("mass_function", "bel_m", "pl_m"):
            def counted(*args, _name=name, _func=getattr(dst, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _func(*args)
            monkeypatch.setattr(dst, name, counted)
        report = oracle.check_degeneration(100, oracle.GeneratorConfig(frame_size=3, seed=1))
        assert report.ok
        assert calls == {"mass_function": 100, "bel_m": 700, "pl_m": 700}

    def test_oracle_equivalence_green(self):
        report = oracle.check_oracle_equivalence(
            100, oracle.GeneratorConfig(frame_size=3, seed=11))
        assert report.ok

    def test_counterexamples_serialize(self):
        # a failure is kept as values, and serialize_document writes it
        report = oracle.CheckReport(trials=1)
        f, d = make("ab", [("a", 0.6)])
        report.check(lambda d, context: 1.0, 1e-9, d, {"trial": 0})
        assert not report.ok
        assert report.failures == [(d, {"trial": 0})]
        doc = json.loads(dn.serialize_document(*report.failures[0]))
        assert doc["frame"] == ["a", "b"] and doc["check"] == {"trial": 0}

    def test_record_builds_documents_only_for_failures(self, monkeypatch):
        # no document is built for a failure either: oracle keeps the values
        # and holds no name from dnumbers.document
        assert not [name for name, value in vars(oracle).items()
                    if value is document
                    or getattr(value, "__module__", None) == document.__name__]
        built = []
        for name in ("document_dict", "serialize_document"):
            monkeypatch.setattr(document, name, lambda *args: built.append(args))
        f, d = make("ab", [("a", 0.6)])
        pair = oracle._mix_with_vacuous(d, 0.5)
        report = oracle.CheckReport(trials=2)
        report.check(lambda d, context: 1e-10, 1e-9, d, {"trial": 0, "pair": pair})
        assert report.ok and report.max_violation == 1e-10
        report.check(lambda d, context: 1.0, 1e-9, d, {"trial": 1, "pair": pair})
        assert not report.ok and report.max_violation == 1.0
        [(failed, context)] = report.failures
        assert failed is d and context == {"trial": 1, "pair": pair}
        assert context["pair"] is pair and built == []

    def test_degeneration_forces_classical_bpas(self):
        config = oracle.GeneratorConfig(frame_size=3, focal_count=3, seed=2)
        report = oracle.check_degeneration(50, config)
        assert report.ok and report.trials == 50
        assert report.max_violation <= 1e-12
