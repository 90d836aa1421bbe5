"""End-to-end acceptance suite. One printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random

import pytest

import dnumbers as dn
from dnumbers import cli, oracle
from dnumbers.core import Frame
from dnumbers.oracle import GeneratorConfig


def verdict(name, passed):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, name


def test_criterion_1_range():
    ok = True
    for n in (2, 3, 4):
        report = oracle.check_range(
            1000, GeneratorConfig(frame_size=n, focal_count=3,
                                  completeness="random",
                                  exclusivity="random-degrees", seed=100 + n))
        ok = ok and report.ok and report.trials == 1000
        ok = ok and report.max_violation <= dn.MASS_TOL
    verdict("1 range", ok)


def test_criterion_2_monotonicity():
    report = oracle.check_monotonicity(
        1000, GeneratorConfig(frame_size=3, focal_count=3, seed=202))
    verdict("2 monotonicity",
            report.ok and report.trials == 1000 and report.max_violation <= dn.MASS_TOL)


def test_criterion_3_set_consistency():
    ok = True
    deviation_reported = False
    for n in (2, 3, 4, 5):
        for k in range(10):
            rng = random.Random(f"consistency:{n}:{k}")
            labels = "abcdef"[:n]
            names = list(labels) + ["X"]
            degrees = [((names[i], names[j]), rng.random())
                       for i in range(len(names))
                       for j in range(i + 1, len(names))]
            report = oracle.check_set_consistency(dn.build_frame(labels, 2, degrees))
            ok = ok and report.ok and (
                report.max_violation <= oracle.set_consistency_bound(n))
            deviation_reported = deviation_reported or any(
                "|A| = 1 deviation" in note for note in report.notes)
    verdict("3 set-consistency", ok and deviation_reported)


def test_criterion_4_degeneration():
    report = oracle.check_degeneration(
        1000, GeneratorConfig(frame_size=4, focal_count=5,
                              completeness="complete",
                              exclusivity="exclusive", seed=404))
    verdict("4 degeneration",
            report.ok and report.trials == 1000 and report.max_violation == 0.0)


def test_criterion_5_oracle_equivalence():
    ok = True
    for n, trials in ((2, 67), (3, 67), (4, 66)):
        report = oracle.check_oracle_equivalence(
            trials, GeneratorConfig(frame_size=n, focal_count=3,
                                    completeness="random",
                                    exclusivity="random-degrees", seed=500 + n))
        ok = ok and report.ok and report.max_violation == 0.0
    verdict("5 oracle equivalence", ok)


def test_criterion_6_spot_values():
    f = dn.build_frame("ab", 2, [])
    vacuous = dn.build_dnumber(f, [(f.theta_mask, 1.0)])
    ok = abs(dn.ku(vacuous) - 2.0) <= 1e-12

    uniform = dn.build_dnumber(f, [(f.subset("a"), 0.5), (f.subset("b"), 0.5)])
    ok = ok and abs(dn.ku(uniform) - 2 * (1 - math.sqrt(0.5))) <= 1e-9

    g = dn.build_frame("ab", 2, [(("a", "b"), 0.3)])
    certain = dn.build_dnumber(g, [(g.subset("a"), 1.0)])
    ok = ok and abs(dn.ku(certain) - 0.3) <= 1e-9

    incomplete = dn.complete(dn.build_dnumber(f, [(f.subset("a"), 0.6)]))
    ok = ok and abs(dn.uu_coefficient(incomplete) - 0.4) <= 1e-12
    verdict("6 spot values", ok)


def test_criterion_7_cli_contract(capsys, monkeypatch, tmp_path):
    ok = True
    # round-trip over generated documents
    for k in range(200):
        cfg = GeneratorConfig(frame_size=2 + k % 3, focal_count=1 + k % 3,
                              seed=700 + k)
        d = oracle.generate_raw(cfg)
        text = dn.serialize_document(d)
        frame2, d2 = dn.parse_document(text)
        ok = ok and frame2 == d.frame and d2 == d
        ok = ok and dn.serialize_document(d2) == text

    # standard green run
    code = cli.main(["check", "all", "--trials", "300", "--seed", "7",
                     "--frame-size", "3"])
    ok = ok and code == 0

    # mutation sensitivity: drop the non-exclusivity factor from Pl
    with monkeypatch.context() as patch:
        patch.setattr(Frame, "nonexclusivity", lambda self, a, b: 1.0)
        mutated_oracle = cli.main(["check", "oracle", "--trials", "50",
                                   "--seed", "7"])
        mutated_degeneration = cli.main(["check", "degeneration",
                                         "--trials", "50", "--seed", "7",
                                         "--frame-size", "4"])
    ok = ok and mutated_oracle == 2 and mutated_degeneration == 2

    capsys.readouterr()  # swallow suite output before printing the verdict
    verdict("7 cli contract", ok)
