import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dnumbers as dn
from dnumbers import cli, core, oracle
from dnumbers.core import DNumber, Frame
from dnumbers.oracle import iter_indices


@pytest.fixture
def doc_path(tmp_path):
    def write(doc, name="d.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return write


VACUOUS = {"frame": ["a", "b"], "masses": [{"set": ["a", "b"], "mass": 1}]}
INCOMPLETE = {"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": 0.6}]}
# X degrees, a cardinality, and masses that sum to 0.75
GOLDEN = {"frame": ["a", "b"],
          "unknown": {"cardinality": 4, "non_exclusivity": {"a": 0.25}},
          "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.5}],
          "masses": [{"set": ["a"], "mass": 0.5}, {"set": ["b", "X"], "mass": 0.25}]}
GOLDEN_OUTPUT = {
    "table": """\
element        bel         pl       term
a        0.5000000  0.6875000  0.4103762
b        0.0000000  0.5000000  0.5000000

subset intervals:
  {a}: [0.5000000, 0.6875000]
  {b}: [0.0000000, 0.5000000]
  {a|b}: [0.5000000, 0.8125000]
  {X}: [0.2500000, 0.6250000]
  {a|X}: [0.7500000, 1.0000000]
  {b|X}: [0.5000000, 0.7500000]
  {a|b|X}: [1.0000000, 1.0000000]

auto-completed: mass 0.2500000 assigned to {X}
KU = 0.9103762
UU coefficient = 0.6250000
UU (log2) = 1.2500000
TU = (0.9103762, 0.6250000)
""",
    "csv": """\
element,bel,pl,term
a,0.5,0.6875,0.4103761792464623
b,0.0,0.5,0.5
a,0.5,0.6875,
b,0.0,0.5,
a|b,0.5,0.8125,
X,0.25,0.625,
a|X,0.75,1.0,
b|X,0.5,0.75,
a|b|X,1.0,1.0,
""",
    "json-lines": """\
{"element": "a", "bel": 0.5, "pl": 0.6875, "term": 0.4103761792464623}
{"element": "b", "bel": 0.0, "pl": 0.5, "term": 0.5}
{"set": "a", "bel": 0.5, "pl": 0.6875}
{"set": "b", "bel": 0.0, "pl": 0.5}
{"set": "a|b", "bel": 0.5, "pl": 0.8125}
{"set": "X", "bel": 0.25, "pl": 0.625}
{"set": "a|X", "bel": 0.75, "pl": 1.0}
{"set": "b|X", "bel": 0.5, "pl": 0.75}
{"set": "a|b|X", "bel": 1.0, "pl": 1.0}
{"ku": 0.9103761792464623, "uu_coefficient": 0.625, "uu_evaluated": 1.25, \
"completion_mass": 0.25}
""",
}

# ``check all --trials 100 --seed 1``, the same on every supported Python
CHECK_GOLDEN = {
    3: """\
PASS range: trials=100 failures=0 max_violation=0.000e+00
PASS monotonicity: trials=100 failures=0 max_violation=2.220e-16
PASS set-consistency: trials=4 failures=0 max_violation=0.000e+00
  note: |A| = 1 deviation: A = {a}: observed KU = 0.9817980 (degree sum), \
set-consistency formula would give 1.9817980
  note: |A| = 1 deviation: A = {b}: observed KU = 0.3894333 (degree sum), \
set-consistency formula would give 1.3894333
  note: |A| = 1 deviation: A = {c}: observed KU = 1.1025028 (degree sum), \
set-consistency formula would give 2.1025028
PASS degeneration: trials=100 failures=0 max_violation=0.000e+00
PASS oracle: trials=100 failures=0 max_violation=0.000e+00
""",
    6: """\
PASS range: trials=100 failures=0 max_violation=0.000e+00
PASS monotonicity: trials=100 failures=0 max_violation=2.220e-16
PASS set-consistency: trials=57 failures=0 max_violation=0.000e+00
  note: |A| = 1 deviation: A = {a}: observed KU = 2.4960767 (degree sum), \
set-consistency formula would give 3.4960767
  note: |A| = 1 deviation: A = {b}: observed KU = 1.6968876 (degree sum), \
set-consistency formula would give 2.6968876
  note: |A| = 1 deviation: A = {c}: observed KU = 2.6961799 (degree sum), \
set-consistency formula would give 3.6961799
  note: |A| = 1 deviation: A = {d}: observed KU = 2.9355673 (degree sum), \
set-consistency formula would give 3.9355673
  note: |A| = 1 deviation: A = {e}: observed KU = 2.7341762 (degree sum), \
set-consistency formula would give 3.7341762
  note: |A| = 1 deviation: A = {f}: observed KU = 1.6560783 (degree sum), \
set-consistency formula would give 2.6560783
PASS degeneration: trials=100 failures=0 max_violation=0.000e+00
PASS oracle: trials=100 failures=0 max_violation=0.000e+00
""",
}


# the one file that ``check monotonicity --trials 1 --seed 7 --frame-size 1
# --counterexample-dir D`` writes when Pl({X}) = 0, D/monotonicity-0000.json
COUNTEREXAMPLE_GOLDEN = """\
{
  "frame": [
    "a"
  ],
  "unknown": {
    "cardinality": 2,
    "non_exclusivity": {
      "a": 0.7014016190307873
    }
  },
  "masses": [
    {
      "set": [
        "a"
      ],
      "mass": 0.36347453676683816
    },
    {
      "set": [
        "X"
      ],
      "mass": 0.6365254632331618
    }
  ],
  "check": {
    "trial": 0,
    "pair": {
      "frame": [
        "a"
      ],
      "unknown": {
        "cardinality": 2,
        "non_exclusivity": {
          "a": 0.7014016190307873
        }
      },
      "masses": [
        {
          "set": [
            "a"
          ],
          "mass": 0.09848878211503047
        },
        {
          "set": [
            "X"
          ],
          "mass": 0.1724759544827607
        },
        {
          "set": [
            "a",
            "X"
          ],
          "mass": 0.7290352634022088
        }
      ]
    },
    "error": "malformed belief interval [0.6365254632331618, 0.0]"
  }
}
"""


class TestValidate:
    def test_valid(self, doc_path, capsys):
        assert cli.main(["validate", doc_path(VACUOUS)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_empty_set_mass(self, doc_path, capsys):
        path = doc_path({"frame": ["a"],
                         "masses": [{"set": [], "mass": 0.2},
                                    {"set": ["a"], "mass": 0.9}]})
        assert cli.main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "D(∅) must be 0" in err

    def test_all_violations_listed(self, doc_path, capsys):
        path = doc_path({"frame": ["a"],
                         "masses": [{"set": [], "mass": 0.2},
                                    {"set": ["z"], "mass": 0.1}]})
        assert cli.main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "D(∅)" in err and "unknown label" in err

    def test_total_above_one(self, doc_path):
        assert cli.main(["validate", doc_path(
            {"frame": ["a", "b"],
             "masses": [{"set": ["a"], "mass": 0.55},
                        {"set": ["b"], "mass": 0.5}]})]) == 1

    def test_conflicting_degree_and_bad_mass_reported_together(self, doc_path, capsys):
        path = doc_path({"frame": ["a", "b"],
                         "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.2},
                                             {"pair": ["b", "a"], "degree": 0.5}],
                         "masses": [{"set": ["a"], "mass": 1.5}]})
        assert cli.main(["validate", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "non_exclusivity[1]: conflicting degrees for pair ('b', 'a')",
            "masses[0]: mass must be a nonnegative number no greater than 1, got 1.5"]

    def test_self_pair_rejected(self, doc_path, capsys):
        path = doc_path({"frame": ["a", "b"],
                         "non_exclusivity": [{"pair": ["a", "a"], "degree": 0.3}],
                         "masses": [{"set": ["a"], "mass": 1}]})
        assert cli.main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "non_exclusivity[0]: pair names 'a' twice\n"

    def test_missing_file(self, tmp_path, capsys):
        # an I/O error: exit 3, nothing on stdout and the reason on stderr
        for command in ("validate", "measure"):
            code, out, err = _exit_outcome([command, str(tmp_path / "nope.json")], capsys)
            assert (code, out) == (3, "")
            assert err.splitlines()[0].startswith("error: ")

    def test_repeated_or_stray_key_exits_1_at_its_location(self, tmp_path, capsys):
        # json.loads alone keeps the last value of a repeated key
        path = tmp_path / "d.json"
        for text, errors in [
                ('{"frame": ["a"], "frame": ["b"], "masses": [{"set": ["b"], "mass": 1}]}',
                 ['"frame": repeated key']),
                ('{"frame": ["a"], "unknown": {"cardinality": 2, "cardinality": 3}, '
                 '"masses": [{"set": ["a"], "mass": 1}]}',
                 ["unknown['cardinality']: repeated key"]),
                ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 0.2, "mass": 0.9}, '
                 '{"set": ["z"], "mass": 0.1}]}',
                 ["masses[1]: unknown label 'z'", "masses[0]['mass']: repeated key"]),
                ('{"frame": ["a"], "unknown": {"non_exclusivity": {"a": 0.2, "a": 0.9}}, '
                 '"masses": [{"set": ["a"], "mass": 1}]}',
                 ["unknown.non_exclusivity['a']: repeated key"]),
                # a key beyond the entry's two fields
                ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 1, "mas": 0.5}]}',
                 ["masses[0]['mas']: unknown key; expected \"set\" and \"mass\""])]:
            path.write_text(text, encoding="utf-8")
            for command in ("validate", "measure"):
                assert _exit_outcome([command, str(path)], capsys) == (
                    1, "", "".join(f"{error}\n" for error in errors)), text
        # a ":" in a label and a "check" key each make the ":" count differ
        # from the keys read, so these are decoded twice and keep their
        # values; nothing under "check" is read, so a key repeated there is
        # no error
        frame = dn.build_frame(["a:b", "c"], 2, [(("a:b", "X"), 0.5)])
        d = dn.build_dnumber(frame, [(frame.subset(["a:b"]), 0.75)])
        assert dn.parse_document(dn.serialize_document(d)) == (frame, d)
        doc = json.loads(COUNTEREXAMPLE_GOLDEN)
        doc.pop("check")
        for text in (COUNTEREXAMPLE_GOLDEN,
                     COUNTEREXAMPLE_GOLDEN.replace('"trial": 0,', '"trial": 0, "trial": 1,')):
            assert dn.parse_document(text) == dn.parse_document(json.dumps(doc))


class TestMeasure:
    def test_vacuous_table(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(VACUOUS)]) == 0
        out = capsys.readouterr().out
        assert "KU = 2.0000000" in out
        assert "UU coefficient = 0.0000000" in out
        assert "TU = (2.0000000, 0.0000000)" in out

    def test_auto_completion_reported(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(INCOMPLETE),
                         "--unknown-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "auto-completed: mass 0.4000000" in out
        assert "KU = 0.2788897" in out
        assert "UU coefficient = 0.4000000" in out
        assert "UU (unit) = 0.4000000" in out

    def test_csv(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(VACUOUS), "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "element,bel,pl,term"
        assert lines[1].startswith("a,0.0,1.0,")
        assert len(lines) == 3

    def test_json_lines(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(INCOMPLETE),
                         "--output", "json-lines"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["element"] == "a"
        assert rows[-1]["completion_mass"] == pytest.approx(0.4)
        assert rows[-1]["uu_coefficient"] == pytest.approx(0.4)

    def test_all_subsets(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(VACUOUS), "--subsets", "all"]) == 0
        out = capsys.readouterr().out
        assert "{a|b}" in out and "{a|b|X}" in out

    def test_invalid_document(self, doc_path, capsys):
        assert cli.main(["measure", doc_path({"frame": ["a"], "masses": []})]) == 1

    def test_nan_mass_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"frame": ["a", "b"], "masses": '
                        '[{"set": ["a"], "mass": NaN}, {"set": ["b"], "mass": 0.5}]}',
                        encoding="utf-8")
        assert cli.main(["measure", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "masses[0]" in captured.err

    def test_lone_surrogate_label_is_a_validation_error(self, doc_path, capsys):
        path = doc_path({"frame": ["\ud800"],
                         "masses": [{"set": ["\ud800"], "mass": 1}]})
        for command in ("validate", "measure"):
            assert cli.main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "frame[0]" in captured.err

    def test_cardinality_beyond_float_is_a_validation_error(self, doc_path, capsys):
        path = doc_path({"frame": ["a"], "unknown": {"cardinality": 10 ** 400},
                         "masses": [{"set": ["a"], "mass": 1}]})
        assert cli.main(["measure", path, "--unknown-model", "cardinality"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown.cardinality" in captured.err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_golden_output(self, doc_path, capsys, fmt):
        assert cli.main(["measure", doc_path(GOLDEN), "--unknown-model", "log2",
                         "--subsets", "all", "--output", fmt]) == 0
        assert capsys.readouterr().out == GOLDEN_OUTPUT[fmt]

    @pytest.mark.parametrize("subsets", ["singletons", "all"])
    def test_csv_quotes_labels(self, doc_path, capsys, subsets):
        labels = ["a,b", 'c"d', "e"]
        doc = {"frame": labels, "masses": [{"set": ["a,b"], "mass": 0.5}]}
        assert cli.main(["measure", doc_path(doc), "--output", "csv",
                         "--subsets", subsets]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(len(row) == 4 for row in rows)
        names = labels
        if subsets == "all":
            frame, _ = dn.parse_document(json.dumps(doc))
            names = labels + ["|".join(frame.labels_of(a))
                              for a in range(1, frame.full_mask + 1)]
        assert [row[0] for row in rows[1:]] == names

    def test_misspelled_root_key_is_a_validation_error(self, doc_path, capsys):
        # read as written, the degrees would be dropped and Pl({a}) be 0
        path = doc_path({"frame": ["a", "b"],
                         "non_exclusivty": [{"pair": ["a", "b"], "degree": 0.9}],
                         "masses": [{"set": ["b"], "mass": 1.0}]})
        for command in ("validate", "measure"):
            assert cli.main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith('"non_exclusivty": unknown key;')

    def test_label_and_mass_violations_reported_together(self, doc_path, capsys):
        path = doc_path({"frame": ["a", ""],
                         "masses": [{"set": ["z"], "mass": 0.5}]})
        assert cli.main(["measure", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frame[1]" in captured.err and "masses[0]" in captured.err

    def test_wide_document_agrees_with_library(self, tmp_path, capsys):
        # dense and complete; then incomplete, sparse, and a share of the
        # focal sets holding X
        for density, x_share, total in ((1.0, 0.0, 1.0), (0.05, 0.3, 0.6)):
            d = wide_dnumber(11, 64, 128, density, x_share, total)
            assert d.completed == (total == 1.0)
            assert any(m & d.frame.x_mask for m in d.masses) == (x_share > 0.0)
            path = tmp_path / f"wide-{density}.json"
            path.write_text(dn.serialize_document(d), encoding="utf-8")
            full = dn.complete(d)
            rows = []
            for i in range(64):
                interval = dn.belief_interval(full, 1 << i)
                rows.append((f"e{i}", interval.lower, interval.upper,
                             1.0 - dn.interval_distance_to_unit(interval)))
            assert dn.ku(full) == math.fsum(row[3] for row in rows)
            assert_measured(str(path), capsys, rows, dn.ku(full), dn.uu_coefficient(full),
                            0.0 if d.completed else 1.0 - d.total_mass)

    def test_singleton_heavy_sparse_document(self, tmp_path, capsys):
        # N=1000, 2% of the pairs (X pairs too), incomplete: one 500-element
        # focal set and 200 one-member sets, read off their members' rows
        n, rng = 1000, random.Random(1000)
        frame = Frame(tuple(f"e{i}" for i in range(n)), None, {
            (i, j): rng.random() or 1.0
            for i in range(n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.02})
        focal = [sum(1 << i for i in rng.sample(range(n), 500)),
                 *(1 << i for i in rng.sample(range(n), 200))]
        weights = [rng.random() + 1e-3 for _ in focal]
        d = DNumber(frame, {m: w * 0.7 / sum(weights) for m, w in zip(focal, weights)})
        full = dn.complete(d)  # adds the one-member set {X}
        assert full.singleton_pl == tuple(
            math.fsum(frame.nonexclusivity(m, 1 << i) * v for m, v in full.masses.items())
            for i in range(n + 1))
        path = tmp_path / "sparse.json"
        path.write_text(dn.serialize_document(d), encoding="utf-8")
        rows = []
        for i in range(n):
            interval = dn.BeliefInterval(dn.bel(full, 1 << i), full.singleton_pl[i])
            rows.append((f"e{i}", interval.lower, interval.upper,
                         1.0 - dn.interval_distance_to_unit(interval)))
        assert_measured(str(path), capsys, rows, dn.ku(full), full.singleton_pl[n],
                        1.0 - d.total_mass)


def assert_measured(path, capsys, rows, ku, uu, injected):
    """``validate`` accepts ``path``, and ``measure`` prints each row (element,
    bel, pl, term), KU, the UU coefficient and the completion mass in every
    output: exactly in json-lines and csv, which prints the rows alone, and to
    seven decimals in the table."""
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok\n"
    out = {}
    for fmt in ("json-lines", "csv", "table"):
        assert cli.main(["measure", path, "--output", fmt]) == 0
        out[fmt] = capsys.readouterr().out.splitlines()
    *elements, summary = map(json.loads, out["json-lines"])
    assert elements == [{"element": e, "bel": lo, "pl": hi, "term": term}
                        for e, lo, hi, term in rows]
    assert summary == {"ku": ku, "uu_coefficient": uu, "uu_evaluated": None,
                       "completion_mass": injected}
    header, *lines = csv.reader(out["csv"])
    assert header == ["element", "bel", "pl", "term"]
    assert [(e, *map(float, values)) for e, *values in lines] == rows
    table = out["table"]
    assert [line.split() for line in table[:len(rows) + 1]] == [
        ["element", "bel", "pl", "term"],
        *([e, *(f"{v:.7f}" for v in values)] for e, *values in rows)]
    assert table[len(rows) + 1:] == [
        "", *([f"auto-completed: mass {injected:.7f} assigned to {{X}}"] if injected else []),
        f"KU = {ku:.7f}", f"UU coefficient = {uu:.7f}", f"TU = ({ku:.7f}, {uu:.7f})"]


def x_pl_zero_mutant():
    """The singleton Pl pass with Pl({X}) = 0, as a ``DNumber.singleton_pl``."""
    singleton_pl = DNumber.singleton_pl.func
    return property(lambda d: singleton_pl(d)[:-1] + (0.0,))


def kernel_mutant(keep, x_degrees):
    """The singleton Pl pass, merging its members' degrees with ``keep`` and,
    without ``x_degrees``, adding no degree term to X's column."""
    def singleton_pl(d):
        adjacency, x = d.frame.adjacency, d.frame.size
        terms = [[] for _ in adjacency]
        for b, w in d.masses.items():
            reach = {}
            for j in iter_indices(b):
                for i, p in adjacency[j].items():
                    if x_degrees or i != x:
                        reach[i] = keep(p, reach.get(i, p))
            reach.update(dict.fromkeys(iter_indices(b), 1.0))
            for i, p in reach.items():
                terms[i].append(p * w)
        return tuple(map(math.fsum, terms))
    return singleton_pl


def distance_mutant(floor=0.0, one=1.0):
    """``measures.interval_distance_to_unit`` with its lower clamp at ``floor``
    and ``hi - one`` in place of ``hi - 1.0``."""
    def distance(interval):
        lo = min(max(interval.lower, floor), 1.0)
        hi = min(max(interval.upper, 0.0), 1.0)
        return math.sqrt(lo * lo + (hi - one) * (hi - one))
    return distance


def ku_term_mutant(one=1.0):
    """``measures.singleton_terms`` with the KU term ``one - distance``."""
    def singleton_terms(d):
        intervals = [dn.belief_interval(d, 1 << i) for i in range(d.frame.size)]
        return [(iv, one - dn.measures.interval_distance_to_unit(iv))
                for iv in intervals]
    return singleton_terms


def wide_dnumber(seed, n, focal_count, density, x_share=0.0, total=1.0):
    """A fixed wide D number: each pair, X pairs too, stored with probability
    ``density`` at a random degree (1 in 10 exactly 1); focal widths 1..n/4,
    a share ``x_share`` of the focal sets holding X; masses totalling ``total``."""
    rng = random.Random(seed)
    frame = Frame(tuple(f"e{i}" for i in range(n)), None, {
        (i, j): 1.0 if rng.random() < 0.1 else rng.random() or 1.0
        for i in range(n + 1) for j in range(i + 1, n + 1) if rng.random() < density})
    focal = set()
    while len(focal) < focal_count:
        mask = sum(1 << i for i in rng.sample(range(n), rng.randint(1, max(1, n // 4))))
        focal.add(mask | (frame.x_mask if rng.random() < x_share else 0))
    weights = [rng.random() + 1e-3 for _ in focal]
    scale = total / sum(weights)
    return DNumber(frame, {m: w * scale for m, w in zip(sorted(focal), weights)})


class TestKernel:
    @pytest.mark.parametrize("n, focal_count, density, x_share, total", [
        (64, 128, 1.0, 0.0, 1.0),  # dense
        (64, 128, 0.05, 0.0, 1.0),  # sparse
        (256, 48, 1.0, 0.0, 1.0),
        (64, 128, 1.0, 0.3, 1.0),  # focal sets holding X
        (64, 128, 0.3, 0.3, 0.6),  # incomplete, then completed
        (6, 12, 0.5, 0.2, 0.8),
        # sparse rows: many walked indices have neighbours, none in a wider set
        (256, 4, 0.01, 0.0, 1.0),
        # only one-member focal sets, before and after completion adds {X}:
        # no index is walked
        (4, 4, 1.0, 0.0, 0.5),
    ])
    def test_sweep_bit_identical_to_per_set_pass(self, n, focal_count, density,
                                                 x_share, total):
        d = wide_dnumber(n * focal_count, n, focal_count, density, x_share, total)
        for d in (d, dn.complete(d)):
            assert d.singleton_pl == kernel_mutant(max, True)(d)

    def test_int_mass(self):
        f = dn.build_frame("ab", 2, [(("a", "b"), 0.5), (("b", "X"), 1)])
        d = DNumber(f, {1: 1})
        assert d.singleton_pl == kernel_mutant(max, True)(d) == (1.0, 0.5, 0.0)
        assert all(type(p) is float for p in d.singleton_pl)

    @pytest.mark.parametrize("order, code", [
        (lambda items: items, 0),  # the patch itself
        (reversed, 2),
    ])
    def test_walking_rows_weakest_first_fails_oracle(self, order, code, capsys,
                                                     monkeypatch):
        # the kernel stops at the first neighbour reaching a focal set, so
        # rows listed weakest-first give it the smallest degree instead
        rows = Frame.adjacency.func
        monkeypatch.setattr(Frame, "adjacency", property(lambda self: tuple(
            dict(order(list(row.items()))) for row in rows(self))))
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == code
        assert ("FAIL oracle" if code else "PASS oracle") in capsys.readouterr().out


class TestCheck:
    def test_all_green(self, capsys):
        assert cli.main(["check", "all", "--trials", "100", "--seed", "7",
                         "--frame-size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "|A| = 1 deviation" in out

    @pytest.mark.parametrize("size", sorted(CHECK_GOLDEN))
    def test_golden_output(self, size, capsys, tmp_path):
        # a green run writes no counterexample, so the directory is never made
        assert cli.main(["check", "all", "--trials", "100", "--seed", "1",
                         "--frame-size", str(size),
                         "--counterexample-dir", str(tmp_path / "cx")]) == 0
        assert capsys.readouterr().out == CHECK_GOLDEN[size]
        assert not (tmp_path / "cx").exists()

    def test_set_consistency_reports_deviation(self, capsys):
        assert cli.main(["check", "set-consistency", "--seed", "1"]) == 0
        assert "|A| = 1 deviation" in capsys.readouterr().out

    def test_mutated_pl_fails(self, capsys, monkeypatch, tmp_path):
        # drop the non-exclusivity factor from Pl: every focal set counts fully;
        # the first directory's parent is made too, the second exists by then
        monkeypatch.setattr(Frame, "nonexclusivity",
                            lambda self, a, b: 1.0)
        for out in (tmp_path / "cx" / "deeper", tmp_path / "cx"):
            code = cli.main(["check", "oracle", "--trials", "20", "--seed", "7",
                             "--counterexample-dir", str(out)])
            assert code == 2
            assert "FAIL oracle" in capsys.readouterr().out
            written = list(out.glob("oracle-*.json"))
            assert written
            json.loads(written[0].read_text(encoding="utf-8"))

    @pytest.mark.parametrize("counted, code", [
        (lambda m, a: m & a, 0),  # the rule itself: a focal set meeting A adds D(B)
        (lambda m, a: m & ~a, 2),  # a focal set disjoint from A adds D(B) in full
    ], ids=["rule", "disjoint-in-full"])
    def test_mutated_general_pl_fails_oracle(self, counted, code, capsys, monkeypatch):
        pl = core.pl

        def mutant(d, a):
            if a & (a - 1) == 0:
                return pl(d, a)
            nonexclusivity = d.frame.nonexclusivity
            return math.fsum([v if counted(m, a) else nonexclusivity(m, a) * v
                              for m, v in d.masses.items()])
        monkeypatch.setattr(core, "pl", mutant)
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == code
        assert ("FAIL oracle" if code else "PASS oracle") in capsys.readouterr().out

    def test_mutated_adjacency_fails_oracle(self, capsys, monkeypatch):
        # drop every pair with X from the adjacency but not from ``degrees``,
        # which the oracle reads through ``literal_nonexclusivity``
        rows = Frame.adjacency.func

        def without_x(self):
            x = self.size
            return tuple({} if i == x else {j: p for j, p in row.items() if j != x}
                         for i, row in enumerate(rows(self)))
        monkeypatch.setattr(Frame, "adjacency", property(without_x))
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == 2
        assert "FAIL oracle" in capsys.readouterr().out

    def test_mutated_nonexclusivity_fails_set_consistency(self, capsys, monkeypatch):
        monkeypatch.setattr(Frame, "nonexclusivity", lambda self, a, b: 1.0)
        # the same fault on the singleton route: every focal set reaches
        # every element, so each Pl({i}) is the total mass
        monkeypatch.setattr(DNumber, "singleton_pl", property(
            lambda d: (d.total_mass,) * (d.frame.size + 1)))
        assert cli.main(["check", "set-consistency", "--seed", "1"]) == 2
        assert "FAIL set-consistency" in capsys.readouterr().out

    @pytest.mark.parametrize("keep, x_degrees, code", [
        (max, True, 0),  # the kernel itself, so each fault below is the only one
        (min, True, 2),
        (max, False, 2),
    ])
    def test_mutated_kernel_fails_oracle(self, keep, x_degrees, code, capsys,
                                         monkeypatch):
        monkeypatch.setattr(DNumber, "singleton_pl",
                            property(kernel_mutant(keep, x_degrees)))
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == code
        assert ("FAIL oracle" if code else "PASS oracle") in capsys.readouterr().out

    @pytest.mark.parametrize("one_bit, code", [
        (lambda d, a: d.masses.get(a, 0.0), 0),  # the branch itself
        (lambda d, a: 0.0, 2),
        # off by only 1e-13, about 450 ulp at 1: the oracle suite checks for equality
        pytest.param(lambda d, a: d.masses.get(a, 1e-13), 2, id="off-by-1e-13"),
    ])
    def test_mutated_one_bit_bel_fails_oracle(self, one_bit, code, capsys,
                                              monkeypatch):
        bel = core.bel
        monkeypatch.setattr(core, "bel", lambda d, a: one_bit(d, a)
                            if a & (a - 1) == 0 else bel(d, a))
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == code
        assert ("FAIL oracle" if code else "PASS oracle") in capsys.readouterr().out

    @pytest.mark.parametrize("frame_size", ["3", "6"])
    @pytest.mark.parametrize("name, mutant, code", [
        ("interval_distance_to_unit", distance_mutant(), 0),  # the function itself
        ("singleton_terms", ku_term_mutant(), 0),  # the function itself
        # each shifts a KU term by about 1e-13; degeneration checks for equality
        ("interval_distance_to_unit", distance_mutant(one=1.0000000000001), 2),
        ("interval_distance_to_unit", distance_mutant(floor=1e-13), 2),
        ("singleton_terms", ku_term_mutant(one=1.0000000000001), 2),
    ], ids=["distance", "terms", "hi-minus-one", "lower-clamp", "one-minus-distance"])
    def test_mutated_ku_arithmetic_fails_degeneration(self, name, mutant, code, frame_size,
                                                      capsys, monkeypatch):
        monkeypatch.setattr(dn.measures, name, mutant)
        assert cli.main(["check", "degeneration", "--trials", "150", "--seed", "1",
                         "--frame-size", frame_size]) == code
        out = capsys.readouterr().out
        assert ("FAIL degeneration" if code else "PASS degeneration") in out

    def test_counterexamples_fail_their_violation_again(self, capsys, monkeypatch,
                                                        tmp_path):
        monkeypatch.setattr(DNumber, "singleton_pl", property(kernel_mutant(min, True)))
        assert cli.main(["check", "all", "--trials", "20", "--seed", "7",
                         "--counterexample-dir", str(tmp_path)]) == 2
        # each suite's tolerance, from where the suite reads it, for d
        suites = {"range": (oracle.range_violation, lambda d: core.MASS_TOL),
                  "monotonicity": (oracle.monotonicity_violation,
                                   lambda d: core.MASS_TOL),
                  "set-consistency": (
                      oracle.set_consistency_violation,
                      lambda d: oracle.set_consistency_bound(d.frame.size)),
                  "degeneration": (oracle.degeneration_violation, lambda d: 0.0),
                  "oracle": (oracle.oracle_violation, lambda d: 0.0)}
        paths = sorted(tmp_path.glob("*.json"))
        assert paths
        for path in paths:
            _, d = dn.parse_document(path.read_bytes())
            context = json.loads(path.read_text(encoding="utf-8"))["check"]
            if "pair" in context:
                _, context["pair"] = dn.parse_document(json.dumps(context["pair"]))
            violation, tol = suites[path.name.rsplit("-", 1)[0]]
            assert violation(d, context) > tol(d), path.name

    def test_monotonicity_counterexamples_redraw_from_their_trial(
            self, capsys, monkeypatch, tmp_path):
        # KU reversed: the blend, which holds every interval, now has less
        ku = dn.measures.ku
        monkeypatch.setattr(dn.measures, "ku", lambda d: -ku(d))
        assert cli.main(["check", "monotonicity", "--trials", "20", "--seed", "7",
                         "--counterexample-dir", str(tmp_path)]) == 2
        config = oracle.GeneratorConfig(frame_size=3, seed=7)
        paths = sorted(tmp_path.glob("monotonicity-*.json"))
        trials = [json.loads(path.read_text(encoding="utf-8"))["check"]["trial"]
                  for path in paths]
        assert len(paths) > 10 and trials == sorted(set(trials))
        for path, t in zip(paths, trials):
            _, d = dn.parse_document(path.read_bytes())
            assert d == oracle.generate(config, oracle.trial_rng(7, t)), path.name

    def test_measure_raising_is_a_property_failure(self, capsys, monkeypatch,
                                                   tmp_path):
        # Pl({X}) = 0 puts Pl below Bel wherever X carries mass, so
        # BeliefInterval raises inside the suite
        monkeypatch.setattr(DNumber, "singleton_pl", x_pl_zero_mutant())
        code = cli.main(["check", "oracle", "--trials", "20", "--seed", "7",
                         "--counterexample-dir", str(tmp_path / "cx")])
        assert code == 2
        captured = capsys.readouterr()
        assert "FAIL oracle: trials=20 failures=20 max_violation=inf" in captured.out
        assert captured.err == ""
        docs = [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted((tmp_path / "cx").glob("oracle-*.json"))]
        assert len(docs) == 20
        raised = [doc for doc in docs if "error" in doc["check"]]
        assert raised
        for doc in raised:
            assert doc["check"]["error"].startswith("malformed belief interval")
            dn.parse_document(json.dumps(doc))

    def test_counterexample_file_bytes(self, capsys, monkeypatch, tmp_path):
        # the text and key order of a written file: trial, pair, then error
        monkeypatch.setattr(DNumber, "singleton_pl", x_pl_zero_mutant())
        assert cli.main(["check", "monotonicity", "--trials", "1", "--seed", "7",
                         "--frame-size", "1", "--counterexample-dir", str(tmp_path)]) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["monotonicity-0000.json"]
        text = (tmp_path / "monotonicity-0000.json").read_text(encoding="utf-8")
        assert text == COUNTEREXAMPLE_GOLDEN

    @pytest.mark.parametrize("suite", ["monotonicity", "all"])
    def test_mutated_bel_fails_monotonicity(self, suite, capsys, monkeypatch):
        # charge every proper subset the mass on the whole frame as well:
        # only the vacuous blends put mass there, and their intervals stop
        # nesting around the instance's
        bel = core.bel

        def charged(d, a):
            whole = d.frame.full_mask
            return bel(d, a) + (d.masses.get(whole, 0.0) if 0 < a < whole else 0.0)
        monkeypatch.setattr(core, "bel", charged)
        assert cli.main(["check", suite, "--trials", "50", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        assert "FAIL monotonicity: trials=50 failures=50" in out


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert cli.main(["gen", "--frame-size", "3", "--seed", "42",
                             "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_incomplete_masses_sum_below_one(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        assert cli.main(["gen", "--frame-size", "3", "--seed", "11",
                         "--completeness", "incomplete",
                         "--out", str(path)]) == 0
        _, d = dn.parse_document(path.read_text(encoding="utf-8"))
        assert d.total_mass < 1.0

    def test_stdout(self, capsys):
        assert cli.main(["gen", "--frame-size", "2", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame"] == ["a", "b"]

    def test_infeasible_focal_count(self, capsys):
        assert cli.main(["gen", "--frame-size", "2", "--focal-count", "9"]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_one_element_frame_default(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        assert cli.main(["gen", "--frame-size", "1", "--out", str(path)]) == 0
        assert cli.main(["validate", str(path)]) == 0
        # the default is the only nonempty subset, not three
        _, d = dn.parse_document(path.read_text(encoding="utf-8"))
        assert len(d.masses) == 1
        assert cli.main(["gen", "--frame-size", "1", "--focal-count", "3"]) == 3
        assert "focal count 3 infeasible" in capsys.readouterr().err

    def test_masses_same_on_every_python(self, capsys):
        # the mass scale is a correctly rounded sum: the builtin ``sum`` of
        # floats gave other last bits from CPython 3.12 on
        assert cli.main(["gen", "--frame-size", "3", "--seed", "4",
                         "--focal-count", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"] == [
            {"set": ["a"], "mass": 0.2172977385644366},
            {"set": ["b"], "mass": 0.03759716862168087},
            {"set": ["a", "b"], "mass": 0.18746717660976273},
            {"set": ["a", "c"], "mass": 0.0032183630208719076},
            {"set": ["a", "b", "c"], "mass": 0.3548673917262141},
        ]

    def test_generated_validates(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        # gen writes |X| = 2, so every model that reads |X| evaluates
        measures = [*(("coefficient", ["--subsets", "all", "--output", fmt])
                      for fmt in ("table", "csv", "json-lines")),
                    *((model, ["--unknown-model", model, "--output", "json-lines"])
                      for model in ("unit", "cardinality", "log2"))]
        # the default frame size, then every enumerable one at seed 1
        for gen in (["--seed", "5"],
                    *(["--frame-size", str(n), "--seed", "1"] for n in range(1, 7))):
            assert cli.main(["gen", *gen, "--out", path]) == 0
            assert _exit_outcome(["validate", path], capsys) == (0, "ok\n", "")
            d = dn.complete(dn.parse_document(Path(path).read_bytes())[1])
            for model, argv in measures:
                code, out, err = _exit_outcome(["measure", path, *argv], capsys)
                assert (code, err) == (0, ""), (gen, argv)
                if argv[-1] == "json-lines":
                    summary = json.loads(out.splitlines()[-1])
                    tu = dn.total_uncertainty(d, model)
                    assert (summary["ku"], summary["uu_coefficient"],
                            summary["uu_evaluated"]) == (
                        tu.ku, tu.uu_coefficient, tu.uu_evaluated), (gen, argv)


# imports the CLI, runs measure and validate on argv[1], checks that neither
# added a module they need not pay for at start-up (site may have loaded
# pathlib already), then that check and gen added neither dataclasses nor
# inspect, then reaches every export; prints which lazy modules each of the
# first three steps had loaded
LAZY_IMPORTS = """
import sys
before = set(sys.modules)
import dnumbers.cli
lazy = ("dnumbers.oracle", "dnumbers.dst", "string")
loaded = [[m for m in lazy if m in sys.modules]]
for command in ("measure", "validate"):
    assert dnumbers.cli.main([command, sys.argv[1]]) == 0
    loaded.append([m for m in lazy if m in sys.modules])
added = {"csv", "dataclasses", "inspect", "pathlib"} & (set(sys.modules) - before)
assert not added, sorted(added)
import os
for argv in (["check", "range", "--trials", "1"], ["gen", "--out", os.devnull]):
    assert dnumbers.cli.main(argv) == 0
    added = {"dataclasses", "inspect"} & (set(sys.modules) - before)
    assert not added, (argv[0], sorted(added))
import dnumbers
for name in dnumbers.__all__:
    getattr(dnumbers, name)
assert dnumbers.oracle.__name__ == "dnumbers.oracle"
assert dnumbers.dst.__name__ == "dnumbers.dst"
print(loaded)
"""


class TestImports:
    def test_measure_and_validate_leave_the_oracle_unloaded(self, doc_path):
        env = {**os.environ, "PYTHONPATH": str(Path(dn.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, doc_path(GOLDEN)],
                             capture_output=True, encoding="utf-8", env=env,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == str([[]] * 3)

    def test_lazy_exports_are_the_oracle_and_dst_modules(self):
        for name in ("CheckReport", "GeneratorConfig", "dst_ku_reference",
                     "generate", "oracle_bel_pl", "is_bpa"):
            with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                getattr(dn, name)
        from dnumbers import dst
        assert dn.dst is dst and dn.oracle is oracle

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            dn.nonexistent  # noqa: B018


class TestUsage:
    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("argv", [["check", "all", "--trials", "50"], ["gen"]])
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(dn.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([sys.executable, "-m", "dnumbers.cli", *argv],
                                 stdout=write_end, stderr=subprocess.PIPE,
                                 env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (141, b"")

    def test_unknown_flag_exits_3(self):
        assert cli.main(["measure", "--bogus"]) == 3

    def test_bad_suite_exits_3(self):
        assert cli.main(["check", "everything"]) == 3

    def test_main_returns_every_outcome(self, doc_path, tmp_path, capsys):
        # help, usage errors and I/O errors come back as codes, not SystemExit
        missing = str(tmp_path / "missing" / "d.json")
        argvs = [*([doc_path(VACUOUS) if arg == "{path}" else arg for arg in argv]
                   for argv in USAGE_ARGVS),
                 ["validate", missing], ["measure", missing], ["gen", "--out", missing],
                 # random.Random seeds with |seed|, so -1 would repeat seed 1
                 ["gen", "--seed", "-1"], ["check", "set-consistency", "--seed", "-1"]]
        assert [cli.main(argv) for argv in argvs] == [
            0 if "-h" in argv else 3 for argv in argvs]
        assert capsys.readouterr().err.count("error: seed must be nonnegative, got -1\n") == 2

    @pytest.mark.parametrize("size", ["0", "7"])
    def test_frame_size_out_of_range_exits_3(self, size, capsys):
        assert cli.main(["check", "all", "--frame-size", size]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frame size" in captured.err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exits_3(self, trials, capsys):
        assert cli.main(["check", "range", "--trials", trials]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--trials" in captured.err

    def test_model_needing_cardinality_exits_3(self, doc_path, capsys):
        assert cli.main(["measure", doc_path(VACUOUS),
                         "--unknown-model", "log2"]) == 3
        assert "cardinality" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_uu_beyond_float_range_exits_3(self, doc_path, capsys, fmt):
        # Pl({X}) passes 1 by less than MASS_TOL at the largest cardinality
        path = doc_path({"frame": ["a"], "unknown": {"cardinality": int(sys.float_info.max)},
                         "masses": [{"set": ["a", "X"], "mass": 1.0000000005}]})
        assert _exit_outcome(["measure", path, "--unknown-model", "cardinality",
                              "--output", fmt], capsys) == (
            3, "", "error: model 'cardinality' evaluates UU beyond float range\n")

    def test_all_subsets_beyond_cap_exits_3(self, doc_path, capsys):
        path = doc_path({"frame": list("abcdefg"),
                         "masses": [{"set": ["a"], "mass": 1}]})
        assert cli.main(["measure", path, "--subsets", "all"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--subsets all" in captured.err


#: argv shapes that end in help or a usage error; "{path}" stands for a document
USAGE_ARGVS = [[], ["-h"], ["bogus"], ["-x", "measure"],
               *([command, "-h"] for command in ("validate", "measure", "check", "gen")),
               ["measure", "{path}", "--bogus"], ["check", "everything"],
               ["measure", "{path}", "--output", "yaml"],
               # each handled by the command's own parser, or left over to the root
               ["validate", "{path}", "extra"], ["check", "range", "--trials"],
               ["gen", "--frame-size", "x"], ["measure", "{path}", "--out", "csv", "--bogus"],
               ["measure", "{path}", "--", "x"], ["measure"],
               ["check", "all", "--trials", "5", "range"],
               # "--" first: the root takes "--" for the command, an invalid choice
               ["--", "measure", "{path}"]]


def _exit_outcome(argv, capsys):
    """The exit code ``cli.main(argv)`` returns, and its stdout and stderr."""
    return (cli.main(argv), *capsys.readouterr())


class TestParser:
    @pytest.mark.parametrize("argv", USAGE_ARGVS,
                             ids=lambda argv: " ".join(argv) or "none")
    def test_help_and_usage_match_the_parser_with_every_command(
            self, argv, doc_path, capsys):
        argv = [doc_path(VACUOUS) if arg == "{path}" else arg for arg in argv]
        with pytest.raises(SystemExit) as err:  # argparse exits; main returns
            cli.build_parser().parse_args(argv)
        expected = (err.value.code, *capsys.readouterr())
        assert _exit_outcome(argv, capsys) == expected
        if argv == ["-h"]:  # each command is listed with its help text
            for command, help_text in [("validate", "validate a document"),
                                       ("measure", "compute belief intervals and uncertainty"),
                                       ("check", "run property suites"),
                                       ("gen", "generate a random document")]:
                assert re.search(f"^ +{command} +{help_text}$", expected[1], re.M)
        elif argv[-1:] == ["yaml"]:  # the command's own error keeps its usage line
            assert expected[2].startswith("usage: dnumbers measure ")

    @pytest.mark.parametrize("argv, error", [
        (["bogus"], "error: argument command: invalid choice: "),
        ([], "error: the following arguments are required: command")],
        ids=["bogus", "none"])
    def test_no_command_named_keeps_the_argument_name(self, argv, error, capsys):
        # with every command built, no metavar stands in for "command"
        code, _, err = _exit_outcome(argv, capsys)
        assert code == 3 and err.splitlines()[1].startswith(error)

    @pytest.mark.parametrize("argv, parsers", [
        (["validate", "{path}"], 1), (["measure", "{path}"], 1),
        (["check", "set-consistency"], 1), (["gen", "--frame-size", "1"], 1),
        (["-h"], 5), (["bogus"], 5), (None, 1),
        # the command's parser leaves "--bogus" over, so the root reports it
        (["measure", "{path}", "--bogus"], 6)])
    def test_only_the_named_command_is_built(self, argv, parsers, doc_path,
                                             monkeypatch, capsys):
        # main(None) reads sys.argv, as the installed console script does
        monkeypatch.setattr(sys, "argv", ["dnumbers", "validate", doc_path(VACUOUS)])
        if argv is not None:
            argv = [doc_path(VACUOUS) if arg == "{path}" else arg for arg in argv]
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        # subparsers are made from type(root), so they are counted too
        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.main(argv)
        assert len(built) == parsers

    def test_console_argv_keeps_every_command_in_the_usage(self, doc_path):
        env = {**os.environ, "PYTHONPATH": str(Path(dn.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "dnumbers.cli", "measure",
                              doc_path(VACUOUS), "--bogus"],
                             capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert run.returncode == 3
        assert run.stderr.splitlines()[0] == (
            "usage: dnumbers [-h] {validate,measure,check,gen} ...")
