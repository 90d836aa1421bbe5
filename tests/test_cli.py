import csv
import io
import json

import pytest

import dnumbers as dn
from dnumbers import cli, core
from dnumbers.core import Frame


@pytest.fixture
def doc_path(tmp_path):
    def write(doc, name="d.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
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
        with pytest.raises(SystemExit) as err:
            cli.main(["validate", str(tmp_path / "nope.json")])
        assert err.value.code == 3


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
                        '[{"set": ["a"], "mass": NaN}, {"set": ["b"], "mass": 0.5}]}')
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

    def test_label_and_mass_violations_reported_together(self, doc_path, capsys):
        path = doc_path({"frame": ["a", ""],
                         "masses": [{"set": ["z"], "mass": 0.5}]})
        assert cli.main(["measure", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frame[1]" in captured.err and "masses[0]" in captured.err


class TestCheck:
    def test_all_green(self, capsys):
        assert cli.main(["check", "all", "--trials", "100", "--seed", "7",
                         "--frame-size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "|A| = 1 deviation" in out

    def test_set_consistency_reports_deviation(self, capsys):
        assert cli.main(["check", "set-consistency", "--seed", "1"]) == 0
        assert "|A| = 1 deviation" in capsys.readouterr().out

    def test_mutated_pl_fails(self, capsys, monkeypatch, tmp_path):
        # drop the non-exclusivity factor from Pl: every focal set counts fully
        monkeypatch.setattr(Frame, "nonexclusivity",
                            lambda self, a, b: 1.0)
        code = cli.main(["check", "oracle", "--trials", "20", "--seed", "7",
                         "--counterexample-dir", str(tmp_path / "cx")])
        assert code == 2
        assert "FAIL oracle" in capsys.readouterr().out
        written = list((tmp_path / "cx").glob("oracle-*.json"))
        assert written
        json.loads(written[0].read_text())

    def test_mutated_adjacency_fails_oracle(self, capsys, monkeypatch):
        # drop every pair with X from the adjacency but not from ``degrees``,
        # which the oracle reads through ``lookup``
        post_init = Frame.__post_init__

        def without_x(self):
            post_init(self)
            x = self.x_index
            object.__setattr__(self, "adjacency", tuple(
                (0, {}) if i == x else
                (mask & ~self.x_mask, {j: p for j, p in row.items() if j != x})
                for i, (mask, row) in enumerate(self.adjacency)))
        monkeypatch.setattr(Frame, "__post_init__", without_x)
        assert cli.main(["check", "oracle", "--trials", "20", "--seed", "7"]) == 2
        assert "FAIL oracle" in capsys.readouterr().out

    def test_mutated_nonexclusivity_fails_set_consistency(self, capsys, monkeypatch):
        monkeypatch.setattr(Frame, "nonexclusivity", lambda self, a, b: 1.0)
        assert cli.main(["check", "set-consistency", "--seed", "1"]) == 2
        assert "FAIL set-consistency" in capsys.readouterr().out

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
        _, d = dn.parse_document(path.read_text())
        assert d.total_mass < 1.0

    def test_stdout(self, capsys):
        assert cli.main(["gen", "--frame-size", "2", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame"] == ["a", "b"]

    def test_infeasible_focal_count(self, capsys):
        assert cli.main(["gen", "--frame-size", "2", "--focal-count", "9"]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_generated_validates(self, tmp_path):
        path = tmp_path / "g.json"
        assert cli.main(["gen", "--seed", "5", "--out", str(path)]) == 0
        assert cli.main(["validate", str(path)]) == 0


class TestUsage:
    def test_unknown_flag_exits_3(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["measure", "--bogus"])
        assert err.value.code == 3

    def test_bad_suite_exits_3(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["check", "everything"])
        assert err.value.code == 3

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

    def test_all_subsets_beyond_cap_exits_3(self, doc_path, capsys):
        path = doc_path({"frame": list("abcdefg"),
                         "masses": [{"set": ["a"], "mass": 1}]})
        assert cli.main(["measure", path, "--subsets", "all"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--subsets all" in captured.err
