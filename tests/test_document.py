import itertools
import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dnumbers as dn
from dnumbers import core, document, oracle
from dnumbers.document import DocumentError

from conftest import BAD_MASS_IDS, BAD_MASSES, built_from_labels, raw_dnumbers

# every document here, and in test_fuzz.py, also checks parse_document's map
# against its walk: the map declines exactly when the walk finds a violation
pytestmark = pytest.mark.usefixtures("map_agrees_with_walk")

MINIMAL = json.dumps({"frame": ["a", "b"],
                      "masses": [{"set": ["a", "b"], "mass": 1}]})
ONE_MASS = '"masses": [{"set": ["a"], "mass": 1}]}'


def test_minimal_vacuous():
    frame, d = dn.parse_document(MINIMAL)
    assert frame.elements == ("a", "b")
    assert d.completed
    assert d.masses == {frame.theta_mask: 1.0}


def test_incomplete_document_stays_raw():
    frame, d = dn.parse_document(json.dumps(
        {"frame": ["a"], "masses": [{"set": ["a"], "mass": 0.6}]}))
    assert not d.completed
    assert d.total_mass == pytest.approx(0.6)


def test_total_summed_as_the_library_sums_it():
    # sum() gives 1.0000000010000003, above 1 + MASS_TOL; math.fsum gives 1.000000001
    masses = [0.1354605800962365, 0.44663495957000976, 0.35715815612212515,
              0.04416454292027447, 0.00885615048769734, 0.00772561180365684]
    labels = list("abcdef")
    frame, d = dn.parse_document(json.dumps({
        "frame": labels,
        "masses": [{"set": [x], "mass": m} for x, m in zip(labels, masses)],
    }))
    assert d == dn.build_dnumber(frame, [(frame.subset(x), m)
                                         for x, m in zip(labels, masses)])
    assert d.completed


def test_bytes_accepted():
    frame, d = dn.parse_document(MINIMAL.encode())
    assert d.completed


def test_full_document():
    frame, d = dn.parse_document(json.dumps({
        "frame": ["a", "b"],
        "unknown": {"cardinality": 3, "non_exclusivity": {"b": 0.2}},
        "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.3}],
        "masses": [{"set": ["a"], "mass": 0.5}, {"set": ["X"], "mass": 0.5}],
    }))
    assert frame.unknown_cardinality == 3
    assert frame.degrees[(0, 1)] == 0.3
    assert frame.degrees[(1, frame.size)] == 0.2
    assert d.masses[frame.x_mask] == 0.5


def test_x_pair_in_top_level_list():
    frame, _ = dn.parse_document(json.dumps({
        "frame": ["a"],
        "non_exclusivity": [{"pair": ["a", "X"], "degree": 0.4}],
        "masses": [{"set": ["a"], "mass": 1}],
    }))
    assert frame.degrees[(0, frame.size)] == 0.4


REJECTIONS = [
    ("not json", "syntax error"),
    ('["list"]', "root"),
    ('{"masses": []}', '"frame"'),
    ('{"frame": ["a"], "masses": []}', "nonempty"),
    ('{"frame": ["a"], "masses": [{"set": [], "mass": 0.1}]}',
     "D(∅) must be 0"),
    ('{"frame": ["a"], "masses": [{"set": ["z"], "mass": 0.1}]}',
     "unknown label 'z'"),
    ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": -0.1}]}',
     "nonnegative"),
    ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 0.6},'
     ' {"set": ["a"], "mass": 0.1}]}', "duplicate"),
    ('{"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": 0.7},'
     ' {"set": ["b"], "mass": 0.7}]}', "exceeds 1"),
    ('{"frame": ["a", "b"], "non_exclusivity": '
     '[{"pair": ["a", "b"], "degree": 1.2}], '
     '"masses": [{"set": ["a"], "mass": 1}]}', "1.2"),
    ('{"frame": ["a"], "unknown": {"cardinality": 1}, '
     '"masses": [{"set": ["a"], "mass": 1}]}', "cardinality"),
    ('{"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": NaN},'
     ' {"set": ["b"], "mass": 0.5}]}', "masses[0]: mass must be"),
    ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": Infinity}]}',
     "masses[0]: mass must be"),
    ('{"frame": ["a"], "non_exclusivity": 5, "masses": [{"set": ["a"], "mass": 1}]}',
     '"non_exclusivity" must be a list'),
    ('{"frame": ["a"], "non_exclusivity": null, "masses": [{"set": ["a"], "mass": 1}]}',
     '"non_exclusivity" must be a list'),
    ('{"frame": ["a"], "unknown": null, "masses": [{"set": ["a"], "mass": 1}]}',
     '"unknown" must be an object'),
    ('{"frame": ["\u00e9"], "masses": [{"set": ["\u00e9"], "mass": 1}]}'
     .encode("latin-1"), "encoding error"),
    pytest.param('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 1'
                 + "0" * 400 + '}]}', "masses[0]: mass must be",
                 id="int-mass-beyond-float"),
    pytest.param("[" * 100000, "syntax error", id="nesting-beyond-recursion-limit"),
    pytest.param('{"frame": ["a"], "unknown": 5, ' + ONE_MASS,
                 '"unknown" must be an object', id="unknown-not-object"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": [0.5]}, ' + ONE_MASS,
                 '"unknown.non_exclusivity" must be an object',
                 id="x-degrees-not-object"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": {"a": 1.5}}, '
                 + ONE_MASS, "unknown.non_exclusivity['a']: degree 1.5 outside [0, 1]",
                 id="x-degree-out-of-range"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": {"z": 0.5}}, '
                 + ONE_MASS, "unknown.non_exclusivity['z']: unknown label 'z'",
                 id="x-key-not-a-label"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": {"X": 0.5}}, '
                 + ONE_MASS, "unknown.non_exclusivity['X']: unknown label 'X'",
                 id="x-key-is-x"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": ["a"], "degree": 0.5}], ' + ONE_MASS,
                 'non_exclusivity[0]: "pair" must be two labels',
                 id="pair-not-two-labels"),
    pytest.param('{"frame": ["a"], "non_exclusivity": [5], ' + ONE_MASS,
                 'non_exclusivity[0]: expected an object with "pair" and "degree"',
                 id="pair-entry-not-object"),
    pytest.param('{"frame": ["a"], "masses": [5]}',
                 'masses[0]: expected an object with "set" and "mass"',
                 id="mass-entry-not-object"),
    pytest.param('{"frame": ["a"], "masses": [{"set": "a", "mass": 1}]}',
                 'masses[0]: "set" must be a list of labels', id="set-not-a-list"),
    pytest.param(r'{"frame": ["\ud800"], "masses": [{"set": ["\ud800"], "mass": 1}]}',
                 "frame[0]: label '\\ud800' is not valid Unicode text",
                 id="lone-surrogate-label"),
    pytest.param('{"frame": ["a"], "unknown": {"cardinality": 1' + "0" * 400 + '}, '
                 + ONE_MASS, '"unknown.cardinality" must be an integer from 2 to '
                 '1.7976931348623157e+308', id="cardinality-beyond-float"),
    pytest.param('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 1'
                 + "0" * 5000 + '}]}', "syntax error", id="int-beyond-digit-limit"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": ["a", "b"], "degree": 0}, '
                 '{"pair": ["b", "a"], "degree": 0.5}], ' + ONE_MASS,
                 "conflicting degrees", id="zero-then-positive-degree"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": {"a": 0}}, '
                 '"non_exclusivity": [{"pair": ["a", "X"], "degree": 0.5}], '
                 + ONE_MASS, "conflicting degrees", id="x-degree-given-twice"),
    pytest.param('{"frame": ["a", ""], ' + ONE_MASS,
                 "frame[1]: label must be nonempty", id="empty-label"),
    pytest.param('{"frame": ["a", "X"], ' + ONE_MASS,
                 "frame[1]: label 'X' is reserved for the unknown element",
                 id="reserved-label"),
    pytest.param('{"frame": ["a", "b", "a"], ' + ONE_MASS,
                 "frame[2]: duplicate label 'a'", id="duplicate-label"),
    pytest.param('{"frame": ["a", "b\\nc"], ' + ONE_MASS,
                 "frame[1]: label 'b\\nc' contains a control character",
                 id="newline-in-label"),
    pytest.param('{"frame": ["a", "b\\rc"], ' + ONE_MASS,
                 "frame[1]: label 'b\\rc' contains a control character",
                 id="carriage-return-in-label"),
    pytest.param('{"frame": ["a", "b\\u0085"], ' + ONE_MASS,
                 "frame[1]: label 'b\\x85' contains a control character",
                 id="c1-control-in-label"),
    pytest.param('{"frame": ["a", "a|b", "b"], ' + ONE_MASS,
                 "frame[1]: label 'a|b' contains '|'", id="pipe-in-label"),
    pytest.param('{"frame": ["a", "b\\u2028c"], ' + ONE_MASS,
                 "frame[1]: label 'b\\u2028c' contains a line or paragraph "
                 "separator", id="line-separator-in-label"),
    pytest.param('{"frame": ["a", "b\\u2029c"], ' + ONE_MASS,
                 "frame[1]: label 'b\\u2029c' contains a line or paragraph "
                 "separator", id="paragraph-separator-in-label"),
    pytest.param('{"frame": [], "masses": [{"set": ["a"], "mass": 1}]}',
                 '"frame" must be a nonempty list of strings', id="empty-frame"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": ["a", "a"], "degree": 0.3}], ' + ONE_MASS,
                 "non_exclusivity[0]: pair names 'a' twice", id="self-pair"),
    pytest.param('{"frame": ["a"], "non_exclusivity": '
                 '[{"pair": ["X", "X"], "degree": 0.3}], ' + ONE_MASS,
                 "non_exclusivity[0]: pair names 'X' twice", id="x-self-pair"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": ["a", "b"], "degree": 0.2}, '
                 '{"pair": ["b", "a"], "degree": 0.5}], ' + ONE_MASS,
                 "non_exclusivity[1]: conflicting degrees for pair ('b', 'a')",
                 id="conflict-at-later-entry"),
    pytest.param('{"frame": ["a", "b"], "unknown": {"non_exclusivty": {"a": 0.9}}, '
                 '"masses": [{"set": ["X"], "mass": 1.0}]}',
                 "unknown['non_exclusivty']: unknown key; expected \"cardinality\" "
                 'or "non_exclusivity"', id="misspelled-unknown-key"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivty": '
                 '[{"pair": ["a", "b"], "degree": 0.9}], '
                 '"masses": [{"set": ["b"], "mass": 1.0}]}',
                 '"non_exclusivty": unknown key; expected "frame", "unknown", '
                 '"non_exclusivity", "masses" or "check"', id="misspelled-root-key"),
]


@pytest.mark.parametrize("doc,needle", REJECTIONS)
def test_rejections(doc, needle):
    with pytest.raises(DocumentError) as err:
        dn.parse_document(doc)
    assert needle in str(err.value)


def test_repeated_equal_degree_accepted():
    frame, _ = dn.parse_document(json.dumps({
        "frame": ["a"],
        "unknown": {"non_exclusivity": {"a": 0.5}},
        "non_exclusivity": [{"pair": ["X", "a"], "degree": 0.5}],
        "masses": [{"set": ["a"], "mass": 1}],
    }))
    assert frame.degrees[(0, frame.size)] == 0.5


def test_all_violations_reported():
    doc = json.dumps({
        "frame": ["a"],
        "non_exclusivity": [{"pair": ["a", "q"], "degree": 0.5}],
        "masses": [{"set": [], "mass": 0.1}, {"set": ["a"], "mass": -1}],
    })
    with pytest.raises(DocumentError) as err:
        dn.parse_document(doc)
    assert len(err.value.errors) == 3


def test_root_keys_reported_with_other_violations():
    with pytest.raises(DocumentError) as err:
        dn.parse_document(json.dumps({"frames": ["a"], "Masses": [],
                                      "check": {"trial": 3}}))
    assert err.value.errors == [
        f'"{key}": unknown key; expected "frame", "unknown", "non_exclusivity", '
        '"masses" or "check"' for key in ("frames", "Masses")
    ] + ['"frame" must be a nonempty list of strings']


def test_check_key_is_not_read():
    doc = {"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": 1.0}]}
    plain = dn.parse_document(json.dumps(doc))
    doc["check"] = {"trial": 0, "frame": 7, "masses": None}
    assert dn.parse_document(json.dumps(doc)) == plain


def test_unknown_key_reported_with_other_violations():
    with pytest.raises(DocumentError) as err:
        dn.parse_document(json.dumps({
            "frame": ["a"],
            "unknown": {"cardinality": 1, "size": 3, "non_exclusivity": {"a": 2}},
            "masses": [{"set": ["z"], "mass": 1}],
        }))
    assert err.value.errors == [
        "unknown['size']: unknown key; expected \"cardinality\" or \"non_exclusivity\"",
        '"unknown.cardinality" must be an integer from 2 to 1.7976931348623157e+308, '
        "got 1",
        "unknown.non_exclusivity['a']: degree 2 outside [0, 1]",
        "masses[0]: unknown label 'z'",
    ]


@pytest.mark.parametrize("extra", [{"mas": 0.9}, {"degre": 0.9, "Set": ["b"]}],
                         ids=["one-key", "two-keys"])
@pytest.mark.parametrize("name, first, second", [("masses", "set", "mass"),
                                                 ("non_exclusivity", "pair", "degree")])
def test_entry_keys_beyond_its_two_fields_rejected(name, first, second, extra):
    doc = {"frame": ["a", "b"],
           "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.5}],
           "masses": [{"set": ["a"], "mass": 0.5}]}
    doc[name] = [{**doc[name][0], **extra}]
    with pytest.raises(DocumentError) as err:
        dn.parse_document(json.dumps(doc))
    assert err.value.errors == [
        f'{name}[0][{key!r}]: unknown key; expected "{first}" and "{second}"'
        for key in extra]


def test_entry_missing_a_field_keeps_its_one_message():
    with pytest.raises(DocumentError) as err:
        dn.parse_document(json.dumps({"frame": ["a"], "masses": [
            {"set": ["a"], "mas": 0.9, "extra": 1}]}))
    assert err.value.errors == ['masses[0]: expected an object with "set" and "mass"']


@pytest.mark.parametrize("mass", [pytest.param(mass, id=name) for mass, name
                                  in zip(BAD_MASSES, BAD_MASS_IDS)
                                  if not isinstance(mass, bytes)])  # JSON holds no bytes
def test_mass_rule_reported_as_the_library_raises_it(mass):
    with pytest.raises(DocumentError) as err:
        dn.parse_document(json.dumps({"frame": ["a", "b"],
                                      "masses": [{"set": ["a"], "mass": mass}]}))
    assert err.value.errors == [f"masses[0]: {core.mass_error(1, mass)}"]


def test_unknown_label_reported_before_the_mass_rule():
    # a set naming only unknown labels has mask 0: not the empty-set rule
    for subset in (["a", "z"], ["z"]):
        with pytest.raises(DocumentError) as err:
            dn.parse_document(json.dumps({"frame": ["a"],
                                          "masses": [{"set": subset, "mass": -1}]}))
        assert err.value.errors == ["masses[0]: unknown label 'z'"]


def test_serialized_from_the_dnumber_alone():
    # every mass on the frame the D number holds, {c} and X included
    frame = dn.build_frame("abc", 4, [(("a", "c"), 0.25), (("c", "X"), 0.5)])
    d = dn.build_dnumber(frame, [(frame.subset("c"), 0.5), (frame.subset("ab"), 0.25),
                                 (frame.x_mask, 0.125)])
    text = dn.serialize_document(d)
    assert json.loads(text)["masses"] == [
        {"set": ["a", "b"], "mass": 0.25}, {"set": ["c"], "mass": 0.5},
        {"set": ["X"], "mass": 0.125}]
    parsed = dn.parse_document(text)
    assert parsed == (frame, d)
    assert dn.serialize_document(parsed[1]).encode("utf-8") == text.encode("utf-8")


def test_equal_frames_serialize_to_the_same_bytes():
    # a degree is stored as a float, as a mass is, whatever number it was given as
    class Degree(float):
        pass

    texts = {dn.serialize_document(dn.DNumber(dn.Frame(("a", "b"), None, {
        (0, 1): p, (0, 2): p}), {1: 1.0})) for p in (1, 1.0, Degree(1.0))}
    assert len(texts) == 1
    text = texts.pop()
    assert '"degree": 1.0' in text and '"a": 1.0' in text


EVERY_FAULT = {
    "frame": ["a", "b", "c", "a", "d|e"],
    "unknown": {"cardinality": 1, "non_exclusivity": {
        "a": 0.5, "X": 0.5, "b": True, "c": 10 ** 400, "q": 0.5, "": 0.2}},
    "non_exclusivity": [
        {"pair": ["a", "b"], "degree": 0.3},
        "not an entry",
        {"pair": ["a", "c"]},
        {"pair": ["b", "a"], "degree": 0.4},
        {"pair": ["a", "X"], "degree": 0.6},
        {"pair": ["c", "c"], "degree": 0.2},
        {"pair": ["X", "X"], "degree": 1},
        {"pair": ["a", "z"], "degree": 0.1},
        {"pair": ["y", "z"], "degree": 0.1},
        {"pair": ["a", "b", "c"], "degree": 0.1},
        {"pair": ["a", 1], "degree": 0.1},
        {"pair": "ab", "degree": 0.1},
        {"pair": ["b", "c"], "degree": False},
        {"pair": ["b", "c"], "degree": 10 ** 400},
        {"pair": ["b", "c"], "degree": "0.5"},
        {"pair": ["b", "c"], "degree": 0},
        {"pair": ["c", "b"], "degree": 0.5},
        {"pair": ["b", "a"], "degree": 0.3},
    ],
    "masses": [
        {"set": ["a"], "mass": 0.5},
        [],
        {"set": ["b"]},
        {"set": ["b", "a", "b"], "mass": 0.25},
        {"set": ["a", "b"], "mass": 0.1},
        {"set": [], "mass": 0.1},
        {"set": ["q", "z"], "mass": 0.1},
        {"set": ["a", 3], "mass": 0.1},
        {"set": "a", "mass": 0.1},
        {"set": ["X"], "mass": True},
        {"set": ["X"], "mass": 10 ** 400},
        {"set": ["X"], "mass": -0.1},
        {"set": ["X", "c"], "mass": 0.5},
        {"set": ["c", "X"], "mass": 0.5},
    ],
    "check": {"trial": 1},
    "Frame": 1,
}


@pytest.mark.parametrize("encode", [str, str.encode])
def test_every_fault_reported_in_order(encode):
    # malformed entries between good ones, conflicts in either order (X
    # pairs too), and each later fault of an entry hidden by its first
    huge = 10 ** 400
    mass_rule = "mass must be a nonnegative number no greater than 1, got"
    with pytest.raises(DocumentError) as err:
        dn.parse_document(encode(json.dumps(EVERY_FAULT)))
    assert err.value.errors == [
        '"Frame": unknown key; expected "frame", "unknown", "non_exclusivity", '
        '"masses" or "check"',
        "frame[3]: duplicate label 'a'",
        "frame[4]: label 'd|e' contains '|'",
        '"unknown.cardinality" must be an integer from 2 to 1.7976931348623157e+308, '
        "got 1",
        "unknown.non_exclusivity['X']: unknown label 'X'",
        "unknown.non_exclusivity['b']: degree True outside [0, 1]",
        f"unknown.non_exclusivity['c']: degree {huge} outside [0, 1]",
        "unknown.non_exclusivity['q']: unknown label 'q'",
        "unknown.non_exclusivity['']: unknown label ''",
        'non_exclusivity[1]: expected an object with "pair" and "degree"',
        'non_exclusivity[2]: expected an object with "pair" and "degree"',
        "non_exclusivity[3]: conflicting degrees for pair ('b', 'a')",
        "non_exclusivity[4]: conflicting degrees for pair ('a', 'X')",
        "non_exclusivity[5]: pair names 'c' twice",
        "non_exclusivity[6]: pair names 'X' twice",
        "non_exclusivity[7]: unknown label 'z'",
        "non_exclusivity[8]: unknown label 'y'",
        'non_exclusivity[9]: "pair" must be two labels',
        'non_exclusivity[10]: "pair" must be two labels',
        'non_exclusivity[11]: "pair" must be two labels',
        "non_exclusivity[12]: degree False outside [0, 1]",
        f"non_exclusivity[13]: degree {huge} outside [0, 1]",
        "non_exclusivity[14]: degree '0.5' outside [0, 1]",
        "non_exclusivity[16]: conflicting degrees for pair ('c', 'b')",
        'masses[1]: expected an object with "set" and "mass"',
        'masses[2]: expected an object with "set" and "mass"',
        "masses[4]: duplicate entry for set ['a', 'b']",
        "masses[5]: mass on empty set: D(∅) must be 0",
        "masses[6]: unknown label 'q'",
        'masses[7]: "set" must be a list of labels',
        'masses[8]: "set" must be a list of labels',
        f"masses[9]: {mass_rule} True",
        f"masses[10]: {mass_rule} {huge}",
        f"masses[11]: {mass_rule} -0.1",
        "masses[13]: duplicate entry for set ['X', 'c']",
        "total mass 1.25 exceeds 1",
    ]


def test_pair_rules_stopping_at_first_fault_fail(monkeypatch):
    # build_frame raises the first reason; the document must get them all
    def first_only(index, degrees, entries):
        yield from itertools.islice(core.pair_errors(index, degrees, entries), 1)

    monkeypatch.setattr(document, "pair_errors", first_only)
    with pytest.raises(AssertionError):
        test_every_fault_reported_in_order(str)


#: Shapes the map could take for valid by accident, and what the walk reports
HOSTILE = [
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": [{"pair": "ab", "degree": 0.5}], '
                 + ONE_MASS, ['non_exclusivity[0]: "pair" must be two labels'],
                 id="pair-as-string"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": {"a": 1, "b": 2}, "degree": 0.5}], ' + ONE_MASS,
                 ['non_exclusivity[0]: "pair" must be two labels'], id="pair-as-object"),
    pytest.param('{"frame": ["a", "b"], "masses": [{"set": "ab", "mass": 1}]}',
                 ['masses[0]: "set" must be a list of labels'], id="set-as-string"),
    pytest.param('{"frame": ["a", "b"], "masses": [{"set": {"a": 1}, "mass": 1}]}',
                 ['masses[0]: "set" must be a list of labels'], id="set-as-object"),
    pytest.param('{"frame": "ab", ' + ONE_MASS,
                 ['"frame" must be a nonempty list of strings'], id="frame-as-string"),
    pytest.param('{"frame": {"a": 1}, ' + ONE_MASS,
                 ['"frame" must be a nonempty list of strings'], id="frame-as-object"),
    pytest.param('{"frame": [["a"]], ' + ONE_MASS,
                 ['"frame" must be a nonempty list of strings'], id="unhashable-label"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": '
                 '[{"pair": [["a"], "b"], "degree": 0.5}], ' + ONE_MASS,
                 ['non_exclusivity[0]: "pair" must be two labels'],
                 id="unhashable-label-in-pair"),
    pytest.param('{"frame": ["a", "b"], "masses": [{"set": [["a"]], "mass": 1}]}',
                 ['masses[0]: "set" must be a list of labels'], id="unhashable-label-in-set"),
    pytest.param('{"frame": ["a", "a"], ' + ONE_MASS, ["frame[1]: duplicate label 'a'"],
                 id="duplicate-labels"),
    pytest.param('{"frame": ["X", "a"], ' + ONE_MASS,
                 ["frame[0]: label 'X' is reserved for the unknown element"],
                 id="label-x"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": [{"pair": ["a", "b"], '
                 '"degree": NaN}, {"pair": ["a", "b"], "degree": NaN}], ' + ONE_MASS,
                 ["non_exclusivity[0]: degree nan outside [0, 1]",
                  "non_exclusivity[1]: degree nan outside [0, 1]"], id="nan-degree-twice"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": [{"pair": ["a", "b"], '
                 '"degree": 1}, {"pair": ["b", "a"], "degree": 1.0}], ' + ONE_MASS,
                 None, id="one-then-one-point-zero"),
    pytest.param('{"frame": ["a", "b"], "non_exclusivity": [{"pair": ["a", "b"], '
                 '"degree": 1}, {"pair": ["b", "a"], "degree": true}], ' + ONE_MASS,
                 ["non_exclusivity[1]: degree True outside [0, 1]"], id="one-then-true"),
    pytest.param('{"frame": ["a"], "unknown": {"non_exclusivity": {"a": 0}}, '
                 '"non_exclusivity": [{"pair": ["X", "a"], "degree": false}], ' + ONE_MASS,
                 ["non_exclusivity[0]: degree False outside [0, 1]"], id="zero-then-false"),
    pytest.param('{"frame": ["a", "b"], "masses": [{"set": [], "mass": 1}]}',
                 ["masses[0]: mass on empty set: D(∅) must be 0"], id="empty-set"),
    pytest.param('{"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": 0.5}, '
                 '{"set": ["a", "a"], "mass": 0.5}]}',
                 ["masses[1]: duplicate entry for set ['a', 'a']"], id="same-set-twice"),
    pytest.param('{"frame": ["a"], "unknown": {"cardinality": null}, ' + ONE_MASS,
                 ['"unknown.cardinality" must be an integer from 2 to '
                  '1.7976931348623157e+308, got None'], id="null-cardinality"),
    pytest.param('{"frame": ["a"], "masses": {"ab": 1}}', ['"masses" must be a list'],
                 id="masses-as-object"),
    pytest.param('{"frame": ["a", "b"], "masses": ["ab"]}',
                 ['masses[0]: expected an object with "set" and "mass"'],
                 id="two-letter-mass-entry"),
    pytest.param('{"frame": ["a:b"], "masses": [{"set": ["a:b"], "mass": 1}], '
                 '"check": {"k": 1, "k": 2}}', None, id="colons-not-keys"),
]


@pytest.mark.parametrize("text, errors", HOSTILE)
def test_hostile_shape(text, errors):
    if errors is None:
        frame, d = dn.parse_document(text)
        assert (frame, d) == built_from_labels(json.loads(text))
    else:
        with pytest.raises(DocumentError) as err:
            dn.parse_document(text)
        assert err.value.errors == errors


@pytest.mark.parametrize("check", [None, {"trial": 0}])
def test_valid_document_does_not_reach_the_walk(monkeypatch, check):
    # the map, not the walk, reads a valid dense N=64 document, also when its
    # "check" object sends it through the second decode for repeated keys
    rng = random.Random(64)
    frame = dn.Frame([f"e{i}" for i in range(64)], 3, {
        (i, j): rng.choice([0.0, 1.0, rng.random()])
        for i in range(65) for j in range(i + 1, 65)})
    d = dn.DNumber(frame, {rng.randrange(1, frame.full_mask + 1): rng.random() / 128
                           for _ in range(128)})
    text = dn.serialize_document(d, check)
    # without this module's check beside the map, which runs the walk on purpose
    monkeypatch.setattr(document, "_read", document._read.__wrapped__)

    def walk_rule(*args):
        raise AssertionError("a valid document reached the walk")

    for name in ("label_error", "cardinality_error", "pair_errors", "mass_error"):
        monkeypatch.setattr(document, name, walk_rule)
    assert dn.parse_document(text) == (frame, d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 64), st.sampled_from([0.05, 0.5, 1.0]), st.integers(0, 2 ** 32))
def test_non_canonical_document_builds_what_the_library_builds(n, density, seed):
    # the library builds from label pairs and masks; the document spells the
    # same values out of canonical form
    rng = random.Random(seed)
    labels = [f"e{i}" for i in range(n)]
    names = labels + [dn.X_LABEL]
    degrees = [((names[i], names[j]), rng.choice([0.0, 1.0, rng.random()]))
               for i in range(n + 1) for j in range(i + 1, n + 1)  # X pairs too
               if rng.random() < density]
    rng.shuffle(degrees)
    cardinality = rng.choice([None, rng.randint(2, 10 ** 20)])
    frame = dn.build_frame(labels, cardinality, degrees)
    focal = sorted({tuple(sorted(rng.sample(names, rng.randint(1, n + 1))))
                    for _ in range(rng.randint(1, 2 * n))})
    weights = [rng.random() for _ in focal]
    scale = rng.uniform(0.05, 1.0) / (sum(weights) or 1.0)
    masses = [(list(s), w * scale) for s, w in zip(focal, weights)]
    d = dn.build_dnumber(frame, [(frame.subset(s), m) for s, m in masses])

    x_degrees, pairs = {}, []
    for (a, b), p in degrees:  # zeros included
        if b == dn.X_LABEL and rng.random() < 0.5:
            x_degrees[a] = p
        else:  # X pairs in either order, the others reversed
            pair = [a, b] if b == dn.X_LABEL and rng.random() < 0.5 else [b, a]
            pairs.append({"pair": pair, "degree": p})
    unknown = {"non_exclusivity": x_degrees}
    if cardinality is not None:
        unknown["cardinality"] = cardinality
    entries = []
    for s, m in masses:
        s = s + rng.choices(s, k=rng.randint(0, 2))  # repeated labels
        rng.shuffle(s)
        entries.append({"set": s, "mass": m})
    frame2, d2 = dn.parse_document(json.dumps({
        "frame": labels, "unknown": unknown, "non_exclusivity": pairs,
        "masses": entries}))
    assert frame2 == frame
    assert frame2.adjacency == frame.adjacency
    assert d2 == d


@settings(max_examples=60)
@given(raw_dnumbers())
def test_round_trip(d):
    text = dn.serialize_document(d)
    frame2, d2 = dn.parse_document(text)
    assert frame2 == d.frame
    assert d2 == d
    assert dn.serialize_document(d2) == text


def test_generated_round_trip_bytes():
    cfg = oracle.GeneratorConfig(frame_size=4, focal_count=6, seed=17)
    text = dn.serialize_document(oracle.generate_raw(cfg))
    _, d2 = dn.parse_document(text.encode("utf-8"))
    assert dn.serialize_document(d2).encode("utf-8") == text.encode("utf-8")


@pytest.mark.parametrize("label, needle", [
    ("a|b", "contains '|'"),
    ("b\nc", "control character"),
    ("\ud800", "not valid Unicode text"),
    ("a\u2028b", "line or paragraph separator"),
])
def test_frame_rejects_labels_a_document_cannot_hold(label, needle):
    with pytest.raises(DocumentError) as parsed:
        dn.parse_document(json.dumps({"frame": ["ok", label],
                                      "masses": [{"set": ["ok"], "mass": 1.0}]}))
    (error,) = parsed.value.errors
    assert needle in error and repr(label) in error
    for make in (lambda: dn.Frame(("ok", label), 2, {}),
                 lambda: dn.build_frame(["ok", label], 2)):
        with pytest.raises(ValueError) as err:
            make()
        assert f"frame[1]: {err.value}" == error


frame_labels = st.lists(st.one_of(st.sampled_from(["a", "b", "X", "", "|", "\u2029"]),
                                  st.text(),
                                  st.text(st.characters(codec=None), max_size=3)),
                        min_size=1, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame_labels)
def test_frame_accepts_the_labels_a_document_accepts(labels):
    try:
        frame = dn.Frame(labels, None, {})
    except ValueError as exc:
        reason = str(exc)
    else:
        reason = None
    doc = {"frame": labels, "masses": [{"set": [labels[0]], "mass": 1.0}]}
    try:
        parsed, d = dn.parse_document(json.dumps(doc))
    except DocumentError as exc:
        assert reason is not None
        first = exc.errors[0]
        assert first.startswith("frame[") and first.split("]: ", 1)[1] == reason
    else:
        assert reason is None and parsed == frame
        # every Frame round-trips, X degrees and pairs included
        n = len(labels)
        frame = dn.Frame(labels, None, {(0, n): 0.5, (0, n - 1): 1.0} if n > 1
                         else {(0, 1): 0.5})
        d = dn.DNumber(frame, {1: 1.0})
        text = dn.serialize_document(d)
        assert dn.parse_document(text) == (frame, d)
        assert dn.parse_document(text.encode("utf-8")) == (frame, d)


def _degree_case(doc):
    """(labels, degrees, reason) in build_frame's terms for a document of
    ``REJECTIONS`` whose every fault breaks a label-pair degree rule, else
    ``None``, also for a document that parses, which the ``REJECTIONS``
    test itself reports. A fault in an entry's shape, and an
    ``unknown.non_exclusivity`` keyed "X", are the document's own checks."""
    if not isinstance(doc, str):
        return None
    try:
        dn.parse_document(doc)
    except DocumentError as exc:
        errors = exc.errors
    else:
        return None
    located = [e.split("]: ", 1) for e in errors
               if e.startswith(("non_exclusivity[", "unknown.non_exclusivity["))]
    if len(located) < len(errors) or any(
            reason.startswith(('"pair"', "expected")) or where.endswith("'X'")
            for where, reason in located):
        return None
    doc = json.loads(doc)
    degrees = [((label, "X"), p) for label, p in
               doc.get("unknown", {}).get("non_exclusivity", {}).items()]
    degrees += [(tuple(e["pair"]), e["degree"]) for e in doc.get("non_exclusivity", [])]
    return doc["frame"], degrees, located[0][1]


DEGREE_REJECTIONS = [case for case in (_degree_case(getattr(p, "values", p)[0])
                                       for p in REJECTIONS) if case]


def test_degree_rejections_found():
    assert len(DEGREE_REJECTIONS) == 8


def test_degree_case_of_an_accepted_document():
    assert _degree_case('{"frame": ["a"], "masses": [{"set": ["a"], "mass": 1.0}]}') is None


@pytest.mark.parametrize("labels, degrees, reason", DEGREE_REJECTIONS)
def test_build_frame_gives_the_document_degree_reason(labels, degrees, reason):
    with pytest.raises(ValueError) as err:
        dn.build_frame(labels, 2, degrees)
    assert str(err.value) == reason


@pytest.mark.parametrize("degree", ["0.3", True])
def test_build_frame_does_not_coerce_degree(degree):
    with pytest.raises(ValueError) as err:
        dn.build_frame("ab", 2, [(("a", "b"), degree)])
    with pytest.raises(DocumentError) as parsed:
        dn.parse_document(json.dumps({
            "frame": ["a", "b"],
            "non_exclusivity": [{"pair": ["a", "b"], "degree": degree}],
            "masses": [{"set": ["a"], "mass": 1.0}]}))
    assert parsed.value.errors == [f"non_exclusivity[0]: {err.value}"]
    assert str(err.value) == f"degree {degree!r} outside [0, 1]"
