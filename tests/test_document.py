import json

import pytest
from hypothesis import given, settings

import dnumbers as dn
from dnumbers import oracle
from dnumbers.document import DocumentError

from conftest import raw_dnumbers

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
    assert frame.lookup(0, 1) == 0.3
    assert frame.lookup(1, frame.x_index) == 0.2
    assert d.masses[frame.x_mask] == 0.5


def test_x_pair_in_top_level_list():
    frame, _ = dn.parse_document(json.dumps({
        "frame": ["a"],
        "non_exclusivity": [{"pair": ["a", "X"], "degree": 0.4}],
        "masses": [{"set": ["a"], "mass": 1}],
    }))
    assert frame.lookup(0, frame.x_index) == 0.4


@pytest.mark.parametrize("doc,needle", [
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
])
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
    assert frame.lookup(0, frame.x_index) == 0.5


def test_all_violations_reported():
    doc = json.dumps({
        "frame": ["a"],
        "non_exclusivity": [{"pair": ["a", "q"], "degree": 0.5}],
        "masses": [{"set": [], "mass": 0.1}, {"set": ["a"], "mass": -1}],
    })
    with pytest.raises(DocumentError) as err:
        dn.parse_document(doc)
    assert len(err.value.errors) == 3


@settings(max_examples=60)
@given(raw_dnumbers())
def test_round_trip(d):
    text = dn.serialize_document(d.frame, d)
    frame2, d2 = dn.parse_document(text)
    assert frame2 == d.frame
    assert d2 == d
    assert dn.serialize_document(frame2, d2) == text


def test_generated_round_trip_bytes():
    cfg = oracle.GeneratorConfig(frame_size=4, focal_count=6, seed=17)
    frame, d = oracle.generate_raw(cfg)
    text = dn.serialize_document(frame, d)
    frame2, d2 = dn.parse_document(text.encode("utf-8"))
    assert dn.serialize_document(frame2, d2).encode("utf-8") == text.encode("utf-8")
