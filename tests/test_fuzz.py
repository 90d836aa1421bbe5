"""Hostile-input gate: any input gets a documented outcome, never a traceback.

``parse_document`` either returns or raises ``DocumentError``, and
``measure`` exits 0, 1 or 3 without partial output. The runs are seeded and
bounded, so they take the same examples every time.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dnumbers import cli
from dnumbers.core import MASS_TOL
from dnumbers.document import DocumentError, parse_document

# every document here also checks parse_document's map against its walk
pytestmark = pytest.mark.usefixtures("map_agrees_with_walk")

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)

FIELDS = ["frame", "unknown", "cardinality", "non_exclusivity", "pair", "degree",
          "masses", "set", "mass"]
LABELS = ["a", "b", "X", "", "\ud800", "é"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(LABELS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS + LABELS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def _mostly(valid, other=json_values):
    """``valid`` nine times in ten, otherwise ``other``."""
    # a middle value, since generation favours the ends of a range
    return st.integers(0, 9).flatmap(lambda k: other if k == 5 else valid)


@st.composite
def documents(draw):
    """Documents over a small frame, with odd values in place of some parts."""
    frame = draw(_mostly(st.lists(st.sampled_from(["a", "b", "é"]), min_size=1,
                                  max_size=3, unique=True),
                         st.lists(st.sampled_from(LABELS), max_size=3) | json_values))
    # a frame from json_values can hold lists and dicts, which cannot be keys
    known = ([x for x in frame if isinstance(x, str)] + ["X"]
             if isinstance(frame, list) and frame else ["a"])
    label = _mostly(st.sampled_from(known), st.sampled_from(LABELS + ["z"]))
    number = _mostly(st.floats(0.0, 0.5),
                     st.floats() | st.sampled_from([-1, 1, 2, 10 ** 400]))
    masses = st.lists(_mostly(st.fixed_dictionaries({
        "set": _mostly(st.lists(label, min_size=1, max_size=3)),
        "mass": number,
    })), min_size=1, max_size=3)
    doc = {"frame": frame, "masses": draw(_mostly(masses))}
    if draw(st.booleans()):
        doc["unknown"] = draw(_mostly(st.fixed_dictionaries({}, optional={
            "cardinality": _mostly(st.integers(2, 5), st.sampled_from([-1, 10 ** 400])),
            "non_exclusivity": _mostly(st.dictionaries(label, number, max_size=3)),
        })))
    if draw(st.booleans()):
        doc["non_exclusivity"] = draw(_mostly(st.lists(_mostly(st.fixed_dictionaries({
            "pair": _mostly(st.lists(label, min_size=2, max_size=2)),
            "degree": number,
        })), max_size=3)))
    return doc


MEASURE_OPTIONS = st.sampled_from([
    [], ["--unknown-model", "cardinality"], ["--unknown-model", "log2"],
    ["--output", "csv"], ["--output", "json-lines"], ["--subsets", "all"],
])


def _parses_or_rejects(text):
    try:
        parse_document(text)
    except DocumentError:
        pass


@FUZZ
@given(json_values | documents())
def test_parse_any_json_value(value):
    _parses_or_rejects(json.dumps(value))


@FUZZ
@given(st.binary(max_size=64) | documents().map(lambda doc: json.dumps(doc).encode()))
def test_parse_any_bytes(data):
    _parses_or_rejects(data)


@FUZZ
@given(documents(), MEASURE_OPTIONS)
@example({"frame": ["\ud800"], "masses": [{"set": ["\ud800"], "mass": 1}]}, [])
@example({"frame": ["a"], "unknown": {"cardinality": 10 ** 400},
          "masses": [{"set": ["a"], "mass": 1}]}, ["--unknown-model", "cardinality"])
@example({"frame": ["a"], "unknown": {"cardinality": int(sys.float_info.max)},
          "masses": [{"set": ["a", "X"], "mass": 1.0000000005}]},
         ["--unknown-model", "cardinality", "--output", "json-lines"])
def test_measure_exits_with_a_documented_code(doc, options):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["measure", path, *options])
    assert code in (0, 1, 3)
    if code != 0:
        assert out.getvalue() == ""  # no partial output
    out.getvalue().encode("utf-8")  # what reaches stdout must be valid text
    if "json-lines" in options:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


@st.composite
def near_one_documents(draw):
    """Valid-looking documents whose masses total 1 within a few MASS_TOL,
    on either side, where the acceptance and completion bands meet."""
    frame = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                          unique=True))
    sets = draw(st.lists(st.lists(st.sampled_from(frame + ["X"]), min_size=1,
                                  max_size=3, unique=True),
                         min_size=1, max_size=4, unique_by=frozenset))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(sets),
                            max_size=len(sets)))
    offset = draw(st.sampled_from([-MASS_TOL, MASS_TOL])
                  | st.floats(-4 * MASS_TOL, 4 * MASS_TOL))
    scale = sum(weights) / (1.0 + offset)
    return {"frame": frame,
            "masses": [{"set": s, "mass": w / scale} for s, w in zip(sets, weights)]}


@FUZZ
@given(near_one_documents())
@example({"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": 1.000000001}]})
def test_what_validate_accepts_measure_measures(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if cli.main(["validate", path]) == 0:
                assert cli.main(["measure", path]) == 0
