import functools
import math

import hypothesis.strategies as st
import pytest

import dnumbers as dn
from dnumbers import document

LETTERS = "abcdef"

#: masses that break the rule on one mass, ``core.mass_error``, and their test ids
BAD_MASSES = [True, False, "0.5", b"0.5", 10 ** 400, -(10 ** 400),
              math.nan, math.inf, -0.1, 1.5]
BAD_MASS_IDS = ["True", "False", "str", "bytes", "huge-int", "huge-negative-int",
                "nan", "inf", "negative", "above-one"]


def _pair_names(n):
    names = list(LETTERS[:n]) + [dn.X_LABEL]
    return [(names[i], names[j])
            for i in range(len(names)) for j in range(i + 1, len(names))]


def make(labels, masses, degrees=(), cardinality=2):
    """A frame with the given labels and degrees, and the completed D number
    of the given masses on it, each keyed by its subset's labels."""
    frame = dn.build_frame(labels, cardinality, degrees)
    d = dn.build_dnumber(frame, [(frame.subset(s), m) for s, m in masses])
    return frame, dn.complete(d)


@st.composite
def frames(draw, max_size=4):
    n = draw(st.integers(min_value=1, max_value=max_size))
    degrees = []
    for pair in _pair_names(n):
        if draw(st.booleans()):
            degrees.append((pair, draw(st.floats(min_value=0.0, max_value=1.0))))
    return dn.build_frame(LETTERS[:n], 2, degrees)


@st.composite
def raw_dnumbers(draw, max_size=4):
    frame = draw(frames(max_size))
    focal = draw(st.lists(st.sampled_from(range(1, frame.full_mask + 1)),
                          unique=True, min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=len(focal), max_size=len(focal)))
    total = draw(st.floats(min_value=0.05, max_value=1.0))
    scale = sum(weights)
    return dn.build_dnumber(
        frame, [(m, w / scale * total) for m, w in zip(focal, weights)])


@st.composite
def completed_dnumbers(draw, max_size=4):
    return dn.complete(draw(raw_dnumbers(max_size)))


def built_from_labels(doc):
    """(frame, d) as ``build_frame`` and ``build_dnumber`` build them from the
    labels of the valid decoded document ``doc``."""
    unknown = doc.get("unknown", {})
    degrees = [((label, dn.X_LABEL), p)
               for label, p in unknown.get("non_exclusivity", {}).items()]
    degrees += [(entry["pair"], entry["degree"]) for entry in doc.get("non_exclusivity", [])]
    frame = dn.build_frame(doc["frame"], unknown.get("cardinality"), degrees)
    return frame, dn.build_dnumber(frame, [(frame.subset(entry["set"]), entry["mass"])
                                           for entry in doc["masses"]])


@pytest.fixture(scope="module")
def map_agrees_with_walk():
    """On every document ``parse_document`` reads, check that its map,
    ``document._read``, declines exactly the documents in which its located
    walk, ``document._located_errors``, finds a violation, and that what the
    map accepts is what the library builds from the document's labels."""
    read = document._read

    @functools.wraps(read)
    def checked(doc):
        errors = document._located_errors(doc)
        try:
            frame, d, keys = read(doc)
        except (KeyError, TypeError, ValueError):
            assert errors, f"the map declines, the walk finds nothing: {doc!r}"
            raise
        assert not errors, f"the map accepts, the walk finds {errors}"
        assert (frame, d) == built_from_labels(doc)
        return frame, d, keys

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_read", checked)
        yield
