"""JSON document format for frames and D numbers.

Schema (all names fixed):

.. code-block:: json

    {
      "frame": ["a", "b"],
      "unknown": {"cardinality": 2, "non_exclusivity": {"a": 0.5}},
      "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.3}],
      "masses": [{"set": ["a"], "mass": 0.6}]
    }

``unknown`` and ``non_exclusivity`` are optional. Degrees involving the
unknown element live under ``unknown.non_exclusivity`` as a label-to-degree
mapping; pairs naming "X" in the top-level list are also accepted on input.
Canonical documents round-trip bit-exactly through serialize ∘ parse.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from itertools import chain

from .core import (
    MASS_TOL,
    X_LABEL,
    DNumber,
    Frame,
    build_dnumber,
    build_frame,
    is_number,
)


class DocumentError(ValueError):
    """Document validation failure carrying every located violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_document(text: str | bytes) -> tuple[Frame, DNumber]:
    """Parse and validate a document, returning the frame and raw D number.

    All violations are collected and reported together. One inside an
    entry or field names it (``frame[0]``, ``unknown.non_exclusivity['a']``,
    ``non_exclusivity[2]``, ``masses[1]``, ``"unknown"``); a second,
    different degree for one pair is reported at the later entry. The
    frame must be a nonempty list of labels, each nonempty, unique, other
    than "X", valid Unicode text, and free of control characters, line and
    paragraph separators, and "|"; ``unknown.cardinality`` must be an
    integer from 2 to ``sys.float_info.max``. A pair must name two
    different labels. An ``unknown.non_exclusivity`` item ``{label: p}`` is
    checked as the pair entry ``([label, "X"], p)``, and its key must be a
    frame label. Duplicate mass entries for the same set are rejected
    outright to surface authoring errors.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError([f"encoding error: {exc}"]) from None
    # ValueError covers malformed JSON and integers with too many digits
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError([f"syntax error: {exc}"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])

    labels = doc.get("frame")
    if not (labels and _labels(labels)):
        raise DocumentError(['"frame" must be a nonempty list of strings'])
    errors: list[str] = []
    known = {X_LABEL}
    for k, label in enumerate(labels):
        # JSON escapes can give lone surrogates, which UTF-8 cannot encode
        if any("\ud800" <= c <= "\udfff" for c in label):
            errors.append(f"frame[{k}]: label {label!r} is not valid Unicode text")
        elif not label:
            errors.append(f"frame[{k}]: label must be nonempty")
        elif label == X_LABEL:
            errors.append(f"frame[{k}]: label {X_LABEL!r} is reserved for "
                          f"the unknown element")
        elif label in known:
            errors.append(f"frame[{k}]: duplicate label {label!r}")
        # splits a table row; the csv writer leaves a lone "\r" unquoted
        elif any(unicodedata.category(c) == "Cc" for c in label):
            errors.append(f"frame[{k}]: label {label!r} contains a control character")
        # U+2028, U+2029: the line breaks str.splitlines() knows beyond Cc
        elif any(unicodedata.category(c) in ("Zl", "Zp") for c in label):
            errors.append(f"frame[{k}]: label {label!r} contains a line or "
                          f"paragraph separator")
        elif "|" in label:  # --subsets all joins labels with "|"
            errors.append(f"frame[{k}]: label {label!r} contains '|'")
        known.add(label)

    unknown = doc.get("unknown")
    unknown = {} if unknown is None else _object(errors, unknown, "unknown")
    cardinality = unknown.get("cardinality", "unknown")
    if "cardinality" in unknown and not (
            isinstance(cardinality, int) and 2 <= cardinality <= sys.float_info.max):
        errors.append(f'"unknown.cardinality" must be an integer from 2 to '
                      f'{sys.float_info.max!r}, got {cardinality!r}')

    x_degrees = _object(errors, unknown.get("non_exclusivity", {}),
                        "unknown.non_exclusivity")
    if X_LABEL in x_degrees:  # keys name frame elements, and X is not one
        errors.append(f"unknown.non_exclusivity[{X_LABEL!r}]: "
                      f"unknown label {X_LABEL!r}")
    x_entries = ((f"unknown.non_exclusivity[{label!r}]", [label, X_LABEL], p)
                 for label, p in x_degrees.items() if label != X_LABEL)
    pair_entries = ((where, entry["pair"], entry["degree"]) for where, entry in
                    _entries(errors, doc.get("non_exclusivity", []),
                             "non_exclusivity", "pair", "degree"))
    pairs: dict[tuple[str, str], float] = {}  # label pair, sorted -> degree
    for where, pair, degree in chain(x_entries, pair_entries):
        if not (_labels(pair) and len(pair) == 2):
            errors.append(f'{where}: "pair" must be two labels')
        elif not is_number(degree) or not 0.0 <= degree <= 1.0:
            errors.append(f"{where}: degree {degree!r} outside [0, 1]")
        elif bad := [x for x in pair if x not in known]:
            errors.append(f"{where}: unknown label {bad[0]!r}")
        elif pair[0] == pair[1]:
            errors.append(f"{where}: pair names {pair[0]!r} twice")
        elif pairs.setdefault(tuple(sorted(pair)), float(degree)) != degree:
            errors.append(f"{where}: conflicting degrees for pair "
                          f"({pair[0]!r}, {pair[1]!r})")

    raw_masses = doc.get("masses")
    if not raw_masses:
        errors.append('"masses" must be a nonempty list')
        raw_masses = []
    mass_entries: list[tuple[list[str], float]] = []
    seen_sets: set[frozenset] = set()
    for where, entry in _entries(errors, raw_masses, "masses", "set", "mass"):
        subset, mass = entry["set"], entry["mass"]
        if not _labels(subset):
            errors.append(f'{where}: "set" must be a list of labels')
        elif not subset:
            errors.append(f"{where}: mass on empty set: D(∅) must be 0")
        elif not is_number(mass) or not 0.0 <= mass <= 1.0 + MASS_TOL:
            errors.append(f"{where}: mass must be a nonnegative number "
                          f"no greater than 1, got {mass!r}")
        elif bad := [x for x in subset if x not in known]:
            errors.append(f"{where}: unknown label {bad[0]!r}")
        elif (key := frozenset(subset)) in seen_sets:
            errors.append(f"{where}: duplicate entry for set {sorted(subset)}")
        else:
            seen_sets.add(key)
            mass_entries.append((subset, float(mass)))

    total = sum(m for _, m in mass_entries)
    if total > 1.0 + MASS_TOL:
        errors.append(f"total mass {total} exceeds 1")

    if errors:
        raise DocumentError(errors)

    try:
        frame = build_frame(labels, cardinality, pairs.items())
        d = build_dnumber(frame, [(frame.subset(s), m) for s, m in mass_entries])
    except ValueError as exc:
        raise DocumentError([str(exc)]) from None
    return frame, d


def _object(errors: list[str], value, name: str) -> dict:
    """``value`` if it is a JSON object; otherwise record an error and give {}."""
    if isinstance(value, dict):
        return value
    errors.append(f'"{name}" must be an object')
    return {}


def _entries(errors: list[str], value, name: str, first: str, second: str):
    """Yield (location, entry) for each object in the list ``value`` that has
    the fields ``first`` and ``second``; record an error for anything else."""
    if not isinstance(value, list):
        errors.append(f'"{name}" must be a list')
        return
    for k, entry in enumerate(value):
        where = f"{name}[{k}]"
        if isinstance(entry, dict) and first in entry and second in entry:
            yield where, entry
        else:
            errors.append(f'{where}: expected an object with "{first}" and "{second}"')


def _labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def document_dict(frame: Frame, d: DNumber) -> dict:
    """Canonical document object for a frame and D number."""
    doc: dict = {"frame": list(frame.elements)}

    x = frame.x_index
    x_degrees = {frame.elements[i]: p
                 for (i, j), p in sorted(frame.degrees.items()) if j == x}
    unknown: dict = {}
    if frame.unknown_cardinality is not None:
        unknown["cardinality"] = frame.unknown_cardinality
    if x_degrees:
        unknown["non_exclusivity"] = x_degrees
    if unknown:
        doc["unknown"] = unknown

    pairs = [{"pair": [frame.elements[i], frame.elements[j]], "degree": p}
             for (i, j), p in sorted(frame.degrees.items()) if j != x]
    if pairs:
        doc["non_exclusivity"] = pairs

    doc["masses"] = [{"set": list(frame.labels_of(m)), "mass": v}
                     for m, v in d.masses.items()]
    return doc


def serialize_document(frame: Frame, d: DNumber) -> str:
    """Canonical UTF-8 JSON text; byte-identical for equal inputs."""
    return json.dumps(document_dict(frame, d), indent=2, ensure_ascii=False) + "\n"
