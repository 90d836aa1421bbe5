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

from .core import (
    MASS_TOL,
    X_LABEL,
    DNumber,
    Frame,
    build_dnumber,
    build_frame,
)


class DocumentError(ValueError):
    """Document validation failure carrying every located violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_document(text: str | bytes) -> tuple[Frame, DNumber]:
    """Parse and validate a document, returning the frame and raw D number.

    All violations are collected and reported together. Duplicate mass
    entries for the same set are rejected outright to surface authoring
    errors.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError([f"encoding error: {exc}"]) from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError([f"syntax error: {exc}"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])

    errors: list[str] = []

    labels = doc.get("frame")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DocumentError(['"frame" must be a list of strings'])

    cardinality = "unknown"
    x_degrees: dict[str, float] = {}
    unknown = doc.get("unknown")
    if unknown is not None:
        if not isinstance(unknown, dict):
            errors.append('"unknown" must be an object')
            unknown = {}
        if "cardinality" in unknown:
            card = unknown["cardinality"]
            if not isinstance(card, int) or card < 2:
                errors.append(f'"unknown.cardinality" must be an integer >= 2, got {card!r}')
            else:
                cardinality = card
        ne = unknown.get("non_exclusivity", {})
        if not isinstance(ne, dict):
            errors.append('"unknown.non_exclusivity" must map labels to degrees')
            ne = {}
        for label, degree in ne.items():
            if not _valid_degree(degree):
                errors.append(f'degree {degree!r} for pair ({label!r}, "X") outside [0, 1]')
            elif label not in labels:
                errors.append(f'unknown label {label!r} in "unknown.non_exclusivity"')
            else:
                x_degrees[label] = float(degree)

    pairs: list[tuple[tuple[str, str], float]] = []
    pair_entries = doc.get("non_exclusivity", [])
    if not isinstance(pair_entries, list):
        errors.append('"non_exclusivity" must be a list of pair entries')
        pair_entries = []
    for k, entry in enumerate(pair_entries):
        where = f"non_exclusivity[{k}]"
        if not isinstance(entry, dict) or "pair" not in entry or "degree" not in entry:
            errors.append(f'{where}: expected an object with "pair" and "degree"')
            continue
        pair, degree = entry["pair"], entry["degree"]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            errors.append(f'{where}: "pair" must be two labels')
            continue
        if not _valid_degree(degree):
            errors.append(f'{where}: degree {degree!r} for pair {tuple(pair)} outside [0, 1]')
            continue
        for label in pair:
            if label != X_LABEL and label not in labels:
                errors.append(f'{where}: unknown label {label!r}')
                break
        else:
            pairs.append(((pair[0], pair[1]), float(degree)))

    mass_entries: list[tuple[list[str], float]] = []
    seen_sets: set[frozenset] = set()
    raw_masses = doc.get("masses")
    if not isinstance(raw_masses, list) or not raw_masses:
        errors.append('"masses" must be a nonempty list')
        raw_masses = []
    for k, entry in enumerate(raw_masses):
        where = f"masses[{k}]"
        if not isinstance(entry, dict) or "set" not in entry or "mass" not in entry:
            errors.append(f'{where}: expected an object with "set" and "mass"')
            continue
        subset, mass = entry["set"], entry["mass"]
        if not (isinstance(subset, list) and all(isinstance(x, str) for x in subset)):
            errors.append(f'{where}: "set" must be a list of labels')
            continue
        if not subset:
            errors.append(f"{where}: mass on empty set: D(∅) must be 0")
            continue
        if not _is_number(mass) or not 0.0 <= mass <= 1.0 + MASS_TOL:
            errors.append(f"{where}: mass must be a nonnegative number "
                          f"no greater than 1, got {mass!r}")
            continue
        bad = [x for x in subset if x != X_LABEL and x not in labels]
        if bad:
            errors.append(f"{where}: unknown label {bad[0]!r} in set")
            continue
        key = frozenset(subset)
        if key in seen_sets:
            errors.append(f"{where}: duplicate entry for set {sorted(subset)}")
            continue
        seen_sets.add(key)
        mass_entries.append((subset, float(mass)))

    total = sum(m for _, m in mass_entries)
    if total > 1.0 + MASS_TOL:
        errors.append(f"total mass {total} exceeds 1")

    if errors:
        raise DocumentError(errors)

    try:
        frame = build_frame(
            labels, cardinality,
            pairs + [((label, X_LABEL), p) for label, p in x_degrees.items()],
        )
        d = build_dnumber(frame, [(frame.subset(s), m) for s, m in mass_entries])
    except ValueError as exc:
        raise DocumentError([str(exc)]) from None
    return frame, d


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _valid_degree(value) -> bool:
    return _is_number(value) and 0.0 <= value <= 1.0


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
