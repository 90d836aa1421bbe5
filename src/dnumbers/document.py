"""JSON document format for frames and D numbers.

Schema (all names fixed):

.. code-block:: json

    {
      "frame": ["a", "b"],
      "unknown": {"cardinality": 2, "non_exclusivity": {"a": 0.5}},
      "non_exclusivity": [{"pair": ["a", "b"], "degree": 0.3}],
      "masses": [{"set": ["a"], "mass": 0.6}]
    }

``unknown`` and ``non_exclusivity`` are optional, ``unknown`` holds no
keys but ``cardinality`` and ``non_exclusivity``, and each mass and pair
entry holds exactly its two keys; none of these objects repeats a key.
The root holds no keys but these four and ``check``, under which
``dnumbers check`` writes what a counterexample was checked with;
nothing under ``check`` is read. Degrees
involving the unknown element live under ``unknown.non_exclusivity`` as a
label-to-degree mapping; pairs naming "X" in the top-level list are also
accepted on input.

:class:`Frame` and ``build_dnumber`` hold the rules a valid document is
read with; only a document that breaks one is walked again for located
errors. Every D number serializes, and canonical documents round-trip
bit-exactly through serialize ∘ parse.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from .core import (
    MASS_TOL,
    X_LABEL,
    DNumber,
    Frame,
    build_dnumber,
    cardinality_error,
    label_error,
    mass_error,
    pair_errors,
)

#: The keys the root and ``unknown`` may hold
_ROOT_KEYS = frozenset({"frame", "unknown", "non_exclusivity", "masses", "check"})
_UNKNOWN_KEYS = frozenset({"cardinality", "non_exclusivity"})


class DocumentError(ValueError):
    """Document validation failure carrying every located violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_document(text: str | bytes) -> tuple[Frame, DNumber]:
    """Parse and validate a document, returning the frame and the raw D
    number on it, ``(d.frame, d)``.

    The document is decoded once and mapped: each label to its index, X
    to N, each pair entry to its index pair and each set to its mask. The
    tables go to :class:`Frame` and :func:`build_dnumber`, which hold the
    label, cardinality, degree and mass rules; the map checks only the
    document's own, by exact type: its shape, no unknown or repeated key,
    one degree per pair and one mass per set.

    A document that fails is walked again, and every violation is reported
    at its location, in document order: an entry or field (``frame[0]``,
    ``unknown['size']``, ``unknown.non_exclusivity['a']``, ``masses[1]``,
    ``"unknown"``), an unknown key of an entry with both its fields
    (``masses[1]['mas']``), an unknown root key as a JSON string
    (``"non_exclusivty"``), and last, a key repeated in an object the
    schema reads, which ``json.loads`` alone would read as its last value
    (``"frame": repeated key``, ``masses[0]['mass']: repeated key``). The
    reasons are those of :func:`label_error`, :func:`cardinality_error`,
    :func:`pair_errors`, which takes an ``unknown.non_exclusivity`` item
    ``{label: p}`` as the pair entry ``([label, "X"], p)`` and reports a
    second, different degree for one pair at the later entry, and
    :func:`mass_error`, once the set names only frame labels, as a set of
    unknown labels has mask 0. The total mass, summed with ``math.fsum``
    as :class:`DNumber` sums it, may exceed 1 by at most ``MASS_TOL``.
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
    try:
        frame, d, keys = _read(doc)
    except (KeyError, TypeError, ValueError) as exc:
        declined = exc
    else:
        # each object member puts one ":" outside strings, so as many ":" as
        # keys read means no object the schema reads repeats a key
        if text.count(":") == keys:
            return frame, d
        declined = None
    # decode again, each object as the tuple of its pairs: at the first
    # decode's stack depth and through C's tuple, not a Python hook, so it
    # passes the recursion limit only where the first decode did
    repeated = _repeated_key_errors(json.loads(text, object_pairs_hook=tuple))
    if declined is None and not repeated:  # a ":" in a string or under "check"
        return frame, d
    # the walk finds a violation in every document the map declines, as
    # tests/test_document.py checks, so the map's own reason never shows
    raise DocumentError(_located_errors(doc) + repeated or [str(declined)])


def _schema_objects(root, members=lambda obj: obj if type(obj) is dict else {}):
    """The objects the schema reads in a decoded document, as decoded: the
    root, ``unknown`` and ``unknown.non_exclusivity`` ({} if absent), and
    the entry lists ``non_exclusivity`` and ``masses`` ([] if absent).
    ``members`` gives a decoded object as a ``dict``, anything else as {}."""
    top = members(root)
    unknown = top.get("unknown", {})
    return (root, unknown, members(unknown).get("non_exclusivity", {}),
            top.get("non_exclusivity", []), top.get("masses", []))


def _read(doc: dict) -> tuple[Frame, DNumber, int]:
    """The frame and raw D number of the decoded document ``doc``, and the
    number of keys in the objects the schema reads; if ``doc`` breaks a
    rule, ``KeyError``, ``TypeError`` or ``ValueError``, naming no place."""
    _, unknown, x_degrees, pairs, entries = _schema_objects(doc)
    labels = doc["frame"]
    if not (doc.keys() <= _ROOT_KEYS and type(labels) is list
            and type(unknown) is dict and unknown.keys() <= _UNKNOWN_KEYS
            and None not in unknown.values()  # Frame reads None as no cardinality
            and type(x_degrees) is dict and type(pairs) is list
            and type(entries) is list and entries):
        raise ValueError("not the document's shape")
    index = {label: i for i, label in enumerate([*labels, X_LABEL])}
    degrees: dict[tuple[int, int], float] = {}  # zeros too, to see a conflict
    for entry in [{"pair": [label, X_LABEL], "degree": p}
                  for label, p in x_degrees.items()] + pairs:
        if len(entry) != 2 or type(pair := entry["pair"]) is not list:
            raise ValueError("not a pair entry")
        a, b = pair
        i, j, p = index[a], index[b], entry["degree"]
        # a second degree must equal the first, and JSON's true equals no number
        if ((old := degrees.setdefault((i, j) if i < j else (j, i), p)) is not p
                and (old != p or type(p) is bool)):
            raise ValueError("conflicting degrees")
    masses = {}  # mask -> mass
    for entry in entries:
        if len(entry) != 2 or type(subset := entry["set"]) is not list:
            raise ValueError("not a mass entry")
        mask = 0
        for label in subset:
            mask |= 1 << index[label]
        masses[mask] = entry["mass"]
    if len(masses) < len(entries):
        raise ValueError("duplicate sets")
    frame = Frame(labels, unknown.get("cardinality"), degrees)
    return (frame, build_dnumber(frame, masses.items()),
            sum(map(len, (doc, unknown, x_degrees, *pairs, *entries))))


def _located_errors(doc: dict) -> list[str]:
    """Every violation in the decoded document ``doc`` but a repeated key,
    each at its location, in document order."""
    _, unknown, x_degrees, pairs, raw_masses = _schema_objects(doc)
    errors: list[str] = [
        f'{json.dumps(key)}: unknown key; expected "frame", "unknown", '
        f'"non_exclusivity", "masses" or "check"' for key in doc if key not in _ROOT_KEYS]

    labels = doc.get("frame")
    if not (labels and type(labels) is list and all(type(x) is str for x in labels)):
        return [*errors, '"frame" must be a nonempty list of strings']
    index = {X_LABEL: len(labels)}  # a repeated label keeps its first index
    for k, label in enumerate(labels):
        if reason := label_error(label, index):
            errors.append(f"frame[{k}]: {reason}")
        index.setdefault(label, k)

    if type(unknown) is not dict:
        errors.append('"unknown" must be an object')
        unknown = {}
    errors += (f'unknown[{key!r}]: unknown key; expected "cardinality" or '
               f'"non_exclusivity"' for key in unknown if key not in _UNKNOWN_KEYS)
    if "cardinality" in unknown and (reason := cardinality_error(unknown["cardinality"])):
        errors.append(f'"unknown.cardinality" {reason}')

    if type(x_degrees) is not dict:
        errors.append('"unknown.non_exclusivity" must be an object')
        x_degrees = {}
    if X_LABEL in x_degrees:  # keys name frame elements, and X is not one
        errors.append(f"unknown.non_exclusivity[{X_LABEL!r}]: unknown label {X_LABEL!r}")
    # (i, j), i < j -> degree; zeros too, so a conflict shows in either order
    degrees: dict[tuple[int, int], float] = {}
    x_entries = ((label, [label, X_LABEL], p)
                 for label, p in x_degrees.items() if label != X_LABEL)
    listed = _entries(errors, pairs, "non_exclusivity", "pair", "degree")
    for name, entries in (("unknown.non_exclusivity", x_entries), ("non_exclusivity", listed)):
        for key, error in pair_errors(index, degrees, entries):
            errors.append(f"{name}[{key!r}]: {error}")

    if not raw_masses:
        errors.append('"masses" must be a nonempty list')
    masses: dict[int, float] = {}  # mask -> mass
    for k, subset, mass in _entries(errors, raw_masses or [], "masses", "set", "mass"):
        if type(subset) is not list or not all(type(x) is str for x in subset):
            error = '"set" must be a list of labels'
        elif missing := [x for x in subset if x not in index]:  # first: alone, mask 0
            error = f"unknown label {missing[0]!r}"
        elif ((error := mass_error(mask := sum({1 << index[x] for x in subset}), mass))
              is None and mask in masses):
            error = f"duplicate entry for set {sorted(subset)}"
        if error is None:
            masses[mask] = mass
        else:
            errors.append(f"masses[{k}]: {error}")

    if (total := math.fsum(masses.values())) > 1.0 + MASS_TOL:
        errors.append(f"total mass {total} exceeds 1")
    return errors


def _repeated_key_errors(root: tuple) -> list[str]:
    """A located error for each key repeated in an object the schema reads,
    in a document decoded with each object as the tuple of its pairs.
    Nothing under ``check`` is read, so a key repeated there is no error."""
    root, unknown, x_degrees, pairs, masses = _schema_objects(
        root, lambda obj: dict(obj) if type(obj) is tuple else {})
    objects = [("", root), ("unknown", unknown), ("unknown.non_exclusivity", x_degrees)]
    for name, entries in (("non_exclusivity", pairs), ("masses", masses)):
        if type(entries) is list:
            objects += ((f"{name}[{k}]", entry) for k, entry in enumerate(entries))
    return [f"{f'{name}[{key!r}]' if name else json.dumps(key)}: repeated key"
            for name, obj in objects if type(obj) is tuple
            for key, count in Counter(key for key, _ in obj).items() if count > 1]


def _entries(errors: list[str], value, name: str, first: str, second: str):
    """Yield (k, entry[first], entry[second]) for each object ``entry`` at
    index k of the list ``value`` that has both fields, recording an error
    at ``name[k][key]`` for each other key it holds; record an error,
    located as ``name[k]``, for anything else."""
    if type(value) is not list:
        errors.append(f'"{name}" must be a list')
        return
    for k, entry in enumerate(value):
        if type(entry) is dict and first in entry and second in entry:
            errors.extend(f'{name}[{k}][{key!r}]: unknown key; expected '
                          f'"{first}" and "{second}"'
                          for key in entry if key not in (first, second))
            yield k, entry[first], entry[second]
        else:
            errors.append(f'{name}[{k}]: expected an object with "{first}" and "{second}"')


def document_dict(d: DNumber) -> dict:
    """Canonical document object for a D number and its frame, ``d.frame``."""
    frame = d.frame
    doc: dict = {"frame": list(frame.elements)}

    x, elements, table = frame.size, frame.elements, sorted(frame.degrees.items())
    x_degrees = {elements[i]: p for (i, j), p in table if j == x}
    unknown: dict = {}
    if frame.unknown_cardinality is not None:
        unknown["cardinality"] = frame.unknown_cardinality
    if x_degrees:
        unknown["non_exclusivity"] = x_degrees
    if unknown:
        doc["unknown"] = unknown

    pairs = [{"pair": [elements[i], elements[j]], "degree": p}
             for (i, j), p in table if j != x]
    if pairs:
        doc["non_exclusivity"] = pairs

    doc["masses"] = [{"set": list(frame.labels_of(m)), "mass": v}
                     for m, v in d.masses.items()]
    return doc


def serialize_document(d: DNumber, check: dict | None = None) -> str:
    """Canonical UTF-8 JSON text of ``d`` on its frame, ``d.frame``, with
    ``check``, if given, last under the root key ``check``, each D number in it
    as its document; the same values always give the same bytes.

    Every D number serializes, and the text parses back to ``(d.frame, d)``:
    ``Frame`` and :class:`DNumber` hold the label and mass rules
    :func:`parse_document` holds.
    """
    doc = document_dict(d)
    if check is not None:
        doc["check"] = {key: document_dict(value) if isinstance(value, DNumber)
                        else value for key, value in check.items()}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
