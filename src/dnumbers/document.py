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

This module checks the JSON shape; ``core.label_error``,
``core.pair_errors`` and ``core.mass_error`` hold the label, degree and
mass rules. Every D number serializes, and canonical documents round-trip
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


class DocumentError(ValueError):
    """Document validation failure carrying every located violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def parse_document(text: str | bytes) -> tuple[Frame, DNumber]:
    """Parse and validate a document, returning the frame and the raw D
    number on it, ``(d.frame, d)``.

    All violations are collected and reported together. One inside an
    entry or field names it (``frame[0]``, ``unknown['size']``,
    ``unknown.non_exclusivity['a']``, ``non_exclusivity[2]``, ``masses[1]``,
    ``"unknown"``), an unknown key of an entry that has both its fields is
    named in it (``masses[1]['mas']``), and an unknown root key is named as
    a JSON string (``"non_exclusivty"``); a key repeated in an object the
    schema reads is named in the same way (``"frame": repeated key``,
    ``masses[0]['mass']: repeated key``), where ``json.loads`` alone would
    keep its last value; a second, different degree for one pair is
    reported at the later entry. The frame must be a nonempty
    list of labels, each passing :func:`label_error`, the rules
    :class:`Frame` holds. ``unknown`` may hold only ``cardinality``, an
    integer from 2 to ``sys.float_info.max`` (:func:`cardinality_error`),
    and ``non_exclusivity``. The pair entries go through :func:`pair_errors`
    in one loop per list, the rules :func:`build_frame` holds, each
    pair two labels first, and each reason is reported at its entry. An
    ``unknown.non_exclusivity`` item ``{label: p}`` is checked as the pair
    entry ``([label, "X"], p)``, and its key must be a frame label. A
    mass entry's set must name only frame labels, checked first, as a set
    of unknown labels has mask 0; then the entry must pass
    :func:`mass_error`, the rules :class:`DNumber` holds, with its message
    reported at ``masses[k]``. Duplicate mass entries for the same set are
    rejected outright to surface authoring errors. The total mass is
    summed with ``math.fsum``, as :class:`DNumber` sums it, and may exceed
    1 by at most ``MASS_TOL``.

    The checks map each label to its index once, X to N, and key each
    degree by its index pair and each mass by its mask, found in one pass
    over the set's labels. They test exact types (``type(x) is str``),
    which is exact for ``json.loads`` output, and format an entry's
    location only when the entry fails. A valid document then becomes a
    :class:`Frame` made straight from the degrees, which drops the zeros
    and leaves the adjacency rows for the first read, and a :class:`DNumber`
    made by :func:`build_dnumber` from the masks; :func:`build_frame` is
    not on this path.
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
    errors: list[str] = [
        f'{json.dumps(key)}: unknown key; expected "frame", "unknown", '
        f'"non_exclusivity", "masses" or "check"' for key in doc
        if key not in ("frame", "unknown", "non_exclusivity", "masses", "check")]

    labels = doc.get("frame")
    if not (labels and type(labels) is list and all(type(x) is str for x in labels)):
        raise DocumentError([*errors, '"frame" must be a nonempty list of strings',
                             *_repeated_key_errors(json.loads(text, object_pairs_hook=tuple))])
    index = {X_LABEL: len(labels)}  # a repeated label keeps its first index
    for k, label in enumerate(labels):
        if reason := label_error(label, index):
            errors.append(f"frame[{k}]: {reason}")
        index.setdefault(label, k)

    unknown = _object(errors, doc.get("unknown", {}), "unknown")
    for key in unknown:
        if key not in ("cardinality", "non_exclusivity"):
            errors.append(f'unknown[{key!r}]: unknown key; expected '
                          f'"cardinality" or "non_exclusivity"')
    cardinality = unknown.get("cardinality")
    if "cardinality" in unknown and (reason := cardinality_error(cardinality)):
        errors.append(f'"unknown.cardinality" {reason}')

    x_degrees = _object(errors, unknown.get("non_exclusivity", {}),
                        "unknown.non_exclusivity")
    if X_LABEL in x_degrees:  # keys name frame elements, and X is not one
        errors.append(f"unknown.non_exclusivity[{X_LABEL!r}]: "
                      f"unknown label {X_LABEL!r}")
    # (i, j), i < j -> degree; zeros too, so a conflict shows in either order
    degrees: dict[tuple[int, int], float] = {}
    pairs = doc.get("non_exclusivity", [])
    for name, entries in (
            ("unknown.non_exclusivity", ((label, [label, X_LABEL], p)
                                         for label, p in x_degrees.items()
                                         if label != X_LABEL)),
            ("non_exclusivity", _entries(errors, pairs, "non_exclusivity",
                                         "pair", "degree"))):
        for key, error in pair_errors(index, degrees, entries):
            errors.append(f"{name}[{key!r}]: {error}")

    raw_masses = doc.get("masses")
    if not raw_masses:
        errors.append('"masses" must be a nonempty list')
        raw_masses = []
    masses: dict[int, float] = {}  # mask -> mass
    for k, subset, mass in _entries(errors, raw_masses, "masses", "set", "mass"):
        mask, unknown_label = _subset_mask(subset, index)
        if mask is None:
            error = '"set" must be a list of labels'
        elif unknown_label is not None:  # first: a set of unknown labels has mask 0
            error = f"unknown label {unknown_label!r}"
        elif (error := mass_error(mask, mass)) is None and mask in masses:
            error = f"duplicate entry for set {sorted(subset)}"
        if error is None:
            masses[mask] = mass
        else:
            errors.append(f"masses[{k}]: {error}")

    total = math.fsum(masses.values())
    if total > 1.0 + MASS_TOL:
        errors.append(f"total mass {total} exceeds 1")

    # each object member puts one ":" outside strings, and with no error each
    # entry holds just its two keys: so as many ":" as keys read means no
    # object the schema reads repeats a key. Else decode again, each object
    # as the tuple of its pairs: at the first decode's stack depth and
    # through C's tuple, not a Python hook, so it passes the recursion limit
    # only where the first decode did
    if errors or text.count(":") != (len(doc) + len(unknown) + len(x_degrees)
                                     + 2 * (len(pairs) + len(raw_masses))):
        errors += _repeated_key_errors(json.loads(text, object_pairs_hook=tuple))
    if errors:
        raise DocumentError(errors)

    try:
        frame = Frame(labels, cardinality, degrees)
        d = build_dnumber(frame, masses.items())
    except ValueError as exc:
        raise DocumentError([str(exc)]) from None
    return frame, d


def _repeated_key_errors(root: tuple) -> list[str]:
    """A located error for each key repeated in an object the schema reads
    (the root, ``unknown``, ``unknown.non_exclusivity`` and each object
    entry of ``non_exclusivity`` and ``masses``), in a document decoded with
    each object as the tuple of its (key, value) pairs. Nothing under
    ``check`` is read, so a key repeated there is no error."""
    def members(obj) -> dict:  # the value json.loads keeps for each key
        return dict(obj) if type(obj) is tuple else {}

    def repeated(obj) -> list[str]:
        counts = Counter(key for key, _ in obj) if type(obj) is tuple else {}
        return [key for key, count in counts.items() if count > 1]

    errors = [f"{json.dumps(key)}: repeated key" for key in repeated(root)]
    top = members(root)
    objects = [("unknown", top.get("unknown")),
               ("unknown.non_exclusivity",
                members(top.get("unknown")).get("non_exclusivity"))]
    for name in ("non_exclusivity", "masses"):
        if type(entries := top.get(name)) is list:
            objects += ((f"{name}[{k}]", entry) for k, entry in enumerate(entries))
    for name, obj in objects:
        errors += (f"{name}[{key!r}]: repeated key" for key in repeated(obj))
    return errors


def _object(errors: list[str], value, name: str) -> dict:
    """``value`` if it is a JSON object; otherwise record an error and give {}."""
    if isinstance(value, dict):
        return value
    errors.append(f'"{name}" must be an object')
    return {}


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
            if len(entry) > 2:  # one len for a well-formed entry
                errors.extend(f'{name}[{k}][{key!r}]: unknown key; expected '
                              f'"{first}" and "{second}"'
                              for key in entry if key not in (first, second))
            yield k, entry[first], entry[second]
        else:
            errors.append(f'{name}[{k}]: expected an object with "{first}" and "{second}"')


def _subset_mask(subset, index: dict[str, int]) -> tuple[int | None, str | None]:
    """The mask of the labels in ``subset`` that ``index`` holds, and the
    first label it does not hold, or ``None``; (``None``, ``None``) when
    ``subset`` is not a list of labels. One pass over ``subset``."""
    if type(subset) is not list:
        return None, None
    mask, unknown = 0, None
    for label in subset:
        if type(label) is not str:
            return None, None
        if (i := index.get(label)) is not None:
            mask |= 1 << i
        elif unknown is None:
            unknown = label
    return mask, unknown


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
