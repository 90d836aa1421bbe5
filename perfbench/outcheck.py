"""Independent check of the program's outputs.

Every value is recomputed by literal definition from the benchmark's own
:class:`docgen.Doc`: the same two-branch rule as ``oracle_bel_pl``, 1 when
a focal set meets the subset and otherwise the largest stored pair degree
between them, but without the enumeration cap. The check runs after the
timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from docgen import Doc

MASS_TOL = 1e-9   # the document format's completion tolerance
EXACT_TOL = 1e-9  # json-lines and csv print every digit
TABLE_TOL = 0.5e-7 + 1e-12  # half a unit in the 7th decimal, plus float noise

SUITES = ("range", "monotonicity", "set-consistency", "degeneration", "oracle")


@dataclass(frozen=True)
class Expected:
    """What ``dnumbers measure`` must print for one document."""

    rows: tuple[tuple[str, float, float, float], ...]  # label, bel, pl, term
    subsets: tuple[tuple[str, float, float], ...]      # for --subsets all
    ku: float
    uu_coefficient: float
    completion_mass: float


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def literal_interval(doc: Doc, focal: list[tuple[int, float, tuple[int, ...]]],
                     a: int) -> tuple[float, float]:
    """[Bel(a), Pl(a)] of completed focal sets ``(mask, mass, bits)``."""
    lookup = doc.degrees.get
    a_bits = _bits(a)
    lower = math.fsum(v for b, v, _ in focal if b & ~a == 0)
    terms = []
    for b, v, b_bits in focal:
        if b & a:
            terms.append(v)
        else:
            terms.append(v * max(lookup((i, j) if i < j else (j, i), 0.0)
                                 for i in b_bits for j in a_bits))
    return lower, math.fsum(terms)


def expected_measure(doc: Doc, all_subsets: bool = False) -> Expected:
    masses = dict(doc.focal)
    total = math.fsum(masses.values())
    injected = 0.0
    if abs(total - 1.0) > MASS_TOL:
        injected = 1.0 - total
        x = 1 << doc.n
        masses[x] = masses.get(x, 0.0) + injected
    focal = [(b, v, _bits(b)) for b, v in masses.items()]
    rows = []
    for i, label in enumerate(doc.labels):
        lo, hi = literal_interval(doc, focal, 1 << i)
        clo, chi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
        rows.append((label, lo, hi,
                     1.0 - math.sqrt(clo * clo + (chi - 1.0) * (chi - 1.0))))
    subsets = []
    if all_subsets:
        for a in range(1, 1 << (doc.n + 1)):
            lo, hi = literal_interval(doc, focal, a)
            subsets.append(("|".join(doc.names(a)), lo, hi))
    return Expected(tuple(rows), tuple(subsets),
                    math.fsum(r[3] for r in rows),
                    literal_interval(doc, focal, 1 << doc.n)[1], injected)


def check_measure(expected: Expected, fmt: str, text: str) -> list[str]:
    """Mismatches between ``measure`` output in ``fmt`` and ``expected``."""
    try:
        parse = {"json-lines": _parse_json_lines, "csv": _parse_csv,
                 "table": _parse_table}[fmt]
        rows, subsets, summary = parse(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable {fmt} output: {exc!r}"]
    tol = TABLE_TOL if fmt == "table" else EXACT_TOL
    problems = []
    if [r[0] for r in rows] != [r[0] for r in expected.rows]:
        problems.append("element rows differ")
    if [s[0] for s in subsets] != [s[0] for s in expected.subsets]:
        problems.append("subset rows differ")
    for got, want in zip(rows + subsets, expected.rows + expected.subsets):
        for name, g, w in zip(("bel", "pl", "term"), got[1:], want[1:]):
            if abs(g - w) > tol:
                problems.append(f"{got[0]} {name}: {g!r} != {w!r}")
    for key, g in summary.items():
        w = getattr(expected, key)
        if abs(g - w) > tol:
            problems.append(f"{key}: {g!r} != {w!r}")
    return problems


def _parse_json_lines(text):
    rows, subsets, summary = [], [], None
    for line in text.splitlines():
        rec = json.loads(line)
        if "element" in rec:
            rows.append((rec["element"], rec["bel"], rec["pl"], rec["term"]))
        elif "set" in rec:
            subsets.append((rec["set"], rec["bel"], rec["pl"]))
        else:
            if rec["uu_evaluated"] is not None:
                raise ValueError("uu_evaluated set under the coefficient model")
            summary = {k: rec[k] for k in ("ku", "uu_coefficient", "completion_mass")}
    if summary is None:
        raise ValueError("no summary record")
    return rows, subsets, summary


def _parse_csv(text):
    lines = text.splitlines()
    if lines[0] != "element,bel,pl,term":
        raise ValueError(f"bad header {lines[0]!r}")
    rows, subsets = [], []
    for line in lines[1:]:
        name, lo, hi, term = line.split(",")
        if term:
            rows.append((name, float(lo), float(hi), float(term)))
        else:
            subsets.append((name, float(lo), float(hi)))
    return rows, subsets, {}


def _parse_table(text):
    lines = text.splitlines()
    if lines[0].split() != ["element", "bel", "pl", "term"]:
        raise ValueError(f"bad header {lines[0]!r}")
    rows, subsets, summary = [], [], {"completion_mass": 0.0}
    for line in lines[1:]:
        if not line or line == "subset intervals:" or line.startswith("TU = "):
            continue
        if line.startswith("  {"):
            name, interval = line.strip()[1:].split("}: ")
            lo, hi = interval.strip("[]").split(", ")
            subsets.append((name, float(lo), float(hi)))
        elif line.startswith("auto-completed: mass "):
            summary["completion_mass"] = float(line.split()[2])
        elif line.startswith("KU = "):
            summary["ku"] = float(line[5:])
        elif line.startswith("UU coefficient = "):
            summary["uu_coefficient"] = float(line[17:])
        else:
            label, lo, hi, term = line.split()
            rows.append((label, float(lo), float(hi), float(term)))
    if "ku" not in summary or "uu_coefficient" not in summary:
        raise ValueError("no KU or UU line")
    return rows, subsets, summary


def check_suites(text: str, frame_size: int, trials: int) -> tuple[int, list[str]]:
    """Trials reported by ``check all`` and any problem with its report.

    Every suite must pass, in order, and report the trial count its
    definition implies: the requested count, at most that for the
    nesting-filtered monotonicity suite, and every subset of two or more
    elements for set consistency.
    """
    reports = [line for line in text.splitlines() if not line.startswith("  ")]
    problems, total = [], 0
    if len(reports) != len(SUITES):
        return 0, [f"expected {len(SUITES)} suite reports, got {len(reports)}"]
    for name, line in zip(SUITES, reports):
        try:
            status, rest = line.split(" ", 1)
            suite, fields = rest.split(": ", 1)
            got = int(fields.split()[0].removeprefix("trials="))
        except ValueError:
            problems.append(f"unparsable suite report {line!r}")
            continue
        if status != "PASS" or suite != name:
            problems.append(line)
        want = {"set-consistency": 2 ** frame_size - 1 - frame_size}.get(name, trials)
        if got > want or (got < want and name != "monotonicity"):
            problems.append(f"{name}: trials={got}, expected {want}")
        total += got
    return total, problems
