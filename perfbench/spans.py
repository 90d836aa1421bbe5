"""Spans around calls into the program's layers, installed from outside.

Wrappers go in at the module attribute names through which callers reach
each function: ``belief_interval`` is wrapped as ``dnumbers.cli.belief_interval``
and as ``dnumbers.measures.belief_interval``, and ``pl`` also inside
``dnumbers.core``, where ``belief_interval`` looks it up. Nothing under
``src/`` changes.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Functions timed as spans, by layer (the package module that defines them).
TIMED = {
    "cli": ("main", "build_parser"),
    "document": ("parse_document",),
    "core": ("complete", "build_dnumber", "belief_interval", "bel", "pl"),
    "measures": ("total_uncertainty", "ku", "uu_coefficient"),
    "oracle": ("check_range", "check_monotonicity", "check_set_consistency",
               "check_degeneration", "check_oracle_equivalence", "generate",
               "oracle_bel_pl"),
    "dst": ("mass_function", "bel_m", "pl_m"),
}
CHECKS = TIMED["oracle"][:5]

#: Counts kept without timing, so that the count is not swamped by its timer.
COUNTS = ("document.bytes", "core.nonexclusivity.calls", "core.focal_sets",
          "core.focal_bits") + tuple(f"oracle.{c}.trials" for c in CHECKS)


def _on_return(name):
    """What a wrapped call adds to the counts, from its arguments and result."""
    if name == "document.parse_document":
        return lambda counts, args, result: counts.update(
            {"document.bytes": len(args[0])})
    if name == "core.complete":
        return lambda counts, args, result: counts.update(
            {"core.focal_sets": len(result.masses),
             "core.focal_bits": sum(m.bit_count() for m in result.masses)})
    if name.removeprefix("oracle.") in CHECKS:
        key = f"{name}.trials"
        return lambda counts, args, result: counts.update({key: result.trials})
    return None


class Tracer:
    """Per-name call counts and self times, plus the spans of one pass.

    A span's self time is its duration minus the time covered by its child
    spans. ``doc`` is the id shared by every span of one document or call.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.record = True
        self.doc = 0
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self, record: bool) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.record = record

    def timed(self, name: str, fn):
        on_return = _on_return(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            span = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - span[1]
                if self.record:
                    self.spans.append((span[0], parent, self.doc, name, t0, t1))
            if on_return is not None:
                on_return(self.counts, args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap every traced function wherever ``package`` exposes it."""
        namespaces = [package, package.core, package.measures, package.dst,
                      package.oracle, package.document, package.cli,
                      package.core.Frame]
        wrappers = [(getattr(getattr(package, layer), fn),
                     self.timed(f"{layer}.{fn}", getattr(getattr(package, layer), fn)))
                    for layer, names in TIMED.items() for fn in names]
        nonexclusivity = package.core.Frame.nonexclusivity
        wrappers.append((nonexclusivity,
                         self.counted("core.nonexclusivity.calls", nonexclusivity)))
        originals = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                for fn, wrapper in wrappers:
                    if value is fn:
                        originals.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, value in originals:
                setattr(ns, attr, value)

    def write(self, path) -> None:
        """Write the recorded spans as JSON: id, parent, doc, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["id", "parent", "doc", "name", "start_s", "end_s"],
                       "spans": self.spans}, out, separators=(",", ":"))
