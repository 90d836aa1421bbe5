"""Seeded document generator owned by the benchmark.

The program's own generator (``dnumbers gen``) caps the frame at six
elements and would define the inputs it is judged on, so the benchmark
builds its documents here. A :class:`Doc` keeps the generated values in
the benchmark's own form, so the output check never has to trust the
program's parser.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Doc:
    """One generated document.

    Masks are bitmasks over the element indices; bit ``n`` stands for the
    unknown element X. ``degrees`` holds the stored pairs (i, j), i < j,
    where index ``n`` is X; absent pairs have degree 0.
    """

    labels: tuple[str, ...]
    degrees: dict[tuple[int, int], float]
    focal: tuple[tuple[int, float], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def focal_bits(self) -> int:
        return sum(bin(mask).count("1") for mask, _ in self.focal)

    @property
    def density(self) -> float:
        """Stored pairs as a share of all pairs, X included."""
        return len(self.degrees) / (self.n * (self.n + 1) // 2)

    def names(self, mask: int) -> list[str]:
        out = [self.labels[i] for i in range(self.n) if mask >> i & 1]
        if mask >> self.n & 1:
            out.append("X")
        return out

    def to_json(self) -> str:
        x = self.n
        pairs = [{"pair": [self.labels[i], self.labels[j]], "degree": p}
                 for (i, j), p in sorted(self.degrees.items()) if j != x]
        doc: dict = {"frame": list(self.labels)}
        x_degrees = {self.labels[i]: p
                     for (i, j), p in sorted(self.degrees.items()) if j == x}
        if x_degrees:
            doc["unknown"] = {"non_exclusivity": x_degrees}
        if pairs:
            doc["non_exclusivity"] = pairs
        doc["masses"] = [{"set": self.names(m), "mass": v} for m, v in self.focal]
        return json.dumps(doc)


def make_doc(rng: random.Random, n: int, focal_count: int, width_of,
             density: float, complete: bool, x_in_focal: float = 0.0) -> Doc:
    """A document on ``n`` elements with ``focal_count`` distinct focal sets.

    ``width_of(k)`` gives the width of the k-th focal set. Each element
    pair gets a degree with probability ``density``; pairs with X get one
    only when the document is incomplete, since X then carries mass. A
    focal set also contains X with probability ``x_in_focal``.
    """
    labels = tuple(f"e{i}" for i in range(n))
    degrees = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if (j < n or not complete) and rng.random() < density:
                p = rng.random()
                if p > 0.0:
                    degrees[(i, j)] = p
    masks: set[int] = set()
    while len(masks) < focal_count:
        mask = 0
        for i in rng.sample(range(n), width_of(len(masks))):
            mask |= 1 << i
        if rng.random() < x_in_focal:
            mask |= 1 << n
        masks.add(mask)
    focal = sorted(masks)
    weights = [-math.log(1.0 - rng.random()) for _ in focal]
    total = 1.0 if complete else rng.uniform(0.3, 0.9)
    scale = sum(weights)
    return Doc(labels, degrees,
               tuple((m, w / scale * total) for m, w in zip(focal, weights)))


def wide_doc(rng: random.Random, n: int, focal_count: int, dense: bool,
             complete: bool) -> Doc:
    """A wide document: every pair set (dense) or about 5% of them (sparse).

    Focal widths cycle through 1..3n/8, so the total focal bits, which
    set the cost of the singleton intervals, are the same in every
    document of a size (1536 at n = 64, F = 128; mean width 12).
    """
    max_width = max(1, 3 * n // 8)
    return make_doc(rng, n, focal_count, lambda k: 1 + k % max_width,
                    1.0 if dense else 0.05, complete)


def small_doc(rng: random.Random, n: int, complete: bool) -> Doc:
    """A small document: 1..min(8, 2^n - 1) focal sets, half the pairs set."""
    focal_count = rng.randint(1, min(8, 2 ** n - 1))
    return make_doc(rng, n, focal_count, lambda _: rng.randint(1, n), 0.5,
                    complete, x_in_focal=0.1)
