"""D numbers: mass assignments on frames with non-exclusive elements,
belief intervals, and a belief-interval total uncertainty measure."""

import importlib

from .core import (
    MASS_TOL,
    X_LABEL,
    BeliefInterval,
    DNumber,
    Frame,
    bel,
    belief_interval,
    build_dnumber,
    build_frame,
    complete,
    is_bpa,
    pl,
)
from .document import DocumentError, parse_document, serialize_document
from .measures import (
    TotalUncertainty,
    UnknownModel,
    interval_distance_to_unit,
    ku,
    total_uncertainty,
    uu_coefficient,
)

#: Exports of :mod:`.oracle`, which (with :mod:`.dst`) loads on first use,
#: so ``validate`` and ``measure`` never import it
_ORACLE_NAMES = ("CheckReport", "GeneratorConfig", "dst_ku_reference", "generate",
                 "oracle_bel_pl")

__all__ = [
    "MASS_TOL", "X_LABEL", "BeliefInterval", "DNumber", "Frame",
    "bel", "belief_interval", "build_dnumber", "build_frame", "complete",
    "is_bpa", "pl",
    "DocumentError", "parse_document", "serialize_document",
    "TotalUncertainty", "UnknownModel", "dst_ku_reference",
    "interval_distance_to_unit", "ku", "total_uncertainty", "uu_coefficient",
    "CheckReport", "GeneratorConfig", "generate", "oracle_bel_pl",
]


def __getattr__(name):
    """The lazy ``oracle`` and ``dst`` submodules and the oracle's exports (PEP 562)."""
    if name in ("oracle", "dst"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORACLE_NAMES:
        return getattr(importlib.import_module(f"{__name__}.oracle"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
