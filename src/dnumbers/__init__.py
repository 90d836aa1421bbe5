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

__all__ = [
    "MASS_TOL", "X_LABEL", "BeliefInterval", "DNumber", "Frame",
    "bel", "belief_interval", "build_dnumber", "build_frame", "complete", "pl",
    "DocumentError", "parse_document", "serialize_document",
    "TotalUncertainty", "UnknownModel",
    "interval_distance_to_unit", "ku", "total_uncertainty", "uu_coefficient",
]


def __getattr__(name):
    """The ``oracle`` and ``dst`` submodules, loaded on first use (PEP 562), so
    ``validate`` and ``measure`` never import them."""
    if name in ("oracle", "dst"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
