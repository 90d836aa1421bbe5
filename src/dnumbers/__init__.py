"""D numbers: mass assignments on frames with non-exclusive elements,
belief intervals, and a belief-interval total uncertainty measure."""

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
from .oracle import (CheckReport, GeneratorConfig, dst_ku_reference, generate,
                     oracle_bel_pl)

__all__ = [
    "MASS_TOL", "X_LABEL", "BeliefInterval", "DNumber", "Frame",
    "bel", "belief_interval", "build_dnumber", "build_frame", "complete",
    "is_bpa", "pl",
    "DocumentError", "parse_document", "serialize_document",
    "TotalUncertainty", "UnknownModel", "dst_ku_reference",
    "interval_distance_to_unit", "ku", "total_uncertainty", "uu_coefficient",
    "CheckReport", "GeneratorConfig", "generate", "oracle_bel_pl",
]
