"""simiso: exact similarity isometries of planar crystallographic point packings."""

from .rings import (
    EISENSTEIN,
    GAUSSIAN,
    FieldElem,
    RingElem,
    RingMismatchError,
)
from .lattices import DegenerateLatticeError, Lattice
from .similarity import (
    Direction,
    ScalSet,
    Similarity,
    compose,
    decompose,
    scal_lattice,
)
from .packings import (
    PointPacking,
    SimilarityReport,
    check_corollaries,
    check_similarity,
    closure_check,
    scal_set_packing,
)
from .oracle import certify_subpacking
from .presets import preset

__all__ = [
    "EISENSTEIN",
    "GAUSSIAN",
    "FieldElem",
    "RingElem",
    "RingMismatchError",
    "DegenerateLatticeError",
    "Lattice",
    "Direction",
    "ScalSet",
    "Similarity",
    "PointPacking",
    "SimilarityReport",
    "compose",
    "decompose",
    "scal_lattice",
    "check_corollaries",
    "check_similarity",
    "closure_check",
    "scal_set_packing",
    "certify_subpacking",
    "preset",
]

__version__ = "0.1.0"
