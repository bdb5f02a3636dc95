"""simiso: exact similarity isometries of planar crystallographic point packings."""

from .rings import (
    EISENSTEIN,
    GAUSSIAN,
    FieldElem,
    RingElem,
    RingMismatchError,
    canonical_associate,
    content_and_primitive,
    ring_gcd,
    ring_lcm,
)
from .lattices import DegenerateLatticeError, Lattice
from .similarity import Direction, ScalSet, Similarity, compose, decompose
from .packings import (
    PointPacking,
    SimilarityReport,
    check_corollaries,
    check_similarity,
    scal_set_packing,
)
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
    "canonical_associate",
    "content_and_primitive",
    "ring_gcd",
    "ring_lcm",
    "compose",
    "decompose",
    "check_corollaries",
    "check_similarity",
    "scal_set_packing",
    "preset",
]

__version__ = "0.1.0"
