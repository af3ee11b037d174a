"""Fuzzy iterated function systems with certified fixed-point iteration.

Finite point sets carry the Hausdorff-Pompeiu metric, finitely supported
fuzzy sets carry the sup-over-cuts metric, and an affine system paired with
grey level maps drives the fuzzy set operator whose iterates converge to a
fuzzy attractor. Everything runs in either exact rational arithmetic or
floats, selected per scene.
"""

from .codespace import CodeMetric, Word, compose_word, prefix, words_of_length, words_up_to
from .fuzzy import (
    EmptyCutError,
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    GreyMapError,
    alpha_cut,
    apply_grey,
    d_infinity,
    d_infinity_level_sweep,
    join,
    restrict,
    zadeh_pushforward,
)
from .geometry import (
    DimensionMismatchError,
    EmptySetError,
    FinitePointSet,
    diameter,
    directed_distance,
    euclid,
    hausdorff,
)
from .grid import GridFuzzySet, parse_pgm
from .ifs import (
    AffineMap,
    ContractivityReport,
    IteratedFunctionSystem,
    OrbitApproximation,
    SupportCapError,
)
from .numeric import DEFAULT_TOL, Radical, le_sum, sqrt_exact
from .scene import RenderSpec, Scene, SceneError, SceneParseError, StopRule, load_scene, save_scene
from .system import (
    AdmissibilityError,
    ContractionViolationError,
    ConvergenceReport,
    OrbitalFuzzySystem,
    UnreachableToleranceError,
    invariant_domain_check,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AdmissibilityError",
    "ContractionViolationError",
    "CodeMetric",
    "ContractivityReport",
    "ConvergenceReport",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "EmptyCutError",
    "EmptySetError",
    "EmptySupportError",
    "FinitePointSet",
    "FuzzySet",
    "GreyLevelMap",
    "GreyMapError",
    "GridFuzzySet",
    "IteratedFunctionSystem",
    "OrbitApproximation",
    "OrbitalFuzzySystem",
    "Radical",
    "RenderSpec",
    "Scene",
    "SceneError",
    "SceneParseError",
    "StopRule",
    "SupportCapError",
    "UnreachableToleranceError",
    "Word",
    "alpha_cut",
    "apply_grey",
    "compose_word",
    "d_infinity",
    "d_infinity_level_sweep",
    "diameter",
    "directed_distance",
    "euclid",
    "hausdorff",
    "invariant_domain_check",
    "join",
    "le_sum",
    "load_scene",
    "parse_pgm",
    "prefix",
    "restrict",
    "save_scene",
    "sqrt_exact",
    "words_of_length",
    "words_up_to",
    "zadeh_pushforward",
]
