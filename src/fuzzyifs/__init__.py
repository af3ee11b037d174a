"""Fuzzy iterated function systems with certified fixed-point iteration.

Finitely supported fuzzy sets carry the sup-over-cuts metric and their
supports the Hausdorff-Pompeiu metric; a crisp point set is a fuzzy set
whose every level is 1. An affine system paired with grey level maps drives
the fuzzy set operator whose iterates converge to a fuzzy attractor.
Everything runs in either exact rational arithmetic or floats, selected per
scene.

The public names load on first use (PEP 562): ``import fuzzyifs`` imports
none of the package's modules, nor numpy, and ``fuzzyifs.FuzzySet`` or
``from fuzzyifs import FuzzySet`` imports the module that defines the name.
"""

import importlib

__version__ = "0.1.0"

# The public names that each module of the package defines.
_NAMES = {
    "fuzzy": ("EmptyCutError", "EmptySupportError", "FuzzySet", "GreyLevelMap", "GreyMapError",
              "alpha_cut", "apply_grey", "d_infinity", "d_infinity_level_sweep", "join",
              "zadeh_pushforward"),
    "geometry": ("DimensionMismatchError", "diameter", "directed_distance", "euclid",
                 "hausdorff"),
    "grid": ("GridFuzzySet", "RenderSpec", "parse_pgm"),
    "ifs": ("AffineMap", "ContractivityReport", "IteratedFunctionSystem", "SupportCapError",
            "Word", "compose_word", "words_of_length", "words_up_to"),
    "numeric": ("DEFAULT_TOL", "Radical", "le_sum", "sqrt_exact"),
    "scene": ("Scene", "SceneError", "SceneParseError", "StopRule", "load_scene"),
    "system": ("AdmissibilityError", "ContractionViolationError", "ConvergenceReport",
               "OrbitalFuzzySystem", "UnreachableToleranceError", "invariant_domain_check"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name):
    """Import the module that defines a public name and keep the name here,
    so later lookups skip this hook."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "AffineMap",
    "AdmissibilityError",
    "ContractionViolationError",
    "ContractivityReport",
    "ConvergenceReport",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "EmptyCutError",
    "EmptySupportError",
    "FuzzySet",
    "GreyLevelMap",
    "GreyMapError",
    "GridFuzzySet",
    "IteratedFunctionSystem",
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
    "sqrt_exact",
    "words_of_length",
    "words_up_to",
    "zadeh_pushforward",
]
