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
    "dyadic": ("Word", "compose_word", "words_of_length", "words_up_to"),
    "fuzzy": ("EmptyCutError", "EmptySupportError", "FuzzySet", "alpha_cut", "apply_grey",
              "d_infinity", "join", "zadeh_pushforward"),
    "geometry": ("DimensionMismatchError", "diameter", "directed_distance", "euclid",
                 "hausdorff"),
    "grey": ("GreyLevelMap", "GreyMapError"),
    "grid": ("GridFuzzySet", "RenderSpec", "parse_pgm"),
    "ifs": ("AffineMap", "ContractivityReport", "IteratedFunctionSystem", "SupportCapError"),
    "numeric": ("DEFAULT_TOL", "Radical", "le_sum", "sqrt_exact"),
    "properties": ("d_infinity_level_sweep", "invariant_domain_check"),
    "scene": ("Scene", "SceneError", "SceneParseError", "StopRule", "load_scene"),
    "system": ("AdmissibilityError", "ContractionViolationError", "ConvergenceReport",
               "OrbitalFuzzySystem", "UnreachableToleranceError"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_MODULE_OF)


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
