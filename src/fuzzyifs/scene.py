"""Scene files: a JSON document describing a system, a start set, a stop
rule and an optional render window.

Numbers may be written as integers, decimals or rational strings "a/b". In
exact mode decimals are parsed as exact decimal fractions ("0.1" means
1/10), which the loader arranges by keeping JSON decimals as strings until
the numeric mode is known.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fuzzy import FuzzySet
from .grey import GreyLevelMap, GreyMapError
from .grid import RenderSpec
from .ifs import DEFAULT_SUPPORT_CAP, AffineMap, IteratedFunctionSystem
from .numeric import Scalar, parse_scalar
from .system import OrbitalFuzzySystem

_TOP_LEVEL_KEYS = {
    "dimension", "numeric_mode", "maps", "grey_maps", "contraction_constant",
    "initial", "stop", "render", "support_cap",
}


class SceneParseError(ValueError):
    """The file is not syntactically valid."""


class SceneError(ValueError):
    """The file parsed but failed validation; carries every violation."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class StopRule:
    steps: Optional[int] = None
    tolerance: Optional[Scalar] = None

    def __post_init__(self):
        if (self.steps is None) == (self.tolerance is None):
            raise ValueError("stop rule needs exactly one of steps or tolerance")


@dataclass(frozen=True)
class Scene:
    dimension: int
    numeric_mode: str
    system: OrbitalFuzzySystem
    initial: FuzzySet
    stop: StopRule
    render: Optional[RenderSpec]
    support_cap: int = DEFAULT_SUPPORT_CAP

    @property
    def exact(self) -> bool:
        return self.numeric_mode == "exact"


def _is_integer(value) -> bool:
    """JSON integers only: booleans are ints in Python but not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_constant(token):
    raise SceneParseError(f"non-finite number {token!r} not allowed")


def load_scene_dict(raw: dict, mode_override: Optional[str] = None) -> Scene:
    """Validate a parsed scene document; collects every violation."""
    violations = []
    if not isinstance(raw, dict):
        raise SceneError(["top level must be an object"])
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        violations.append(f"unknown keys: {', '.join(sorted(unknown))}")

    mode = mode_override or raw.get("numeric_mode", "exact")
    if mode not in ("exact", "float"):
        violations.append(f"numeric_mode must be 'exact' or 'float', got {mode!r}")
        mode = "exact"
    exact = mode == "exact"

    dimension = raw.get("dimension", 2)
    if not _is_integer(dimension) or dimension < 1:
        violations.append("dimension must be a positive integer")
        dimension = 2

    def scalar_at(value, where):
        try:
            return parse_scalar(value, exact)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            violations.append(f"{where}: {err}")
            return Fraction(0) if exact else 0.0

    maps = []
    raw_maps = raw.get("maps")
    if not isinstance(raw_maps, list) or not raw_maps:
        violations.append("maps must be a nonempty list")
        raw_maps = []
    for i, m in enumerate(raw_maps):
        try:
            linear = tuple(
                tuple(scalar_at(v, f"maps[{i}].linear") for v in row)
                for row in m["linear"]
            )
            offset = tuple(scalar_at(v, f"maps[{i}].offset") for v in m["offset"])
            amap = AffineMap(linear=linear, offset=offset)
            if amap.dimension != dimension:
                violations.append(f"maps[{i}] has dimension {amap.dimension}, scene has {dimension}")
            maps.append(amap)
        except (KeyError, TypeError, ValueError) as err:
            violations.append(f"maps[{i}]: {err}")

    grey_maps = []
    raw_greys = raw.get("grey_maps")
    if not isinstance(raw_greys, list) or not raw_greys:
        violations.append("grey_maps must be a nonempty list")
        raw_greys = []
    for i, g in enumerate(raw_greys):
        try:
            pts = [
                (scalar_at(t, f"grey_maps[{i}]"), scalar_at(v, f"grey_maps[{i}]"))
                for t, v in g["breakpoints"]
            ]
            grey_maps.append(GreyLevelMap.from_breakpoints(pts, exact=exact))
        except (KeyError, TypeError, ValueError, GreyMapError) as err:
            violations.append(f"grey_maps[{i}]: {err}")

    if maps and grey_maps and len(maps) != len(grey_maps):
        violations.append(
            f"{len(maps)} maps but {len(grey_maps)} grey maps; need one per map"
        )

    c = scalar_at(raw.get("contraction_constant", 0), "contraction_constant")
    if not (0 <= c < 1):
        violations.append("contraction_constant out of range [0, 1)")
        c = Fraction(0) if exact else 0.0
    system = None
    if maps and grey_maps and len(maps) == len(grey_maps):
        try:
            ifs = IteratedFunctionSystem(maps=tuple(maps), contraction_constant=c)
            system = OrbitalFuzzySystem(ifs=ifs, grey_maps=tuple(grey_maps))
            violations.extend(system.validate())
        except ValueError as err:
            violations.append(str(err))
            system = None

    initial = None
    raw_initial = raw.get("initial")
    if not isinstance(raw_initial, list) or not raw_initial:
        violations.append("initial must be a nonempty list of [point, level] pairs")
    else:
        try:
            pairs = []
            for entry in raw_initial:
                point, level = entry
                pairs.append((
                    tuple(scalar_at(v, "initial point") for v in point),
                    scalar_at(level, "initial level"),
                ))
            initial = FuzzySet(pairs, exact=exact)
            if initial.dimension != dimension:
                violations.append("initial points do not match the scene dimension")
            if not initial.normal:
                violations.append("initial fuzzy set not normal (no level-1 point)")
        except (TypeError, ValueError) as err:
            violations.append(f"initial: {err}")

    stop = None
    raw_stop = raw.get("stop")
    if not isinstance(raw_stop, dict) or ("steps" in raw_stop) == ("tolerance" in raw_stop):
        violations.append("stop must be an object with exactly one of steps or tolerance")
    elif "steps" in raw_stop:
        if not _is_integer(raw_stop["steps"]) or raw_stop["steps"] < 0:
            violations.append("stop.steps must be an integer >= 0")
        else:
            stop = StopRule(steps=raw_stop["steps"])
    else:
        tol = scalar_at(raw_stop["tolerance"], "stop.tolerance")
        if tol <= 0:
            violations.append("stop.tolerance must be positive")
        else:
            stop = StopRule(tolerance=tol)

    render = None
    if "render" in raw and raw["render"] is not None:
        try:
            r = raw["render"]
            bbox = tuple(float(parse_scalar(v, False)) for v in r["bbox"])
            size = r["width"], r["height"]
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
            violations.append(f"render: {err}")
        else:
            if dimension != 2:
                violations.append("render requires dimension 2")
            try:
                render = RenderSpec(bbox, *size)
            except ValueError as err:
                violations.append(str(err))

    support_cap = raw.get("support_cap", DEFAULT_SUPPORT_CAP)
    if not _is_integer(support_cap) or support_cap < 1:
        violations.append("support_cap must be a positive integer")
        support_cap = DEFAULT_SUPPORT_CAP

    if violations:
        raise SceneError(violations)
    return Scene(
        dimension=dimension,
        numeric_mode=mode,
        system=system,
        initial=initial,
        stop=stop,
        render=render,
        support_cap=support_cap,
    )


def load_scene(path, mode_override: Optional[str] = None) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        # Decimals stay strings so exact mode can parse them as exact
        # decimal fractions.
        raw = json.loads(text, parse_float=str, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise SceneParseError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    return load_scene_dict(raw, mode_override=mode_override)


def _emit_scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    return float(value)


def scene_to_dict(scene: Scene) -> dict:
    doc = {
        "dimension": scene.dimension,
        "numeric_mode": scene.numeric_mode,
        "contraction_constant": _emit_scalar(scene.system.ifs.contraction_constant),
        "maps": [
            {
                "linear": [[_emit_scalar(v) for v in row] for row in m.linear],
                "offset": [_emit_scalar(v) for v in m.offset],
            }
            for m in scene.system.ifs.maps
        ],
        "grey_maps": [
            {"breakpoints": [[_emit_scalar(t), _emit_scalar(v)] for t, v in g.breakpoints]}
            for g in scene.system.grey_maps
        ],
        "initial": [
            [[_emit_scalar(c) for c in p], _emit_scalar(l)]
            for p, l in scene.initial.items()
        ],
        "stop": (
            {"steps": scene.stop.steps}
            if scene.stop.steps is not None
            else {"tolerance": _emit_scalar(scene.stop.tolerance)}
        ),
    }
    if scene.render is not None:
        doc["render"] = {
            "bbox": list(scene.render.bbox),
            "width": scene.render.width,
            "height": scene.render.height,
        }
    if scene.support_cap != DEFAULT_SUPPORT_CAP:
        doc["support_cap"] = scene.support_cap
    return doc
