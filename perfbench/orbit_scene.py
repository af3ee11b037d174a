"""Seeded scene generator for the ``orbit-exact`` workload.

The scene has three maps, each one half times a rational rotation built from
one of three Pythagorean triples, so every map is a similarity of ratio exactly 1/2 and
the declared contraction constant C = 1/2 holds exactly. Offsets are
rational, every grey map has a jump, and the start set holds eight points at
random rational levels. Coordinate denominators grow like (2c)^n for the
triple's hypotenuse c, the opposite of the dyadic grid of the band scene.

The workload exists to bypass three mechanisms a faster ``d_infinity`` could
use: skipping points the other set already covers, the KD shortlist that is
only taken for at most 64 level groups, and any cache keyed by level. So the
generator measures the properties on a float-mode run of the scene and
rejects a draw that lacks them. Nearly no point may be covered by the other
iterate. Every directed scan of a pair that is too large for the plain
linear scan must group its uncovered points into more than 64 distinct
levels, in both directions, so the exact metric never takes the shortlist.
It also rejects a draw whose candidate pairs, the work of the exact scan,
are off a fixed target by more than 2%, so the seed moves the run time
little.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from tracing import pair_stats

STEPS = 4
N_START = 8
CONTRACTION = Fraction(1, 2)
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
OFFSET_DENOMINATORS = (3, 5, 7, 9)
LEVEL_DENOMINATORS = (3, 5, 7, 11)
MIN_LEVELS = 65
# Scans of at most this many point pairs are linear in any case; this is the
# limit of fuzzyifs.fuzzy at the commit that defined the workload, kept here
# so the scenes do not change when the library's heuristic does.
LINEAR_SCAN_LIMIT = 20_000
# Float levels and coordinates are compared after rounding to this many
# decimals, so that values equal in exact arithmetic stay equal.
ROUND_DIGITS = 12
MIN_UNCOVERED_SHARE = 0.95
TARGET_PAIRS = 170_000
PAIRS_SLACK = 0.02
_MAX_DRAWS = 2000


@dataclass(frozen=True)
class OrbitScene:
    """A generated scene with its float-mode reference run.

    supports[n] is the support size of the n-th iterate and d_history[n - 1]
    the distance between iterates n - 1 and n, for n up to STEPS. The three
    work counts cover every consecutive pair, the residual pair included,
    as the traced run counts them; levels_max is the most distinct levels
    among one direction's uncovered points.
    """

    doc: dict
    supports: Tuple[int, ...]
    d_history: Tuple[float, ...]
    levels_max: int
    uncovered_share: float
    candidate_pairs: int


def _unit_rational(rng: random.Random, denominators) -> Fraction:
    q = rng.choice(denominators)
    return Fraction(rng.randrange(-q, q + 1), q)


def _half_rotation(rng: random.Random, triple):
    a, b, c = triple
    if rng.random() < 0.5:
        a, b = b, a
    cos = Fraction(rng.choice((-1, 1)) * a, 2 * c)
    sin = Fraction(rng.choice((-1, 1)) * b, 2 * c)
    return [[str(cos), str(-sin)], [str(sin), str(cos)]]


def _grey(rng: random.Random, top: Fraction):
    """Zero up to s, a jump to high at s, then linear up to (1, top).

    Levels below s are erased, which thins the support by a seed-dependent
    amount.
    """
    s = Fraction(rng.randrange(2, 5), 7)
    high = top * Fraction(rng.randrange(4, 9), 9)
    points = [(0, 0), (s, 0), (s, high), (1, top)]
    return {"breakpoints": [[str(Fraction(t)), str(Fraction(v))] for t, v in points]}


def draw_doc(rng: random.Random) -> dict:
    """One candidate scene document, before the property check."""
    maps = [
        {"linear": _half_rotation(rng, triple),
         "offset": [str(_unit_rational(rng, OFFSET_DENOMINATORS)) for _ in range(2)]}
        for triple in TRIPLES
    ]
    tops = [Fraction(1)] + [Fraction(rng.randrange(5, 10), 10) for _ in TRIPLES[1:]]
    initial = []
    for i in range(N_START):
        point = [str(_unit_rational(rng, OFFSET_DENOMINATORS)) for _ in range(2)]
        q = rng.choice(LEVEL_DENOMINATORS)
        level = Fraction(1) if i == 0 else Fraction(rng.randrange(1, q + 1), q)
        initial.append([point, str(level)])
    return {
        "dimension": 2,
        "numeric_mode": "exact",
        "contraction_constant": str(CONTRACTION),
        "maps": maps,
        "grey_maps": [_grey(rng, top) for top in tops],
        "initial": initial,
        "stop": {"steps": STEPS},
    }


def _float_reference(doc: dict):
    """Iterates of a float-mode run, plus the residual step's image."""
    from fuzzyifs.scene import load_scene_dict

    scene = load_scene_dict(doc, mode_override="float")
    iterates = [scene.initial]
    final, report = scene.system.iterate(
        scene.initial, steps=STEPS, on_step=lambda n, u: iterates.append(u))
    iterates.append(scene.system.step(final))
    return report, iterates


def _check_exact(doc: dict) -> None:
    from fuzzyifs.scene import load_scene_dict

    scene = load_scene_dict(doc)
    contractivity = scene.system.ifs.check_contractivity(scene.initial.support_set(), depth=2)
    if not contractivity.ok or contractivity.max_ratio != CONTRACTION:
        raise ValueError(f"sampled contraction ratio {contractivity.max_ratio} is not {CONTRACTION}")


def _rounded_items(u):
    return [(tuple(round(c, ROUND_DIGITS) for c in p), round(level, ROUND_DIGITS))
            for p, level in u.items()]


def bypasses_shortlist(stats) -> bool:
    """Whether every directed scan too large for the linear scan has more
    than 64 level groups."""
    return all(groups >= MIN_LEVELS
               for s in stats for pending, other, groups in s.scan_sizes
               if pending * other > LINEAR_SCAN_LIMIT)


def generate(seed: int) -> OrbitScene:
    """The first draw from `seed` that has every property the workload needs.

    Raises ValueError when no draw within the limit qualifies.
    """
    rng = random.Random(seed)
    for _ in range(_MAX_DRAWS):
        doc = draw_doc(rng)
        report, iterates = _float_reference(doc)
        items = [_rounded_items(u) for u in iterates]
        stats = [pair_stats(u, v) for u, v in zip(items, items[1:])]
        levels_max = max(s.levels for s in stats)
        share = sum(s.uncovered for s in stats) / sum(s.points for s in stats)
        pairs = sum(s.candidate_pairs for s in stats)
        if (levels_max >= MIN_LEVELS and share >= MIN_UNCOVERED_SHARE and bypasses_shortlist(stats)
                and abs(pairs - TARGET_PAIRS) <= PAIRS_SLACK * TARGET_PAIRS):
            _check_exact(doc)
            return OrbitScene(
                doc=doc,
                supports=tuple(len(u) for u in iterates[:-1]),
                d_history=tuple(float(d) for d in report.d_history),
                levels_max=levels_max,
                uncovered_share=share,
                candidate_pairs=pairs,
            )
    raise ValueError(f"no qualifying orbit scene within {_MAX_DRAWS} draws of seed {seed}")
