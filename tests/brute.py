"""Brute-force Hausdorff distances, the double loop that the tests check the
nearest-neighbour kernel of `fuzzyifs.geometry` against."""

import math

from fuzzyifs.geometry import _require_compatible, squared_distance
from fuzzyifs.numeric import sqrt_exact


def directed_distance_brute(a, b):
    """Reference double loop: max over supp a of min distance into supp b."""
    _require_compatible(a, b)
    best = None
    targets = b.support_points()
    for p in a.support_points():
        closest = min(squared_distance(p, q) for q in targets)
        if best is None or closest > best:
            best = closest
    if a.exact:
        return sqrt_exact(best)
    return math.sqrt(best)


def hausdorff_brute(a, b):
    return max(directed_distance_brute(a, b), directed_distance_brute(b, a))
