"""Randomized property suites, the closed-form oracle equivalence check and
two reference implementations that no run calls: the level sweep of
d_infinity, which the suites and the tests check the engine against, and
the invariant-domain test of an orbital system.

Every suite runs in exact arithmetic, so the inequalities under test are
theorems and any reported failure is a genuine bug, not rounding noise. A
suite is one check of a random case: it draws the case from the RNG it is
given and returns a failure description, or None. `run_suite` and `run_all`
run a suite over a number of trials and return the failures, empty on
success; they back the CLI `verify` command and the acceptance tests.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dyadic import band_start, enumerated_levels, reference_system, slice_start
from .fuzzy import FuzzySet, alpha_cut, apply_grey, d_infinity, join, zadeh_pushforward
from .geometry import _on_scale, _require_compatible, diameter, euclid, hausdorff
from .grey import GreyLevelMap
from .ifs import DEFAULT_SUPPORT_CAP, AffineMap, IteratedFunctionSystem, SupportCapError
from .numeric import DEFAULT_TOL
from .system import ContractionViolationError, OrbitalFuzzySystem

_MAX_REPORTED = 8


def _rational(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randrange(-span, span + 1), rng.choice((1, 2, 3, 4, 8, 16)))


def _level(rng: random.Random) -> Fraction:
    den = rng.choice((2, 3, 4, 5, 8))
    return Fraction(rng.randrange(1, den + 1), den)


def _point(rng: random.Random, dim: int):
    return tuple(_rational(rng) for _ in range(dim))


def _point_set(rng: random.Random, dim: int) -> FuzzySet:
    """A crisp exact set of 1 to 5 points: every point at level 1."""
    count = rng.randrange(1, 6)
    return FuzzySet([(_point(rng, dim), 1) for _ in range(count)], exact=True)


def _fuzzy(rng: random.Random, dim: int, normal: bool = True) -> FuzzySet:
    count = rng.randrange(1, 5)
    pairs = [(_point(rng, dim), _level(rng)) for _ in range(count)]
    if normal:
        k = rng.randrange(len(pairs))
        pairs[k] = (pairs[k][0], Fraction(1))
    return FuzzySet(pairs, exact=True)


def _grey(rng: random.Random, reach_one: bool) -> GreyLevelMap:
    """Random admissible-style map: rho(0) = 0, nondecreasing, optional jump."""
    interior = sorted({Fraction(rng.randrange(1, 16), 16) for _ in range(rng.randrange(0, 3))})
    ts = [Fraction(0)] + interior + [Fraction(1)]
    top = Fraction(1) if reach_one else _level(rng)
    inner = sorted(top * Fraction(rng.randrange(0, 17), 16) for _ in range(len(ts) - 2))
    points = list(zip(ts, [Fraction(0)] + inner + [top]))
    if len(ts) > 2 and rng.random() < 0.4:
        # turn one interior breakpoint into a jump
        k = rng.randrange(1, len(ts) - 1)
        t, low = points[k]
        following = points[k + 1][1]
        if following > low:
            points.insert(k + 1, (t, low + (following - low) / 2))
    return GreyLevelMap.from_breakpoints(points, exact=True)


def _affine(rng: random.Random, dim: int) -> AffineMap:
    rows = [[_rational(rng, span=4) for _ in range(dim)] for _ in range(dim)]
    if rng.random() < 0.25 and dim > 1:
        factor = _rational(rng, span=2)
        rows[-1] = [factor * v for v in rows[0]]
    return AffineMap(
        linear=tuple(tuple(row) for row in rows),
        offset=_point(rng, dim),
    )


def _system(rng: random.Random, dim: int) -> OrbitalFuzzySystem:
    n = rng.randrange(1, 4)
    maps = tuple(_affine(rng, dim) for _ in range(n))
    greys = tuple(_grey(rng, reach_one=(i == 0)) for i in range(n))
    ifs = IteratedFunctionSystem(maps=maps, contraction_constant=Fraction(1, 2))
    return OrbitalFuzzySystem(ifs=ifs, grey_maps=greys)


def _collect(check: Callable[[random.Random], Optional[str]], rng: random.Random,
             trials: int) -> List[str]:
    """The failures of `trials` cases of a check, at most _MAX_REPORTED."""
    failures = []
    for i in range(trials):
        message = check(rng)
        if message is not None:
            failures.append(f"trial {i}: {message}")
            if len(failures) >= _MAX_REPORTED:
                break
    return failures


# --- reference implementations ---------------------------------------------

def d_infinity_level_sweep(u: FuzzySet, v: FuzzySet):
    """Reference implementation: scan the occurring levels."""
    _require_compatible(u, v)
    best = None
    for alpha in sorted(set(u.level_values()) | set(v.level_values())):
        h = hausdorff(alpha_cut(u, alpha), alpha_cut(v, alpha))
        if best is None or h > best:
            best = h
    return best


def invariant_domain_check(system: OrbitalFuzzySystem, u: FuzzySet, depth: int = 6) -> str:
    """Best-effort test that every positive-level point sits in an orbit
    closure that also carries a level-1 point; a float set's points match
    within DEFAULT_TOL.

    Returns "yes" when witnesses were found for every support point, "no" on
    a certified obstruction (a non-normal set cannot qualify) and "unknown"
    when the search was inconclusive at this depth.
    """
    if not u.normal:
        return "no"
    tol = 0.0 if u.exact else DEFAULT_TOL
    one = Fraction(1) if u.exact else 1.0 - DEFAULT_TOL
    level_one_points = [p for p, l in u.items() if l >= one]
    orbits: Dict = {}

    def orbit_holds(w, p) -> bool:
        """Whether the orbit of w holds p, or in float mode a point within
        tol of it."""
        if w not in orbits:
            orbits[w] = system.ifs.orbit(FuzzySet([(w, 1)], exact=u.exact), depth)
        pts = orbits[w]
        return bool(pts.level(p)) or tol > 0 and any(euclid(p, q) <= tol for q in pts.support_points())

    support = list(u.support_points())
    for x in support:
        witnesses = [x] + [w for w in support if w != x]
        found = False
        for w in witnesses:
            if orbit_holds(w, x) and any(orbit_holds(w, y) for y in level_one_points):
                found = True
                break
        if not found:
            return "unknown"
    return "yes"


# --- geometry suites -------------------------------------------------------

def _joint_diameter(a: FuzzySet, b: FuzzySet):
    """diam(supp a union supp b), from the rows of both on one denominator."""
    den = math.lcm(a.scaled()[0], b.scaled()[0])
    return diameter(np.concatenate([_on_scale(a, den), _on_scale(b, den)]), den, True)


def _union_bound(rng: random.Random) -> Optional[str]:
    """h(union A_i, union B_i) <= max_i h(A_i, B_i)."""
    dim = rng.choice((1, 2, 3))
    k = rng.randrange(1, 5)
    a_sets = [_point_set(rng, dim) for _ in range(k)]
    b_sets = [_point_set(rng, dim) for _ in range(k)]
    lhs = hausdorff(join(a_sets), join(b_sets))
    rhs = max(hausdorff(a, b) for a, b in zip(a_sets, b_sets))
    if not lhs <= rhs:
        return f"h(unions) = {lhs!r} > max = {rhs!r}"
    return None


def _diam_bound(rng: random.Random) -> Optional[str]:
    """h(A, B) <= diam(A union B)."""
    dim = rng.choice((1, 2, 3))
    a = _point_set(rng, dim)
    b = _point_set(rng, dim)
    h = hausdorff(a, b)
    d = _joint_diameter(a, b)
    if not h <= d:
        return f"h = {h!r} > diam = {d!r}"
    return None


# --- fuzzy suites ----------------------------------------------------------

def _level_sweep(rng: random.Random) -> Optional[str]:
    """The finite level sweep equals a dense alpha sweep and the fast path."""
    dim = rng.choice((1, 2))
    u = _fuzzy(rng, dim)
    v = _fuzzy(rng, dim)
    by_levels = d_infinity_level_sweep(u, v)
    fast = d_infinity(u, v)
    levels = sorted(set(u.level_values()) | set(v.level_values()))
    dense = set(levels)
    dense.update(Fraction(k, 16) for k in range(1, 17))
    dense.update((a + b) / 2 for a, b in zip(levels, levels[1:]))
    swept = max(hausdorff(alpha_cut(u, a), alpha_cut(v, a)) for a in sorted(dense))
    if not (by_levels == swept == fast):
        return f"sweep {by_levels!r}, dense {swept!r}, fast {fast!r}"
    return None


def _dinf_diameter(rng: random.Random) -> Optional[str]:
    """d_infinity(u, v) <= diam(supp u union supp v)."""
    dim = rng.choice((1, 2))
    u = _fuzzy(rng, dim)
    v = _fuzzy(rng, dim)
    d = d_infinity(u, v)
    bound = _joint_diameter(u, v)
    if not d <= bound:
        return f"d_infinity = {d!r} > diam = {bound!r}"
    return None


def _pushforward_join_exchange(rng: random.Random) -> Optional[str]:
    """Images of a pointwise max equal the pointwise max of the images."""
    dim = rng.choice((1, 2))
    f = _affine(rng, dim)
    family = [_fuzzy(rng, dim, normal=False) for _ in range(rng.randrange(1, 4))]
    left = zadeh_pushforward(f, join(family))
    right = join([zadeh_pushforward(f, u) for u in family])
    if left != right:
        return f"pushforward(join) != join(pushforwards) for {len(family)} sets"
    return None


def _join_distance(rng: random.Random) -> Optional[str]:
    """d_infinity of joins is bounded by the worst member distance."""
    dim = rng.choice((1, 2))
    k = rng.randrange(1, 4)
    us = [_fuzzy(rng, dim) for _ in range(k)]
    vs = [_fuzzy(rng, dim) for _ in range(k)]
    lhs = d_infinity(join(us), join(vs))
    rhs = max(d_infinity(u, v) for u, v in zip(us, vs))
    if not lhs <= rhs:
        return f"d(joins) = {lhs!r} > max member distance = {rhs!r}"
    return None


def _grey_cut_identity(rng: random.Random) -> Optional[str]:
    """Cuts of a grey-composed set are cuts of the original at the preimage
    level, and cut distances never exceed d_infinity."""
    dim = rng.choice((1, 2))
    rho = _grey(rng, reach_one=rng.random() < 0.5)
    u = _fuzzy(rng, dim)
    v = _fuzzy(rng, dim)
    try:
        ru = apply_grey(rho, u)
        rv = apply_grey(rho, v)
    except ValueError:
        return None  # grey map erased a support; nothing to test
    for alpha in ru.level_values():
        beta = rho.level_preimage(alpha)
        if alpha > rho.value_at_one:
            continue
        cut_left = alpha_cut(ru, alpha)
        cut_right = alpha_cut(u, beta)
        if cut_left != cut_right:
            return f"cut identity fails at alpha = {alpha}"
        if rv.max_level >= alpha:
            h = hausdorff(alpha_cut(ru, alpha), alpha_cut(rv, alpha))
            if not h <= d_infinity(u, v):
                return f"cut distance at alpha = {alpha} exceeds d_infinity"
    return None


# --- operator suites -------------------------------------------------------

def _support_image_inclusion(rng: random.Random) -> Optional[str]:
    """The support of a stepped set sits inside the set image of the support."""
    dim = rng.choice((1, 2))
    system = _system(rng, dim)
    u = _fuzzy(rng, dim)
    stepped = system.step(u)
    image = system.ifs.step(u.support_set())
    if join([stepped.support_set(), image]) != image:
        return "support of the stepped set escapes the image of the support"
    return None


def _step_majorant(rng: random.Random) -> Optional[str]:
    """One operator step is nonexpansive against the worst per-map image
    distance: d_infinity(step(u), step(v)) <= max over maps f of
    d_infinity(f(u), f(v))."""
    dim = rng.choice((1, 2))
    system = _system(rng, dim)
    u = _fuzzy(rng, dim)
    v = _fuzzy(rng, dim)
    lhs = d_infinity(system.step(u), system.step(v))
    rhs = max(
        d_infinity(zadeh_pushforward(f, u), zadeh_pushforward(f, v))
        for f in system.ifs.maps
    )
    if not lhs <= rhs:
        return f"d(step(u), step(v)) = {lhs!r} > majorant = {rhs!r}"
    return None


# --- bound checks ----------------------------------------------------------

def _contractive_float_system(rng: random.Random, n_maps: int, c_target: float) -> OrbitalFuzzySystem:
    maps = []
    for _ in range(n_maps):
        strength = c_target * (0.2 + 0.779 * rng.random())
        m = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
        norm = np.linalg.svd(m, compute_uv=False)[0]
        if norm == 0:
            m = np.eye(2)
            norm = 1.0
        m = m * (strength / norm)
        offset = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        maps.append(AffineMap(
            linear=tuple(tuple(float(v) for v in row) for row in m),
            offset=tuple(float(v) for v in offset),
        ))
    greys = [GreyLevelMap.identity(exact=False)]
    for _ in range(n_maps - 1):
        if rng.random() < 0.3:
            t = rng.uniform(0.2, 0.8)
            hi = rng.uniform(0.5, 1.0)
            greys.append(GreyLevelMap.from_breakpoints(
                [(0.0, 0.0), (t, 0.0), (t, hi), (1.0, hi)], exact=False))
        else:
            greys.append(GreyLevelMap.linear_ramp(rng.uniform(0.3, 1.0), exact=False))
    ifs = IteratedFunctionSystem(maps=tuple(maps), contraction_constant=float(c_target))
    return OrbitalFuzzySystem(ifs=ifs, grey_maps=tuple(greys))


def geometric_decay_failures(rng: random.Random, cases: int, n_max: int = 8) -> List[str]:
    """Consecutive iterate distances decay like C^n for starts supported
    inside one orbit, and each step by C: a case runs `iterate` for n_max
    steps, whose audit checks d_(n+1) <= C d_n at every step and the
    residual, and its distances d_0, ..., d_(n_max) must stay within C^n
    d_0.

    Systems are random float-mode affine contractions with spectral norms
    below the declared constant; the start set takes its support from an
    orbit approximation of a random base point.
    """
    failures = []
    for case in range(cases):
        r = rng.random()
        n_maps = 1 if r < 0.35 else (2 if r < 0.95 else 3)
        c = rng.uniform(0.1, 0.9)
        system = _contractive_float_system(rng, n_maps, c)
        base = FuzzySet([((rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)], exact=False)
        orbit_pts = list(system.ifs.orbit(base, 3).support_points())
        size = rng.randrange(1, min(3, len(orbit_pts)) + 1)
        chosen = rng.sample(orbit_pts, size)
        pairs = [(p, rng.uniform(0.1, 1.0)) for p in chosen]
        pairs[0] = (pairs[0][0], 1.0)
        try:
            _, report = system.iterate(FuzzySet(pairs, exact=False), steps=n_max)
        except ContractionViolationError as err:
            failures.append(f"case {case}: {err}")
        else:
            distances = (*report.d_history, report.certified_residual)
            d0 = distances[0]
            if d0 == 0.0:
                continue  # already fixed; nothing to measure
            for n, dn in enumerate(distances):
                allowed = (c ** n) * d0 * (1 + 1e-9)
                if dn > allowed:
                    failures.append(
                        f"case {case}: step {n} moved {dn:.3e} > C^n bound {allowed:.3e}"
                    )
                    break
        if len(failures) >= _MAX_REPORTED:
            break
    return failures


def cauchy_bound_failures(m_max: int = 10) -> List[str]:
    """Distances between iterates of the reference band start obey the
    geometric-series bound with C = 1/2 and reach diameter sqrt(5)/2."""
    system = reference_system(exact=False)
    u0 = band_start([0.0, 0.5, 1.0], exact=False)
    iterates = [u0]
    for _ in range(m_max):
        iterates.append(system.step(iterates[-1]))
    c = 0.5
    diam = math.sqrt(5.0) / 2.0
    failures = []
    for m in range(m_max):
        for n in range(m + 1, m_max + 1):
            measured = d_infinity(iterates[m], iterates[n])
            bound = (c ** m - c ** n) / (1 - c) * diam
            if measured > bound + 1e-9:
                failures.append(f"m={m}, n={n}: {measured} > {bound}")
    return failures


# --- oracle equivalence ----------------------------------------------------

def oracle_equivalence_failures(depth: int = 8, system: Optional[OrbitalFuzzySystem] = None,
                                x=Fraction(1, 2)) -> List[str]:
    """Engine iterates versus the word-enumeration closed form, exactly.

    Runs the bundled system (or a caller-supplied variant, for fault
    injection) on the start with level 1 at (x, 0) and compares every
    support level at every step up to `depth`.
    """
    if system is None:
        system = reference_system(exact=True)
    u = slice_start(Fraction(x), exact=True)
    x = Fraction(x)
    failures = []
    for n in range(depth + 1):
        expected = enumerated_levels(n)
        got = {p[1]: level for p, level in u.items()}
        if any(p[0] != x for p, _ in u.items()):
            failures.append(f"n={n}: a support point left the column x={x}")
        for y in sorted(set(expected) | set(got)):
            if expected.get(y) != got.get(y):
                failures.append(
                    f"n={n} y={y}: engine {got.get(y, 0)} != closed form {expected.get(y, 0)}"
                )
        if len(failures) >= _MAX_REPORTED:
            break
        if n < depth:
            u = system.step(u)
    return failures


_SUITES = (
    ("union_bound", _union_bound),
    ("diam_bound", _diam_bound),
    ("level_sweep_equality", _level_sweep),
    ("dinf_diameter_bound", _dinf_diameter),
    ("pushforward_join_exchange", _pushforward_join_exchange),
    ("join_distance_bound", _join_distance),
    ("grey_cut_identity", _grey_cut_identity),
    ("support_image_inclusion", _support_image_inclusion),
    ("step_distance_majorant", _step_majorant),
)


def suite_names():
    return [name for name, _ in _SUITES]


def run_suite(name: str, rng: random.Random, trials: int) -> List[str]:
    return _collect(dict(_SUITES)[name], rng, trials)


def _run_job(job: Tuple[str, Optional[int], int]) -> List[str]:
    """The failures of one job of `run_all`, given as (name, seed, size).

    The function is looked up by name in this module when the job runs, so
    no callable crosses the pool, and a suite that a caller replaced before
    `run_all` forked its workers is the one that runs."""
    name, seed, size = job
    if name == "geometric_decay":
        return geometric_decay_failures(random.Random(seed), cases=size, n_max=6)
    if name == "cauchy_bound":
        return cauchy_bound_failures(m_max=size)
    if name == "oracle_equivalence":
        return oracle_equivalence_failures(size)
    return run_suite(name, random.Random(seed), size)


def run_all(trials: int = 200, depth: int = 8, seed: int = 0) -> Dict[str, List[str]]:
    """Every suite with per-suite RNGs derived from one seed.

    The geometric-decay check is far heavier per case than the rest, so it
    runs at a reduced case count. The oracle's last iterate holds 2^depth
    points, so a depth at which that passes the support cap raises
    SupportCapError before any suite runs; the comparison is by bit length,
    so a huge depth builds no huge integer.

    No job reads another's state, so the twelve jobs run on a pool of
    forked workers, one per CPU of the process's affinity mask, taken in
    turn as each worker comes free. Every seed is drawn from the master
    seed first, in the order of the result's keys, so the result is the
    one a loop over the jobs in this process would return. An exception of
    a job reaches the caller with its type and message; a worker that dies
    raises the pool's BrokenProcessPool. The pool machinery is imported
    here, not with the module, since a `run` never needs it.
    """
    if depth >= DEFAULT_SUPPORT_CAP.bit_length():
        raise SupportCapError(f"oracle depth {depth}: the last iterate would hold "
                              f"2^{depth} points, past the support cap of {DEFAULT_SUPPORT_CAP}")
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    master = random.Random(seed)
    jobs = [(name, master.randrange(2 ** 32), trials) for name in suite_names()]
    jobs.append(("geometric_decay", master.randrange(2 ** 32), max(5, trials // 20)))
    jobs += [("cauchy_bound", None, 8), ("oracle_equivalence", None, depth)]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return dict(zip((name for name, _, _ in jobs), pool.map(_run_job, jobs, chunksize=1)))
