"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line. Timed criteria measure the computation itself
(setup excluded) and take the best of a few repeats to damp scheduler noise.
"""

import random
import time
from fractions import Fraction

from fuzzyifs.dyadic import band_start, reference_system, slice_start
from fuzzyifs.fuzzy import FuzzySet, GreyLevelMap
from fuzzyifs.geometry import hausdorff
from fuzzyifs.grid import GridFuzzySet, parse_pgm
from fuzzyifs.properties import (
    cauchy_bound_failures,
    oracle_equivalence_failures,
    geometric_decay_failures,
    run_suite,
    suite_names,
)
from fuzzyifs.system import OrbitalFuzzySystem

F = Fraction


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _best_time(fn, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def test_criterion_1_first_iterate():
    system = reference_system()
    u0 = slice_start(F(1, 2))
    stepped, elapsed = _best_time(lambda: system.step(u0), repeats=5)
    levels = {p[1]: l for p, l in stepped.items()}
    values_ok = levels == {F(0): F(1), F(1, 2): F(3, 4)}
    _report(
        1,
        "first iterate has levels {y=0: 1, y=1/2: 3/4} exactly in under 1 ms",
        values_ok and elapsed < 1e-3,
        f"levels {sorted(levels.items())}, best time {elapsed * 1e3:.3f} ms",
    )


def test_criterion_2_oracle_equivalence():
    failures, elapsed = _best_time(lambda: oracle_equivalence_failures(depth=8), repeats=2)
    _report(
        2,
        "engine iterates equal the word-enumeration closed form for n = 0..8, "
        "exact rational equality, under 1 s",
        failures == [] and elapsed < 1.0,
        f"{len(failures)} mismatches, best time {elapsed:.3f} s",
    )


def test_criterion_3_crisp_attractor():
    ifs = reference_system().ifs
    samples = FuzzySet([((F(1, 2), F(k, 4096)), 1) for k in range(4097)])
    slack = F(1, 4096)

    def run():
        bad = []
        current = FuzzySet([((F(1, 2), F(0)), 1)])
        for n in range(1, 13):
            current = ifs.step(current)
            h = hausdorff(current, samples)
            if abs(h - F(1, 2 ** n)) > slack:
                bad.append((n, h))
        return bad

    bad, elapsed = _best_time(run, repeats=2)
    _report(
        3,
        "set iterates approach the sampled attractor column at rate 2^-n "
        "for n = 1..12 within 2^-12, under 1 s",
        bad == [] and elapsed < 1.0,
        f"{len(bad)} misses, best time {elapsed:.3f} s",
    )


def test_criterion_4_cauchy_bound():
    failures = cauchy_bound_failures(m_max=10)
    _report(
        4,
        "iterate distances obey the geometric-series bound with C = 1/2 and "
        "diameter sqrt(5)/2 for all 0 <= m < n <= 10 (tolerance 1e-9)",
        failures == [],
        f"{len(failures)} violations",
    )


def test_criterion_5_geometric_decay():
    failures = geometric_decay_failures(random.Random(20240601), cases=200, n_max=8)
    _report(
        5,
        "200 random single-orbit starts decay like C^n times the first step size for n <= 8 "
        "(multiplicative slack 1e-9), and by C at every step (the run's contraction audit)",
        failures == [],
        f"{len(failures)} violations",
    )


def test_criterion_6_property_suites():
    trials = 1000
    failing = {}
    for name in suite_names():
        failures = run_suite(name, random.Random(f"criterion6:{name}"), trials)
        if failures:
            failing[name] = failures
    _report(
        6,
        f"nine property suites at {trials} randomized cases each, zero failures",
        not failing,
        "; ".join(f"{k}: {len(v)}" for k, v in failing.items()) or "all clean",
    )


def test_criterion_7_fixed_point_certification():
    system = reference_system()
    u0 = band_start([F(0), F(1, 2), F(1)])
    (final, report), elapsed = _best_time(
        lambda: system.fixed_point(u0, F(1, 100)), repeats=2)
    # independent count: sqrt(5)/2^m <= 1/100 iff 4^m >= 50000
    expected_m = next(m for m in range(100) if 4 ** m >= 50000)
    x = F(1, 2)
    limit_ok = (
        final.level((x, F(0))) == 1
        and final.level((x, F(1, 2))) == F(3, 4)
        and final.level((x, F(3, 4))) == F(9, 16)
    )
    ok = (
        report.iterations == expected_m == 8
        and report.a_priori <= F(1, 100)
        and report.certified_residual <= F(1, 100)
        and limit_ok
        and elapsed < 1.0
    )
    _report(
        7,
        "tolerance 0.01 stops at m = 8 with certified residual <= 0.01 and "
        "limit levels {1, 3/4, 9/16} at y in {0, 1/2, 3/4}, under 1 s",
        ok,
        f"m = {report.iterations}, bound {float(report.a_priori):.5f}, "
        f"residual {float(report.certified_residual):.5f}, best time {elapsed:.3f} s",
    )


def test_criterion_8_renderer_bit_exact():
    system = reference_system()
    width = height = 64
    centers = [F(2 * i + 1, 2 * width) for i in range(width)]
    u = system.step(band_start(centers))
    grid = GridFuzzySet.from_fuzzy(u, (0, 0), (1, 1), width, height)
    data = grid.to_pgm()
    header_ok = data.startswith(b"P5\n64 64\n255\n")
    _, _, _, pixels = parse_pgm(data)
    base_row = pixels[height - 1]
    half_row = pixels[height - 1 - height // 2]
    ok = (
        header_ok
        and set(base_row.tolist()) == {255}
        and set(half_row.tolist()) == {191}
    )
    _report(
        8,
        "second-step render: header bytes P5/64 64/255, base row 255, "
        "half-height row 191 = round(255 * 3/4)",
        ok,
        f"header {data[:12]!r}, base {sorted(set(base_row.tolist()))}, "
        f"half {sorted(set(half_row.tolist()))}",
    )


def test_criterion_9_fault_sensitivity():
    good = reference_system()
    faulted = OrbitalFuzzySystem(
        ifs=good.ifs,
        grey_maps=(good.grey_maps[0], GreyLevelMap.linear_ramp(F(1, 2))),
    )
    failures = oracle_equivalence_failures(depth=8, system=faulted)
    detected = bool(failures) and any("y=1/2" in f for f in failures)
    _report(
        9,
        "corrupting the second grey map to t/2 makes the oracle equivalence "
        "fail at y = 1/2",
        detected,
        f"{len(failures)} mismatches, first: {failures[0] if failures else 'none'}",
    )
