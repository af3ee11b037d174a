"""The benchmark workloads: the fuzzyifs command each one runs and the check
its outputs must pass.

The reasons for the workloads in BENCHMARK.json are there and in README.md;
the two that run only by name are in EXTRA_WHY. A check returns a list of
problems; an empty
list means the run's outputs are correct. Checks read only the files and
standard output the run left behind and run outside every timed span.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

BAND_SCENE = Path("scenes") / "dyadic_band.json"
BAND_TOL = {False: "0.005", True: "0.1"}
BAND_COLUMNS = 65  # base points x = k/64, k = 0..64
BAND_GRID = 64
# diam(supp(u0) and its image) = sqrt(5)/2 and C = 1/2, so the a-priori
# bound after m steps is sqrt(5) * 2^-m.
BAND_BOUND_SCALE = math.sqrt(5.0)
VERIFY_ARGS = {False: ["--trials", "400", "--depth", "8"], True: ["--trials", "20", "--depth", "3"]}
VERIFY_SEEDS = 7
ORBIT_STEPS = {False: 4, True: 2}
FLOAT_TOL = 1e-9

# Workloads outside BENCHMARK.json, run only when named with --workload. With
# runs long enough to give the band workload a median of three, the time
# budget of a full benchmark holds two workloads; these two add no layer that
# band-exact and verify leave out.
EXTRA_WHY = {
    "band-float": "the same scene and tolerance in float mode, so the modes compare; "
                  "the float cdist d_infinity dominates",
    "orbit-exact": "seeded rotations with growing denominators and many levels; bypasses "
                   "the covered-point skip and the 64-group KD shortlist",
}


@dataclass(frozen=True)
class Plan:
    """What one invocation runs for a workload.

    scene: the scene file the set-up measurement loads, or None when set-up
    is the import alone. argv(outdir, index) gives the fuzzyifs arguments of
    the index-th run (the traced run is run 0), writing outputs under outdir.
    check(outdir, stdout) lists the problems.
    """

    name: str
    scene: Optional[Path]
    mode: Optional[str]
    argv: Callable[[Path, int], List[str]]
    check: Callable[[Path, str], List[str]]
    notes: dict


def _read_report(outdir: Path, problems: List[str]) -> Optional[dict]:
    try:
        return json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        problems.append(f"report unreadable: {err}")
        return None


def _close_sequence(name, got, want, problems: List[str]) -> None:
    if len(got) != len(want) or any(abs(g - w) > FLOAT_TOL for g, w in zip(got, want)):
        problems.append(f"{name} {got} differs from {want}")


# --- band-exact and band-float --------------------------------------------

def band_steps(tol: float) -> int:
    """First m whose a-priori bound sqrt(5) * 2^-m is within tol."""
    m = 0
    while BAND_BOUND_SCALE * 2.0 ** -m > tol:
        m += 1
    return m


def band_raster(levels: dict) -> bytes:
    """The PGM the band's iterate should render to, from its oracle levels.

    Every base column x = k/64 carries the same levels over y, so each pixel
    is the highest level among the heights that fall into its row.
    """
    pixels = np.zeros((BAND_GRID, BAND_GRID))
    for y, level in levels.items():
        row = BAND_GRID - 1 - min(int(float(y) * BAND_GRID), BAND_GRID - 1)
        pixels[row] = np.maximum(pixels[row], float(level))
    header = f"P5\n{BAND_GRID} {BAND_GRID}\n255\n".encode("ascii")
    return header + np.rint(pixels * 255).astype(np.uint8).tobytes()


def _check_band_csv(path: Path, m: int, oracle: dict, problems: List[str]) -> None:
    rows = 0
    column = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["x", "y", "level", "iteration"]:
                problems.append("CSV header differs")
            for x, y, level, iteration in reader:
                rows += 1
                if iteration == str(m) and x == "1/2":
                    column[Fraction(y)] = Fraction(level)
    except (OSError, ValueError) as err:
        problems.append(f"CSV unreadable: {err}")
        return
    want_rows = BAND_COLUMNS * (2 ** (m + 1) - 1)
    if rows != want_rows:
        problems.append(f"CSV has {rows} data rows, expected {want_rows}")
    if column != oracle:
        problems.append(f"levels at x = 1/2 after {m} steps differ from the word enumeration")


def band_plan(root: Path, exact: bool, tiny: bool) -> Plan:
    from fuzzyifs.dyadic import enumerated_levels

    tol = BAND_TOL[tiny]
    m = band_steps(float(tol))
    oracle = enumerated_levels(m)
    raster = band_raster(oracle)

    def argv(outdir: Path, index: int) -> List[str]:
        args = ["run", str(root / BAND_SCENE), "--tol", tol]
        if exact:
            args += ["--out-csv", str(outdir / "iterates.csv")]
        else:
            args += ["--mode", "float"]
        return args + ["--out-image", str(outdir / "final.pgm"),
                       "--report", str(outdir / "report.json")]

    def check(outdir: Path, stdout: str) -> List[str]:
        problems: List[str] = []
        report = _read_report(outdir, problems)
        if report is not None:
            if report.get("iterations") != m:
                problems.append(f"iterations {report.get('iterations')}, expected {m}")
            if report.get("final_support") != BAND_COLUMNS * 2 ** m:
                problems.append(f"final support {report.get('final_support')}, "
                                f"expected {BAND_COLUMNS * 2 ** m}")
            bound = report.get("a_priori", math.inf)
            if not bound <= float(tol):
                problems.append(f"a-priori bound {bound} exceeds the tolerance {tol}")
            if not report.get("certified_residual", math.inf) <= bound:
                problems.append("residual exceeds the a-priori bound")
            # The exact run's distances are exactly 2^-n (residual 2^-(m+1));
            # the float run must match them within FLOAT_TOL.
            _close_sequence("d_history", report.get("d_history", []),
                            [2.0 ** -n for n in range(1, m + 1)], problems)
            _close_sequence("residual", [report.get("certified_residual", math.inf)],
                            [2.0 ** -(m + 1)], problems)
        try:
            image = (outdir / "final.pgm").read_bytes()
        except OSError as err:
            problems.append(f"PGM unreadable: {err}")
        else:
            if image != raster:
                problems.append("PGM differs from the raster of the oracle levels")
        if exact:
            _check_band_csv(outdir / "iterates.csv", m, oracle, problems)
        return problems

    return Plan(name="band-exact" if exact else "band-float",
                scene=root / BAND_SCENE, mode="exact" if exact else "float",
                argv=argv, check=check, notes={"steps": m, "tolerance": tol})


# --- orbit-exact -----------------------------------------------------------

def orbit_plan(root: Path, seed: int, workdir: Path, tiny: bool) -> Plan:
    from orbit_scene import generate

    scene = generate(seed)
    steps = ORBIT_STEPS[tiny]
    path = workdir / f"orbit-{seed}.json"
    path.write_text(json.dumps(scene.doc, indent=1) + "\n", encoding="utf-8")

    def argv(outdir: Path, index: int) -> List[str]:
        return ["run", str(path), "--steps", str(steps), "--report", str(outdir / "report.json")]

    def check(outdir: Path, stdout: str) -> List[str]:
        problems: List[str] = []
        report = _read_report(outdir, problems)
        if report is None:
            return problems
        if report.get("iterations") != steps:
            problems.append(f"iterations {report.get('iterations')}, expected {steps}")
        if not report.get("certified_residual", math.inf) <= report.get("a_priori", -math.inf):
            problems.append("residual exceeds the a-priori bound")
        if report.get("final_support") != scene.supports[steps]:
            problems.append(f"final support {report.get('final_support')}, float run has "
                            f"{scene.supports[steps]}")
        _close_sequence("d_history", report.get("d_history", []),
                        list(scene.d_history[:steps]), problems)
        return problems

    return Plan(name="orbit-exact", scene=path, mode="exact", argv=argv, check=check,
                notes={"steps": steps, "levels_max": scene.levels_max,
                       "uncovered_share": scene.uncovered_share,
                       "candidate_pairs": scene.candidate_pairs})


# --- verify ----------------------------------------------------------------

def verify_seed(seed: int, index: int) -> int:
    """The verify seed of the index-th run of an invocation with `seed`.

    The runs walk the seeds 1 to VERIFY_SEEDS round from a start set by
    `seed`. Each verify seed draws other random systems, and both the time
    and the peak memory of a run depend on them: one geometric-decay case of
    some seeds builds a set that adds 30 to 40 MB and a second or more. An
    invocation at full size makes 8 to 11 runs, so it covers every seed and
    its medians hardly depend on `seed`.
    """
    return 1 + (seed + index) % VERIFY_SEEDS


def verify_plan(seed: int, tiny: bool) -> Plan:
    from fuzzyifs.properties import suite_names

    suites = tuple(suite_names()) + ("geometric_decay", "cauchy_bound", "oracle_equivalence")

    def argv(outdir: Path, index: int) -> List[str]:
        return ["verify", *VERIFY_ARGS[tiny], "--seed", str(verify_seed(seed, index))]

    def check(outdir: Path, stdout: str) -> List[str]:
        lines = set(stdout.splitlines())
        problems = [f"no PASS line for {name}" for name in suites if f"PASS {name}" not in lines]
        problems += [line for line in lines if line.startswith("FAIL")]
        return problems

    return Plan(name="verify", scene=None, mode=None, argv=argv, check=check,
                notes={"suites": suites})


def plan(name: str, root: Path, seed: int, workdir: Path, tiny: bool) -> Plan:
    if name == "band-exact":
        return band_plan(root, exact=True, tiny=tiny)
    if name == "band-float":
        return band_plan(root, exact=False, tiny=tiny)
    if name == "orbit-exact":
        return orbit_plan(root, seed, workdir, tiny)
    if name == "verify":
        return verify_plan(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
