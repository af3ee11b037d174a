"""Command line front end.

    fuzzyifs run <scene> [--steps N | --tol T] [--out-csv F] [--out-image F]
                 [--report F] [--mode exact|float] [--grid WxH]
                 [--bbox x0,y0,x1,y1]
    fuzzyifs verify [--trials N] [--depth D] [--seed S]
    fuzzyifs render <scene-or-csv> --out-image F [--grid WxH] [--bbox ...]

Exit codes: 0 success, 1 validation, parse or usage error, 2 verification
failure, 3 resource cap exceeded or out of memory. verify exits 3 before
any suite when the oracle's last iterate, 2^depth points, would pass the
support cap, that is from --depth 24 on. verify runs its twelve jobs (the
nine random suites, the decay, Cauchy and oracle checks) on one forked
worker per CPU of the process's affinity mask. Its output, exit codes and
the per-suite seeds derived from --seed are those of a run in one process,
and a worker that dies, killed by a signal or the OOM killer, also exits 3
with one line. A --bbox whose x0 is
negative is written --bbox=-1,0,1,1, since argparse reads -1,... as an
option. The render box and raster size, from the scene or from --bbox and
--grid, are checked by `grid.RenderSpec` before any iteration. Output files
are created as temporary files next to their targets before any iteration
and moved into place only when the command succeeds, so a failed run leaves
existing outputs as they were.
"""

from __future__ import annotations

import os
import sys

# fuzzyifs makes no BLAS call larger than 2 x 2, yet OpenBLAS starts a worker
# thread per CPU as numpy loads it, and starting them slows every command.
# So a CLI process loads it with one thread. A user's own
# OPENBLAS_NUM_THREADS still wins, and a program that loaded numpy before
# this module keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import json
import math
import tempfile
from fractions import Fraction
from itertools import islice

import numpy as np

from .fuzzy import FuzzySet
from .grid import GridFuzzySet, RenderSpec
from .ifs import SupportCapError
from .numeric import format_scalar, parse_scalar
from .scene import Scene, SceneParseError, StopRule, load_scene

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAP = 3


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises CliError on a usage error, so that it exits 1 with one line
    like any other bad input, not 2, the code of a failed verification."""

    def error(self, message):
        raise CliError(message)


def _reported(value) -> float:
    """A distance or bound of a run as the float that the report and the
    summary line show; CliError when it is not a finite float, as the
    distances of a scene spread past float range are not, so that the
    report stays JSON."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise CliError("a distance or bound of this run is too large for a float")
    return number


def _parse_grid(text):
    """(width, height) from WxH; `RenderSpec` checks the values."""
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as err:
        raise CliError(f"--grid expects WxH, got {text!r}") from err


def _parse_bbox(text):
    """The numbers of x0,y0,x1,y1; `RenderSpec` checks the box."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise CliError(f"--bbox expects x0,y0,x1,y1, got {text!r}") from err


def _render_spec(scene: Scene, args) -> RenderSpec:
    bbox = _parse_bbox(args.bbox) if args.bbox else (scene.render.bbox if scene.render else None)
    grid = _parse_grid(args.grid) if args.grid else (
        (scene.render.width, scene.render.height) if scene.render else None)
    if bbox is None or grid is None:
        raise CliError("image output needs a render block in the scene or --grid and --bbox")
    if scene.dimension != 2:
        raise CliError("image output requires dimension 2")
    return RenderSpec(bbox=bbox, width=grid[0], height=grid[1])


@contextlib.contextmanager
def _staged_outputs(paths):
    """Yield a temporary path next to each output path (None stays None).

    The temporary files exist before the block runs, so an unwritable target
    fails before any work, as do two paths that name one file, where the
    last output to move into place would replace the others. They replace
    their targets only when the block succeeds and are removed otherwise.
    """
    named = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in named:
            raise CliError(f"cannot write {path!r}: {named[real]!r} names the same file")
        named[real] = path
    mask = os.umask(0)
    os.umask(mask)
    staged = []
    try:
        for path in paths:
            if path is None:
                staged.append(None)
                continue
            if not path or os.path.isdir(path):
                raise CliError(f"cannot write {path!r}: not a file name")
            folder, name = os.path.split(os.path.abspath(path))
            try:
                fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder)
            except OSError as err:
                raise CliError(f"cannot write {path!r}: {err.strerror}") from err
            os.close(fd)
            staged.append(tmp)
            # mkstemp's files are owner-only; give the mode open() would.
            os.chmod(tmp, 0o666 & ~mask)
        yield staged
        for path, tmp in zip(paths, staged):
            if tmp is not None:
                os.replace(tmp, path)
    finally:
        for tmp in staged:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _ratio(n: int, den: int) -> str:
    """n/den written as str(Fraction(n, den)) writes it."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


# The rows that `_CsvTrace` joins and writes at a time.
_CSV_BLOCK = 4096


class _CsvTrace:
    """Writes the x,y,level,iteration rows of each iterate as it arrives.

    Rows come from the integer form: a coordinate is n/D written by `_ratio`
    in exact mode and the float n / D in float mode. Each distinct value of
    a column and each distinct level is formatted once per iterate, with
    its separator attached, since a grid of points repeats its x and y
    values across rows. A block of _CSV_BLOCK rows gathers its three fields
    by index into one object array and goes out as one string, without the
    csv module: no numeral or fraction needs quoting."""

    def __init__(self, fh):
        self._fh = fh
        fh.write("x,y,level,iteration\n")

    def __call__(self, iteration, u: FuzzySet):
        den, _, points, ranks = u.scaled()
        text = (lambda n: _ratio(n, den)) if u.exact else (lambda n: format_scalar(n / den))
        columns = []
        for k, end in enumerate((",", "")):
            values, index = np.unique(points[:, k], return_inverse=True)
            strings = np.array([text(n) + end for n in values.tolist()], dtype=object)
            columns.append((strings, index))
        tails = [f",{format_scalar(level)},{iteration}\n" for level in (0, *u.level_values())]
        columns.append((np.array(tails, dtype=object), ranks))
        block = np.empty((min(len(ranks), _CSV_BLOCK), 3), dtype=object)
        for start in range(0, len(ranks), _CSV_BLOCK):
            rows = block[:len(ranks) - start]
            for k, (strings, index) in enumerate(columns):
                rows[:, k] = strings[index[start:start + _CSV_BLOCK]]
            self._fh.write("".join(rows.ravel().tolist()))


def _write_image(path, u: FuzzySet, spec: RenderSpec):
    x0, y0, x1, y1 = spec.bbox
    grid = GridFuzzySet.from_fuzzy(u, (x0, y0), (x1, y1), spec.width, spec.height)
    with open(path, "wb") as fh:
        fh.write(grid.to_pgm())


def _cmd_run(args) -> int:
    scene = load_scene(args.scene, mode_override=args.mode)
    stop = scene.stop
    if args.steps is not None and args.tol is not None:
        raise CliError("choose one of --steps and --tol")
    if args.steps is not None:
        stop = StopRule(steps=args.steps)
    elif args.tol is not None:
        try:
            stop = StopRule(tolerance=parse_scalar(args.tol, scene.exact))
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise CliError(f"--tol expects a finite number, got {args.tol!r}") from err

    # Output options are checked before the iterations they would waste.
    spec = _render_spec(scene, args) if args.out_image else None
    if args.out_csv and scene.dimension != 2:
        raise CliError("CSV output requires dimension 2")

    # The stack closes the CSV file before the staged outputs move into place.
    with contextlib.ExitStack() as stack:
        csv_tmp, image_tmp, report_tmp = stack.enter_context(
            _staged_outputs([args.out_csv, args.out_image, args.report]))
        on_step = None
        if csv_tmp is not None:
            on_step = _CsvTrace(stack.enter_context(
                open(csv_tmp, "w", newline="", encoding="utf-8")))
            on_step(0, scene.initial)
        final, report = scene.system.iterate(
            scene.initial,
            steps=stop.steps,
            tolerance=stop.tolerance,
            support_cap=scene.support_cap,
            on_step=on_step,
        )
        a_priori, residual = _reported(report.a_priori), _reported(report.certified_residual)
        if spec is not None:
            _write_image(image_tmp, final, spec)
        if report_tmp is not None:
            doc = {
                "mode": scene.numeric_mode,
                "stop": {"steps": stop.steps} if stop.steps is not None else {"tolerance": float(stop.tolerance)},
                "iterations": report.iterations,
                "d_history": [_reported(d) for d in report.d_history],
                "a_priori": a_priori,
                "certified_residual": residual,
                "bound_trace": [
                    _reported(bound) for bound in islice(
                        scene.system.bounds(report.diameter), report.iterations + 1)
                ],
                "final_support": len(final),
            }
            with open(report_tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    print(
        f"ran {report.iterations} iterations, final support {len(final)} points, "
        f"a-priori bound {a_priori:.6g}, "
        f"residual {residual:.6g}"
    )
    return EXIT_OK


def run_all(**kwargs):
    """`properties.run_all`, whose module, and through it `dyadic`, is
    imported on the first call, so that run and render do not load the
    suites."""
    from . import properties

    return properties.run_all(**kwargs)


def _cmd_verify(args) -> int:
    from concurrent.futures.process import BrokenProcessPool

    if args.trials < 1 or args.depth < 0:
        raise CliError("verify needs --trials >= 1 and --depth >= 0")
    try:
        results = run_all(trials=args.trials, depth=args.depth, seed=args.seed)
    except BrokenProcessPool as err:
        # A worker that the kernel's OOM killer or a signal ended is out of
        # a resource as much as a MemoryError is.
        print(f"error: a worker process of the suites died ({err})", file=sys.stderr)
        return EXIT_CAP
    failed = False
    for name, failures in results.items():
        if failures:
            failed = True
            print(f"FAIL {name} ({len(failures)} failures)")
            for line in failures:
                print(f"  - {line}")
        else:
            print(f"PASS {name}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _load_csv_points(path):
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CliError(f"{path}: empty CSV")
    try:
        last = max(int(r["iteration"]) for r in rows)
        pairs = [((float(Fraction(r["x"])), float(Fraction(r["y"]))), float(Fraction(r["level"])))
                 for r in rows if int(r["iteration"]) == last]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        raise CliError(f"{path}: not an x,y,level,iteration CSV ({type(err).__name__}: {err})") from err
    return FuzzySet(pairs, exact=False)


def _padded(values):
    """(low, high) around the values, padded by 5% of their extent (0.05 on
    a zero extent), and by at least 1e-6 and one ulp of the ends, so that
    the box stays open next to coordinates as large as 1e16."""
    low, high = min(values), max(values)
    pad = max(1e-6, 0.05 * (high - low or 1.0), math.ulp(low), math.ulp(high))
    return low - pad, high + pad


def _cmd_render(args) -> int:
    source = args.source
    try:
        scene = load_scene(source)
        is_scene = True
    except SceneParseError:
        is_scene = False
    with _staged_outputs([args.out_image]) as (image_tmp,):
        if is_scene:
            spec = _render_spec(scene, args)
            final, _ = scene.system.iterate(
                scene.initial,
                steps=scene.stop.steps,
                tolerance=scene.stop.tolerance,
                support_cap=scene.support_cap,
            )
            _write_image(image_tmp, final, spec)
        else:
            u = _load_csv_points(source)
            if args.bbox:
                bbox = _parse_bbox(args.bbox)
            else:
                xs, ys = zip(*(p for p, _ in u.items()))
                (x0, x1), (y0, y1) = _padded(xs), _padded(ys)
                bbox = (x0, y0, x1, y1)
            width, height = _parse_grid(args.grid) if args.grid else (64, 64)
            _write_image(image_tmp, u, RenderSpec(bbox=bbox, width=width, height=height))
    print(f"wrote {args.out_image}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuzzyifs",
        description="Iterate fuzzy function systems and verify their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="iterate a scene and write outputs")
    run.add_argument("scene")
    run.add_argument("--steps", type=int, default=None, help="override: iterate exactly N steps")
    run.add_argument("--tol", default=None, help="override: iterate until the a-priori bound <= T")
    run.add_argument("--out-image", default=None, help="write the final iterate as binary PGM")
    run.add_argument("--out-csv", default=None, help="write every iterate as x,y,level,iteration")
    run.add_argument("--report", default=None, help="write the convergence report as JSON")
    run.add_argument("--mode", choices=["exact", "float"], default=None, help="override the scene's numeric mode")
    run.add_argument("--grid", default=None, help="image resolution WxH")
    run.add_argument("--bbox", default=None, help="image window x0,y0,x1,y1")

    verify = sub.add_parser("verify", help="run the randomized property suites and the oracle check")
    verify.add_argument("--trials", type=int, default=200, help="cases per suite (decay suite runs trials/20)")
    verify.add_argument("--depth", type=int, default=8, help="iteration depth for the oracle equivalence")
    verify.add_argument("--seed", type=int, default=0)

    render = sub.add_parser("render", help="render a scene or a CSV of a previous run to PGM")
    render.add_argument("source", help="scene JSON or CSV written by run")
    render.add_argument("--out-image", required=True)
    render.add_argument("--grid", default=None, help="image resolution WxH")
    render.add_argument("--bbox", default=None, help="image window x0,y0,x1,y1")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_render(args)
    except SupportCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as err:
        print(f"error: out of memory ({err})" if str(err) else "error: out of memory",
              file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
