"""Command line front end.

    fuzzyifs run <scene> [--steps N | --tol T] [--out-csv F] [--out-image F]
                 [--report F] [--mode exact|float] [--grid WxH]
                 [--bbox x0,y0,x1,y1]
    fuzzyifs verify [--trials N] [--depth D] [--seed S]
    fuzzyifs render <scene-or-csv> --out-image F [--grid WxH] [--bbox ...]

Exit codes: 0 success, 1 validation or parse error, 2 verification failure,
3 resource cap exceeded. Output files are created as temporary files next to
their targets before any iteration and moved into place only when the
command succeeds, so a failed run leaves existing outputs as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
from fractions import Fraction

from .fuzzy import FuzzySet
from .grid import GridFuzzySet
from .ifs import SupportCapError
from .numeric import format_scalar
from .properties import run_all
from .scene import RenderSpec, Scene, SceneError, SceneParseError, StopRule, load_scene

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAP = 3


class CliError(ValueError):
    pass


def _parse_grid(text):
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError as err:
        raise CliError(f"--grid expects WxH, got {text!r}") from err
    if w < 1 or h < 1:
        raise CliError("--grid resolution must be positive")
    return w, h


def _parse_bbox(text):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise CliError(f"--bbox expects x0,y0,x1,y1, got {text!r}") from err
    if len(parts) != 4 or not (parts[0] < parts[2] and parts[1] < parts[3]):
        raise CliError("--bbox expects x0,y0,x1,y1 with x0 < x1 and y0 < y1")
    return tuple(parts)


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
    fails before any work. They replace their targets only when the block
    succeeds and are removed otherwise.
    """
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


class _CsvTrace:
    """Writes the x,y,level,iteration rows of each iterate as it arrives."""

    def __init__(self, fh):
        self._writer = csv.writer(fh, lineterminator="\n")
        self._writer.writerow(["x", "y", "level", "iteration"])

    def __call__(self, iteration, u: FuzzySet):
        self._writer.writerows(
            [format_scalar(p[0]), format_scalar(p[1]), format_scalar(level), iteration]
            for p, level in u.items()
        )


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
        stop = StopRule(tolerance=Fraction(args.tol) if scene.exact else float(Fraction(args.tol)))

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
        if spec is not None:
            _write_image(image_tmp, final, spec)
        if report_tmp is not None:
            doc = {
                "mode": scene.numeric_mode,
                "stop": {"steps": stop.steps} if stop.steps is not None else {"tolerance": float(stop.tolerance)},
                "iterations": report.iterations,
                "d_history": [float(d) for d in report.d_history],
                "a_priori": float(report.a_priori),
                "certified_residual": float(report.certified_residual),
                "bound_trace": [
                    float(scene.system.scaled_bound(report.diameter, m))
                    for m in range(report.iterations + 1)
                ],
                "final_support": len(final),
            }
            with open(report_tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    print(
        f"ran {report.iterations} iterations, final support {len(final)} points, "
        f"a-priori bound {float(report.a_priori):.6g}, "
        f"residual {float(report.certified_residual):.6g}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all(trials=args.trials, depth=args.depth, seed=args.seed)
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
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CliError(f"{path}: empty CSV")
    last = max(int(r["iteration"]) for r in rows)
    pairs = [
        ((float(Fraction(r["x"])), float(Fraction(r["y"]))), float(Fraction(r["level"])))
        for r in rows
        if int(r["iteration"]) == last
    ]
    return FuzzySet(pairs, exact=False)


def _cmd_render(args) -> int:
    source = args.source
    try:
        scene = load_scene(source)
        is_scene = True
    except (SceneParseError, json.JSONDecodeError):
        is_scene = False
    except SceneError:
        raise
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
                xs = [p[0] for p, _ in u.items()]
                ys = [p[1] for p, _ in u.items()]
                pad_x = max(1e-6, 0.05 * (max(xs) - min(xs) or 1.0))
                pad_y = max(1e-6, 0.05 * (max(ys) - min(ys) or 1.0))
                bbox = (min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y)
            width, height = _parse_grid(args.grid) if args.grid else (64, 64)
            _write_image(image_tmp, u, RenderSpec(bbox=bbox, width=width, height=height))
    print(f"wrote {args.out_image}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_render(args)
    except SupportCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except (SceneError, SceneParseError, CliError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
