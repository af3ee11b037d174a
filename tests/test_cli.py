import csv
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fuzzyifs
from fuzzyifs import properties
from fuzzyifs.cli import CliError, _reported, main
from fuzzyifs.dyadic import enumerated_levels
from fuzzyifs.fuzzy import apply_grey, join, zadeh_pushforward
from fuzzyifs.grid import GridFuzzySet, parse_pgm
from fuzzyifs.ifs import AffineMap
from fuzzyifs.numeric import format_scalar, sqrt_exact
from fuzzyifs.scene import load_scene
from fuzzyifs.system import OrbitalFuzzySystem

F = Fraction
SCENES = Path(__file__).resolve().parent.parent / "scenes"
SLICE = str(SCENES / "dyadic_slice.json")
BAND = str(SCENES / "dyadic_band.json")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_iteration_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", SLICE, "--steps", "3", "--out-csv", str(out)]) == 0
    rows = read_rows(out)
    assert set(r["iteration"] for r in rows) == {"0", "1", "2", "3"}
    # third displayed step (iteration 2) adds 1/4 and 1/2 at level 3/4
    # and 3/4 at level 9/16
    step3 = {r["y"]: r["level"] for r in rows if r["iteration"] == "2"}
    assert step3 == {"0": "1", "1/4": "3/4", "1/2": "3/4", "3/4": "9/16"}
    content = out.read_bytes()
    assert b"\r" not in content and content.startswith(b"x,y,level,iteration\n")


def test_run_zero_steps_echoes_initial(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", SLICE, "--steps", "0", "--out-csv", str(out)]) == 0
    rows = read_rows(out)
    assert rows == [{"x": "1/2", "y": "0", "level": "1", "iteration": "0"}]


def test_run_tolerance_mode_report(tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["run", SLICE, "--tol", "0.01", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    # the staged output gets the mode of a file made by open()
    made = tmp_path / "made"
    made.write_text("")
    assert report_path.stat().st_mode == made.stat().st_mode
    # slice reach has diameter 1/2: bound 2^-m <= 1/100 first at m = 7
    expected_m = next(m for m in range(100) if 2 ** m >= 100)
    assert report["iterations"] == expected_m == 7
    assert report["a_priori"] <= 0.01
    assert report["certified_residual"] <= 0.01
    assert len(report["bound_trace"]) == report["iterations"] + 1
    assert report["d_history"][0] == 0.5


def test_run_band_tolerance_report(tmp_path):
    scene_doc = json.loads(Path(BAND).read_text())
    scene_doc["initial"] = [[["0", "0"], "1"], [["1/2", "0"], "1"], [["1", "0"], "1"]]
    scene_path = tmp_path / "narrow_band.json"
    scene_path.write_text(json.dumps(scene_doc))
    report_path = tmp_path / "report.json"
    assert main(["run", str(scene_path), "--tol", "0.01", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["iterations"] == 8
    assert report["a_priori"] <= 0.01
    # reach diameter sqrt(5)/2 and C = 1/2: the bound at m is sqrt(5) * 2^-m
    assert report["bound_trace"] == [math.sqrt(5) * 2.0 ** -m for m in range(9)]


def test_run_image_output(tmp_path):
    image = tmp_path / "band.pgm"
    assert main(["run", BAND, "--steps", "1", "--out-image", str(image)]) == 0
    w, h, maxval, pixels = parse_pgm(image.read_bytes())
    assert (w, h, maxval) == (64, 64, 255)
    assert pixels[63].max() == 255  # base row
    assert pixels[31].max() == 191  # half-height row after one step


def test_run_grid_and_bbox_override(tmp_path):
    image = tmp_path / "slice.pgm"
    assert main([
        "run", SLICE, "--steps", "1", "--out-image", str(image),
        "--grid", "8x8", "--bbox", "0,0,1,1",
    ]) == 0
    w, h, _, pixels = parse_pgm(image.read_bytes())
    assert (w, h) == (8, 8)
    assert pixels[7, 4] == 255
    assert pixels[3, 4] == 191


def test_run_mode_override_float(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", SLICE, "--steps", "1", "--mode", "float", "--out-csv", str(out)]) == 0
    rows = read_rows(out)
    levels = {r["level"] for r in rows if r["iteration"] == "1"}
    assert levels == {"1", "0.75"}


def test_render_scene_and_csv(tmp_path):
    image = tmp_path / "scene.pgm"
    assert main(["render", BAND, "--out-image", str(image)]) == 0
    assert image.read_bytes().startswith(b"P5\n64 64\n255\n")

    trace = tmp_path / "trace.csv"
    assert main(["run", SLICE, "--steps", "2", "--out-csv", str(trace)]) == 0
    csv_image = tmp_path / "fromcsv.pgm"
    assert main([
        "render", str(trace), "--out-image", str(csv_image),
        "--grid", "16x16", "--bbox", "0,0,1,1",
    ]) == 0
    w, h, _, pixels = parse_pgm(csv_image.read_bytes())
    assert (w, h) == (16, 16)
    assert pixels[15, 8] == 255


@pytest.mark.parametrize("scene", [BAND, SLICE], ids=["band", "slice"])
@pytest.mark.parametrize("window", [[], ["--grid", "16x8", "--bbox", "0.25,0,1,0.5"]],
                         ids=["render-block", "grid-and-bbox"])
def test_render_of_a_scene_writes_the_image_of_run(tmp_path, scene, window):
    rendered, ran = tmp_path / "render.pgm", tmp_path / "run.pgm"
    assert main(["render", scene, "--out-image", str(rendered), *window]) == 0
    assert main(["run", scene, "--out-image", str(ran), *window]) == 0
    assert rendered.read_bytes() == ran.read_bytes()


@pytest.mark.parametrize("rows, lit", [
    ("0,0,1,0\n1,1,0.5,0\n", {(61, 2): 255, (2, 61): 128}),
    ("0.25,0,1,0\n0.25,1,0.5,0\n", {(61, 32): 255, (2, 32): 128}),
    ("1e16,0.5,1,0\n", {(32, 32): 255}),
], ids=["box-padded-by-5%", "one-x", "next-to-1e16"])
def test_render_of_a_csv_finds_its_own_box(tmp_path, rows, lit):
    """Without --bbox the box pads each axis by 5% of its extent, or by
    0.05 around a single value, and at least by one ulp of its ends; the
    grid is 64 x 64 without --grid."""
    source, image = tmp_path / "trace.csv", tmp_path / "out.pgm"
    source.write_text("x,y,level,iteration\n" + rows)
    assert main(["render", str(source), "--out-image", str(image)]) == 0
    w, h, _, pixels = parse_pgm(image.read_bytes())
    assert (w, h) == (64, 64)
    assert {tuple(cell): pixels[tuple(cell)] for cell in np.argwhere(pixels).tolist()} == lit


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": ')
    assert main(["run", str(bad)]) == 1

    doc = json.loads(Path(SLICE).read_text())
    doc["contraction_constant"] = "1"
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert main(["run", str(invalid)]) == 1


def test_exit_code_support_cap(tmp_path, monkeypatch, capsys):
    doc = json.loads(Path(SLICE).read_text())
    doc["support_cap"] = 4
    doc["stop"] = {"steps": 6}
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(doc))
    assert main(["run", str(capped)]) == 3

    # a failed run leaves existing outputs as they were, and no temporary files
    outputs = [tmp_path / name for name in ("old.csv", "old.pgm", "old.json")]
    for path in outputs:
        path.write_text("previous run\n")
    assert main(["run", str(capped), "--out-csv", str(outputs[0]),
                 "--out-image", str(outputs[1]), "--report", str(outputs[2])]) == 3
    assert all(path.read_text() == "previous run\n" for path in outputs)
    assert len(list(tmp_path.iterdir())) == 4

    # The residual step counts too: two band steps reach 260 points under a
    # cap of 300, and the residual step's image of 520 points passes it.
    doc = json.loads(Path(BAND).read_text())
    doc["support_cap"] = 300
    doc["stop"] = {"steps": 2}
    residual_capped = tmp_path / "residual_capped.json"
    residual_capped.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", str(residual_capped), "--out-csv", str(outputs[0]),
                 "--out-image", str(outputs[1]), "--report", str(outputs[2])]) == 3
    assert capsys.readouterr().err == "error: support grew past the cap of 300 points\n"
    assert all(path.read_text() == "previous run\n" for path in outputs)
    assert len(list(tmp_path.iterdir())) == 5

    # The band starts on 65 points; under a cap of 10 the first map's image
    # passes the cap, and the run exits 3 before the step applies the second
    # map, the one with a nonzero offset. Each map is applied once, to all
    # points.
    doc = json.loads(Path(BAND).read_text())
    doc["support_cap"] = 10
    capped_band = tmp_path / "capped_band.json"
    capped_band.write_text(json.dumps(doc))
    offsets = []
    real_apply = AffineMap._apply
    monkeypatch.setattr(AffineMap, "_apply",
                        lambda f, p: offsets.append(f.offset) or real_apply(f, p))
    monkeypatch.setattr(OrbitalFuzzySystem, "reach_diameter", lambda self, u: F(1))
    for mode in ("exact", "float"):
        offsets.clear()
        assert main(["run", str(capped_band), "--steps", "2", "--mode", mode]) == 3
        assert len(offsets) == 1 and not any(offsets[0])


def test_band_outputs_match_the_oracle(tmp_path):
    """The band at --tol 0.1 (m = 5) against the word enumeration: every
    iterate in the CSV, the last one's levels at x = 1/2, the distances 2^-n
    and the PGM drawn from the oracle levels."""
    m = 5
    csv_path, image, report_path = (tmp_path / name for name in ("b.csv", "b.pgm", "b.json"))
    assert main(["run", BAND, "--tol", "0.1", "--out-csv", str(csv_path),
                 "--out-image", str(image), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["iterations"] == m
    assert report["d_history"] == [2.0 ** -n for n in range(1, m + 1)]
    rows = read_rows(csv_path)
    assert len(rows) == 65 * (2 ** (m + 1) - 1)
    oracle = enumerated_levels(m)
    column = {F(r["y"]): F(r["level"]) for r in rows
              if r["iteration"] == str(m) and r["x"] == "1/2"}
    assert column == oracle
    # The 65 base columns x = k/64 fill all 64 pixel columns with the same
    # levels, so each pixel row holds the highest level among its heights.
    pixels = np.zeros((64, 64))
    for y, level in oracle.items():
        row = 63 - min(int(float(y) * 64), 63)
        pixels[row] = np.maximum(pixels[row], float(level))
    raster = b"P5\n64 64\n255\n" + np.rint(pixels * 255).astype(np.uint8).tobytes()
    assert image.read_bytes() == raster


def test_image_without_render_spec_fails(tmp_path):
    doc = json.loads(Path(SLICE).read_text())
    del doc["render"]
    scene = tmp_path / "norender.json"
    scene.write_text(json.dumps(doc))
    assert main(["run", str(scene), "--steps", "1",
                 "--out-image", str(tmp_path / "x.pgm")]) == 1


def test_verify_command_passes():
    assert main(["verify", "--trials", "20", "--seed", "3", "--depth", "4"]) == 0


def test_verify_failure_exit_code(monkeypatch):
    import fuzzyifs.cli as cli

    monkeypatch.setattr(cli, "run_all", lambda **kw: {"broken_suite": ["trial 0: boom"]})
    assert cli.main(["verify"]) == 2


def child_env():
    """The environment of a child process that imports the same package as
    this process, installed or not."""
    package_root = str(Path(fuzzyifs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fuzzyifs.cli", "run", SLICE, "--steps", "1"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert "ran 1 iterations" in result.stdout


def test_bound_trace_at_large_m(tmp_path):
    """A declared C = 99/100 needs about a thousand steps; every entry of the
    trace is the exact bound sqrt(diam^2 C^2m/(1-C)^2). The map is constant,
    a valid map for any C, so the steps stay cheap."""
    c = F(99, 100)
    doc = json.loads(Path(SLICE).read_text())
    doc.update(contraction_constant=str(c), initial=[[["0", "0"], "1"]],
               maps=[{"linear": [["0", "0"], ["0", "0"]], "offset": ["1", "2"]}],
               grey_maps=[{"breakpoints": [["0", "0"], ["1", "1"]]}])
    scene_path = tmp_path / "slow_contraction.json"
    scene_path.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    assert main(["run", str(scene_path), "--tol", "0.01", "--report", str(report_path)]) == 0
    trace = json.loads(report_path.read_text())["bound_trace"]

    def bound_square(m):  # (0, 0) and its image (1, 2): diam^2 = 5
        return 5 * c ** (2 * m) / (1 - c) ** 2

    last = len(trace) - 1
    assert last > 900
    for m in (0, 1, 2, 17, 500, last - 1, last):
        assert trace[m] == float(sqrt_exact(bound_square(m)))
    assert trace[last] <= 0.01
    assert bound_square(last - 1) > F(1, 100) ** 2


def test_traced_run_spans_the_library(tmp_path):
    """perfbench/tracing.py wraps library names from outside; a run under it
    exits 0 and records the layers it passes through. A run takes its steps
    and distances inside iterate, from the witnesses it carries, so the
    public step and d_infinity, which the tracer wraps too, record no span
    here."""
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(SCENES.parent / "perfbench" / "tracing.py"), str(spans_path),
         "run", SLICE, "--steps", "2"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["exit_code"] == 0
    names = {span[0] for span in doc["spans"]}
    assert {"scene.load", "system.iterate", "geometry.diameter"} <= names


def test_output_options_checked_before_iterating(tmp_path, monkeypatch, capsys):
    from fuzzyifs.system import OrbitalFuzzySystem

    def fail(*args, **kwargs):
        raise AssertionError("iterate reached before the output options were checked")

    monkeypatch.setattr(OrbitalFuzzySystem, "iterate", fail)
    doc = json.loads(Path(SLICE).read_text())
    del doc["render"]
    norender = tmp_path / "norender.json"
    norender.write_text(json.dumps(doc))
    assert main(["run", str(norender), "--out-image", str(tmp_path / "x.pgm")]) == 1

    line = {
        "dimension": 1,
        "contraction_constant": "1/2",
        "maps": [{"linear": [["1/2"]], "offset": ["0"]}, {"linear": [["1/2"]], "offset": ["1/2"]}],
        "grey_maps": [{"breakpoints": [["0", "0"], ["1", "1"]]}] * 2,
        "initial": [[["0"], "1"]],
        "stop": {"steps": 3},
    }
    line_path = tmp_path / "line.json"
    line_path.write_text(json.dumps(line))
    assert main(["run", str(line_path), "--out-csv", str(tmp_path / "x.csv")]) == 1
    assert main(["render", str(norender), "--out-image", str(tmp_path / "y.pgm")]) == 1

    # targets that cannot be written: a missing directory, or a directory
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "out")
    for argv in (["run", BAND, "--out-csv", missing],
                 ["run", BAND, "--out-image", missing],
                 ["run", BAND, "--report", missing],
                 ["run", BAND, "--report", str(tmp_path)],
                 ["render", BAND, "--out-image", missing]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["line.json", "norender.json"]


def test_float_and_exact_csv_rows_agree(tmp_path):
    # every value of the band is dyadic, so exact in floats
    rows = {}
    for mode in ("exact", "float"):
        out = tmp_path / f"{mode}.csv"
        assert main(["run", BAND, "--steps", "3", "--mode", mode, "--out-csv", str(out)]) == 0
        rows[mode] = [(F(r["x"]), F(r["y"]), F(r["level"]), int(r["iteration"]))
                      for r in read_rows(out)]
    assert len(rows["exact"]) == 65 * (2 ** 4 - 1)
    assert rows["float"] == rows["exact"]


def test_unreachable_tolerance_is_a_one_line_error(tmp_path, capsys):
    doc = json.loads(Path(SLICE).read_text())
    doc["contraction_constant"] = "999/1000"
    scene = tmp_path / "slow.json"
    scene.write_text(json.dumps(doc))
    for mode in ("exact", "float"):
        assert main(["run", str(scene), "--tol", "1e-6", "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than 10000 steps" in err


@pytest.mark.parametrize("change, coordinate", [
    # the initial point itself is off the grid: 1e300 * 10^12 overflows
    ({"initial": [[[1e300, 1], 1]]}, "1e+300"),
    # x -> 10^150 x takes (1/2, 0) past the grid in two steps, before the
    # run can find that d_2 > C d_1
    ({"maps": [{"linear": [["1e150", "0"], ["0", "1e150"]], "offset": ["0", "0"]},
               {"linear": [["1", "0"], ["0", "1/2"]], "offset": ["0", "1/2"]}],
      "stop": {"steps": 12}}, "4.9999999999999995e+299"),
], ids=["initial-point", "image-point"])
def test_float_coordinate_off_the_grid_is_a_one_line_error(tmp_path, capsys, change, coordinate):
    doc = json.loads(Path(SLICE).read_text())
    doc.update(numeric_mode="float", **change)
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps(doc))
    assert main(["run", str(scene)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"float coordinate {coordinate} is off the 1e-12 grid" in err


def translated_band(shift):
    """The band scene conjugated by the translation x -> x + (shift, shift):
    each map A x + b becomes A x + b + (I - A) t, and the start moves by t."""
    doc = json.loads(Path(BAND).read_text())
    t = F(shift)
    for f in doc["maps"]:
        rows = [[F(a) for a in row] for row in f["linear"]]
        f["offset"] = [str(F(b) + t - sum(row) * t) for b, row in zip(f["offset"], rows)]
    doc["initial"] = [[[str(F(c) + t) for c in p], level] for p, level in doc["initial"]]
    return doc


def test_band_translated_past_float_range(tmp_path):
    """Moved by (10^400, 10^400), the band's coordinates lie past float
    range, yet the run reports the untranslated band's distances and bounds."""
    reports = []
    for shift in (0, 10 ** 400):
        scene, report = tmp_path / f"band{len(reports)}.json", tmp_path / f"report{len(reports)}.json"
        scene.write_text(json.dumps(translated_band(shift)))
        assert main(["run", str(scene), "--steps", "3", "--report", str(report)]) == 0
        reports.append(json.loads(report.read_text()))
    for key in ("d_history", "a_priori", "certified_residual"):
        assert reports[1][key] == reports[0][key]


def test_a_point_past_float_range_is_left_out_of_the_raster(tmp_path):
    """A start point at x = 10^400 lies outside every finite render box, so
    the raster drops it like any point outside the box: rendered beside the
    slice's own start, the image is the slice's; run alone, it is blank."""
    doc = json.loads(Path(SLICE).read_text())
    far = [[["1e400", "0"], "1"]]
    both, alone = tmp_path / "both.json", tmp_path / "far.json"
    both.write_text(json.dumps({**doc, "initial": doc["initial"] + far}))
    alone.write_text(json.dumps({**doc, "initial": far}))
    images = [tmp_path / f"{name}.pgm" for name in ("slice", "both", "far")]
    assert main(["render", SLICE, "--out-image", str(images[0])]) == 0
    assert main(["render", str(both), "--out-image", str(images[1])]) == 0
    assert main(["run", str(alone), "--steps", "2", "--out-image", str(images[2])]) == 0
    slice_image, both_image, far_image = (path.read_bytes() for path in images)
    assert both_image == slice_image and parse_pgm(slice_image)[3].any()
    assert not parse_pgm(far_image)[3].any()


@pytest.mark.parametrize("count, message", [
    (80, "exact points too far apart for float coordinates"),
    (1, "a distance or bound of this run is too large for a float"),
], ids=["kernel", "report"])
def test_spread_past_float_range_is_a_one_line_error(tmp_path, capsys, count, message):
    """Start points 10^400 apart: with 81 of them the kernel's float
    shortlist cannot hold their differences; with 2 the kernel scans them
    exactly, and the report cannot hold the distances."""
    doc = json.loads(Path(BAND).read_text())
    doc["initial"] = [[[str(i), "0"], "1"] for i in range(count)] + [[[str(10 ** 400), "0"], "1"]]
    scene, report = tmp_path / "wide.json", tmp_path / "report.json"
    scene.write_text(json.dumps(doc))
    assert main(["run", str(scene), "--steps", "3", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_a_diameter_whose_square_overflows_is_reported(tmp_path, mode):
    """Start points (0, 0) and (1e160, 0): the diameter, about 1e160, is a
    float though its square is not, so the run warns of nothing and its
    report is JSON, without Infinity."""
    doc = json.loads(Path(SLICE).read_text())
    doc["initial"] = [[["0", "0"], "1"], [["1e160", "0"], "1"]]
    scene, report = tmp_path / "wide.json", tmp_path / "report.json"
    scene.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", str(scene), "--mode", mode, "--steps", "2", "--report", str(report)])
    assert status == 0 and caught == []

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(report.read_text(), parse_constant=reject)
    assert doc["bound_trace"] == [2e160, 1e160, 5e159] and doc["a_priori"] == 5e159


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400])
def test_reported_values_are_finite_floats(value):
    with pytest.raises(CliError, match="too large for a float"):
        _reported(value)


@pytest.mark.parametrize("tol, mode", [("1/0", "exact"), ("1/0", "float"), ("1e400", "float")])
def test_run_tolerance_that_is_not_a_finite_number(capsys, tol, mode):
    assert main(["run", BAND, "--tol", tol, "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --tol expects a finite number, got {tol!r}\n"


@pytest.mark.parametrize("content, error", [
    ("x,y,level\n0,0,1\n", "KeyError"),
    ("x,y,level,iteration\n0,0,1,0\n0,0\n", "TypeError"),
    ("x,y,level,iteration\n1e400,0,1,0\n", "OverflowError"),
], ids=["no-iteration-column", "short-row", "x-past-float-range"])
def test_render_rejects_a_malformed_csv(tmp_path, capsys, content, error):
    source = tmp_path / "trace.csv"
    source.write_text(content)
    image = tmp_path / "out.pgm"
    assert main(["render", str(source), "--out-image", str(image)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: not an x,y,level,iteration CSV") and err.count("\n") == 1
    assert error in err and not image.exists()


@pytest.mark.parametrize("argv", [
    ["--trials", "-1", "--depth", "2"], ["--trials", "0"], ["--depth", "-1"]])
def test_verify_rejects_runs_without_trials(capsys, argv):
    assert main(["verify", *argv]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err == "error: verify needs --trials >= 1 and --depth >= 0\n"


def refuse_work(*args, **kwargs):
    raise AssertionError("verify started work on a depth past the support cap")


def test_verify_refuses_a_depth_past_the_support_cap(monkeypatch, capsys):
    """The oracle's last iterate at depth d holds 2^d points, past the cap
    of 10,000,000 from d = 24 on, so verify exits 3 before any suite."""
    monkeypatch.setattr(properties, "enumerated_levels", refuse_work)
    monkeypatch.setattr(OrbitalFuzzySystem, "step", refuse_work)
    assert main(["verify", "--trials", "1", "--depth", "24"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: oracle depth 24: the last iterate would hold 2^24 points, "
                   "past the support cap of 10000000\n")


def test_verify_runs_a_depth_under_the_support_cap(monkeypatch, capsys):
    monkeypatch.setattr(properties, "oracle_equivalence_failures", lambda depth: [])
    assert main(["verify", "--trials", "1", "--depth", "23"]) == 0
    assert "PASS oracle_equivalence" in capsys.readouterr().out


def kill_own_worker(rng):
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_worker_that_dies_is_exit_3(monkeypatch, capsys):
    """A suite's worker ended by a signal, as the OOM killer ends one, is
    a one-line error and exit 3, like a MemoryError, with no suite line."""
    monkeypatch.setattr(properties, "_SUITES",
                        properties._SUITES + (("killed", kill_own_worker),))
    assert main(["verify", "--trials", "1", "--depth", "1"]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err.startswith("error: a worker process of the suites died (") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_csv_rows_follow_the_support_order(tmp_path, mode):
    """Each iterate's rows come in the support order of the reference step,
    the join of the grey-weighted images in map order: a point where it
    first appears. For the band that order is not the sorted one."""
    out = tmp_path / "trace.csv"
    assert main(["run", BAND, "--steps", "5", "--mode", mode, "--out-csv", str(out)]) == 0
    rows = [(r["x"], r["y"], r["level"], int(r["iteration"])) for r in read_rows(out)]
    scene = load_scene(BAND, mode_override=mode)
    system, u = scene.system, scene.initial
    expected = []
    for n in range(6):
        if n:
            u = join([apply_grey(g, zadeh_pushforward(f, u))
                      for f, g in zip(system.ifs.maps, system.grey_maps)])
        expected += [(*map(format_scalar, p), format_scalar(level), n) for p, level in u.items()]
    assert rows == expected
    last = [(F(x), F(y)) for x, y, _, n in rows if n == 5]
    assert last != sorted(last)


def test_violated_contraction_constant_is_a_one_line_error(tmp_path, capsys):
    """The band declaring C = 1/4, while its steps halve the distance: its
    a-priori bound would certify a tolerance that its residual misses. The
    run stops at step 2 and leaves the existing outputs as they were."""
    doc = json.loads(Path(BAND).read_text())
    doc["contraction_constant"] = "1/4"
    scene = tmp_path / "quarter.json"
    scene.write_text(json.dumps(doc))
    outputs = [tmp_path / name for name in ("old.csv", "old.pgm", "old.json")]
    for path in outputs:
        path.write_text("previous run\n")
    for mode in ("exact", "float"):
        assert main(["run", str(scene), "--tol", "0.005", "--mode", mode,
                     "--out-csv", str(outputs[0]), "--out-image", str(outputs[1]),
                     "--report", str(outputs[2])]) == 1
        assert capsys.readouterr().err == (
            "error: step 2 moved the iterate 0.5 times as far as step 1, more than the "
            "declared contraction constant 0.25\n")
        assert all(path.read_text() == "previous run\n" for path in outputs)
        assert len(list(tmp_path.iterdir())) == 4


@pytest.mark.parametrize("render, argv, message", [
    ({"bbox": [0, 0, 1, "1/0"], "width": 8, "height": 8}, [], "render: Fraction(1, 0)"),
    (None, ["--bbox=-inf,0,inf,1", "--grid", "8x8"],
     "render bbox must be four finite numbers x0, y0, x1, y1"),
    ({"bbox": [-1e308, 0, 1e308, 1], "width": 8, "height": 8}, [],
     "render bbox needs x0 < x1, y0 < y1 and finite extents"),
    (None, ["--bbox=-1e308,0,1e308,1", "--grid", "8x8"],
     "render bbox needs x0 < x1, y0 < y1 and finite extents"),
], ids=["scene-bbox-1/0", "cli-bbox-inf", "scene-bbox-infinite-extent",
        "cli-bbox-infinite-extent"])
def test_a_render_box_that_is_not_finite_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                                            render, argv, message):
    """The box fails where it is read, before the first step."""
    def step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(OrbitalFuzzySystem, "step", step)
    doc = json.loads(Path(BAND).read_text())
    doc["render"] = render
    scene = tmp_path / "box.json"
    scene.write_text(json.dumps(doc))
    image = tmp_path / "out.pgm"
    assert main(["run", str(scene), "--steps", "2", *argv, "--out-image", str(image)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["box.json"]


@pytest.mark.parametrize("argv, message", [
    (["run", BAND, "--steps", "x"], "argument --steps: invalid int value: 'x'"),
    (["run", BAND, "--bbox", "-1,0,1,1", "--out-image", "f"],
     "argument --bbox: expected one argument"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["steps", "bbox-negative-x0", "unknown-flag"])
def test_a_usage_error_is_a_one_line_error(capsys, argv, message):
    """Exit 1 like any other bad input; 2 means a failed verification."""
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fuzzyifs")


def test_out_of_memory_is_exit_3(tmp_path, monkeypatch, capsys):
    """A raster that fits in physical memory but cannot be allocated, as
    under a small address space, ends the run with one line and exit 3."""
    def fail(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(GridFuzzySet, "zeros", fail)
    report = tmp_path / "old.json"
    report.write_text("previous run\n")
    assert main(["run", BAND, "--steps", "1", "--grid", "1000x1000",
                 "--out-image", str(tmp_path / "x.pgm"), "--report", str(report)]) == 3
    assert capsys.readouterr().err == \
        "error: out of memory (Unable to allocate 74.5 GiB for an array)\n"
    assert report.read_text() == "previous run\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["old.json"]


def test_a_raster_past_physical_memory_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    """--grid 1000000x1000000 needs 27 B per cell, 27 TB in all: the render
    window refuses it before the first step, with one line and exit 3, and
    no limit on the address space is needed for that."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(OrbitalFuzzySystem, "iterate", forbidden)
    image = tmp_path / "x.pgm"
    assert main(["run", BAND, "--grid", "1000000x1000000", "--out-image", str(image)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (a 1000000x1000000 raster needs "
                          "27000000000000 bytes, more than the ")
    assert err.endswith(" bytes of physical memory)\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
