import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import fuzzyifs
from fuzzyifs.cli import main
from fuzzyifs.grid import parse_pgm

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


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": ')
    assert main(["run", str(bad)]) == 1

    doc = json.loads(Path(SLICE).read_text())
    doc["contraction_constant"] = "1"
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert main(["run", str(invalid)]) == 1


def test_exit_code_support_cap(tmp_path):
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


def test_console_script_entry_point(tmp_path):
    # the child imports the same package as this process, installed or not
    package_root = str(Path(fuzzyifs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fuzzyifs.cli", "run", SLICE, "--steps", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "ran 1 iterations" in result.stdout


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
