"""Tests of the benchmark itself: a tiny smoke run of every workload, the
traced run's layer counts, the orbit scene generator, the bare-directory
refusal, and fault injection proving the output checks are not vacuous.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from orbit_scene import (MIN_LEVELS, MIN_UNCOVERED_SHARE, bypasses_shortlist,  # noqa: E402
                         generate)
from tracing import pair_stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name",
                         [w["name"] for w in SPEC["workloads"]] + list(workloads.EXTRA_WHY))
def test_smoke_every_workload(name):
    result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_with_exact_counts():
    result = result_of(bench("--workload", "band-exact", "--seed", "1", "--seconds", "1",
                             "--trace", "1", "--tiny"))
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # m steps plus the residual step; one bound per step count in the
    # report plus the report's own; one more diameter for choosing m.
    m = workloads.band_steps(float(workloads.BAND_TOL[True]))
    assert metrics["system.step_calls"] == m + 1
    assert metrics["fuzzy.d_infinity_calls"] == m + 1
    assert metrics["system.a_priori_bound_calls"] == m + 2
    assert metrics["geometry.diameter_calls"] == m + 3
    assert metrics["system.step_points_out"] == sum(
        workloads.BAND_COLUMNS * 2 ** n for n in range(1, m + 2))
    assert metrics["cli.csv_bytes"] > 0 and metrics["properties.decay_s"] == 0


def test_orbit_scene_is_seeded_valid_and_bypasses_the_shortcuts():
    from fuzzyifs.scene import load_scene_dict

    scene = generate(5)
    assert generate(5).doc == scene.doc
    assert generate(6).doc != scene.doc
    loaded = load_scene_dict(scene.doc)
    assert loaded.exact and len(loaded.system.ifs.maps) == 3 and len(loaded.initial) == 8
    assert scene.levels_max >= MIN_LEVELS and scene.uncovered_share >= MIN_UNCOVERED_SHARE


def test_shortlist_rule_counts_uncovered_levels_per_direction():
    # u holds v's 200 points at level 1, so the scan from v has nothing to do,
    # plus 200 points of its own at 64 levels: that scan is large and has 64
    # groups, so the KD shortlist could take it.
    v = [((i, 1), 1) for i in range(200)]
    u64 = v + [((i, 0), Fraction(1 + i % 64, 64)) for i in range(200)]
    u65 = v + [((i, 0), Fraction(1 + i % 65, 65)) for i in range(200)]
    stats = pair_stats(u64, v)
    assert stats.levels == 64 and stats.scan_sizes == ((200, 200, 64), (0, 400, 0))
    assert not bypasses_shortlist([stats])
    assert bypasses_shortlist([pair_stats(u65, v)])
    # Every pair counts, whichever way round it is passed.
    assert not bypasses_shortlist([pair_stats(u65, v), pair_stats(v, u64)])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "band-exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def band_outputs(tmp_path_factory):
    plan = workloads.band_plan(ROOT, exact=True, tiny=True)
    outdir = tmp_path_factory.mktemp("band")
    proc = subprocess.run([sys.executable, "-m", "fuzzyifs.cli", *plan.argv(outdir, 0)],
                          cwd=outdir, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert plan.check(outdir, proc.stdout) == []
    return plan, outdir, proc.stdout


def _copy(outdir: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    return copy


def test_check_fails_on_one_perturbed_csv_level(band_outputs, tmp_path):
    plan, outdir, stdout = band_outputs
    copy = _copy(outdir, tmp_path)
    m = plan.notes["steps"]
    lines = (copy / "iterates.csv").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        x, y, level, iteration = line.rstrip("\n").split(",")
        if x == "1/2" and iteration == str(m) and Fraction(y) > 0:
            lines[i] = f"{x},{y},{Fraction(level) / 2},{iteration}\n"
            break
    (copy / "iterates.csv").write_text("".join(lines))
    problems = plan.check(copy, stdout)
    assert any("levels at x = 1/2" in p for p in problems), problems


def test_check_fails_on_a_perturbed_report_distance(band_outputs, tmp_path):
    plan, outdir, stdout = band_outputs
    copy = _copy(outdir, tmp_path)
    report = json.loads((copy / "report.json").read_text())
    report["d_history"][-1] *= 1 + 1e-6
    (copy / "report.json").write_text(json.dumps(report))
    problems = plan.check(copy, stdout)
    assert any("d_history" in p for p in problems), problems


def test_verify_check_needs_every_pass_line():
    plan = workloads.verify_plan(seed=1, tiny=True)
    seeds = [plan.argv(Path("."), i)[-1] for i in range(2 * workloads.VERIFY_SEEDS)]
    assert seeds[:3] == ["2", "3", "4"]
    assert sorted(set(seeds)) == sorted(str(s) for s in range(1, workloads.VERIFY_SEEDS + 1))
    suites = plan.notes["suites"]
    assert len(suites) == 12
    assert plan.check(Path("."), "".join(f"PASS {name}\n" for name in suites)) == []
    assert plan.check(Path("."), "".join(f"PASS {name}\n" for name in suites[1:]))
    assert plan.check(Path("."), "".join(f"PASS {name}\n" for name in suites) + "FAIL x (1 failures)\n")
