"""Benchmark of fuzzyifs: time to a certified attractor, end to end and per layer.

    python3 perfbench/run.py --workload band-exact --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56 --trace 0

Run it from the root of a source checkout; the program under test is
``src/fuzzyifs`` of that checkout, run as ``python3 -m fuzzyifs.cli`` child
processes, one at a time. With ``--trace 0`` it times whole runs for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it also
makes one traced run and reports the per-layer metrics. The last line of
standard output is one JSON object; the lines before it say what was measured.
README.md beside this file describes every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A median is of at least three runs, so one run in a slow phase of the host
# does not set it, even when a run takes more than a third of the window, as
# the full-size band workloads can.
MIN_RUNS = 3
# Every child is killed at the latest when the invocation has run this long,
# so a hung run is a recorded failure and the harness ends within 180 s.
DEADLINE_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


@dataclass(frozen=True)
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    timed_out: bool
    stdout: str


class Harness:
    """Spawns children for one invocation and keeps its clock and scratch space."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: List[str], rundir: Path) -> Sample:
        """Run argv in rundir to its end or the deadline; time it from spawn to exit."""
        stdout_path = rundir / "stdout.txt"
        with open(stdout_path, "wb") as out, open(rundir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=rundir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(self.remaining(), 0.0))
                timed_out = not ready
                if timed_out:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=None if timed_out else proc.returncode,
            timed_out=timed_out,
            stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        )

    def rundir(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def environment() -> dict:
    import numpy
    import scipy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown (git failed)"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def note(label: str, **fields) -> None:
    print(f"# {label}: {json.dumps(fields, default=str)}", flush=True)


def note_load(before: str) -> None:
    note("load average", before=before, loadavg=os.getloadavg())


def tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it, as (p, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summarize(name: str, values: List[float], unit: str) -> float:
    """Print the metric line, every run's value last; return the median."""
    value = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]:.0f} {t[1]:.6g} {unit}" if t else "no tail percentile (n < 11)"
    runs = " ".join(f"{v:.6g}" for v in values)
    print(f"{name}: median {value:.6g} {unit}, {tail_text}, n={len(values)} [{runs}]")
    return value


def measure_setup(harness: Harness, plan, index: int) -> float:
    """Interpreter start, import of the CLI and loading the workload's scene."""
    code = "import fuzzyifs.cli"
    if plan.scene is not None:
        code += f"; fuzzyifs.cli.load_scene({str(plan.scene)!r}, mode_override={plan.mode!r})"
    sample = harness.spawn([sys.executable, "-c", code], harness.rundir(f"setup-{index}"))
    if sample.exit_code != 0:
        raise RuntimeError(f"set-up run failed with exit code {sample.exit_code}")
    return sample.wall_s


def run_checked(harness: Harness, plan, index: int, traced: bool):
    """The index-th run of the workload and its check; returns (sample,
    problems, rundir). The traced run is run 0 again."""
    label = "traced" if traced else f"run-{index}"
    rundir = harness.rundir(label)
    argv = plan.argv(rundir, index)
    if traced:
        command = [sys.executable, str(HERE / "tracing.py"), str(rundir / "spans.json"), *argv]
    else:
        command = [sys.executable, "-m", "fuzzyifs.cli", *argv]
    sample = harness.spawn(command, rundir)
    if sample.timed_out:
        problems = ["timed out"]
    elif sample.exit_code != 0:
        problems = [f"exit code {sample.exit_code}"]
    else:
        try:
            problems = plan.check(rundir, sample.stdout)
        except Exception as err:  # a check that crashes on odd output fails the run
            traceback.print_exc()
            problems = [f"check raised {err!r}"]
    for problem in problems:
        print(f"! {plan.name} {label}: {problem}", flush=True)
    return sample, problems, rundir


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> dict:
    import workloads
    from tracing import layer_metrics

    harness = Harness(WORK / f"{name}-{os.getpid()}")
    harness.workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.plan(name, ROOT, seed, harness.workdir, tiny)
        note("workload", name=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny,
             why=WHY.get(name) or workloads.EXTRA_WHY[name], **plan.notes)
        note_load("timed runs")
        setup: List[float] = []
        samples: List[Sample] = []
        failed = 0
        elapsed = 0.0
        while True:
            # One set-up sample before each of the first MIN_RUNS runs, so
            # that the set-up samples meet the same phases of the host as the
            # runs.
            if len(setup) < MIN_RUNS:
                setup.append(measure_setup(harness, plan, len(setup)))
            start = time.perf_counter()
            sample, problems, _ = run_checked(harness, plan, len(samples), traced=False)
            elapsed += time.perf_counter() - start
            samples.append(sample)
            failed += bool(problems)
            # Past MIN_RUNS, start another run only when it should end within
            # the window.
            per_run = elapsed / len(samples)
            if harness.remaining() < 2 * per_run:
                break
            if len(samples) >= MIN_RUNS and elapsed + per_run > seconds:
                break

        walls = [s.wall_s for s in samples]
        metrics = {}
        if not trace:
            values = {
                "wall_s": walls,
                "cpu_s": [s.cpu_s for s in samples],
                "setup_s": setup,
                "peak_rss_mb": [s.peak_rss_mb for s in samples],
            }
            for metric, vals in values.items():
                value = summarize(metric, vals, UNITS[metric])
                metrics[metric] = {"value": value, "unit": UNITS[metric]}
        else:
            note_load("traced run")
            sample, problems, rundir = run_checked(harness, plan, 0, traced=True)
            samples.append(sample)
            failed += bool(problems)
            layers = {}
            if not problems:
                layers = layer_metrics(json.loads((rundir / "spans.json").read_text()))
            csv_path = rundir / "iterates.csv"
            layers["cli.csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
            layers["trace.overhead_s"] = sample.wall_s - statistics.median(walls)
            for metric, value in layers.items():
                print(f"{metric}: {value:.6g} {UNITS[metric]}")
                metrics[metric] = {"value": value, "unit": UNITS[metric]}
        print(f"fail_ratio: {failed}/{len(samples)} = {failed / len(samples):.6g}")
        return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(harness.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="how long to time whole runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if not (SRC / "fuzzyifs" / "cli.py").is_file():
        print(f"error: no fuzzyifs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    known = (*WHY, *workloads.EXTRA_WHY)
    names = tuple(WHY) if args.workload == "all" else (args.workload,)
    if args.workload != "all" and args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)} or all")
    note("environment", **environment())
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
