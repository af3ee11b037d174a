"""Per-layer spans of one fuzzyifs CLI run, recorded from outside the library.

Run as the child process of a traced run:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json run scenes/dyadic_band.json --tol 0.005

It wraps the module and class attributes that the library looks up at call
time, calls ``fuzzyifs.cli.main(argv)`` unchanged, keeps every span in memory
and writes spans and counters to SPANS.json when the run ends. Nothing under
``src/`` changes. The parent turns the file into layer metrics with
`layer_metrics`.

Counters that need the operands (covered points, candidate pairs, distinct
levels) are computed from the public ``items()`` with the span clock paused,
so they fall outside every timed span.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class PairStats:
    """Input-only work counts of one ``d_infinity(u, v)`` call.

    points: |u| + |v|. uncovered: points, in both directions, that the other
    set does not hold at a level at least as high. candidate_pairs: for each
    uncovered point, the size of the other set's prefix at or above its
    level. levels: the most distinct levels among one direction's uncovered
    points, the count the exact metric groups its scan by. scan_sizes: per
    direction, (uncovered points, size of the other set, distinct levels of
    the uncovered points).
    """

    points: int
    uncovered: int
    candidate_pairs: int
    levels: int
    scan_sizes: tuple


def pair_stats(u_items, v_items) -> PairStats:
    """Work counts of d_infinity on two lists of (point, level) pairs."""
    uncovered = 0
    pairs = 0
    levels = 0
    scan_sizes = []
    for a, b in ((u_items, v_items), (v_items, u_items)):
        held = dict(b)
        ascending = sorted(level for _, level in b)
        pending = [level for p, level in a if held.get(p, 0) < level]
        for level in pending:
            pairs += len(ascending) - bisect.bisect_left(ascending, level)
        uncovered += len(pending)
        groups = len(set(pending))
        levels = max(levels, groups)
        scan_sizes.append((len(pending), len(b), groups))
    return PairStats(points=len(u_items) + len(v_items), uncovered=uncovered,
                     candidate_pairs=pairs, levels=levels, scan_sizes=tuple(scan_sizes))


class Tracer:
    """Spans as [name, start, end, parent index], on a clock that stops
    while counters are computed."""

    def __init__(self):
        self.spans = []
        self.counts = {
            "step_points_out": 0,
            "d_infinity_points": 0,
            "d_infinity_uncovered": 0,
            "d_infinity_candidate_pairs": 0,
            "levels_max": 0,
            "diameter_points": 0,
        }
        self._stack = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def observe(self, fn, *args) -> None:
        start = time.perf_counter()
        try:
            fn(*args)
        finally:
            self._paused += time.perf_counter() - start

    def span(self, name, fn, *args, **kwargs):
        record = [name, self.now(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.now()
            self._stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None) -> None:
        """Replace owner.attr (a module or class attribute) by a traced call."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self.observe(before, *args)
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                self.observe(after, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    # counters -------------------------------------------------------------

    def _count_pair(self, u, v, *_):
        stats = pair_stats(list(u.items()), list(v.items()))
        self.counts["d_infinity_points"] += stats.points
        self.counts["d_infinity_uncovered"] += stats.uncovered
        self.counts["d_infinity_candidate_pairs"] += stats.candidate_pairs
        self.counts["levels_max"] = max(self.counts["levels_max"], stats.levels)

    def _count_step_out(self, result):
        self.counts["step_points_out"] += len(result)

    def _count_diameter(self, points, *_):
        self.counts["diameter_points"] += len(points)

    def install(self) -> None:
        """Wrap every layer boundary the metrics need."""
        from fuzzyifs import cli, properties, system
        from fuzzyifs.grid import GridFuzzySet
        from fuzzyifs.system import OrbitalFuzzySystem

        self.wrap(cli, "load_scene", "scene.load")
        self.wrap(cli, "run_all", "properties.run_all")
        self.wrap(system, "zadeh_pushforward", "fuzzy.pushforward")
        self.wrap(system, "apply_grey", "fuzzy.apply_grey")
        self.wrap(system, "join", "fuzzy.join")
        self.wrap(system, "diameter", "geometry.diameter", before=self._count_diameter)
        # The system and the property suites each bind d_infinity at import.
        for module in (system, properties):
            self.wrap(module, "d_infinity", "fuzzy.d_infinity", before=self._count_pair)
        self.wrap(OrbitalFuzzySystem, "step", "system.step",
                  after=self._count_step_out)
        self.wrap(OrbitalFuzzySystem, "a_priori_bound", "system.a_priori_bound")
        self.wrap(OrbitalFuzzySystem, "iterate", "system.iterate")
        self.wrap(GridFuzzySet, "from_fuzzy", "grid.from_fuzzy")
        self.wrap(GridFuzzySet, "to_pgm", "grid.to_pgm")
        # run_all reaches these two through module lookups; the nine other
        # suites are bound in a tuple at import, so their own work counts as
        # properties.run_all self time.
        self.wrap(properties, "geometric_decay_failures", "properties.decay")
        self.wrap(properties, "oracle_equivalence_failures", "properties.oracle")


def _durations(spans):
    """Total and self time per span name, and calls per name."""
    total, own, calls = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _), children in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - children)
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    total, own, calls = _durations(doc["spans"])
    counts = doc["counts"]

    def per(amount, base, scale):
        return amount / base * scale if base else 0.0

    step_s = total.get("system.step", 0.0)
    step_calls = calls.get("system.step", 0)
    dinf_s = total.get("fuzzy.d_infinity", 0.0)
    dinf_calls = calls.get("fuzzy.d_infinity", 0)
    pairs = counts["d_infinity_candidate_pairs"]
    return {
        "scene.load_s": total.get("scene.load", 0.0),
        "system.step_s": step_s,
        "system.step_calls": step_calls,
        "system.step_points_out": counts["step_points_out"],
        "system.step_ns_per_point": per(step_s, counts["step_points_out"], 1e9),
        "fuzzy.pushforward_s": total.get("fuzzy.pushforward", 0.0),
        "fuzzy.apply_grey_s": total.get("fuzzy.apply_grey", 0.0),
        "fuzzy.join_s": total.get("fuzzy.join", 0.0),
        "fuzzy.d_infinity_s": dinf_s,
        "fuzzy.d_infinity_calls": dinf_calls,
        "fuzzy.d_infinity_uncovered_share": per(
            counts["d_infinity_uncovered"], counts["d_infinity_points"], 1.0),
        "fuzzy.d_infinity_candidate_pairs": pairs,
        "fuzzy.d_infinity_ns_per_pair": per(dinf_s, pairs, 1e9),
        "fuzzy.levels_max": counts["levels_max"],
        "system.iterate_self_s": own.get("system.iterate", 0.0),
        "system.a_priori_bound_s": total.get("system.a_priori_bound", 0.0),
        "system.a_priori_bound_calls": calls.get("system.a_priori_bound", 0),
        "geometry.diameter_s": total.get("geometry.diameter", 0.0),
        "geometry.diameter_calls": calls.get("geometry.diameter", 0),
        "geometry.diameter_points": counts["diameter_points"],
        "grid.render_s": total.get("grid.from_fuzzy", 0.0) + total.get("grid.to_pgm", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "properties.decay_s": total.get("properties.decay", 0.0),
        "properties.oracle_s": total.get("properties.oracle", 0.0),
        "properties.self_s": own.get("properties.run_all", 0.0),
        "fuzzy.d_infinity_us_per_call": per(dinf_s, dinf_calls, 1e6),
        "system.step_us_per_call": per(step_s, step_calls, 1e6),
    }


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    from fuzzyifs import cli

    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = tracer.span("cli.main", cli.main, cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
