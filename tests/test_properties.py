"""`run_all` on its pool of forked workers against a loop of its jobs in one
process: the same failures in the same key order, and a job's exception
with its type and message."""

import random

import pytest

from fuzzyifs import properties
from fuzzyifs.properties import _collect, run_all

TRIALS, DEPTH, SEED = 20, 4, 1


def in_one_process(trials, depth, seed):
    """What `run_all` returns, from a loop of its jobs in this process with
    the seeds drawn in the same order."""
    master = random.Random(seed)
    results = {name: _collect(check, random.Random(master.randrange(2 ** 32)), trials)
               for name, check in properties._SUITES}
    results["geometric_decay"] = properties.geometric_decay_failures(
        random.Random(master.randrange(2 ** 32)), cases=max(5, trials // 20), n_max=6)
    results["cauchy_bound"] = properties.cauchy_bound_failures(m_max=8)
    results["oracle_equivalence"] = properties.oracle_equivalence_failures(depth)
    return results


def test_failing_suites_come_back_as_in_one_process(monkeypatch):
    """Lambdas cannot be pickled, so these suites reach the workers by name
    through the fork."""
    injected = (("fails_every_trial", lambda rng: "every case"),
                ("fails_one_trial", lambda rng: "one case" if rng.random() < 0.05 else None))
    monkeypatch.setattr(properties, "_SUITES", properties._SUITES + injected)
    expected = in_one_process(TRIALS, DEPTH, SEED)
    assert expected["fails_every_trial"] == [f"trial {i}: every case"
                                             for i in range(properties._MAX_REPORTED)]
    assert len(expected["fails_one_trial"]) == 1
    got = run_all(TRIALS, DEPTH, SEED)
    assert list(got.items()) == list(expected.items())


def broken_suite(rng):
    raise ValueError(f"a broken suite drew {rng.randrange(1000)}")


def test_an_exception_of_a_suite_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(properties, "_SUITES",
                        properties._SUITES + (("broken", broken_suite),))
    with pytest.raises(ValueError) as in_process:
        in_one_process(TRIALS, DEPTH, SEED)
    with pytest.raises(ValueError) as pooled:
        run_all(TRIALS, DEPTH, SEED)
    assert type(pooled.value) is type(in_process.value)
    assert str(pooled.value) == str(in_process.value)
