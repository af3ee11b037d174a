import numpy as np
import pytest

from fuzzyifs import geometry


class KernelCounts:
    """What the nearest-neighbour kernel did: its calls, the points each
    grid round took, the sorts it made (numpy argsort calls in geometry)
    and its scans besides the first of each call, which is the sample's,
    or the whole call's when the call is small."""

    def __init__(self, monkeypatch):
        self.queries, self.sorts, self.scans, self.calls = [], 0, 0, 0
        counts = self
        grid_round, scan, kernel = geometry._grid_round, geometry._scan, geometry._prefix_nearest

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, *args, **kwargs):
                counts.sorts += 1
                return np.argsort(*args, **kwargs)

        def counting_round(query, data, limits, todo, *args):
            taken = grid_round(query, data, limits, todo, *args)
            if taken:
                counts.queries.append(len(todo))
            return taken

        def counting_scan(*args):
            counts.scans += 1
            return scan(*args)

        def counting_kernel(*args):
            counts.calls += 1
            counts.scans -= 1
            return kernel(*args)

        monkeypatch.setattr(geometry, "np", CountingNumpy())
        monkeypatch.setattr(geometry, "_grid_round", counting_round)
        monkeypatch.setattr(geometry, "_scan", counting_scan)
        monkeypatch.setattr(geometry, "_prefix_nearest", counting_kernel)


@pytest.fixture
def kernel_counts(monkeypatch):
    return KernelCounts(monkeypatch)
