from collections import Counter

import pytest

from trine.dynamics import RunRecord
from trine.graph import MixedGraph
from trine.ipf import IpfReport


@pytest.fixture
def ring3() -> MixedGraph:
    """Undirected triangle: the smallest mask (1,1) circle."""
    return MixedGraph(3, undirected=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def object_counts(monkeypatch) -> Counter:
    """Counts of the RunRecords ("records") and IpfReports ("reports")
    built while the test runs."""
    counts = Counter()

    def count(cls, key):
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)

    count(RunRecord, "records")
    count(IpfReport, "reports")
    return counts


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` returns a list that gets the
    arguments of each later call of ``module.name``."""
    def count(module, name: str) -> list:
        calls = []
        fn = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count
