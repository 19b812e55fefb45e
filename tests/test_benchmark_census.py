"""The benchmark's census check (perfbench/workloads.py) on a small census.

That check reads the census through iteration and GeodesicRecord, and checks
every class, its order and the statistics against references of its own.
The benchmark's modules are imported as they are, without writing bytecode
next to them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_census_workload_passes_at_length_eleven(workloads):
    census = workloads.Census(seed=0, rounds=2, T=11.0)
    census.run()
    assert census.failures == []
    assert (census.failed, census.attempted) == (0, 11_922)
