"""The benchmark's checks (perfbench/workloads.py) on small inputs.

The census check reads the census through iteration and GeodesicRecord, and
checks every class, its order and the statistics against references of its
own.  The symbols and routes checks read Mat2 through Mat2(*entries), .trace,
unary minus and @, and CyclicWord through .entries.  The benchmark's modules
are imported as they are, without writing bytecode next to them.
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


def test_symbols_workload_passes_on_small_blocks(workloads):
    symbols = workloads.Symbols(seed=0, rounds=2, block_size=200)
    symbols.warm()
    symbols.run()
    assert symbols.failures == []
    assert (symbols.failed, symbols.attempted) == (0, 400)


def test_routes_workload_passes_on_few_words(workloads):
    routes = workloads.Routes(seed=0, rounds=2, per_stratum=2)
    routes.warm()
    routes.run()
    assert routes.failures == []
    assert (routes.failed, routes.attempted) == (0, 12)
