import pytest

from repro.harness.experiments import WorkloadCache
from repro.verify.invariants import gate_cache


@pytest.fixture(scope="session")
def bundle() -> WorkloadCache:
    """One quick gate cache shared by the invariant gate tests.

    Building it prepares every gate workload once; the per-scheme
    replays are memoised inside, so sharing it across test files keeps
    the invariant suites to a few seconds total.
    """
    return gate_cache(quick=True)
