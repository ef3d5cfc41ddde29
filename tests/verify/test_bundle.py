"""The gate cache: one replay memo shared by both gates."""

from repro.verify.invariants import (
    GATE_WORKLOADS,
    check_migration_ser_ordering,
    check_static_scheme_ordering,
    gate_cache,
)
from repro.verify.replication import measure


def test_gates_replay_each_distinct_spec_once(replay_runs):
    """The invariant gate and the replication gate score the same
    schemes under different names ("perf-migration" vs "perf-mig");
    each distinct spec still replays once per gate cache."""
    cache = gate_cache(quick=True)
    start = len(replay_runs)
    check_migration_ser_ordering(cache)
    check_static_scheme_ordering(cache)
    measure(cache)
    runs = replay_runs[start:]
    assert len(runs) == len(set(runs))
    migration = [run for run in runs if run[-1] is not None]
    # perf, FC and CC migration on each gate workload.
    assert len(migration) == 3 * len(GATE_WORKLOADS)
