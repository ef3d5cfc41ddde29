"""The gate cache: one replay memo shared by the invariant checks."""

from repro.verify.invariants import (
    GATE_WORKLOADS,
    check_migration_ser_ordering,
    check_static_scheme_ordering,
    gate_cache,
)


def test_gates_replay_each_distinct_spec_once(replay_runs):
    """The invariant checks score overlapping schemes (fig05, fig07 and
    fig08 all replay performance-focused placement); each distinct spec
    still replays once per gate cache."""
    cache = gate_cache(quick=True)
    start = len(replay_runs)
    check_migration_ser_ordering(cache)
    check_static_scheme_ordering(cache)
    runs = replay_runs[start:]
    assert len(runs) == len(set(runs))
    migration = [run for run in runs if run[-1] is not None]
    # On each gate workload: perf, FC and CC migration from the
    # performance-focused start.
    assert len(migration) == 3 * len(GATE_WORKLOADS)
