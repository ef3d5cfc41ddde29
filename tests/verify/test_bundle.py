"""The gate cache: one replay memo shared by both gates."""

from repro.verify.invariants import (
    GATE_WORKLOADS,
    check_migration_ser_ordering,
    check_static_scheme_ordering,
    gate_cache,
    gate_summaries,
)


def test_gates_replay_each_distinct_spec_once(replay_runs):
    """The invariant gate and the figures the replication gate reads
    score overlapping schemes under different names ("perf-migration"
    vs fig12's baseline); each distinct spec still replays once per
    gate cache."""
    cache = gate_cache(quick=True)
    start = len(replay_runs)
    check_migration_ser_ordering(cache)
    check_static_scheme_ordering(cache)
    gate_summaries(cache)
    runs = replay_runs[start:]
    assert len(runs) == len(set(runs))
    migration = [run for run in runs if run[-1] is not None]
    # On each gate workload: perf, FC and CC migration from the
    # performance-focused start (the invariant), plus FC and CC from
    # the balanced start (Figs. 14/15).
    assert len(migration) == 5 * len(GATE_WORKLOADS)
