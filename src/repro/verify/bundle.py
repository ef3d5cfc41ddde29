"""Shared evaluation state for the invariant and replication gates.

Preparing a workload (trace synthesis, profiling, the all-DDR
baseline) dominates gate runtime, and both gates score the same
schemes on the same preps, so one :class:`EvalBundle` is built once
per ``repro-hma verify`` run and handed to both.  The bundle holds one
replay memo for the same reason: it is keyed on what a replay reads,
so each distinct scheme replays once whichever gate asks first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.system import (
    PreparedWorkload,
    evaluate_migration,
    evaluate_static,
    prepare_workload,
)

#: Workloads the gates evaluate: one homogeneous benchmark with a
#: pronounced hot set and one heterogeneous Table 2 mix.
BUNDLE_WORKLOADS = ("astar", "mix1")
#: Fixed gate seed — verdicts must not wander between CI runs.
BUNDLE_SEED = 1234


@dataclass
class EvalBundle:
    """Prepared workloads plus the replay memo of their evaluations."""

    preps: "dict[str, PreparedWorkload]"
    accesses_per_core: int
    num_intervals: int
    quick: bool
    replays: dict = field(default_factory=dict)

    @classmethod
    def build(cls, quick: bool = False, progress=None) -> "EvalBundle":
        accesses = 2_500 if quick else 6_000
        preps = {}
        for name in BUNDLE_WORKLOADS:
            if progress is not None:
                progress(f"preparing {name} ({accesses} accesses/core)")
            preps[name] = prepare_workload(
                name, scale=1 / 1024, accesses_per_core=accesses,
                seed=BUNDLE_SEED)
        return cls(preps=preps, accesses_per_core=accesses,
                   num_intervals=16, quick=quick)

    @property
    def workloads(self) -> "tuple[str, ...]":
        return tuple(self.preps)

    def static(self, workload: str, policy):
        """:func:`evaluate_static` through the bundle's replay memo."""
        return evaluate_static(self.preps[workload], policy,
                               memo=self.replays)

    def migration(self, workload: str, mechanism_factory):
        """:func:`evaluate_migration` through the bundle's replay memo.

        ``mechanism_factory`` must build a *fresh* mechanism (they are
        stateful, and a memo hit assumes an unused one).
        """
        return evaluate_migration(
            self.preps[workload], mechanism_factory(),
            num_intervals=self.num_intervals, memo=self.replays)
