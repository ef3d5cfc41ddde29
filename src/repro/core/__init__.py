"""The paper's contribution: placements, migrations, annotations."""

from repro.core.counters import (
    ArrayFullCounters,
    CounterCost,
    SaturatingCounter,
)
from repro.core.mea import ArrayMeaTracker
from repro.core.placement import (
    STATIC_POLICIES,
    BalancedPlacement,
    DdrOnlyPlacement,
    HotFractionPlacement,
    PerformanceFocusedPlacement,
    PlacementPolicy,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
    WrRatioPlacement,
)
from repro.core.quadrant import QuadrantSummary, quadrant_split
from repro.core.migration import (
    CrossCountersMigration,
    MigrationMechanism,
    OracleRiskMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.core.mempod import MemPodMigration
from repro.core.annotations import (
    AnnotationPlan,
    StructureProfile,
    plan_annotations,
    profile_structures,
)

__all__ = [
    "SaturatingCounter",
    "ArrayFullCounters",
    "CounterCost",
    "ArrayMeaTracker",
    "PlacementPolicy",
    "DdrOnlyPlacement",
    "PerformanceFocusedPlacement",
    "ReliabilityFocusedPlacement",
    "BalancedPlacement",
    "WrRatioPlacement",
    "Wr2RatioPlacement",
    "HotFractionPlacement",
    "STATIC_POLICIES",
    "QuadrantSummary",
    "quadrant_split",
    "MigrationMechanism",
    "PerformanceFocusedMigration",
    "ReliabilityAwareFCMigration",
    "CrossCountersMigration",
    "OracleRiskMigration",
    "MemPodMigration",
    "AnnotationPlan",
    "StructureProfile",
    "plan_annotations",
    "profile_structures",
]
