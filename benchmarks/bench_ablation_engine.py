"""Ablation: fast busy-until engine vs the event-driven FR-FCFS engine.

The experiment harness runs on the fast engine; this ablation replays
the same workload/placement pairs through the closed-loop discrete-
event reference and reports where the two agree — validating the
model choice documented in DESIGN.md.
"""

from repro.core.placement import DdrOnlyPlacement, PerformanceFocusedPlacement
from repro.dram.hma import HeterogeneousMemory
from repro.harness.reporting import print_table
from repro.sim.engine import replay
from repro.verify.event_engine import replay_event_driven

WORKLOADS = ("astar", "libquantum")


def run(cache):
    rows = []
    agreements = []
    for wl in WORKLOADS:
        prep = cache.get(wl)
        wt = prep.workload_trace
        trace = wt.trace.slice(0, 30_000)
        gains = {}
        for engine_name, engine in (("fast", replay),
                                    ("event", replay_event_driven)):
            ipcs = {}
            for label, policy in (("ddr", DdrOnlyPlacement()),
                                  ("hma", PerformanceFocusedPlacement())):
                fast_pages = policy.select_fast_pages(prep.stats,
                                                      prep.capacity_pages)
                hma = HeterogeneousMemory(prep.config)
                hma.install_placement(fast_pages, prep.stats.pages)
                if engine is replay:
                    res = engine(prep.config, hma, trace,
                                 core_windows=wt.core_mlp)
                else:
                    res = engine(prep.config, hma, trace,
                                 core_windows=wt.core_mlp)
                ipcs[label] = res.ipc
            gains[engine_name] = ipcs["hma"] / ipcs["ddr"]
        rows.append([wl, f"{gains['fast']:.2f}x", f"{gains['event']:.2f}x"])
        agreements.append((gains["fast"], gains["event"]))
    return rows, agreements


def test_ablation_engine(cache, run_once):
    rows, agreements = run_once(run, cache)
    print_table(["workload", "HMA speedup (fast engine)",
                 "HMA speedup (event engine)"], rows,
                title="Ablation: fast busy-until vs event-driven FR-FCFS")
    for fast_gain, event_gain in agreements:
        # Both engines agree the HMA placement wins, within a band.
        assert fast_gain > 1.0 and event_gain > 1.0
        assert 0.5 < fast_gain / event_gain < 2.0
