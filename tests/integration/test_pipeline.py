"""Integration tests: full pipeline and paper-shape assertions.

These tests run the complete trace -> profile -> placement -> replay ->
SER pipeline at reduced scale and assert the qualitative shapes listed
in DESIGN.md Section 5.  Tolerances are wide: the claims are orderings
and rough factors, not absolute values.
"""

import numpy as np
import pytest

from repro.avf.page import profile_trace
from repro.core.migration import (
    CrossCountersMigration,
    PerformanceFocusedMigration,
    ReliabilityAwareFCMigration,
)
from repro.core.placement import (
    BalancedPlacement,
    PerformanceFocusedPlacement,
    ReliabilityFocusedPlacement,
    Wr2RatioPlacement,
    WrRatioPlacement,
)
from repro.sim.system import (
    evaluate_migration,
    evaluate_static,
    prepare_workload,
)
from repro.verify.oracles import AceTracker


@pytest.fixture(scope="module")
def preps():
    """Three representative workloads: bandwidth-bound high-AVF (mcf),
    latency-bound low-AVF (astar), and a mix."""
    return {
        name: prepare_workload(name, scale=1 / 1024,
                               accesses_per_core=10_000, seed=11)
        for name in ("mcf", "astar", "mix1")
    }


def gmean(values):
    return float(np.exp(np.mean(np.log(values))))


class TestStaticShapes:
    def test_perf_placement_boosts_ipc_and_wrecks_ser(self, preps):
        """Fig. 5 shape: clear IPC win, orders-of-magnitude SER loss."""
        ipcs, sers = [], []
        for prep in preps.values():
            res = evaluate_static(prep, PerformanceFocusedPlacement())
            ipcs.append(res.ipc_vs_ddr)
            sers.append(res.ser_vs_ddr)
        assert gmean(ipcs) > 1.2
        assert gmean(sers) > 50

    def test_scheme_orderings(self, preps):
        """Figs. 7/8/10/11: SER gain ordering rel > balanced > wr-like;
        IPC ordering the reverse."""
        ipc = {n: [] for n in ("rel", "bal", "wr", "wr2")}
        ser = {n: [] for n in ("rel", "bal", "wr", "wr2")}
        for prep in preps.values():
            perf = evaluate_static(prep, PerformanceFocusedPlacement())
            for key, policy in (("rel", ReliabilityFocusedPlacement()),
                                ("bal", BalancedPlacement()),
                                ("wr", WrRatioPlacement()),
                                ("wr2", Wr2RatioPlacement())):
                res = evaluate_static(prep, policy)
                ipc[key].append(res.ipc / perf.ipc)
                ser[key].append(perf.ser / res.ser)
        # Reliability-focused: biggest SER gain, biggest IPC loss.
        assert gmean(ser["rel"]) > gmean(ser["bal"])
        assert gmean(ser["bal"]) >= gmean(ser["wr2"]) * 0.9
        assert gmean(ipc["rel"]) < gmean(ipc["wr2"])
        # Every reliability-aware scheme actually gains reliability.
        for key in ser:
            assert gmean(ser[key]) > 1.2
        # The Wr^2 heuristic keeps IPC within a few percent of perf.
        assert gmean(ipc["wr2"]) > 0.85

    def test_balanced_never_raises_ser_vs_perf(self, preps):
        for prep in preps.values():
            perf = evaluate_static(prep, PerformanceFocusedPlacement())
            bal = evaluate_static(prep, BalancedPlacement())
            assert bal.ser <= perf.ser * 1.05


class TestDynamicShapes:
    def test_perf_migration_tracks_static_oracle(self, preps):
        """Fig. 12: dynamic migration stays within ~15% of the static
        oracle's IPC while keeping a large SER blow-up."""
        ratios = []
        for prep in preps.values():
            static = evaluate_static(prep, PerformanceFocusedPlacement())
            dyn = evaluate_migration(prep, PerformanceFocusedMigration(),
                                     num_intervals=8)
            ratios.append(dyn.ipc / static.ipc)
            assert dyn.ser_vs_ddr > 30
        assert gmean(ratios) > 0.85

    def test_fc_and_cc_cut_ser_vs_perf_migration(self, preps):
        """Figs. 14/15: both reliability-aware mechanisms reduce SER;
        FC reduces at least as much as CC; CC costs less IPC."""
        fc_ser, cc_ser, fc_ipc, cc_ipc = [], [], [], []
        for prep in preps.values():
            pm = evaluate_migration(prep, PerformanceFocusedMigration(),
                                    num_intervals=8)
            fc = evaluate_migration(prep, ReliabilityAwareFCMigration(),
                                    num_intervals=8,
                                    initial_policy=BalancedPlacement())
            cc = evaluate_migration(prep, CrossCountersMigration(),
                                    num_intervals=8,
                                    initial_policy=BalancedPlacement())
            fc_ser.append(pm.ser / fc.ser)
            cc_ser.append(pm.ser / cc.ser)
            fc_ipc.append(fc.ipc / pm.ipc)
            cc_ipc.append(cc.ipc / pm.ipc)
        assert gmean(fc_ser) > 1.3
        assert gmean(cc_ser) > 1.2
        assert gmean(fc_ser) >= gmean(cc_ser) * 0.95
        assert gmean(cc_ipc) >= gmean(fc_ipc) * 0.97
        assert gmean(cc_ipc) > 0.85

    def test_cc_uses_less_hardware_than_fc(self):
        fc = ReliabilityAwareFCMigration()
        cc = CrossCountersMigration()
        total, fast = (17 << 30) // 4096, (1 << 30) // 4096
        assert (cc.hardware_cost_bytes(total, fast)
                < 0.2 * fc.hardware_cost_bytes(total, fast))


class TestCrossValidation:
    def test_streaming_tracker_matches_profile_on_real_trace(self, preps):
        """The vectorised profiler and the streaming tracker agree on a
        real generated workload trace."""
        prep = preps["astar"]
        wt = prep.workload_trace
        n = 3000
        trace = wt.trace.slice(0, n)
        times = wt.times[:n]
        tracker = AceTracker()
        lines = trace.lines
        for i in range(n):
            tracker.access(int(lines[i]), float(times[i]),
                           bool(trace.is_write[i]))
        stats = profile_trace(trace, times)
        from repro.config import LINES_PER_PAGE

        page_ace = {}
        for line, ace in tracker.line_ace_times().items():
            page = line // LINES_PER_PAGE
            page_ace[page] = page_ace.get(page, 0.0) + ace
        for i, page in enumerate(stats.pages):
            expected = page_ace.get(int(page), 0.0) / LINES_PER_PAGE
            assert stats.avf[i] == pytest.approx(expected, abs=1e-9)


class TestAnnotationShapes:
    def test_annotation_counts_small(self, preps):
        """Fig. 17: homogeneous workloads need only a handful of
        annotations; mixes need more."""
        from repro.sim.system import evaluate_annotations

        _res, astar_plan = evaluate_annotations(preps["astar"])
        _res, mix_plan = evaluate_annotations(preps["mix1"])
        assert astar_plan.num_annotations <= 6
        assert mix_plan.num_annotations >= astar_plan.num_annotations

    def test_annotations_cut_ser_at_modest_ipc_cost(self, preps):
        from repro.sim.system import evaluate_annotations

        for prep in preps.values():
            perf = evaluate_static(prep, PerformanceFocusedPlacement())
            res, _plan = evaluate_annotations(prep)
            assert res.ser < perf.ser
            assert res.ipc > 0.7 * perf.ipc
