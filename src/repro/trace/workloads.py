"""Per-benchmark statistical profiles and the :class:`Workload` API.

The paper evaluates seven SPEC CPU2006 benchmarks plus two DoE proxy
apps (XSBench, LULESH) as 16-copy homogeneous workloads, and five mixed
workloads (Table 2) built from fifteen SPEC benchmarks.  We do not have
the benchmark binaries, so each benchmark is modelled as a set of named
program structures (:class:`~repro.trace.synthetic.RegionSpec`) whose
sizes, hotness, write ratios and read spreads are calibrated to the
per-benchmark quantities the paper reports:

* mean memory AVF between 1.7% (astar) and 22.5% (milc)  — Fig. 2,
* MPKI ordering used to sort Fig. 7 (lbm/milc/mcf bandwidth-bound,
  astar/sphinx/dealII latency-bound),
* a hot & low-risk footprint share between 9% and 39%  — Fig. 4,
* annotation counts: a handful of structures for most benchmarks, tens
  for cactusADM — Fig. 17.

The region names double as annotation targets for Section 7.  A
user's own application is described the same way: a
:class:`BenchmarkProfile` of its structures, run as a :class:`Workload`
of one profile per core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PAGE_SIZE, knob_value
from repro.trace.record import Trace
from repro.trace.synthetic import (
    RegionLayout,
    RegionSpec,
    _Synthesis,
    layout_regions,
)

MB = 1024 * 1024


@dataclass(frozen=True)
class BenchmarkProfile:
    """Full-scale statistical description of one benchmark."""

    name: str
    #: Resident memory footprint of one copy, in MB (full scale).
    footprint_mb: float
    #: Main-memory misses per kilo-instruction (sets trace gaps).
    mpki: float
    regions: "tuple[RegionSpec, ...]"
    #: Memory-level parallelism: how many outstanding misses the
    #: benchmark's dependence structure sustains.  Pointer chasers
    #: (astar, mcf, omnetpp) are ~1-2; streaming kernels (lbm,
    #: libquantum) keep the full miss window busy.  This is what makes
    #: a workload latency-sensitive vs. bandwidth-intensive.
    mlp: int = 4

    def __post_init__(self) -> None:
        # Phrased to also reject NaN, as RegionSpec's checks are.
        if not 0 < self.footprint_mb < np.inf:
            raise ValueError(f"{self.name}: footprint_mb must be a positive "
                             f"finite number (got {self.footprint_mb!r})")
        if not 0 < self.mpki < np.inf:
            raise ValueError(f"{self.name}: mpki must be a positive finite "
                             f"number (got {self.mpki!r})")
        if not self.mlp >= 1:
            raise ValueError(f"{self.name}: mlp must be >= 1 "
                             f"(got {self.mlp!r})")
        if not self.regions:
            raise ValueError(f"{self.name}: at least one region is required")
        if not any(r.hotness > 0 for r in self.regions):
            raise ValueError(f"{self.name}: every region has hotness 0, so "
                             "no page can draw an access")

    def footprint_pages(self, scale: float = 1.0) -> int:
        pages = int(self.footprint_mb * MB * scale) // PAGE_SIZE
        return max(len(self.regions), pages)


def _r(
    name: str,
    share: float,
    hot: float,
    wf: float,
    spread: float,
    alpha: float = 0.6,
    lines: int = 64,
    churn: float = 0.0,
) -> RegionSpec:
    return RegionSpec(
        name=name,
        footprint_share=share,
        hotness=hot,
        write_frac=wf,
        read_spread=spread,
        zipf_alpha=alpha,
        lines_touched=lines,
        churn=churn,
    )


def _cactus_regions() -> "tuple[RegionSpec, ...]":
    """cactusADM: dozens of similarly-sized grid-function arrays.

    The paper needs 39 annotations for cactusADM (Fig. 17) because its
    hot & low-risk data is spread over many small structures.
    """
    regions = []
    rng = np.random.default_rng(1234)
    for i in range(48):
        if i % 2 == 0:
            # Actively updated grid functions: hot and short-lived.
            wf = 0.45 + 0.15 * rng.random()
            spread = 0.12 + 0.10 * rng.random()
            regions.append(
                _r(f"grid_fn_{i:02d}", 0.016, 3.0, wf, spread,
                   alpha=0.2, lines=40, churn=0.05)
            )
        else:
            # Read-mostly grid functions: warm but long-lived (risky).
            wf = 0.03 + 0.04 * rng.random()
            spread = 0.55 + 0.30 * rng.random()
            regions.append(
                _r(f"grid_fn_{i:02d}", 0.016, 1.2, wf, spread,
                   alpha=0.2, lines=24)
            )
    regions.append(_r("coeff_tables", 0.08, 1.5, 0.02, 0.90, alpha=0.3))
    regions.append(_r("halo_buffers", 0.07, 0.8, 0.55, 0.30, lines=16))
    regions.append(_r("cold_setup", 0.082, 0.02, 0.05, 0.35, alpha=0.2, lines=8))
    return tuple(regions)


#: Full-scale profiles for every benchmark the paper uses.
PROFILES: "dict[str, BenchmarkProfile]" = {
    p.name: p
    for p in [
        # -- latency-bound, low-AVF benchmarks --------------------------------
        BenchmarkProfile(
            "astar",
            footprint_mb=180,
            mpki=3.0,
            mlp=1,
            regions=(
                _r("way_array", 0.18, 6.0, 0.55, 0.05, alpha=0.9, lines=16),
                _r("open_list", 0.10, 3.0, 0.60, 0.04, lines=16, churn=0.10),
                _r("landscape", 0.42, 0.9, 0.03, 0.15, alpha=0.4, lines=8),
                _r("search_state", 0.12, 1.2, 0.45, 0.08, lines=16),
                _r("cold_heap", 0.18, 0.015, 0.10, 0.30, alpha=0.2, lines=4),
            ),
        ),
        BenchmarkProfile(
            "bzip",
            footprint_mb=160,
            mpki=3.5,
            mlp=2,
            regions=(
                _r("block_buffer", 0.25, 5.0, 0.50, 0.07, alpha=0.7, lines=32),
                _r("huffman_tables", 0.08, 3.5, 0.30, 0.15, lines=32),
                _r("sort_ptrs", 0.22, 1.5, 0.48, 0.06, lines=16, churn=0.15),
                _r("input_window", 0.45, 0.04, 0.04, 0.25, alpha=0.3, lines=8),
            ),
        ),
        BenchmarkProfile(
            "gcc",
            footprint_mb=220,
            mpki=4.5,
            mlp=2,
            regions=(
                _r("rtl_pool", 0.30, 4.0, 0.42, 0.08, alpha=0.8, lines=32,
                   churn=0.2),
                _r("symbol_table", 0.15, 2.0, 0.12, 0.25, lines=16),
                _r("df_bitmaps", 0.12, 3.0, 0.55, 0.06, lines=32),
                _r("cold_objects", 0.43, 0.03, 0.08, 0.25, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "deaIII",
            footprint_mb=300,
            mpki=2.5,
            mlp=3,
            regions=(
                _r("sparsity_pattern", 0.20, 3.5, 0.08, 0.30, alpha=0.5, lines=16),
                _r("solution_vec", 0.10, 5.0, 0.52, 0.08, lines=32),
                _r("system_matrix", 0.40, 1.0, 0.05, 0.18, alpha=0.3, lines=8),
                _r("dof_handler", 0.30, 0.04, 0.10, 0.25, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "omnetpp",
            footprint_mb=260,
            mpki=9.0,
            mlp=2,
            regions=(
                _r("event_queue", 0.12, 6.0, 0.50, 0.10, lines=32, churn=0.25),
                _r("message_pool", 0.22, 3.0, 0.45, 0.12, alpha=0.7, lines=32),
                _r("topology", 0.28, 1.2, 0.03, 0.45, alpha=0.4, lines=8),
                _r("stats_counters", 0.08, 2.5, 0.70, 0.05, lines=32),
                _r("cold_modules", 0.30, 0.03, 0.08, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "sphinx",
            footprint_mb=200,
            mpki=5.0,
            mlp=2,
            regions=(
                _r("acoustic_model", 0.45, 2.0, 0.01, 0.50, alpha=0.4, lines=12),
                _r("active_hmm", 0.12, 5.5, 0.58, 0.07, lines=32, churn=0.2),
                _r("lattice", 0.13, 2.5, 0.50, 0.10, lines=32),
                _r("cold_dict", 0.30, 0.03, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        # -- mid-range -------------------------------------------------------
        BenchmarkProfile(
            "xsbench",
            footprint_mb=450,
            mpki=14.0,
            mlp=10,
            regions=(
                _r("nuclide_grids", 0.55, 1.8, 0.005, 0.45, alpha=0.25, lines=12),
                _r("energy_grid", 0.20, 3.0, 0.01, 0.40, alpha=0.4, lines=16),
                _r("macro_xs_buf", 0.05, 6.0, 0.60, 0.06, lines=32),
                _r("cold_init", 0.20, 0.02, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "lulesh",
            footprint_mb=380,
            mpki=8.0,
            mlp=8,
            regions=(
                _r("nodal_forces", 0.15, 4.5, 0.55, 0.08, lines=32),
                _r("elem_centered", 0.30, 2.5, 0.35, 0.30, alpha=0.3, lines=24),
                _r("nodal_coords", 0.20, 3.0, 0.25, 0.45, alpha=0.3, lines=24),
                _r("mesh_conn", 0.20, 1.0, 0.01, 0.40, alpha=0.3, lines=12),
                _r("cold_regions", 0.15, 0.02, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "soplex",
            footprint_mb=340,
            mpki=20.0,
            mlp=6,
            regions=(
                _r("lp_matrix_cols", 0.35, 2.2, 0.02, 0.52, alpha=0.35, lines=24),
                _r("basis_factors", 0.18, 4.0, 0.55, 0.08, lines=32, churn=0.15),
                _r("pricing_vectors", 0.12, 5.0, 0.48, 0.10, lines=32),
                _r("bound_arrays", 0.10, 2.0, 0.15, 0.45, lines=32),
                _r("cold_presolve", 0.25, 0.03, 0.08, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "libquantum",
            footprint_mb=280,
            mpki=24.0,
            mlp=16,
            regions=(
                _r("quantum_reg", 0.55, 3.0, 0.12, 0.36, alpha=0.15, lines=40),
                _r("gate_workspace", 0.15, 4.0, 0.65, 0.06, lines=32),
                _r("cold_tables", 0.30, 0.03, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "leslie3d",
            footprint_mb=400,
            mpki=16.0,
            mlp=12,
            regions=(
                _r("flow_field", 0.45, 2.5, 0.30, 0.40, alpha=0.2, lines=32),
                _r("flux_buffers", 0.15, 4.0, 0.58, 0.08, lines=32),
                _r("metric_terms", 0.20, 1.8, 0.02, 0.50, alpha=0.25, lines=16),
                _r("cold_bc", 0.20, 0.02, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "GemsFDTD",
            footprint_mb=420,
            mpki=18.0,
            mlp=12,
            regions=(
                _r("e_field", 0.28, 2.8, 0.40, 0.40, alpha=0.2, lines=32),
                _r("h_field", 0.28, 2.8, 0.40, 0.40, alpha=0.2, lines=32),
                _r("update_coeffs", 0.18, 2.0, 0.01, 0.55, alpha=0.25, lines=16),
                _r("pml_buffers", 0.08, 3.5, 0.55, 0.08, lines=32),
                _r("cold_geometry", 0.18, 0.02, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "bwaves",
            footprint_mb=440,
            mpki=13.0,
            mlp=12,
            regions=(
                _r("block_matrix", 0.50, 2.2, 0.25, 0.45, alpha=0.2, lines=32),
                _r("rhs_vectors", 0.15, 3.5, 0.55, 0.10, lines=32),
                _r("jacobian_diag", 0.15, 2.0, 0.10, 0.55, alpha=0.25, lines=24),
                _r("cold_grid", 0.20, 0.02, 0.05, 0.30, alpha=0.2, lines=8),
            ),
        ),
        # -- bandwidth-bound, high-AVF benchmarks ------------------------------
        BenchmarkProfile(
            "mcf",
            footprint_mb=520,
            mpki=38.0,
            mlp=4,
            regions=(
                _r("node_array", 0.13, 6.0, 0.08, 0.85, alpha=0.15, lines=64),
                _r("arc_array", 0.25, 3.0, 0.05, 0.80, alpha=0.25, lines=24),
                _r("basket_heap", 0.08, 7.0, 0.60, 0.08, lines=64, churn=0.2),
                _r("pointer_scratch", 0.03, 14.0, 0.60, 0.06, alpha=0.3,
                   lines=48),
                _r("dual_prices", 0.07, 4.0, 0.50, 0.12, lines=32),
                _r("cold_aux", 0.44, 0.03, 0.08, 0.40, alpha=0.2, lines=6),
            ),
        ),
        BenchmarkProfile(
            "cactusADM",
            footprint_mb=480,
            mpki=22.0,
            mlp=8,
            regions=_cactus_regions(),
        ),
        BenchmarkProfile(
            "lbm",
            footprint_mb=460,
            mpki=32.0,
            mlp=16,
            regions=(
                # lbm is the paper's outlier: near-uniform access counts
                # (few pages in the "hot" upper quadrants of Fig. 4).
                _r("src_lattice", 0.44, 2.0, 0.28, 0.70, alpha=0.03, lines=44),
                _r("dst_lattice", 0.44, 2.0, 0.62, 0.12, alpha=0.03, lines=40),
                _r("obstacle_map", 0.08, 1.5, 0.01, 0.60, alpha=0.05, lines=16),
                _r("cold_setup", 0.04, 0.02, 0.05, 0.40, alpha=0.2, lines=8),
            ),
        ),
        BenchmarkProfile(
            "milc",
            footprint_mb=430,
            mpki=26.0,
            mlp=16,
            regions=(
                _r("su3_links", 0.40, 3.5, 0.12, 0.80, alpha=0.1, lines=32),
                _r("fermion_vecs", 0.30, 3.2, 0.35, 0.70, alpha=0.12, lines=32),
                _r("cg_workspace", 0.15, 2.5, 0.55, 0.15, alpha=0.2, lines=32),
                _r("accum_buffers", 0.03, 10.0, 0.60, 0.08, alpha=0.3,
                   lines=48),
                _r("cold_io", 0.12, 0.02, 0.05, 0.40, alpha=0.2, lines=8),
            ),
        ),
    ]
}

#: The nine benchmarks run as 16-copy homogeneous workloads (Sec. 3.3).
HOMOGENEOUS_BENCHMARKS = (
    "mcf",
    "lbm",
    "milc",
    "astar",
    "soplex",
    "libquantum",
    "cactusADM",
    "xsbench",
    "lulesh",
)


@dataclass
class WorkloadTrace:
    """A generated multi-core trace plus its page-layout metadata."""

    workload_name: str
    trace: Trace
    #: Logical time in [0, 1) of every request, aligned with ``trace``.
    times: np.ndarray
    #: Per-core region layouts in the global page namespace.
    core_layouts: "list[list[RegionLayout]]"
    #: Per-core benchmark names.
    core_benchmarks: "list[str]"
    #: Total footprint in pages (sum over cores).
    footprint_pages: int
    #: Per-core outstanding-miss windows (each core's profile MLP).
    core_mlp: "list[int]"
    #: Optional per-page error-tolerance classes
    #: (:class:`repro.core.annotations.ToleranceMap`).
    tolerance: "object | None" = None

    def structures(self) -> "dict[str, list[RegionLayout]]":
        """All annotatable structures, keyed by ``benchmark.region``.

        Homogeneous copies of the same benchmark share one annotation
        (annotating the source structure covers all 16 processes), so
        layouts from identical benchmarks aggregate under one key.
        """
        out: "dict[str, list[RegionLayout]]" = {}
        for bench, layouts in zip(self.core_benchmarks, self.core_layouts):
            for layout in layouts:
                out.setdefault(f"{bench}.{layout.spec.name}", []).append(layout)
        return out


@dataclass(frozen=True)
class Workload:
    """A named multi-core workload: one benchmark profile per core.

    :meth:`spec` and :meth:`mix` build the bundled workloads from
    :data:`PROFILES`; a custom application is a profile of its own,
    e.g. ``Workload("kvstore", (app,) * 16)``.
    """

    name: str
    cores: "tuple[BenchmarkProfile, ...]"

    def __post_init__(self) -> None:
        wrong = [c for c in self.cores if not isinstance(c, BenchmarkProfile)]
        if wrong:
            raise TypeError(
                f"{self.name}: every core must be a BenchmarkProfile "
                f"(got {wrong!r}); Workload.spec and Workload.mix build "
                "bundled workloads from benchmark names")

    @classmethod
    def spec(cls, benchmark: str, num_cores: int = 16) -> "Workload":
        """A homogeneous workload: ``num_cores`` copies of ``benchmark``."""
        if benchmark not in PROFILES:
            raise KeyError(f"unknown benchmark: {benchmark}")
        return cls(name=benchmark, cores=(PROFILES[benchmark],) * num_cores)

    @classmethod
    def mix(cls, name: str) -> "Workload":
        """One of the paper's Table 2 mixes (``mix1`` .. ``mix5``)."""
        from repro.trace.mixes import MIXES

        if name not in MIXES:
            raise KeyError(f"unknown mix: {name}")
        return cls(name=name, cores=tuple(PROFILES[b] for b in MIXES[name]))

    def generate(
        self,
        scale: float = 1.0,
        accesses_per_core: int = 50_000,
        seed: "int | None" = None,
        phases: int = 8,
    ) -> WorkloadTrace:
        """Generate the interleaved multi-core memory trace.

        ``scale`` shrinks every footprint proportionally (pair it with
        :func:`repro.config.scaled_config`); access counts stay as
        requested so per-page hotness rises at small scales, which
        keeps the hot/cold contrast intact.  ``seed`` defaults to the
        ``seed`` knob (``REPRO_SEED``, else 0).
        """
        if not accesses_per_core > 0:
            raise ValueError("accesses_per_core must be positive")
        if not phases >= 1:
            raise ValueError("phases must be >= 1")
        seed = knob_value("seed", seed)
        synthesis = _Synthesis()
        core_layouts: "list[list[RegionLayout]]" = []
        next_page = 0
        # Co-running cores share one time window, so each core's access
        # budget scales with its benchmark's MPKI: a bandwidth hog
        # issues proportionally more requests than a latency-bound
        # pointer chaser.  The workload total stays at
        # ``accesses_per_core * num_cores``.
        mpkis = np.array([p.mpki for p in self.cores])
        budgets = accesses_per_core * len(self.cores) * mpkis / mpkis.sum()
        for idx, profile in enumerate(self.cores):
            pages = profile.footprint_pages(scale)
            layouts = layout_regions(list(profile.regions), pages, next_page)
            synthesis.add(np.random.default_rng(seed * 131 + idx), layouts,
                          max(1, int(round(budgets[idx]))), profile.mpki,
                          phases, core=idx)
            core_layouts.append(layouts)
            next_page += pages

        trace, times = synthesis.run()
        return WorkloadTrace(
            workload_name=self.name,
            trace=trace,
            times=times,
            core_layouts=core_layouts,
            core_benchmarks=[p.name for p in self.cores],
            footprint_pages=next_page,
            core_mlp=[p.mlp for p in self.cores],
        )
