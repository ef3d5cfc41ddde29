"""Checkpointing prepared workloads to disk.

``prepare_workload`` is cheap at the default 1/1024 scale but costly at
full scale (gigabyte traces, millions of profiled pages).  A checkpoint
directory captures everything ``evaluate_*`` needs:

* ``trace.npz``    — the merged trace and its logical times,
* ``stats.npz``    — the per-page profile arrays,
* ``meta.json``    — workload identity, layouts, scale, SER model.

Restoring skips generation and profiling entirely; the system config
is rebuilt from the recorded scale with :func:`~repro.config.scaled_config`.
Nothing else about the config is stored, nor are a trace's per-core
MLPs or tolerance map, so :func:`save_prepared` refuses — before
writing anything — a prep it could not restore: one whose config is
not ``scaled_config(scale)`` (custom geometries, an ``ecc_budget``
scheme selection), a frontier server workload, or a workload trace
carrying ``core_mlps`` or ``tolerance``.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.avf.page import PageStats
from repro.config import scaled_config
from repro.faults.ser import SerModel
from repro.sim.results import ExperimentResult
from repro.sim.system import PreparedWorkload
from repro.trace.io import load_npz, save_npz
from repro.trace.synthetic import RegionLayout, RegionSpec
from repro.trace.workloads import Workload, WorkloadTrace

FORMAT_VERSION = 1


def _layout_to_dict(layout: RegionLayout) -> dict:
    spec = layout.spec
    return {
        "first_page": layout.first_page,
        "num_pages": layout.num_pages,
        "spec": {
            "name": spec.name,
            "footprint_share": spec.footprint_share,
            "hotness": spec.hotness,
            "write_frac": spec.write_frac,
            "read_spread": spec.read_spread,
            "zipf_alpha": spec.zipf_alpha,
            "lines_touched": spec.lines_touched,
            "churn": spec.churn,
        },
    }


def _layout_from_dict(data: dict) -> RegionLayout:
    return RegionLayout(
        spec=RegionSpec(**data["spec"]),
        first_page=int(data["first_page"]),
        num_pages=int(data["num_pages"]),
    )


def _unrestorable(prep: PreparedWorkload, scale: float) -> "list[str]":
    """What :func:`load_prepared` would lose or get wrong for ``prep``."""
    from repro.workloads import is_frontier

    wt = prep.workload_trace
    problems = []
    if prep.config != scaled_config(scale):
        problems.append(f"a config other than scaled_config({scale!r})")
    if is_frontier(prep.workload.name):
        problems.append(f"the frontier workload {prep.workload.name!r}")
    for field in ("core_mlps", "tolerance"):
        if getattr(wt, field, None) is not None:
            problems.append(f"WorkloadTrace.{field}")
    return problems


def save_prepared(prep: PreparedWorkload,
                  directory: "str | os.PathLike") -> None:
    """Write a checkpoint of ``prep`` into ``directory``.

    Raises :class:`ValueError`, before writing anything, when the
    checkpoint could not restore ``prep`` (see the module docstring).
    """
    scale = prep.config.fast_memory.capacity_bytes / (1 << 30)
    problems = _unrestorable(prep, scale)
    if problems:
        raise ValueError("cannot checkpoint a prepared workload with "
                         + ", ".join(problems)
                         + ": load_prepared could not restore it")
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    wt = prep.workload_trace
    save_npz(path / "trace.npz", wt.trace, wt.times)
    np.savez_compressed(
        path / "stats.npz",
        pages=prep.stats.pages,
        reads=prep.stats.reads,
        writes=prep.stats.writes,
        avf=prep.stats.avf,
    )
    base = prep.ddr_baseline
    meta = {
        "version": FORMAT_VERSION,
        "workload_name": prep.workload.name,
        "cores": list(prep.workload.cores),
        "scale": scale,
        "footprint_pages": wt.footprint_pages,
        "core_benchmarks": wt.core_benchmarks,
        "core_layouts": [
            [_layout_to_dict(layout) for layout in layouts]
            for layouts in wt.core_layouts
        ],
        "ser_model": {
            "fit_fast_per_page": prep.ser_model.fit_fast_per_page,
            "fit_slow_per_page": prep.ser_model.fit_slow_per_page,
        },
        "ddr_baseline": {
            "ipc": base.ipc,
            "ser": base.ser,
            "mean_read_latency": base.mean_read_latency,
        },
        "stats_footprint": prep.stats.footprint_pages,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))


def load_prepared(directory: "str | os.PathLike") -> PreparedWorkload:
    """Restore a checkpoint written by :func:`save_prepared`."""
    path = pathlib.Path(directory)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no checkpoint at {directory}")
    meta = json.loads(meta_path.read_text())
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {meta.get('version')}"
        )

    trace, times = load_npz(path / "trace.npz")
    if times is None:
        raise ValueError("checkpoint trace is missing logical times")
    with np.load(path / "stats.npz") as data:
        stats = PageStats(
            pages=data["pages"],
            reads=data["reads"],
            writes=data["writes"],
            avf=data["avf"],
            footprint_pages=int(meta["stats_footprint"]),
        )

    workload = Workload(name=meta["workload_name"],
                        cores=tuple(meta["cores"]))
    wt = WorkloadTrace(
        workload_name=meta["workload_name"],
        trace=trace,
        times=times,
        core_layouts=[
            [_layout_from_dict(d) for d in layouts]
            for layouts in meta["core_layouts"]
        ],
        core_benchmarks=list(meta["core_benchmarks"]),
        footprint_pages=int(meta["footprint_pages"]),
    )
    config = scaled_config(float(meta["scale"]))
    ser_model = SerModel(**meta["ser_model"])
    base = meta["ddr_baseline"]
    baseline = ExperimentResult(
        workload=meta["workload_name"],
        scheme="ddr-only",
        ipc=float(base["ipc"]),
        ser=float(base["ser"]),
        ipc_vs_ddr=1.0,
        ser_vs_ddr=1.0,
        mean_read_latency=float(base["mean_read_latency"]),
    )
    return PreparedWorkload(
        workload=workload,
        config=config,
        workload_trace=wt,
        stats=stats,
        ser_model=ser_model,
        ddr_baseline=baseline,
    )
