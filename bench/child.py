"""One benchmark process: the workloads and what each process runs.

``run.py`` starts every process fresh, with a scrubbed environment, as::

    python3 bench/child.py '<job json>'

A job has a ``role``:

* ``prime`` imports ``repro``, builds the native kernels into the
  benchmark's private kernel directory and reports the environment.
* ``fill`` fills a prep-cache directory, as a researcher's first run
  would, for a workload that reads a warm cache.
* ``body`` runs one workload body once, untraced or traced, and reports
  its timings, output digests and (traced) per-layer metrics.

The result is written as JSON to ``job["result"]``; stdout is left to
the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Accesses per core of each mode.
ACCESSES = {"full": 20_000, "smoke": 2_000}
#: Monte-Carlo FaultSim trials of ``frontier-mc`` (the CLI's
#: ``--fault-trials``).
FAULT_TRIALS = 1_000_000
#: Worker processes of ``capacity-fanout``.
FANOUT_JOBS = 2

#: The benchmark workloads.  ``predicted`` lists the layers that must
#: record at least one call in the traced run (the coverage check).
WORKLOADS = {
    "paper-migration": {
        "why": "cold model path: synthesis, page AVF profiling, replay "
               "with perf migration, batched FC/CC migration, interval "
               "AVF and dynamic SER",
        "ops": ("fig12", "fig14", "fig15"),
        "predicted": ("trace", "sim.prepare", "avf.profile",
                      "avf.interval", "sim.replay", "core.rank",
                      "core.policy.observe", "core.policy.plan"),
    },
    "paper-static-warm": {
        "why": "a researcher's repeat run on a prep cache another process "
               "filled: static replay only; synthesis, AVF and policy "
               "layers must not move",
        "ops": ("fig01", "fig05", "fig07", "fig08", "fig10", "fig11",
                "fig16", "fig17"),
        "warm": True,
        "predicted": ("sim.replay", "sim.replay_multi", "core.rank",
                      "harness.prep_cache"),
    },
    "frontier-mc": {
        "why": "phase-aware server generators, tolerance-tiered policy "
               "and Monte-Carlo FaultSim over the five-scheme ECC ladder",
        "ops": ("workload-frontier", "ecc-pareto"),
        "fault_trials": FAULT_TRIALS,
        "predicted": ("trace", "core.rank", "faults.ser",
                      "faults.faultsim"),
    },
    "capacity-fanout": {
        "why": "the only process fan-out: prefetch in 2 workers, prep-cache "
               "writes, shm handoff, config-batched replay_multi in "
               "workers",
        "ops": ("capacity_sweep",),
        "sweep": True,
        "predicted": ("trace", "sim.replay_multi", "core.rank",
                      "harness.prep_cache", "harness.handoff",
                      "harness.fanout"),
    },
}

#: Native kernels: (name, module, loader, error accessor).
KERNELS = (
    ("replay", "repro.sim._ckernel", "load", "build_error"),
    ("cache_filter", "repro.sim._ckernel", "load_filter",
     "filter_build_error"),
    ("replay_multi", "repro.sim._ckernel", "load_multi",
     "multi_build_error"),
    ("mea", "repro.core._mea_native", "load", "build_error"),
)


def _plain(obj):
    """JSON fallback for numpy scalars and arrays in result rows."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"unserialisable {type(obj).__name__} in a result")


def digest(result) -> str:
    """SHA-256 of a FigureResult's figure, rows and summary (floats
    exact: JSON writes the shortest repr that round-trips)."""
    payload = json.dumps([result.figure, result.rows, result.summary],
                         default=_plain)
    return hashlib.sha256(payload.encode()).hexdigest()


def _op(name: str, call) -> dict:
    try:
        return {"name": name, "result": call()}
    except Exception as exc:  # noqa: BLE001 — an operation failure
        return {"name": name, "error": repr(exc)}


def _report(op: dict) -> dict:
    """An operation's digest and headline numbers (after timing)."""
    result = op.pop("result", None)
    if result is not None:
        op.update(digest=digest(result),
                  summary={k: float(v) for k, v in result.summary.items()},
                  paper={k: float(v) for k, v in result.paper.items()})
    return op


def _experiments(spec: dict, seed: int, accesses: int, cache_dir):
    from repro.config import knob_overrides
    from repro.harness.experiments import EXPERIMENTS, WorkloadCache

    with knob_overrides(fault_trials=spec.get("fault_trials")):
        cache = WorkloadCache(accesses_per_core=accesses, seed=seed,
                              cache_dir=cache_dir)
        ops = [_op(name, lambda name=name: EXPERIMENTS[name](cache=cache))
               for name in spec["ops"]]
    return ops, {"attempted": 0, "failed": 0}


def _sweep(seed: int, accesses: int, cache_dir):
    from repro.harness.experiments import ALL_WORKLOADS
    from repro.harness.resilience import PartialResultError
    from repro.harness.sweeps import capacity_sweep

    # Prefetch and replay each fan out one job per workload.
    jobs = {"attempted": 2 * len(ALL_WORKLOADS), "failed": 0}

    def call():
        try:
            return capacity_sweep(workloads=ALL_WORKLOADS,
                                  accesses_per_core=accesses, seed=seed,
                                  jobs=FANOUT_JOBS, cache_dir=cache_dir)
        except PartialResultError as exc:
            jobs["failed"] = len(exc.report.failed)
            raise

    ops = [_op("capacity_sweep", call)]
    if "error" in ops[0] and not jobs["failed"]:
        jobs["failed"] = jobs["attempted"]
    return ops, jobs


def _rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def body(job: dict) -> dict:
    spec = WORKLOADS[job["workload"]]
    seed, work = job["seed"], job["work"]
    accesses = ACCESSES[job["mode"]]
    # Imports happen here, before the body starts: they are set-up.
    if spec.get("sweep"):
        import repro.harness.sweeps  # noqa: F401

        def run():
            return _sweep(seed, accesses, job["cache_dir"])
    else:
        import repro.harness.experiments  # noqa: F401

        def run():
            return _experiments(spec, seed, accesses, job.get("cache_dir"))
    tracer = status = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(os.path.join(work, "spool"))
        os.makedirs(tracer.spool, exist_ok=True)
        status = tracing.install(tracer)
        root = tracer.open("body")

    body_start = time.monotonic()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    ops, jobs = run()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    out = {"body_start": body_start, "wall_s": wall_s,
           "peak_rss_mb": _rss_mb(), "ops": [_report(op) for op in ops],
           "jobs": jobs}
    if tracer is not None:
        tracer.close(root)
        spans = tracer.collect()
        metrics = tracing.layer_metrics(spans, wall_s)
        metrics["process.cpu_s"] = cpu_s
        called = tracing.called_layers(spans)
        out.update(
            per_layer=metrics, layers=status,
            missing=[layer for layer in spec["predicted"]
                     if layer not in called],
            count_errors=tracing.count_errors(spans))
    return out


def fill(job: dict) -> dict:
    from repro.harness.experiments import ALL_WORKLOADS, WorkloadCache

    cache = WorkloadCache(accesses_per_core=ACCESSES[job["mode"]],
                          seed=job["seed"], cache_dir=job["cache_dir"])
    for name in ALL_WORKLOADS:
        cache.get(name)
    return {}


def prime(job: dict) -> dict:
    import compileall
    import importlib
    import warnings

    import numpy

    from repro.config import knob_report

    # Byte-compile every module now, so that no timed body pays for
    # compiling one that it imports lazily.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(ROOT / "bench"), quiet=1)
    kernels = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the error is reported below
        for name, module, loader, error in KERNELS:
            try:
                mod = importlib.import_module(module)
                fn = getattr(mod, loader)()
                detail = getattr(mod, error)()
            except (ImportError, AttributeError):
                kernels[name] = "unknown"
                continue
            kernels[name] = ("available" if fn is not None
                             else f"build error: {detail}")
    return {"env": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels,
        "knobs": {name: {"value": value, "source": source}
                  for name, _env, value, source, _help in knob_report()},
    }}


def pin_cpu() -> "int | None":
    """Run this process and every worker it forks on one CPU, the last
    one it may use.  On a few shared cores a fan-out that needs every
    core free slows by up to 80% whenever any other process runs;
    pinned, it runs at the pace of one core and the scheduler moves the
    other process to a free one."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: "list[str]") -> int:
    job = json.loads(argv[1])
    cpu = pin_cpu()
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    out = {"prime": prime, "fill": fill, "body": body}[job["role"]](job)
    if job["role"] == "prime":
        out["env"]["pinned_cpu"] = cpu
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
