"""Per-layer spans for the traced benchmark run.

The end-to-end runs never import this module.  The traced run installs
wrappers around the module bindings that callers actually use (for
example ``repro.sim.system.replay``, not ``repro.sim.engine.replay``)
and records one span per call: layer, start, end, parent.  Nothing here
uses ``repro.obs`` or ``REPRO_TELEMETRY``, so instrumentation inside the
program can change without changing what this benchmark measures.

A binding that no longer exists marks its layer ``unavailable``; that is
reported, not a failure, so refactors that delete a function keep the
benchmark working.  Forked fan-out workers write their spans to a spool
file after each job; the parent reads them back under the fan-out span.

Layer self time is span time minus the part of the span its child spans
cover (children in forked workers run in parallel, so the union of their
intervals is subtracted, not the sum).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

# Each layer: (name, bindings, extras).  A binding is "module:Attr.path";
# "module:Base+method,method" wraps those methods on Base and every
# subclass that defines them.  The counter named after the binding adds
# the layer's extras (work counts) to the span.
LAYERS = (
    ("trace", (
        ("repro.trace.workloads:Workload.generate", "accesses"),
        ("repro.workloads.frontier:FrontierWorkload.generate", "accesses"),
    ), ("accesses",)),
    ("sim.prepare", (
        ("repro.sim.system:prepare_workload", None),
        ("repro.harness.runner:prepare_workload", None),
    ), ()),
    ("avf.profile", (
        ("repro.sim.system:profile_trace", None),
    ), ()),
    ("avf.interval", (
        ("repro.sim.system:profile_intervals", None),
        ("repro.avf.page:IntervalProfileBuilder+__init__,intervals_arrays,"
         "profile", None),
    ), ()),
    ("sim.replay", (
        ("repro.sim.system:replay", "replay"),
    ), ("requests", "req_per_s")),
    ("sim.replay_multi", (
        ("repro.sim.engine:replay_multi", "replay_multi"),
    ), ("specs", "requests", "req_per_s")),
    ("core.rank", (
        ("repro.core.placement:PlacementPolicy+select_fast_pages,"
         "select_ranking", None),
        ("repro.sim.system:plan_annotations", None),
    ), ()),
    ("core.policy.observe", (
        ("repro.core.migration:MigrationMechanism+observe_chunk,"
         "observe_counts", None),
    ), ()),
    ("core.policy.plan", (
        ("repro.core.migration:MigrationMechanism+plan,plan_sub", "plan"),
    ), ("pages_moved",)),
    ("faults.ser", (
        ("repro.faults.ser:SerModel+for_system,for_systems,ser_static,"
         "ser_ddr_only,ser_dynamic,ser_dynamic_arrays,ser_dynamic_series",
         None),
    ), ()),
    ("faults.faultsim", (
        ("repro.faults.faultsim:FaultSimulator.run", None),
    ), ()),
    ("harness.prep_cache", (
        ("repro.harness.runner:load_entry", "read"),
        ("repro.harness.runner:store_entry", "write"),
    ), ("read_s", "write_s", "reads", "writes", "hit_ratio")),
    ("harness.handoff", (
        ("repro.harness.shm:share_payload", None),
        ("repro.harness.shm:resolve_payload", None),
    ), ()),
    ("harness.fanout", (
        ("repro.harness.resilience:resilient_map", "map"),
        ("repro.harness.runner:resilient_map", "map"),
        ("repro.harness.runner:_prefetch_one", "job"),
        ("repro.harness.sweeps:_capacity_workload", "job"),
    ), ("wall_s", "jobs", "failed", "retried", "worker_busy_s", "util")),
)

#: Units of every per-layer metric this module reports.
UNITS = {"self_s": "s", "calls": "count", "share": "ratio",
         "accesses": "count", "requests": "count", "req_per_s": "1/s",
         "specs": "count", "pages_moved": "count", "read_s": "s",
         "write_s": "s", "reads": "count", "writes": "count",
         "hit_ratio": "ratio", "wall_s": "s", "jobs": "count",
         "failed": "count", "retried": "count", "worker_busy_s": "s",
         "util": "ratio"}

#: Whole-process metrics of the traced run.
PROCESS_METRICS = (("process.cpu_s", "s"), ("trace_overhead", "ratio"),
                   ("unattributed.share", "ratio"))


def metric_units() -> "dict[str, str]":
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, _bindings, extras in LAYERS:
        for key in ("self_s", "calls", "share") + extras:
            units[f"{layer}.{key}"] = UNITS[key]
    units.update(PROCESS_METRICS)
    return units


class Tracer:
    """Spans kept in memory; forked workers spool theirs to files."""

    def __init__(self, spool: str) -> None:
        self.root_pid = self.pid = os.getpid()
        self.spool = spool
        self.spans: "list[dict]" = []
        self.stack: "list[tuple[str, str]]" = []  # (span id, layer)
        self._count = 0

    def open(self, layer: str) -> dict:
        if self.pid != os.getpid():
            # First span in a forked worker: the inherited spans belong to
            # the parent; the inherited stack still names the open
            # fan-out span, which becomes this worker's parent.
            self.pid = os.getpid()
            self.spans = []
            self._count = 0
        self._count += 1
        span = {"id": f"{self.pid}.{self._count}", "layer": layer,
                "parent": self.stack[-1][0] if self.stack else None,
                "t0": time.perf_counter()}
        self.stack.append((span["id"], layer))
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def innermost(self) -> "str | None":
        return self.stack[-1][1] if self.stack else None

    def flush_worker(self) -> None:
        """Append this worker's finished spans to its spool file."""
        if os.getpid() == self.root_pid or not self.spans:
            return
        path = os.path.join(self.spool, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> "list[dict]":
        """Parent spans plus every span the workers spooled."""
        spans = list(self.spans)
        for path in sorted(Path(self.spool).glob("*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


# ---------------------------------------------------------------------------
# Counters: extras recorded on a span from the call's arguments and result
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_accesses(span, args, kwargs, result, error):
    if error is None:
        span["accesses"] = len(result.trace)


def _count_replay(span, args, kwargs, result, error):
    span["requests"] = len(_arg(args, kwargs, 2, "trace"))


def _count_replay_multi(span, args, kwargs, result, error):
    specs = len(_arg(args, kwargs, 0, "specs"))
    span["specs"] = specs
    span["requests"] = specs * len(_arg(args, kwargs, 1, "trace"))


def _count_plan(span, args, kwargs, result, error):
    if error is None:
        to_fast, to_slow = result
        span["pages_moved"] = len(to_fast) + len(to_slow)


def _count_read(span, args, kwargs, result, error):
    span["reads"] = 1
    span["hits"] = 1 if error is None else 0


def _count_write(span, args, kwargs, result, error):
    span["writes"] = 1


def _count_map(span, args, kwargs, result, error):
    from repro.harness.resilience import resolve_jobs

    items = _arg(args, kwargs, 1, "items")
    span["workers"] = min(resolve_jobs(kwargs.get("jobs")),
                          max(1, len(items)))
    if error is None:
        outcomes = getattr(result, "outcomes", [])
        span["failed"] = sum(1 for o in outcomes if not o.succeeded)
        span["retried"] = sum(1 for o in outcomes if o.status == "retried")


COUNTERS = {"accesses": _count_accesses, "replay": _count_replay,
            "replay_multi": _count_replay_multi, "plan": _count_plan,
            "read": _count_read, "write": _count_write, "map": _count_map}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, layer: str, func, counter: "str | None"):
    count = COUNTERS.get(counter)
    is_job = counter == "job"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        # A call re-entering its own layer (a policy's select_fast_pages
        # calling select_ranking) is part of the outer span.
        if not is_job and tracer.innermost() == layer:
            return func(*args, **kwargs)
        span = tracer.open(layer)
        if is_job:
            span["job"] = 1
        result = error = None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if count is not None:
                try:
                    count(span, args, kwargs, result, error)
                except Exception as exc:  # noqa: BLE001 — never alter the call
                    span["count_error"] = f"{func.__qualname__}: {exc!r}"
            tracer.close(span)
            if is_job:
                tracer.flush_worker()

    return wrapper


def _targets(spec: str):
    """``(owner, attribute name)`` pairs a binding spec names.

    Raises ImportError or AttributeError when the binding is gone.
    """
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    if "+" in path:
        base_name, methods = path.split("+")
        base = getattr(owner, base_name)
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        pairs = [(cls, m) for cls in classes for m in methods.split(",")
                 if m in vars(cls)]
        if not pairs:
            raise AttributeError(f"{spec}: no such methods")
        return pairs
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, name)
    return [(owner, name)]


def install(tracer: Tracer) -> "dict[str, dict]":
    """Wrap every binding; returns each layer's status and missing
    bindings (``ok``, ``partial`` or ``unavailable``)."""
    status = {}
    for layer, bindings, _extras in LAYERS:
        missing = []
        for spec, counter in bindings:
            try:
                targets = _targets(spec)
            except (ImportError, AttributeError):
                missing.append(spec)
                continue
            for owner, name in targets:
                raw = inspect.getattr_static(owner, name)
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(
                        _wrap(tracer, layer, raw.__func__, counter)))
                else:
                    setattr(owner, name, _wrap(tracer, layer, raw, counter))
        state = ("unavailable" if len(missing) == len(bindings)
                 else "partial" if missing else "ok")
        status[layer] = {"status": state, "missing": missing}
    return status


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Self time of every span, keyed by span id."""
    children: "dict[str, list]" = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["t0"], span["t1"]))
    return {span["id"]: (span["t1"] - span["t0"]) - _covered(
                span["t0"], span["t1"], children.get(span["id"], ()))
            for span in spans}


def layer_metrics(spans: "list[dict]", wall_s: float) -> "dict[str, float]":
    """Every per-layer metric except ``trace_overhead`` (which needs
    the untraced runs); a layer without spans reads 0."""
    own = self_times(spans)
    metrics: "dict[str, float]" = {}
    for layer, _bindings, extras in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        self_s = sum(own[s["id"]] for s in mine)
        total = {key: sum(s.get(key, 0) for s in mine)
                 for key in ("accesses", "requests", "specs", "pages_moved",
                             "reads", "hits", "writes", "failed", "retried",
                             "job")}
        dur = {kind: [s["t1"] - s["t0"] for s in mine if s.get(kind)]
               for kind in ("reads", "writes", "job", "workers")}
        maps = [s for s in mine if s.get("workers")]
        capacity = sum((s["t1"] - s["t0"]) * s["workers"] for s in maps)
        values = {
            "self_s": self_s,
            "calls": len(mine) - total["job"],
            "share": self_s / wall_s if wall_s else 0.0,
            "accesses": total["accesses"],
            "requests": total["requests"],
            "specs": total["specs"],
            "req_per_s": total["requests"] / self_s if self_s else 0.0,
            "pages_moved": total["pages_moved"],
            "read_s": sum(dur["reads"]),
            "write_s": sum(dur["writes"]),
            "reads": total["reads"],
            "writes": total["writes"],
            "hit_ratio": total["hits"] / total["reads"]
            if total["reads"] else 0.0,
            "wall_s": sum(dur["workers"]),
            "jobs": total["job"],
            "failed": total["failed"],
            "retried": total["retried"],
            "worker_busy_s": sum(dur["job"]),
            "util": sum(dur["job"]) / capacity if capacity else 0.0,
        }
        for key in ("self_s", "calls", "share") + extras:
            metrics[f"{layer}.{key}"] = values[key]
    roots = [s for s in spans if s["parent"] is None]
    metrics["unattributed.share"] = (
        sum(own[s["id"]] for s in roots) / wall_s if wall_s else 0.0)
    return metrics


def called_layers(spans: "list[dict]") -> "set[str]":
    """Layers with at least one span."""
    return {s["layer"] for s in spans}


def count_errors(spans: "list[dict]") -> "list[str]":
    """Distinct counter failures (a binding whose signature changed)."""
    return sorted({s["count_error"] for s in spans if "count_error" in s})
