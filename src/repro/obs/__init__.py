"""Observability: metrics, tracing spans, snapshots, and a run registry.

The subsystem has four layers, cheapest first:

- :mod:`repro.obs.metrics` — named counters behind a
  process registry; a shared null backend makes telemetry-off cost one
  attribute lookup.
- :mod:`repro.obs.tracing` — ``span("replay_epoch", ...)`` context
  managers recording wall/CPU time, exported as JSONL per run.
- :mod:`repro.obs.snapshots` — epoch-level time series (migration
  traffic, HBM occupancy, read/write mix, windowed ACE, SER) captured
  by the replay engine.
- :mod:`repro.obs.registry` — SQLite store of every run keyed by
  config hash + git rev.

:func:`run_context` glues them together: it installs a private metrics
registry and span recorder, collects whatever the simulation under it
produces, and on exit writes the span JSONL plus one registry row.
Everything is a no-op unless telemetry is enabled (the ``telemetry``
knob / ``REPRO_TELEMETRY=1``, or ``enabled=True``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.config import knob_value
from repro.obs import metrics, tracing
from repro.obs.metrics import (  # noqa: F401  (re-exported API)
    MetricsRegistry,
    get_registry,
)
from repro.obs.snapshots import (  # noqa: F401
    EpochSnapshot,
    ReplaySink,
    SnapshotSeries,
    replay_sink,
)
from repro.obs.tracing import SpanRecorder, span  # noqa: F401


class RunContext:
    """Aggregates one run's telemetry before it is persisted."""

    def __init__(self, label: str, config=None,
                 obs_dir: "str | None" = None) -> None:
        self.label = label
        self.config = config
        self.obs_dir = obs_dir
        self.registry = metrics.MetricsRegistry()
        self.recorder = tracing.SpanRecorder()
        self.series: "dict[str, SnapshotSeries]" = {}
        self.extra_metrics: "dict[str, float]" = {}
        self.artifacts: "dict[str, str]" = {}
        self.run_id: "str | None" = None

    def add_series(self, name: str, series: "SnapshotSeries | None") -> None:
        """Attach an epoch series; duplicate names get a numeric suffix."""
        if series is None or len(series) == 0:
            return
        key, n = name, 1
        while key in self.series:
            n += 1
            key = f"{name}#{n}"
        self.series[key] = series

    def add_metrics(self, values: dict, prefix: str = "") -> None:
        for name, value in values.items():
            try:
                self.extra_metrics[f"{prefix}{name}"] = float(value)
            except (TypeError, ValueError):
                continue

    def finalize(self, status: str = "completed") -> str:
        """Write span JSONL + registry row; returns the run id."""
        from repro.obs.registry import RunRegistry, default_obs_dir

        obs_dir = self.obs_dir or default_obs_dir()
        registry = RunRegistry(os.path.join(obs_dir, "registry.sqlite"))
        all_metrics = dict(self.registry.scalars())
        all_metrics.update(self.extra_metrics)
        run_id = registry.record_run(
            self.label, config=self.config, metrics=all_metrics,
            series=self.series, artifacts=dict(self.artifacts),
            status=status)
        spans_path = os.path.join(obs_dir, "runs", run_id, "spans.jsonl")
        try:
            self.recorder.export_jsonl(spans_path)
        except OSError:
            spans_path = ""
        if spans_path:
            with registry._connect() as conn:  # patch artifacts post-id
                import json as _json

                self.artifacts["spans"] = spans_path
                conn.execute(
                    "UPDATE runs SET artifacts_json = ? WHERE run_id = ?",
                    (_json.dumps(self.artifacts, sort_keys=True), run_id))
        self.run_id = run_id
        return run_id


#: The active run context (installed by :func:`run_context`).
_current: "RunContext | None" = None


def current_run() -> "RunContext | None":
    return _current


@contextmanager
def run_context(label: str, config=None, obs_dir: "str | None" = None,
                enabled: "bool | None" = None):
    """Collect and persist telemetry for one run.

    Yields the :class:`RunContext`, or ``None`` when telemetry is off
    (``enabled`` defaults to the ``telemetry`` knob), in which case
    nothing is installed and the body runs at null cost.  Nested
    contexts stack: the inner run records into its own registry and
    the outer one is restored on exit.
    """
    global _current
    if enabled is None:
        enabled = metrics.enabled() or bool(knob_value("telemetry"))
    if not enabled:
        yield None
        return
    ctx = RunContext(label, config=config, obs_dir=obs_dir)
    prev_ctx = _current
    prev_registry = metrics.install(ctx.registry)
    prev_recorder = tracing.set_current_recorder(ctx.recorder)
    _current = ctx
    status = "completed"
    try:
        yield ctx
    except BaseException:
        status = "failed"
        raise
    finally:
        _current = prev_ctx
        metrics.install(prev_registry)
        tracing.set_current_recorder(prev_recorder)
        ctx.finalize(status=status)
