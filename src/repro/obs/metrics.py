"""Process-wide metrics: named counters.

The design goal is *near-zero cost when telemetry is off*: every
instrument lookup funnels through :func:`get_registry`, which returns
the shared :data:`NULL_REGISTRY` when telemetry is disabled.  The null
registry hands out one shared no-op counter, so instrumented code
pays one attribute lookup and an empty method call — it never branches
on an "enabled" flag itself, and it never allocates.

Hot kernels (the per-request replay loops) are *not* instrumented at
all; instrumentation sits at chunk/epoch/plan granularity, bounded at
tens of calls per run.

Enablement, in precedence order:

1. a registry installed by :func:`install` (the run-context mechanism —
   each :func:`repro.obs.run_context` installs its own registry),
2. a forced mode set by :func:`enable` / :func:`disable`,
3. the ``telemetry`` knob (``REPRO_TELEMETRY``).
"""

from __future__ import annotations

import threading

from repro.config import knob_value


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _NullInstrument:
    """Shared no-op stand-in for a counter."""

    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Name-keyed counter store; get-or-create, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "dict[str, Counter]" = {}

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name,
                                                          Counter(name))
        return instrument

    def snapshot(self) -> "dict[str, float]":
        """``{name: value}`` in sorted name order."""
        return {name: self._instruments[name].value
                for name in sorted(self._instruments)}

    def scalars(self) -> "dict[str, float]":
        """Counter values as flat floats, in sorted name order."""
        return {name: float(value)
                for name, value in self.snapshot().items()}

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


class _NullRegistry:
    """Registry stand-in whose counters never record anything."""

    __slots__ = ()

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}

    def scalars(self) -> dict:
        return {}

    def clear(self) -> None:
        pass


NULL_REGISTRY = _NullRegistry()

#: Registry installed by a run context (highest precedence).
_installed: "MetricsRegistry | None" = None
#: Forced mode from enable()/disable(); None defers to the knob.
_mode: "str | None" = None
#: Lazily created process default registry (knob- or enable()-driven).
_default: "MetricsRegistry | None" = None


def get_registry():
    """The active registry: installed > forced mode > ``telemetry`` knob."""
    if _installed is not None:
        return _installed
    if _mode == "off":
        return NULL_REGISTRY
    if _mode == "on" or knob_value("telemetry"):
        global _default
        if _default is None:
            _default = MetricsRegistry()
        return _default
    return NULL_REGISTRY


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return get_registry() is not NULL_REGISTRY


def install(registry: "MetricsRegistry | None"):
    """Make ``registry`` the active one; returns the previous installee."""
    global _installed
    previous = _installed
    _installed = registry
    return previous


def enable() -> MetricsRegistry:
    """Force telemetry on regardless of the env knob."""
    global _mode
    _mode = "on"
    return get_registry()


def disable() -> None:
    """Force telemetry off regardless of the env knob."""
    global _mode
    _mode = "off"


def reset() -> None:
    """Drop all forced state and the default registry (test hygiene)."""
    global _mode, _default, _installed
    _mode = None
    _default = None
    _installed = None
