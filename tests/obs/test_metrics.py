"""Unit tests for the metrics core (counters)."""

from repro.obs import metrics
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap == {"a": 1.0, "b": 2.0}
        assert reg.scalars() == snap

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert reg.snapshot() == {}


class TestNullBackend:
    def test_null_registry_hands_out_shared_noop(self):
        assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
        assert NULL_REGISTRY.counter("y") is NULL_INSTRUMENT

    def test_null_instrument_records_nothing(self):
        NULL_INSTRUMENT.inc(5)
        assert NULL_INSTRUMENT.value == 0.0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.scalars() == {}


class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert metrics.get_registry() is NULL_REGISTRY
        assert not metrics.enabled()

    def test_env_knob_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        reg = metrics.get_registry()
        assert isinstance(reg, MetricsRegistry)
        assert metrics.enabled()

    def test_enable_disable_override_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        metrics.disable()
        assert not metrics.enabled()
        monkeypatch.delenv("REPRO_TELEMETRY")
        metrics.enable()
        assert metrics.enabled()

    def test_install_takes_precedence(self):
        metrics.disable()
        mine = MetricsRegistry()
        prev = metrics.install(mine)
        assert prev is None
        assert metrics.get_registry() is mine
        metrics.install(prev)
        assert metrics.get_registry() is NULL_REGISTRY

    def test_counters_route_to_installed_registry(self):
        mine = MetricsRegistry()
        metrics.install(mine)
        metrics.get_registry().counter("hit").inc()
        assert mine.scalars() == {"hit": 1.0}
