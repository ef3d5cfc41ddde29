"""Property tests: the cache filter vs its per-access reference, bit-exact.

:func:`filter_trace` (the compiled loop of ``repro.cache.filter_array``
when it built) must reproduce :func:`filter_trace_reference` exactly:
same residual trace (cores, lines, writes, gaps), same final cache
contents *and recency order*, same stats — over random hierarchies
including write-through / no-write-allocate configurations,
carried-over state, and the flush-at-end tail.  Parametrised cases
name the product ``array`` and the reference ``sparse``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import hierarchy as hierarchy_mod
from repro.cache.hierarchy import (
    CacheHierarchy,
    filter_trace,
    filter_trace_reference,
)
from repro.config import (
    LINE_SIZE,
    CacheConfig,
    HierarchyConfig,
    knob_overrides,
)
from repro.sim import _ckernel
from repro.trace.record import Trace

FILTERS = {"array": filter_trace, "sparse": filter_trace_reference}


def hierarchy_strategy():
    def build(l1_sets_log, l1_assoc, l2_sets_log, l2_assoc, wb, wa, cores):
        l1_size = (1 << l1_sets_log) * l1_assoc * LINE_SIZE
        l2_size = (1 << l2_sets_log) * l2_assoc * LINE_SIZE
        config = HierarchyConfig(
            l1i=CacheConfig(size_bytes=l1_size, associativity=l1_assoc),
            l1d=CacheConfig(size_bytes=l1_size, associativity=l1_assoc,
                            write_back=wb, write_allocate=wa),
            l2=CacheConfig(size_bytes=l2_size, associativity=l2_assoc,
                           write_back=wb, write_allocate=wa),
        )
        return config, cores

    return st.builds(
        build,
        st.integers(1, 4), st.integers(1, 4),
        st.integers(2, 5), st.integers(1, 4),
        st.booleans(), st.booleans(),
        st.integers(1, 4),
    )


def trace_strategy(num_cores: int, max_len: int = 300):
    entry = st.tuples(
        st.integers(0, num_cores - 1),
        st.integers(0, 120),
        st.booleans(),
        st.integers(0, 40),
    )
    return st.lists(entry, min_size=0, max_size=max_len)


def build_trace(entries):
    n = len(entries)
    return Trace(
        core=np.array([e[0] for e in entries], dtype=np.uint16),
        address=np.array([e[1] for e in entries],
                         dtype=np.uint64) * LINE_SIZE,
        is_write=np.array([e[2] for e in entries], dtype=bool),
        gap=np.array([e[3] for e in entries], dtype=np.uint32),
    )


def trace_digest(trace: Trace):
    return (trace.core.tolist(), trace.lines.tolist(),
            trace.is_write.tolist(), trace.gap.tolist())


def hierarchy_digest(h: CacheHierarchy):
    out = {}
    for name, cache in [("l2", h.l2)] + \
            [(f"l1d{c}", h.l1d[c]) for c in range(h.num_cores)] + \
            [(f"l1i{c}", h.l1i[c]) for c in range(h.num_cores)]:
        out[name] = (
            cache.stats.accesses, cache.stats.hits, cache.stats.misses,
            cache.stats.writebacks,
            tuple(tuple(s.items()) for s in cache._sets),
        )
    return out


def run_kernel(config, cores, traces, flush_at_end, filter_fn):
    h = CacheHierarchy(config, num_cores=cores)
    outs = []
    for i, trace in enumerate(traces):
        last = i == len(traces) - 1
        outs.append(filter_fn(trace, h, flush_at_end=flush_at_end and last))
    return [trace_digest(t) for t in outs], hierarchy_digest(h)


class TestFilterParity:
    @settings(max_examples=60, deadline=None)
    @given(hierarchy_strategy(), st.data(), st.booleans())
    def test_array_kernels_match_sparse(self, hc, data, flush):
        config, cores = hc
        # Two back-to-back traces so the second starts from carried-over
        # cache state (the compiled loop must seed from and sync back
        # to the hierarchy exactly).
        traces = [build_trace(data.draw(trace_strategy(cores)))
                  for _ in range(2)]
        ref = run_kernel(config, cores, traces, flush,
                         filter_trace_reference)
        got = run_kernel(config, cores, traces, flush, filter_trace)
        assert got == ref

    @settings(max_examples=30, deadline=None)
    @given(hierarchy_strategy(), st.data())
    def test_per_core_gap_accounting(self, hc, data):
        """Gaps of filtered-out hits fold onto the next residual of the
        same core, identically in both paths."""
        config, cores = hc
        trace = build_trace(data.draw(trace_strategy(cores, max_len=200)))
        ref, _ = run_kernel(config, cores, [trace], False,
                            filter_trace_reference)
        got, _ = run_kernel(config, cores, [trace], False, filter_trace)
        assert got == ref
        out_gaps = ref[0][3]
        out_cores = ref[0][0]
        # Instruction conservation per core: emitted gaps + accesses
        # never exceed the core's total instruction budget.
        for c in range(cores):
            mask = trace.core == c
            budget = int(trace.gap[mask].sum()) + int(mask.sum())
            emitted = sum(g for g, oc in zip(out_gaps, out_cores)
                          if oc == c)
            assert emitted <= budget


class TestFlushOrdering:
    def _dirty_hierarchy(self):
        config = HierarchyConfig(
            l1i=CacheConfig(size_bytes=512, associativity=2),
            l1d=CacheConfig(size_bytes=512, associativity=2),
            l2=CacheConfig(size_bytes=2048, associativity=2),
        )
        h = CacheHierarchy(config, num_cores=2)
        rng = np.random.default_rng(3)
        for line in rng.permutation(48).tolist():
            h.access(int(line) % 2, int(line), True)
        return h

    def test_flush_emits_ascending_lines(self):
        flushed = self._dirty_hierarchy().flush()
        lines = [line for line, _w in flushed]
        assert lines == sorted(lines)
        assert all(w for _line, w in flushed)
        assert len(set(lines)) == len(lines)

    def test_flush_order_independent_of_history(self):
        """Two hierarchies holding the same dirty lines via different
        access orders flush identically."""
        config = HierarchyConfig(
            l1i=CacheConfig(size_bytes=512, associativity=2),
            l1d=CacheConfig(size_bytes=512, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
        )
        lines = list(range(12))
        h1 = CacheHierarchy(config, num_cores=1)
        h2 = CacheHierarchy(config, num_cores=1)
        for line in lines:
            h1.access(0, line, True)
        for line in reversed(lines):
            h2.access(0, line, True)
        assert h1.flush() == h2.flush()

    @pytest.mark.parametrize("kernel", ["sparse", "array"])
    def test_filter_flush_tail_sorted(self, kernel):
        filter_fn = FILTERS[kernel]
        config = HierarchyConfig(
            l1i=CacheConfig(size_bytes=512, associativity=2),
            l1d=CacheConfig(size_bytes=512, associativity=2),
            l2=CacheConfig(size_bytes=2048, associativity=2),
        )
        h = CacheHierarchy(config, num_cores=1)
        rng = np.random.default_rng(11)
        n = 60
        trace = Trace(
            core=np.zeros(n, dtype=np.uint16),
            address=(rng.integers(0, 40, n) * LINE_SIZE).astype(np.uint64),
            is_write=np.ones(n, dtype=bool),
            gap=np.zeros(n, dtype=np.uint32),
        )
        out = filter_fn(trace, h, flush_at_end=True)
        h2 = CacheHierarchy(config, num_cores=1)
        base = filter_fn(trace, h2, flush_at_end=False)
        # The flush tail: write requests attributed to core 0 with zero
        # gap, in ascending line order.
        tail = out.lines[len(base):].tolist()
        assert len(tail) > 0
        assert tail == sorted(tail)
        assert out.is_write[len(base):].all()
        assert not out.gap[len(base):].any()


def test_native_disabled_uses_reference(monkeypatch):
    """``REPRO_NATIVE=0``: the filter never builds and every trace runs
    through the reference loop."""
    calls = []
    original = hierarchy_mod.filter_trace_reference

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hierarchy_mod, "filter_trace_reference", spy)
    config = HierarchyConfig(
        l1i=CacheConfig(size_bytes=512, associativity=2),
        l1d=CacheConfig(size_bytes=512, associativity=2),
        l2=CacheConfig(size_bytes=2048, associativity=2),
    )
    trace = build_trace([(0, line, line % 3 == 0, 1)
                         for line in range(40)])
    _ckernel._reset_for_tests()
    try:
        with knob_overrides(native=False):
            assert _ckernel.load_filter() is None
            out = filter_trace(trace, CacheHierarchy(config, num_cores=1))
    finally:
        _ckernel._reset_for_tests()
    assert calls == [1]
    expect = original(trace, CacheHierarchy(config, num_cores=1))
    assert trace_digest(out) == trace_digest(expect)
