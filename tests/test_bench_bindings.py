"""Every per-layer binding of the traced benchmark still resolves.

``bench/tracing.py`` wraps the functions and methods that its ``LAYERS``
name.  A binding that no longer resolves marks its layer
``unavailable`` in the traced run rather than failing it, so a renamed
or deleted function would otherwise surface only in the benchmark's own
self-test.  These tests load the module by path and only read
``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

BINDINGS = [(layer, spec) for layer, bindings, _extras in tracing.LAYERS
            for spec, _counter in bindings]


@pytest.mark.parametrize("layer,spec", BINDINGS,
                         ids=[spec for _layer, spec in BINDINGS])
def test_binding_resolves(layer, spec):
    assert tracing._targets(spec), (layer, spec)


def test_rank_layer_wraps_both_placement_methods():
    """``core.rank`` times the base class's capacity prefix and every
    policy's ranking."""
    from repro.core.placement import PlacementPolicy

    (spec,) = [spec for layer, spec in BINDINGS
               if layer == "core.rank" and "PlacementPolicy+" in spec]
    targets = tracing._targets(spec)
    assert (PlacementPolicy, "select_fast_pages") in targets
    assert {name for _cls, name in targets} == {"select_fast_pages",
                                               "select_ranking"}
