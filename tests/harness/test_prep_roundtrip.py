"""Prepared state survives its one on-disk format and its one transport.

A :class:`~repro.sim.system.PreparedWorkload` is stored on disk only
as a checksummed prep-cache entry (:func:`~repro.harness.resilience.
store_entry` / :func:`~repro.harness.resilience.load_entry`) and
reaches pool workers only through the shared-memory handoff
(:func:`~repro.harness.shm.share_payload` /
:func:`~repro.harness.shm.resolve_payload`).  Each path must return
the prep field for field — dataclass fields recursively, arrays by
dtype, shape and bytes, floats exactly — and the restored prep must
evaluate bit-identically.  The inputs set every optional field: a
mix (per-core MLPs), each frontier generator (``tolerance``), every
ECC scheme on both tiers, and an ECC budget.
"""

import dataclasses
import pickle
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.migration import ToleranceTieredMigration
from repro.core.placement import PerformanceFocusedPlacement
from repro.faults.ecc import SCHEME_LADDER
from repro.harness.resilience import load_entry, store_entry
from repro.harness.shm import (
    SharedPayload,
    resolve_payload,
    shared_handoff,
    shm_available,
)
from repro.sim.system import (
    DEFAULT_SCALE,
    PreparedWorkload,
    evaluate_migration,
    evaluate_static,
    prepare_workload,
)
from repro.trace.workloads import WorkloadTrace
from repro.workloads import FRONTIER_WORKLOADS

ACCESSES = 300


def _ecc_config(scheme: str):
    config = scaled_config(DEFAULT_SCALE)
    return dataclasses.replace(
        config,
        fast_memory=dataclasses.replace(config.fast_memory, ecc=scheme),
        slow_memory=dataclasses.replace(config.slow_memory, ecc=scheme))


#: ``prepare_workload`` arguments per round-trip input.
PREP_INPUTS = {
    "mix1": {"workload": "mix1"},
    **{name: {"workload": name} for name in FRONTIER_WORKLOADS},
    **{f"mcf-{scheme}": {"workload": "mcf", "config": _ecc_config(scheme)}
       for scheme in SCHEME_LADDER},
    "mcf-ecc-budget": {"workload": "mcf", "ecc_budget": 1e-3},
}

#: The fields the round-trip inputs cover.  A new field needs an input
#: in PREP_INPUTS that sets it before it is added here.
PINNED_FIELDS = {
    PreparedWorkload: ("workload", "config", "workload_trace", "stats",
                       "ser_model", "ddr_baseline"),
    WorkloadTrace: ("workload_name", "trace", "times", "core_layouts",
                    "core_benchmarks", "footprint_pages", "core_mlp",
                    "tolerance"),
}


def assert_identical(a, b, path: str = "prep") -> None:
    """``a`` and ``b`` are equal down to every array byte and float bit."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, np.generic):
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), path
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_identical(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{path}[{i}]")
    elif hasattr(a, "__dict__"):
        assert_identical(vars(a), vars(b), path)
    elif hasattr(type(a), "__slots__"):
        for slot in type(a).__slots__:
            assert_identical(getattr(a, slot), getattr(b, slot),
                             f"{path}.{slot}")
    else:
        assert a == b, path


def _evaluate(prep: PreparedWorkload) -> tuple:
    tolerance = prep.workload_trace.tolerance
    return (
        evaluate_static(prep, PerformanceFocusedPlacement()),
        evaluate_migration(prep, ToleranceTieredMigration(tolerance),
                           num_intervals=4),
    )


@contextmanager
def _restored(prep: PreparedWorkload, path: str, tmp_path):
    """``prep`` after one trip through ``path``."""
    if path == "prep-cache":
        entry = str(tmp_path / "prep.pkl")
        store_entry(entry, prep)
        yield load_entry(entry)
        return
    if not shm_available():
        pytest.skip("no multiprocessing.shared_memory")
    with shared_handoff(prep) as item:
        assert isinstance(item, SharedPayload)
        # The handle travels to a worker pickled, as in a pool map.
        yield resolve_payload(pickle.loads(pickle.dumps(item)))


@pytest.fixture(scope="module", params=list(PREP_INPUTS))
def prep(request):
    return prepare_workload(accesses_per_core=ACCESSES, seed=0,
                            **PREP_INPUTS[request.param])


@pytest.mark.parametrize("path", ["prep-cache", "shm"])
def test_round_trip_is_field_for_field_and_bit_identical(prep, path,
                                                         tmp_path):
    with _restored(prep, path, tmp_path) as restored:
        assert_identical(prep, restored)
        assert_identical(_evaluate(prep), _evaluate(restored),
                         "evaluation")


@pytest.mark.parametrize("cls", list(PINNED_FIELDS),
                         ids=lambda cls: cls.__name__)
def test_field_set_is_pinned(cls):
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert names == PINNED_FIELDS[cls], (
        f"{cls.__name__} now has fields {names}: add an input that sets "
        f"the new field to PREP_INPUTS in {__name__} so "
        "test_round_trip_is_field_for_field_and_bit_identical covers "
        "it, then update PINNED_FIELDS")
