"""The oracles stay out of the product: layout guards for
:mod:`repro.verify.oracles`."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_RUN_PATH = """
import sys
import repro.harness.experiments as experiments
import repro.harness.sweeps  # noqa: F401

cache = experiments.WorkloadCache(accesses_per_core=300, seed=1)
experiments.EXPERIMENTS["fig15"](cache=cache)
loaded = sorted(m for m in sys.modules
                if m == "repro.verify" or m.startswith("repro.verify."))
print("verify modules:", *loaded)
"""

_IMPORTS_ORACLES = re.compile(
    r"^\s*(from repro\.verify\.oracles import|from repro\.verify "
    r"import .*\boracles\b|import repro\.verify\.oracles)", re.M)


def test_run_path_never_imports_the_verifier():
    """Importing the experiment and sweep harnesses and running a
    migration experiment loads no ``repro.verify`` module, so the
    oracles cost the ``run`` path nothing (not even import time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _RUN_PATH], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert proc.stdout.strip().splitlines()[-1] == "verify modules:"


def test_only_the_verifier_imports_the_oracles():
    """Outside ``repro.verify`` no module imports the oracles; the
    CLI's ``verify`` verb reaches them through the verifier."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro")
        if rel.parts[0] == "verify":
            continue
        if _IMPORTS_ORACLES.search(path.read_text()):
            offenders.append(str(rel))
    assert offenders == []
