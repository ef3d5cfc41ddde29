"""Every bundled example must expose a main() and run to completion."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    tree = ast.parse(path.read_text())
    # Each example defines main() and a __main__ guard.
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "main" in functions
    assert '__main__' in path.read_text()


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_module_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree)


def _run_example(path, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path, tmp_path):
    """``python examples/<name>.py`` runs its main() and exits 0, so an
    example that calls a removed API fails here."""
    done = _run_example(path, tmp_path)
    assert done.returncode == 0, done.stderr


def test_organizations_runs_with_telemetry(tmp_path):
    """Epoch snapshots of a DRAM-cache replay read the cache's
    occupancy and capacity like the HMA's."""
    done = _run_example(ROOT / "examples" / "organizations.py", tmp_path,
                        REPRO_TELEMETRY="1",
                        REPRO_OBS_DIR=str(tmp_path / "obs"))
    assert done.returncode == 0, done.stderr
