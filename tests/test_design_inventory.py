"""DESIGN.md section 3 lists every module of the package, and only those."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _inventory() -> "set[str]":
    """The paths, relative to ``src/repro``, that the inventory names.

    Entries sit at two indents: packages (``trace/``) and top-level
    modules at two spaces, a package's modules at four.  Deeper lines
    continue a description.
    """
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. Package inventory", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    names, package = set(), ""
    for line in block.splitlines():
        match = re.match(r"( +)(\S+)", line)
        if match is None or len(match.group(1)) not in (2, 4):
            continue
        indent, name = match.groups()
        if len(indent) == 2:
            package = name if name.endswith("/") else ""
            names.add(name)
        else:
            names.add(package + name)
    return names


def _modules() -> "set[str]":
    return {path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"}


def test_inventory_parses():
    names = _inventory()
    assert {"config.py", "sim/", "sim/engine.py"} <= names


def test_every_module_is_listed():
    missing = _modules() - _inventory()
    assert not missing, f"DESIGN.md section 3 does not list {sorted(missing)}"


def test_every_listed_path_exists():
    stale = sorted(name for name in _inventory()
                   if not (PACKAGE / name).exists()
                   or name.endswith("/") != (PACKAGE / name).is_dir())
    assert not stale, f"DESIGN.md section 3 names missing paths {stale}"
