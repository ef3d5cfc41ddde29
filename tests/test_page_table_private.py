"""The page table stays private to ``dram/hma.py``.

Its device column is the only record of where a page lives; every
other module reads residency through ``pages_in``, ``fast_mask`` and
``fast_occupancy``, and the compiled replay kernel through
``page_tables``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
OWNER = "dram/hma.py"
PRIVATE = re.compile(r"\b_pt_(device|frame)\b")


def _naming_modules() -> "list[str]":
    return sorted(path.relative_to(PACKAGE).as_posix()
                  for path in PACKAGE.rglob("*.py")
                  if PRIVATE.search(path.read_text()))


def test_owner_holds_the_page_table():
    assert OWNER in _naming_modules()


def test_no_other_module_names_the_page_table():
    others = [name for name in _naming_modules() if name != OWNER]
    assert not others, (f"{others} read the page table directly; use "
                        "pages_in, fast_mask or fast_occupancy")
