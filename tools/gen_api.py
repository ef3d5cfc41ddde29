"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` module, collects the names exported via
``__all__`` (or public top-level classes/functions), and emits their
signatures and first docstring lines.  Run after changing any public
API:

    python tools/gen_api.py

``tools/ci_smoke.sh`` fails when :func:`render` differs from the
committed docs/api.md.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import repro

OUT = pathlib.Path(__file__).parent.parent / "docs" / "api.md"


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - diagnostics only
            print(f"skipping {info.name}: {error}")


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def describe(module) -> "list[str]":
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, obj in vars(module).items()
            if not n.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
        ]
    lines = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.append(f"- **class `{name}`** — {first_line(obj)}")
            for method_name, method in sorted(vars(obj).items()):
                if method_name.startswith("_"):
                    continue
                if callable(method):
                    lines.append(
                        f"  - `{method_name}{signature_of(method)}` — "
                        f"{first_line(method)}"
                    )
        elif inspect.isfunction(obj):
            lines.append(
                f"- `{name}{signature_of(obj)}` — {first_line(obj)}"
            )
        else:
            lines.append(f"- `{name}` — constant")
    return lines


def render() -> str:
    """The API reference text, as ``main`` writes it to docs/api.md."""
    sections = []
    seen = set()
    for name, module in iter_modules():
        if name in seen or name.endswith("__init__"):
            continue
        seen.add(name)
        # Only leaf modules document their own names; packages would
        # repeat their re-exports.
        if hasattr(module, "__path__") and name != "repro":
            continue
        body = describe(module)
        if not body:
            continue
        header = first_line(module) or ""
        sections.append(
            f"## `{name}`\n\n{header}\n\n" + "\n".join(body) + "\n"
        )
    return (
        "# API reference\n\n"
        "Generated by `python tools/gen_api.py`; regenerate after any\n"
        "public-API change.\n\n" + "\n".join(sections)
    )


def main() -> None:
    OUT.write_text(render())
    print(f"wrote {OUT} ({OUT.stat().st_size // 1024} KB)")


if __name__ == "__main__":
    main()
