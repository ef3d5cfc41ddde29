"""Plain-text reporting helpers for the experiment harness.

Every figure/table reproduction prints an aligned text table mirroring
the rows/series the paper reports, so a run's output can be compared
against the paper side by side.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def gmean(values: "Iterable[float]") -> float:
    """Geometric mean (the paper's cross-workload average)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        return 0.0
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


def format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def display_width(text: str) -> int:
    """Terminal cell count of ``text`` (East-Asian wide chars take 2)."""
    return sum(2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1
               for ch in text)


def _pad(text: str, width: int) -> str:
    return text + " " * max(0, width - display_width(text))


def format_table(
    headers: "Sequence[str]", rows: "Sequence[Sequence]", title: str = ""
) -> str:
    """Render an aligned text table.

    Alignment uses terminal display width, so mixed-width unicode
    (e.g. CJK workload names) keeps columns straight.  Short rows are
    padded with empty cells; extra cells beyond the headers are kept.
    """
    str_rows = [[format_cell(c) for c in row] for row in rows]
    ncols = max([len(headers)] + [len(r) for r in str_rows])
    header_cells = list(headers) + [""] * (ncols - len(headers))
    for row in str_rows:
        row.extend([""] * (ncols - len(row)))
    widths = [
        max(display_width(header_cells[i]),
            *(display_width(r[i]) for r in str_rows)) if str_rows
        else display_width(header_cells[i])
        for i in range(ncols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(_pad(h, w) for h, w in zip(header_cells, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(_pad(c, w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers, rows, title: str = "") -> None:
    print(format_table(headers, rows, title))
    print()


@dataclass
class FigureResult:
    """Rows and headline numbers of one reproduced figure/table."""

    figure: str
    description: str
    headers: "list[str]"
    rows: "list[list]"
    summary: "dict[str, float]" = field(default_factory=dict)
    paper: "dict[str, float]" = field(default_factory=dict)

    def format(self) -> str:
        parts = [format_table(self.headers, self.rows,
                              title=f"{self.figure}: {self.description}")]
        if self.summary:
            parts.append("")
            for key, value in self.summary.items():
                target = self.paper.get(key)
                suffix = f"   (paper: {target})" if target is not None else ""
                parts.append(f"  {key} = {value:.3g}{suffix}")
        return "\n".join(parts)

    def print(self) -> None:
        print(self.format())
        print()
