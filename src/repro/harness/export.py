"""Export reproduced figures to CSV / JSON for external plotting.

The harness prints text tables; downstream users plotting with their
own tooling can export any :class:`~repro.harness.experiments.FigureResult`:

* :func:`to_csv` — the rows, with headers;
* :func:`to_json` — rows plus the summary and paper-target metadata;
* :func:`export_all` — write one file per ``(name, FigureResult)``
  pair into a directory.  ``repro-hma export`` runs the experiments
  through :func:`~repro.harness.runner.run_experiments`, as
  ``repro-hma run`` does, and hands the results here.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable

from repro.harness.reporting import FigureResult


def to_csv(result: FigureResult, path: "str | os.PathLike") -> None:
    """Write the figure's rows as CSV (header row included)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.headers)
        writer.writerows(result.rows)


def to_json(result: FigureResult, path: "str | os.PathLike | None" = None
            ) -> dict:
    """Serialise the figure (rows + summary + paper targets).

    Returns the document; also writes it when ``path`` is given.
    """
    document = {
        "figure": result.figure,
        "description": result.description,
        "headers": result.headers,
        "rows": result.rows,
        "summary": result.summary,
        "paper": result.paper,
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2, default=str)
            fh.write("\n")
    return document


def export_all(
    directory: "str | os.PathLike",
    results: "Iterable[tuple[str, FigureResult]]",
    fmt: str = "json",
) -> "list[str]":
    """Write one ``<name>.<fmt>`` file per ``(name, FigureResult)`` pair.

    Returns the written paths; ``fmt`` is ``json`` or ``csv``.
    """
    if fmt not in ("json", "csv"):
        raise ValueError("fmt must be 'json' or 'csv'")
    os.makedirs(directory, exist_ok=True)
    write = to_json if fmt == "json" else to_csv
    written = []
    for name, result in results:
        path = os.path.join(str(directory), f"{name}.{fmt}")
        write(result, path)
        written.append(path)
    return written
