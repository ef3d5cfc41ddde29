"""Export reproduced figures to CSV / JSON for external plotting.

The harness prints text tables; downstream users plotting with their
own tooling can export any :class:`~repro.harness.experiments.FigureResult`:

* :func:`to_csv` — the rows, with headers;
* :func:`to_json` — rows plus the summary and paper-target metadata;
* :func:`export_all` — run every registered experiment and write one
  file per figure into a directory (what ``repro-hma export`` does).
"""

from __future__ import annotations

import csv
import json
import os

from repro.harness.experiments import (
    EXPERIMENTS,
    FigureResult,
    WorkloadCache,
    run_experiment,
)


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
    cache: "WorkloadCache | None" = None,
    experiments: "list[str] | None" = None,
    fmt: str = "json",
) -> "list[str]":
    """Run experiments and write one file per figure into ``directory``.

    Each experiment runs through :func:`run_experiment`, so it is
    recorded in the run registry when telemetry is on.  Returns the
    written paths.  ``fmt`` is ``json`` or ``csv``.
    """
    if fmt not in ("json", "csv"):
        raise ValueError("fmt must be 'json' or 'csv'")
    os.makedirs(directory, exist_ok=True)
    if cache is None:
        cache = WorkloadCache()
    names = experiments if experiments is not None else list(EXPERIMENTS)
    written = []
    for name in names:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}")
        result = run_experiment(name, cache)
        path = os.path.join(str(directory), f"{name}.{fmt}")
        if fmt == "json":
            to_json(result, path)
        else:
            to_csv(result, path)
        written.append(path)
    return written
