#!/usr/bin/env python
"""Measure the EXPERIMENTS.md claims over the replication grid.

Two steps, one script:

1. Each grid point (every seed of ``SEEDS`` at every volume of
   ``VOLUMES``) is measured by ``repro.verify.replication``, each in a
   process of its own, and written as raw JSON,
   ``point-<volume>-<seed>.json``, to the directory given on the
   command line.
2. The points are folded into the EXPERIMENTS.md claims table and
   printed: per claim and volume, the 5-seed mean [min, max], a mark
   on a volume the claim does not name, and the volumes where the
   claim's ranges hold.

Usage::

    python tools/claims_table.py /tmp/claims     # ~65 s on 2 vCPUs

``repro-hma verify --gates replication`` scores the same table over
the same grid.
"""

import functools
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from repro.verify.replication import (  # noqa: E402
    CLAIMS,
    SEEDS,
    VOLUMES,
    holds,
    measure_points,
)


def measure_grid(directory: str) -> "dict[tuple[int, int], dict]":
    """Every grid point's claim values, each written to ``directory`` as
    raw JSON as soon as it is measured."""
    os.makedirs(directory, exist_ok=True)
    grid = [(volume, seed) for volume in VOLUMES for seed in SEEDS]
    progress = functools.partial(print, file=sys.stderr)
    points = {}
    for (volume, seed), values in measure_points(grid, progress):
        path = os.path.join(directory, f"point-{volume}-{seed}.json")
        with open(path, "w") as fh:
            json.dump(values, fh, indent=1)
        points[(volume, seed)] = values
    return points


def rows(points) -> "list[str]":
    """The EXPERIMENTS.md claims table, one Markdown row per claim."""
    head = " | ".join(f"{v // 1000}k" for v in VOLUMES)
    out = [f"| claim | {head} | holds at |",
           "|---" * (len(VOLUMES) + 2) + "|"]
    for claim in CLAIMS:
        cells, where = [], []
        for volume in VOLUMES:
            xs = [p[claim.name] for (v, _), p in points.items()
                  if v == volume]
            mark = "" if volume in claim.ranges else " (not claimed)"
            cells.append(f"{np.mean(xs):.3g} [{min(xs):.3g}, "
                         f"{max(xs):.3g}]{mark}")
            if holds(claim, volume, xs):
                where.append(f"{volume // 1000}k")
        out.append(f"| `{claim.name}` | {' | '.join(cells)} | "
                   f"{', '.join(where) or 'nowhere'} |")
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(rows(measure_grid(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
