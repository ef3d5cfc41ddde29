"""SQLite-backed registry of simulation runs.

Every telemetry-enabled run records one row keyed by a config hash and
the git revision, with its scalar metrics, epoch snapshot series, and
artifact paths (span JSONL, checkpoint dirs) attached.  The store is
plain stdlib ``sqlite3`` under ``<obs_dir>/registry.sqlite`` (knob
``obs_dir`` / ``REPRO_OBS_DIR``; default ``./.repro-obs``), so runs
are queryable with nothing but the sqlite3 shell::

    sqlite3 .repro-obs/registry.sqlite \
        'SELECT run_id, label, created_at FROM runs ORDER BY created_at'

Writes open a fresh connection per operation with a busy timeout, the
store runs in WAL journal mode (readers never block the single
writer), and operations that still lose the write lock under heavy
multi-process contention retry with bounded backoff — so parallel
experiment workers can append concurrently.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import sqlite3
import subprocess
import time
from dataclasses import dataclass, field

from repro.config import knob_value
from repro.obs.snapshots import SnapshotSeries

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    created_at  TEXT NOT NULL,
    label       TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    git_rev     TEXT NOT NULL,
    config_json TEXT NOT NULL,
    artifacts_json TEXT NOT NULL,
    status      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS run_metrics (
    run_id TEXT NOT NULL,
    name   TEXT NOT NULL,
    value  REAL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS run_snapshots (
    run_id TEXT NOT NULL,
    series TEXT NOT NULL,
    epoch  INTEGER NOT NULL,
    name   TEXT NOT NULL,
    value  REAL,
    PRIMARY KEY (run_id, series, epoch, name)
);
CREATE INDEX IF NOT EXISTS idx_runs_label ON runs(label, created_at);
"""

#: Bounded retry for writers that lose the sqlite lock anyway (WAL
#: allows one writer; ``timeout=`` covers most contention, but a
#: writer that straddles a checkpoint can still see ``database is
#: locked`` / ``database is busy``).
_LOCK_RETRIES = 12
_LOCK_BACKOFF = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def _retry_locked(op):
    """Run ``op()`` with bounded backoff on sqlite lock contention."""
    for attempt in range(_LOCK_RETRIES):
        try:
            return op()
        except sqlite3.OperationalError as exc:
            if not _is_locked(exc) or attempt == _LOCK_RETRIES - 1:
                raise
            time.sleep(_LOCK_BACKOFF * (attempt + 1))


def default_obs_dir() -> str:
    """Observability root: the ``obs_dir`` knob, else ``./.repro-obs``."""
    return knob_value("obs_dir") or os.path.join(os.curdir, ".repro-obs")


def registry_path(obs_dir: "str | None" = None) -> str:
    return os.path.join(obs_dir or default_obs_dir(), "registry.sqlite")


def config_hash(config) -> str:
    """Stable digest of a run configuration (any repr-able object)."""
    if isinstance(config, dict):
        payload = json.dumps(config, sort_keys=True, default=repr)
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def git_rev() -> str:
    """Current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class RunRecord:
    """One registry row, with metrics and series loaded on demand."""

    run_id: str
    created_at: str
    label: str
    config_hash: str
    git_rev: str
    config: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    status: str = "completed"


class RunRegistry:
    """Durable store of runs: metrics, snapshot series, artifacts."""

    def __init__(self, path: "str | None" = None) -> None:
        self.path = path or registry_path()

    def _connect(self) -> sqlite3.Connection:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.OperationalError:
            conn.close()
            raise
        return conn

    # -- writes --------------------------------------------------------------

    def record_run(self, label: str, *, config=None, metrics=None,
                   series=None, artifacts=None,
                   status: str = "completed") -> str:
        """Persist one run; returns its generated ``run_id``.

        ``series`` maps series name -> :class:`SnapshotSeries` (or a
        list of row dicts).  Run ids are ``<label>-<n>`` with ``n``
        allocated under the insert transaction, so concurrent writers
        retry on collision instead of overwriting.
        """
        config = config if isinstance(config, dict) else (
            {"repr": repr(config)} if config is not None else {})
        chash = config_hash(config)
        rev = git_rev()
        created = _dt.datetime.now(_dt.timezone.utc).isoformat()
        metric_rows = sorted((metrics or {}).items())
        snap_rows = self._flatten_series(series or {})

        def _write() -> str:
            with self._connect() as conn:
                for attempt in range(100):
                    run_id = self._next_id(conn, label)
                    try:
                        conn.execute(
                            "INSERT INTO runs VALUES (?,?,?,?,?,?,?,?)",
                            (run_id, created, label, chash, rev,
                             json.dumps(config, sort_keys=True,
                                        default=repr),
                             json.dumps(artifacts or {}, sort_keys=True),
                             status))
                        break
                    except sqlite3.IntegrityError:
                        continue
                else:
                    raise RuntimeError(
                        f"could not allocate a run id for label {label!r}")
                conn.executemany(
                    "INSERT OR REPLACE INTO run_metrics VALUES (?,?,?)",
                    [(run_id, name, _as_real(value))
                     for name, value in metric_rows])
                conn.executemany(
                    "INSERT OR REPLACE INTO run_snapshots VALUES (?,?,?,?,?)",
                    [(run_id, sname, epoch, name, _as_real(value))
                     for sname, epoch, name, value in snap_rows])
                return run_id

        return _retry_locked(_write)

    @staticmethod
    def _next_id(conn: sqlite3.Connection, label: str) -> str:
        row = conn.execute(
            "SELECT COUNT(*) FROM runs WHERE label = ?", (label,)).fetchone()
        return f"{label}-{row[0] + 1}"

    @staticmethod
    def _flatten_series(series) -> "list[tuple[str, int, str, float]]":
        rows = []
        for sname, data in series.items():
            dicts = (data.to_dicts() if isinstance(data, SnapshotSeries)
                     else list(data))
            for i, raw in enumerate(dicts):
                epoch = int(raw.get("epoch", i))
                for name, value in raw.items():
                    if name == "epoch":
                        continue
                    rows.append((sname, epoch, name, value))
        return rows

    # -- reads ---------------------------------------------------------------

    def get_run(self, run_id: str) -> "RunRecord | None":
        with self._connect() as conn:
            row = conn.execute(
                "SELECT run_id, created_at, label, config_hash, git_rev, "
                "config_json, artifacts_json, status FROM runs "
                "WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            return None
        return RunRecord(
            run_id=row[0], created_at=row[1], label=row[2],
            config_hash=row[3], git_rev=row[4],
            config=json.loads(row[5]), artifacts=json.loads(row[6]),
            status=row[7])

    def list_runs(self, label: "str | None" = None) -> "list[RunRecord]":
        query = ("SELECT run_id, created_at, label, config_hash, git_rev, "
                 "config_json, artifacts_json, status FROM runs")
        params: tuple = ()
        if label is not None:
            query += " WHERE label = ?"
            params = (label,)
        query += " ORDER BY created_at, run_id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [RunRecord(run_id=r[0], created_at=r[1], label=r[2],
                          config_hash=r[3], git_rev=r[4],
                          config=json.loads(r[5]),
                          artifacts=json.loads(r[6]), status=r[7])
                for r in rows]

    def latest(self, label: "str | None" = None) -> "RunRecord | None":
        runs = self.list_runs(label)
        return runs[-1] if runs else None

    def metrics(self, run_id: str) -> "dict[str, float]":
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT name, value FROM run_metrics WHERE run_id = ? "
                "ORDER BY name", (run_id,)).fetchall()
        return dict(rows)

    def series_names(self, run_id: str) -> "list[str]":
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT series FROM run_snapshots "
                "WHERE run_id = ? ORDER BY series", (run_id,)).fetchall()
        return [r[0] for r in rows]

    def series(self, run_id: str, name: str) -> SnapshotSeries:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT epoch, name, value FROM run_snapshots "
                "WHERE run_id = ? AND series = ? ORDER BY epoch",
                (run_id, name)).fetchall()
        by_epoch: "dict[int, dict]" = {}
        for epoch, metric, value in rows:
            by_epoch.setdefault(epoch, {"epoch": epoch})[metric] = value
        return SnapshotSeries.from_dicts(
            name, [by_epoch[e] for e in sorted(by_epoch)])

    def resolve(self, ref: str) -> "RunRecord | None":
        """A run by exact id, or the latest run for a bare label."""
        run = self.get_run(ref)
        if run is not None:
            return run
        return self.latest(ref)


def _as_real(value) -> "float | None":
    """Coerce to REAL; NaN and non-numerics become SQL NULL."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return None
    return None if value != value else value
