"""Command-line entry point: regenerate any paper figure or table.

Usage::

    repro-hma list
    repro-hma run fig05 [--accesses 20000] [--scale 0.0009765625]
    repro-hma run all --jobs 0 --cache-dir ~/.cache/repro-hma
    repro-hma run fig14 --telemetry --obs-dir .repro-obs
    repro-hma config
    repro-hma report fig14
    repro-hma compare fig14-1 fig14-2
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.config import knob_value
from repro.harness.experiments import EXPERIMENTS
from repro.sim.system import DEFAULT_SCALE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hma",
        description="Reliability-aware HMA placement: paper reproduction "
                    "harness (Gupta et al., HPCA 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    workloads = sub.add_parser(
        "workloads",
        help="list the bundled benchmark profiles and server generators",
    )
    workloads.add_argument("--list", action="store_true", default=False,
                           help="list all workloads (the default)")
    workloads.add_argument("--describe", metavar="NAME", default=None,
                           help="print one workload's parameters, phase "
                                "schedule, and tolerance-class mix")
    workloads.add_argument("--seed", type=int, default=None,
                           help="seed for the described phase schedule "
                                "(env REPRO_SEED; default 0)")

    trace = sub.add_parser(
        "trace", help="generate a workload trace and save it to a file"
    )
    trace.add_argument("workload", help="benchmark or mix name, e.g. mcf")
    trace.add_argument("output", help="output path (.npz or .trace text)")
    trace.add_argument("--accesses", type=int, default=20_000)
    trace.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    trace.add_argument("--seed", type=int, default=None,
                   help="trace-synthesis RNG seed "
                        "(env REPRO_SEED; default 0)")

    export = sub.add_parser(
        "export", help="run experiments and write CSV/JSON files"
    )
    export.add_argument("directory", help="output directory")
    export.add_argument("--experiments", nargs="*", default=None,
                        help="experiment ids (default: all)")
    export.add_argument("--format", choices=("json", "csv"),
                        default="json")
    _add_runner_args(export)

    scatter = sub.add_parser(
        "scatter", help="ASCII hotness-risk scatter (Fig. 4) of a workload"
    )
    scatter.add_argument("workload")
    scatter.add_argument("--accesses", type=int, default=20_000)
    scatter.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    scatter.add_argument("--seed", type=int, default=None,
                     help="trace-synthesis RNG seed "
                          "(env REPRO_SEED; default 0)")
    scatter.add_argument("--width", type=int, default=70)
    scatter.add_argument("--height", type=int, default=22)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. fig05, or 'all'")
    _add_runner_args(run)

    sub.add_parser(
        "config", help="show every REPRO_* knob, its value, and where "
                       "the value came from"
    )

    verify = sub.add_parser(
        "verify", help="run the verification ladder: cross-kernel "
                       "differential fuzz, paper invariants, and the "
                       "EXPERIMENTS.md replication shape gate; exits "
                       "nonzero on any divergence or regression"
    )
    verify.add_argument(
        "--quick", action="store_true",
        help="CI budget: 25 fuzz cases and small gate workloads "
             "(the full ladder defaults to 50 cases)")
    verify.add_argument(
        "--cases", type=int, default=None, metavar="N",
        help="fuzz case count override (default 25 quick / 50 full)")
    verify.add_argument(
        "--fuzz-seed", type=int, default=0, metavar="S",
        help="seed of the differential fuzzer's case stream "
             "(default 0; gate workloads use a fixed seed regardless)")
    verify.add_argument(
        "--gates", default="fuzz,invariants,replication", metavar="LIST",
        help="comma-separated subset of gates to run "
             "(fuzz, invariants, replication, ecc)")
    verify.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="where shrunken divergence artifacts are dumped "
             "(default: ./.repro-verify)")
    verify.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also write the machine-readable verdict to PATH")
    verify.add_argument(
        "--replay-artifact", default=None, metavar="PATH",
        help="re-run one dumped divergence artifact instead of the "
             "ladder")
    verify.add_argument(
        "--verbose", action="store_true",
        help="print gate progress while running")

    report = sub.add_parser(
        "report", help="render one recorded run (metrics + epoch series)"
    )
    report.add_argument("run", help="run id (fig14-2) or label (fig14 = "
                                    "latest run with that label)")
    report.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="observability directory holding runs.sqlite "
                             "(env REPRO_OBS_DIR; default ./.repro-obs)")

    compare = sub.add_parser(
        "compare", help="diff two recorded runs; exits 1 on regression"
    )
    compare.add_argument("run_a", help="baseline run id or label")
    compare.add_argument("run_b", help="candidate run id or label")
    compare.add_argument("--obs-dir", default=None, metavar="DIR",
                         help="observability directory holding runs.sqlite "
                              "(env REPRO_OBS_DIR; default ./.repro-obs)")
    compare.add_argument("--threshold", type=float, default=0.02,
                         metavar="FRAC",
                         help="relative change that counts as a regression "
                              "(default 0.02 = 2%%)")
    return parser


def _add_runner_args(sub) -> None:
    """The flags of a run, shared by ``run`` and ``export``."""
    sub.add_argument("--accesses", type=int, default=20_000,
                     help="memory accesses per core (default 20000)")
    sub.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                     help="capacity/footprint scale (default 1/1024)")
    sub.add_argument("--seed", type=int, default=None,
                     help="trace/fault-sim RNG seed "
                          "(env REPRO_SEED; default 0)")
    sub.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for experiment fan-out (default 1 = "
             "serial; 0 = one per CPU; env REPRO_JOBS)")
    sub.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist prepared workloads (traces, profiles, baselines) "
             "to DIR so repeated runs skip trace synthesis "
             "(env REPRO_CACHE_DIR)")
    sub.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="checkpoint directory: completed experiments journal into "
             "DIR/manifest.jsonl as they finish, so an interrupted run "
             "can restart with --resume")
    sub.add_argument(
        "--resume", action="store_true",
        help="resume from --run-dir, rerunning only unfinished "
             "experiments (requires --run-dir)")
    sub.add_argument(
        "--job-timeout", type=float, default=None, metavar="SEC",
        help="per-experiment timeout in seconds; a hung job is killed "
             "and retried (env REPRO_JOB_TIMEOUT; enforced under "
             "process fan-out)")
    sub.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry budget per failed or timed-out experiment, with "
             "exponential backoff (env REPRO_RETRIES; default 0)")
    sub.add_argument(
        "--fault-trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials for the fault simulator; 0 (default) "
             "uses the exact analytic expectation "
             "(env REPRO_FAULT_TRIALS)")
    sub.add_argument(
        "--telemetry", action="store_true",
        help="record metrics, epoch snapshots, and tracing spans for "
             "each experiment into the run registry "
             "(env REPRO_TELEMETRY)")
    sub.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="where the run registry and span exports live "
             "(env REPRO_OBS_DIR; default ./.repro-obs)")


def _cmd_workloads(args) -> int:
    from repro.trace.mixes import MIX_TABLE
    from repro.trace.workloads import PROFILES
    from repro.workloads import (
        FRONTIER_PROFILES, describe, is_frontier, tolerance_mix,
    )

    if args.describe is not None:
        name = args.describe
        if is_frontier(name):
            print(describe(name, seed=args.seed))
            return 0
        if name in PROFILES:
            profile = PROFILES[name]
            print(f"{name}: SPEC-style profile, "
                  f"{profile.footprint_mb:.0f} MB/core, "
                  f"MPKI {profile.mpki:g}, MLP {profile.mlp}")
            print(f"  {'region':14s} {'share':>6s} {'hot':>5s} {'wr':>5s} "
                  f"{'spread':>6s} {'alpha':>5s} {'churn':>5s}")
            for spec in profile.regions:
                print(f"  {spec.name:14s} {spec.footprint_share:>6.2f} "
                      f"{spec.hotness:>5.1f} {spec.write_frac:>5.2f} "
                      f"{spec.read_spread:>6.2f} {spec.zipf_alpha:>5.2f} "
                      f"{spec.churn:>5g}")
            return 0
        if name in MIX_TABLE:
            print(f"{name}: mixed workload, one core per entry:")
            print(" ", ", ".join(MIX_TABLE[name]))
            return 0
        print(f"unknown workload: {name!r} (try 'repro-hma workloads')")
        return 2

    print(f"{'benchmark':12s} {'footprint':>10s} {'MPKI':>6s} {'MLP':>4s} "
          f"structures")
    for name, profile in PROFILES.items():
        print(f"{name:12s} {profile.footprint_mb:>8.0f}MB "
              f"{profile.mpki:>6.1f} {profile.mlp:>4d} "
              f"{len(profile.regions)}")
    print()
    print(f"{'server generator':16s} {'footprint':>10s} {'MPKI':>6s} "
          f"{'MLP':>4s} {'cores':>5s} {'phases':>6s}  model     "
          f"tolerance mix")
    for name, profile in FRONTIER_PROFILES.items():
        mix = ", ".join(f"{cls[:4]} {frac * 100:.0f}%"
                        for cls, frac in tolerance_mix(profile).items())
        print(f"{name:16s} {profile.footprint_mb:>8.0f}MB "
              f"{profile.mpki:>6.1f} {profile.mlp:>4d} "
              f"{profile.num_cores:>5d} {profile.phases:>6d}  "
              f"{profile.phase_model:8s}  {mix}")
    print()
    print("mixes:", ", ".join(MIX_TABLE))
    print("describe one with: repro-hma workloads --describe <name>")
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.system import resolve_workload
    from repro.trace.io import save_npz, save_text

    workload = resolve_workload(args.workload)
    wt = workload.generate(scale=args.scale,
                           accesses_per_core=args.accesses, seed=args.seed)
    if args.output.endswith(".npz"):
        save_npz(args.output, wt.trace, wt.times)
    else:
        save_text(args.output, wt.trace)
    print(f"wrote {len(wt.trace)} requests "
          f"({wt.footprint_pages} pages) to {args.output}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.run_dir:
        parser.error("--resume requires --run-dir")
    if getattr(args, "fault_trials", None) is not None and args.fault_trials < 0:
        parser.error("--fault-trials must be >= 0")
    if getattr(args, "accesses", 1) < 1:
        parser.error("--accesses must be >= 1")
    for flag in ("cache_dir", "run_dir", "obs_dir"):
        path = getattr(args, flag, None)
        if path and os.path.exists(path) and not os.path.isdir(path):
            parser.error(f"--{flag.replace('_', '-')} {path} exists and "
                         "is not a directory")
    # --seed resolves once (flag > REPRO_SEED > 0), so the run key and
    # every registry row record the value used.
    if hasattr(args, "seed"):
        args.seed = knob_value("seed", args.seed)
    if args.command == "list":
        for name, func in EXPERIMENTS.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    if args.command == "workloads":
        return _cmd_workloads(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "config":
        return _cmd_config()
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "scatter":
        from repro.core.quadrant import quadrant_split
        from repro.harness.plots import ascii_scatter
        from repro.sim.system import prepare_workload

        prep = prepare_workload(args.workload, scale=args.scale,
                                accesses_per_core=args.accesses,
                                seed=args.seed)
        stats = prep.stats
        hotness = stats.hotness.astype(float)
        print(ascii_scatter(
            stats.avf, hotness, width=args.width, height=args.height,
            xlabel="page AVF", ylabel="page hotness",
            split_x=float(stats.avf.mean()), split_y=float(hotness.mean()),
        ))
        quad = quadrant_split(stats, args.workload)
        print(f"hot & low-risk: {quad.hot_low_risk_fraction * 100:.1f}% "
              f"of {quad.total_pages} pages")
        return 0
    if args.command == "export":
        names = args.experiments or list(EXPERIMENTS)
    elif args.experiment == "all":
        names = list(EXPERIMENTS)
    else:
        names = [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'repro-hma list'",
                  file=sys.stderr)
            return 2
    results, failed = _run(names, args)
    if args.command == "export":
        from repro.harness.export import export_all

        written = export_all(args.directory, results, fmt=args.format)
        print(f"wrote {len(written)} files to {args.directory}")
    else:
        for _name, result in results:
            result.print()
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    from repro.obs.report import render_verify_report
    from repro.verify import VerifyReport, run_verify

    if args.replay_artifact:
        from repro.verify.differential import replay_artifact

        result = replay_artifact(args.replay_artifact)
        status = "STILL DIVERGES" if not result.passed else "no longer " \
            "reproduces (fixed, or environment-dependent)"
        print(f"{result.name}: {status}")
        if result.details:
            print(f"  {result.details}")
        return 1 if not result.passed else 0

    gates = tuple(g.strip() for g in args.gates.split(",") if g.strip())
    unknown = set(gates) - {"fuzz", "invariants", "replication", "ecc"}
    if unknown:
        print(f"unknown gate(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    artifact_dir = args.artifact_dir or ".repro-verify"
    progress = (lambda msg: print(f"  .. {msg}", file=sys.stderr)) \
        if args.verbose else None
    report: VerifyReport = run_verify(
        quick=args.quick, cases=args.cases, seed=args.fuzz_seed,
        artifact_dir=artifact_dir, gates=gates, progress=progress)
    if args.json_path:
        report.save(args.json_path)
    print(render_verify_report(report))
    return 0 if report.passed else 1


def _cmd_config() -> int:
    from repro.config import knob_report
    from repro.harness.reporting import format_table

    print(format_table(("knob", "env", "value", "source", "description"),
                       knob_report()))
    return 0


def _open_registry(obs_dir):
    from repro.obs.registry import RunRegistry, registry_path

    return RunRegistry(registry_path(obs_dir))


def _cmd_report(args) -> int:
    from repro.obs.report import render_run_report

    registry = _open_registry(args.obs_dir)
    run = registry.resolve(args.run)
    if run is None:
        print(f"no run {args.run!r} in {registry.path}", file=sys.stderr)
        return 2
    print(render_run_report(registry, run))
    return 0


def _cmd_compare(args) -> int:
    from repro.obs import report as obs_report

    registry = _open_registry(args.obs_dir)
    run_a = registry.resolve(args.run_a)
    run_b = registry.resolve(args.run_b)
    for ref, run in ((args.run_a, run_a), (args.run_b, run_b)):
        if run is None:
            print(f"no run {ref!r} in {registry.path}", file=sys.stderr)
            return 2
    diffs = obs_report.diff_metrics(registry.metrics(run_a.run_id),
                                    registry.metrics(run_b.run_id),
                                    threshold=args.threshold)
    print(obs_report.render_compare(run_a, run_b, diffs))
    return 1 if obs_report.find_regressions(diffs) else 0


def _run(names, args):
    """Run experiments through :func:`~repro.harness.runner.run_experiments`
    with the flags' checkpoint/retry/timeout handling.

    Returns ``(results, failed)`` where ``results`` are the completed
    ``(name, FigureResult)`` pairs and ``failed`` the outcomes of jobs
    that exhausted their retry budget — a partial run reports each
    failure with its traceback and keeps every completed result.
    """
    from repro.harness.runner import run_experiments

    report = run_experiments(
        names, accesses_per_core=args.accesses, scale=args.scale,
        seed=args.seed, cache_dir=args.cache_dir,
        jobs=_effective_jobs(args), checkpoint_dir=args.run_dir,
        resume=args.resume, job_timeout=args.job_timeout,
        retries=args.retries, fault_trials=args.fault_trials,
        telemetry=args.telemetry,
        obs_dir=args.obs_dir, return_report=True)
    failed = report.failed
    if failed:
        print(f"warning: {report.summary()}", file=sys.stderr)
        for outcome in failed:
            print(f"  {outcome.key}: {outcome.status} after "
                  f"{outcome.attempts} attempt(s): {outcome.error}",
                  file=sys.stderr)
    results = [outcome.result for outcome in report.outcomes
               if outcome.succeeded]
    return results, failed


def _effective_jobs(args) -> "int | None":
    """CLI jobs flag: 0 means "one per CPU" (i.e. let the runner pick)."""
    return None if args.jobs == 0 else args.jobs


if __name__ == "__main__":
    raise SystemExit(main())
