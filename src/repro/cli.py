"""``symsim`` — command-line front end for the symbolic simulator.

Examples::

    symsim design.v                      # symbolic simulation to quiescence
    symsim design.v --top tb --until 500
    symsim design.v --random-seed 1      # conventional random simulation
    symsim design.v --accumulation none  # Table-1 style comparisons
    symsim design.v --resimulate         # replay the first violation

Observability (see docs/OBSERVABILITY.md)::

    symsim design.v --trace-out t.json   # Chrome trace (Perfetto-loadable)
    symsim design.v --trace-jsonl t.jsonl
    symsim design.v --profile            # print top-N hot event sites
    symsim design.v --profile-out p.json --metrics-out m.json
    symsim report p.json                 # pretty-print a saved document

Live telemetry (see docs/OBSERVABILITY.md)::

    symsim design.v --heartbeat status.json --until 100000
    symsim top out/status/               # refreshing table of live runs
    symsim top status.json --once        # one plain table (scripts/CI)
    symsim status out/status/ --json     # raw heartbeat records
    symsim serve-metrics --port 9099 --status out/status/

Robustness (see docs/ROBUSTNESS.md)::

    symsim design.v --budget-nodes 100000 --budget-seconds 3600
    symsim design.v --checkpoint-every 50 --checkpoint-dir ckpt/
    symsim design.v --resume ckpt/latest.ckpt --checkpoint-dir ckpt/

Batch simulation (see docs/BATCH.md)::

    symsim batch jobs.json --workers 4 --out-dir out/
    symsim batch jobs.json --workers 2 --no-trace --quiet
    symsim batch jobs.json --max-attempts 4 --lease-timeout 300
    symsim batch jobs.json --resume out/      # finish an interrupted batch

Serving (see docs/SERVE.md)::

    symsim serve --port 9088 --workers 4 --out-dir out/
    symsim serve --tenants tenants.json --max-in-flight 2

Mutation campaigns (see docs/MUTATION.md)::

    symsim mutate campaign.json --workers 4 --out-dir out/
    symsim mutate campaign.json --operators opswap,cmpswap --seed 7
    symsim mutate campaign.json --plan-only     # enumerate, don't run
    symsim report out/report.json               # render a saved report

Exit codes: 0 clean, 1 violations found, 2 error, 3 resimulation
failure, 4 aborted by the resource guard, 130 interrupted (Ctrl-C).
``symsim batch`` folds per-run outcomes: 0 when every run is ok, 1
when any run had assertion violations, 4 when any run aborted or
hung, 5 (the exit-4 family) when any run was *quarantined* by the
retry policy, 2 for a bad manifest, pool failure, or a ``--resume``
whose journal does not match the manifest.  ``symsim mutate`` exits
0 when the campaign completes (whatever the score), 2 for a bad
manifest or controller failure, 3 when the baseline is not clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import (
    AccumulationMode, Observability, ReproError, SimulationAborted, api,
    open_sim,
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim",
        description="Symbolic RTL simulation of behavioral Verilog "
                    "(DAC 2001 reproduction)",
    )
    parser.add_argument("source", help="Verilog source file")
    parser.add_argument("--top", default=None,
                        help="top module (default: auto-detect)")
    parser.add_argument("--until", type=int, default=None,
                        help="simulation time bound")
    parser.add_argument("--accumulation",
                        choices=[m.value for m in AccumulationMode],
                        default=AccumulationMode.FULL.value,
                        help="event accumulation level (Table 1 columns)")
    parser.add_argument("--random-seed", type=int, default=None,
                        help="run conventionally with concrete $random values")
    parser.add_argument("--resimulate", action="store_true",
                        help="after a violation, replay its error trace "
                             "concretely")
    parser.add_argument("--continue-on-violation", action="store_true",
                        help="collect all violations instead of stopping "
                             "at the first")
    parser.add_argument("--define", action="append", default=[],
                        metavar="NAME=VALUE", help="preprocessor define")
    parser.add_argument("--stats", action="store_true",
                        help="print event/CPU statistics")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="disable the hybrid concrete/symbolic fast "
                             "paths (every operator builds BDDs bit by "
                             "bit; results are bit-identical — this is "
                             "the differential-testing / baseline-timing "
                             "switch)")
    parser.add_argument("--no-compile", action="store_true",
                        help="run the instruction interpreter instead of "
                             "the compiled block tier (results are "
                             "bit-identical; this is the differential "
                             "oracle for the codegen)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress $display output echo")
    mem = parser.add_argument_group("BDD memory management")
    mem.add_argument("--gc-threshold", type=int, default=None,
                     metavar="NODES",
                     help="run mark-and-sweep BDD garbage collection "
                          "whenever the arena grows by NODES since the "
                          "last collection (default: no GC)")
    mem.add_argument("--dyn-reorder", action="store_true",
                     help="enable dynamic sifting-based variable "
                          "reordering between time steps")
    mem.add_argument("--reorder-threshold", type=int, default=4096,
                     metavar="NODES",
                     help="nodes built before the first sift, and "
                          "the live-node floor of later ones "
                          "(default 4096)")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Chrome trace_event JSON "
                          "(chrome://tracing / Perfetto)")
    obs.add_argument("--trace-jsonl", metavar="PATH", default=None,
                     help="write the structured trace as JSONL")
    obs.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the unified metrics registry as JSON")
    obs.add_argument("--profile", action="store_true",
                     help="print the top-N hot event sites after the run")
    obs.add_argument("--profile-out", metavar="PATH", default=None,
                     help="write the hot-spot profile as JSON "
                          "(render with 'symsim report')")
    obs.add_argument("--profile-top", type=int, default=10, metavar="N",
                     help="sites to print with --profile (default 10)")
    obs.add_argument("--bdd-latency", action="store_true",
                     help="sample BDD operator latency histograms into "
                          "the metrics registry (implies metrics)")
    obs.add_argument("--heartbeat", metavar="PATH", default=None,
                     help="write a live status record here at end-of-step "
                          "safe points (tail it with 'symsim top')")
    obs.add_argument("--heartbeat-every", type=int, default=None,
                     metavar="N",
                     help="safe points between heartbeats (default 25; "
                          "implies --heartbeat-style telemetry even "
                          "without a status file)")
    guard = parser.add_argument_group(
        "robustness (budgets / checkpoint / resume)")
    guard.add_argument("--budget-seconds", type=float, default=None,
                       metavar="S",
                       help="wall-clock budget; exceeded -> structured "
                            "abort (exit 4) with a rescue checkpoint")
    guard.add_argument("--budget-nodes", type=int, default=None,
                       metavar="NODES",
                       help="live BDD node ceiling; pressure runs the "
                            "mitigation ladder (GC -> reorder -> "
                            "concretize) before aborting")
    guard.add_argument("--budget-rss-mb", type=float, default=None,
                       metavar="MB",
                       help="resident-set-size ceiling in MiB (Linux; "
                            "same ladder as --budget-nodes)")
    guard.add_argument("--budget-events", type=int, default=None,
                       metavar="N", help="total processed-event budget")
    guard.add_argument("--max-concretize", type=int, default=8,
                       metavar="N",
                       help="symbolic $random variables the ladder may "
                            "concretize before giving up (default 8)")
    guard.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="write a rolling checkpoint every N time "
                            "steps (requires --checkpoint-dir)")
    guard.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="directory for rolling/rescue/interrupt "
                            "checkpoints")
    guard.add_argument("--resume", metavar="CKPT", default=None,
                       help="resume a checkpointed run of the same "
                            "source instead of starting at time 0")
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim report",
        description="Pretty-print a saved observability document "
                    "(profile, metrics, or trace JSONL)",
    )
    parser.add_argument("file", help="JSON/JSONL document written by a "
                                     "symsim run")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="event sites to show for profiles "
                             "(default 10)")
    return parser


def report_main(argv: List[str]) -> int:
    from repro.obs.report import render_file

    args = build_report_parser().parse_args(argv)
    try:
        print(render_file(args.file, top=args.top))
    except BrokenPipeError:
        return 0  # downstream pager/head closed early — not an error
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot render {args.file}: {exc}", file=sys.stderr)
        return 2
    return 0


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim batch",
        description="Run a manifest of simulations on a worker pool "
                    "(see docs/BATCH.md for the manifest format)",
    )
    parser.add_argument("manifest", help="jobs manifest (JSON)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="batch output directory: per-run artifacts, "
                             "merged trace, metrics (default: a fresh "
                             "temp dir)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip per-worker trace shards and the merged "
                             "Chrome trace")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="also copy the merged Chrome trace here")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="also copy the aggregated metrics JSON here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-run completion stream")
    parser.add_argument("--no-heartbeat", action="store_true",
                        help="skip the per-run live status files under "
                             "<out-dir>/status/")
    parser.add_argument("--heartbeat-every", type=int, default=None,
                        metavar="N",
                        help="safe points between worker heartbeats "
                             "(default 25)")
    parser.add_argument("--stall-after", type=float, default=None,
                        metavar="S",
                        help="flag a run whose heartbeat is older than S "
                             "seconds while it still claims to be running "
                             "(stall watcher; needs heartbeats)")
    durability = parser.add_argument_group(
        "durability (leases / retries / journal — see docs/BATCH.md)")
    durability.add_argument("--max-attempts", type=int, default=None,
                            metavar="N",
                            help="attempts per run before quarantine "
                                 "(default 3; overrides the manifest's "
                                 "\"retry\" object)")
    durability.add_argument("--retry-on", metavar="A,B,...", default=None,
                            help="also retry these run statuses (e.g. "
                                 "'aborted'); infrastructure failures are "
                                 "always retried")
    durability.add_argument("--backoff-base", type=float, default=None,
                            metavar="S",
                            help="base retry backoff in seconds "
                                 "(default 0.25; capped exponential with "
                                 "deterministic jitter)")
    durability.add_argument("--lease-timeout", type=float, default=None,
                            metavar="S",
                            help="kill a run's worker and requeue the run "
                                 "when it holds its lease S seconds with "
                                 "no fresh 'running' heartbeat")
    durability.add_argument("--no-journal", action="store_true",
                            help="skip the BATCHJRNL/1 journal (the batch "
                                 "is then not resumable)")
    durability.add_argument("--resume", metavar="OUT_DIR", default=None,
                            help="resume an interrupted batch: restore "
                                 "terminal runs from OUT_DIR's journal "
                                 "(after fingerprint re-verification) and "
                                 "execute only the rest")
    return parser


def batch_main(argv: List[str]) -> int:
    import dataclasses

    from repro.batch import RetryPolicy, load_manifest, load_policy, \
        run_batch
    from repro.errors import BatchError
    from repro.sim import SimStatus

    args = build_batch_parser().parse_args(argv)
    if args.resume is not None:
        if args.out_dir is not None and args.out_dir != args.resume:
            print("error: --resume OUT_DIR and --out-dir disagree — "
                  "a resume must target the journaled output directory",
                  file=sys.stderr)
            return 2
        args.out_dir = args.resume
        if args.no_journal:
            print("error: --resume needs the journal; drop --no-journal",
                  file=sys.stderr)
            return 2

    def stream(outcome):
        if args.quiet:
            return
        tag = outcome.status.value
        line = f"[{tag:>13}] {outcome.name} ({outcome.wall_seconds:.2f}s)"
        if outcome.error:
            line += f" — {outcome.error}"
        print(line, flush=True)

    def stalled(health):
        print(f"[stall] {health.name}: still 'running' but heartbeat is "
              f"{health.age_seconds:.0f}s old", file=sys.stderr)

    from repro.obs.live import DEFAULT_EVERY

    heartbeat_every = None if args.no_heartbeat \
        else (args.heartbeat_every or DEFAULT_EVERY)
    try:
        requests = load_manifest(args.manifest)
        policy = load_policy(args.manifest) or RetryPolicy()
        overrides = {}
        if args.max_attempts is not None:
            overrides["max_attempts"] = args.max_attempts
        if args.backoff_base is not None:
            overrides["backoff_base"] = args.backoff_base
        if args.lease_timeout is not None:
            overrides["lease_timeout"] = args.lease_timeout
        if args.retry_on is not None:
            overrides["retry_statuses"] = frozenset(
                s.strip() for s in args.retry_on.split(",") if s.strip())
        if overrides:
            policy = dataclasses.replace(policy, **overrides)
        batch = run_batch(
            requests,
            workers=args.workers,
            out_dir=args.out_dir,
            on_result=stream,
            trace=not args.no_trace,
            heartbeat_every=heartbeat_every,
            stall_after=args.stall_after,
            on_stall=stalled if args.stall_after is not None else None,
            retry=policy,
            journal=not args.no_journal,
            resume=args.resume is not None,
        )
    except (BatchError, ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("batch interrupted", file=sys.stderr)
        return 130
    print(batch.summary())
    if batch.trace_path is not None:
        print(f"[obs] merged chrome trace: {batch.trace_path}")
    if batch.metrics_path is not None:
        print(f"[obs] aggregated metrics: {batch.metrics_path}")
    if batch.status_dir is not None:
        print(f"[obs] live status files: {batch.status_dir} "
              "(tail with 'symsim top')")
    if batch.stalled_runs:
        print(f"[obs] stalled mid-batch: {', '.join(batch.stalled_runs)}")
    if batch.journal_path is not None:
        print(f"[obs] batch journal: {batch.journal_path} "
              "(resume with 'symsim batch --resume')")
    if batch.quarantined_runs:
        print(f"[durability] quarantined: "
              f"{', '.join(batch.quarantined_runs)}", file=sys.stderr)
    for src, dst in ((batch.trace_path, args.trace_out),
                     (batch.metrics_path, args.metrics_out)):
        if dst is not None and src is not None:
            import shutil

            try:
                shutil.copyfile(src, dst)
            except OSError as exc:
                print(f"error: cannot write {dst}: {exc}", file=sys.stderr)
                return 2
            print(f"[obs] copied to {dst}")
    statuses = {outcome.status for outcome in batch}
    if batch.quarantined_runs:
        return 5
    if SimStatus.ABORTED in statuses or SimStatus.HANG in statuses:
        return 4
    if SimStatus.ASSERT_FAILED in statuses:
        return 1
    return 0


def build_mutate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim mutate",
        description="Run a mutation/fault campaign: generate single-site "
                    "mutants of a design, fan them out through the batch "
                    "engine, classify each with the symbolic checker "
                    "(see docs/MUTATION.md for the manifest format)",
    )
    parser.add_argument("manifest", help="campaign manifest (JSON)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (overrides the manifest; "
                             "default 1)")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="campaign output directory: per-run "
                             "artifacts, report.json, metrics.json "
                             "(default: a fresh temp dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="mutation-plan seed (overrides the manifest)")
    parser.add_argument("--operators", metavar="A,B,...", default=None,
                        help="comma-separated operator subset (overrides "
                             "the manifest)")
    parser.add_argument("--max-mutants", type=int, default=None,
                        metavar="N",
                        help="cap the campaign at N seeded-sampled sites "
                             "(overrides the manifest)")
    parser.add_argument("--plan-only", action="store_true",
                        help="print the canonical MutationPlan JSON and "
                             "exit without running anything")
    parser.add_argument("--report-out", metavar="PATH", default=None,
                        help="also write the campaign report JSON here")
    parser.add_argument("--verify-witnesses", action="store_true",
                        help="concretely resimulate every detected "
                             "mutant's witness (paper Section-5 round "
                             "trip)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-mutant completion stream")
    parser.add_argument("--no-heartbeat", action="store_true",
                        help="skip the per-run live status files under "
                             "<out-dir>/status/")
    parser.add_argument("--stall-after", type=float, default=None,
                        metavar="S",
                        help="flag a mutant run whose heartbeat is older "
                             "than S seconds (stall watcher)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="attempts per mutant run before quarantine "
                             "(default 3; infrastructure failures retry, "
                             "classifications never change)")
    parser.add_argument("--retry-on", metavar="A,B,...", default=None,
                        help="also retry these run statuses (e.g. "
                             "'aborted')")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from the "
                             "batch journal in --out-dir")
    return parser


def mutate_main(argv: List[str]) -> int:
    from repro.errors import MutationError
    from repro.mutate import build_plan, classify, load_campaign, \
        run_campaign
    from repro.obs.live import DEFAULT_EVERY
    from repro.obs.report import format_mutation_report

    args = build_mutate_parser().parse_args(argv)
    try:
        config, workers = load_campaign(args.manifest)
    except MutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None:
        workers = args.workers
    if args.seed is not None:
        config.seed = args.seed
    if args.operators is not None:
        config.operators = [op.strip()
                            for op in args.operators.split(",") if op.strip()]
    if args.max_mutants is not None:
        config.max_mutants = args.max_mutants
    if args.verify_witnesses:
        config.verify_witnesses = True

    if args.plan_only:
        try:
            plan = build_plan(
                config.source, top=config.top, defines=config.defines,
                operators=config.operators, modules=config.modules,
                seed=config.seed, max_mutants=config.max_mutants)
        except (MutationError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(plan.to_json(), end="")
        return 0

    def stream(outcome):
        if args.quiet:
            return
        tag = outcome.status.value if outcome.name == "baseline" \
            else classify(outcome.status.value)
        print(f"[{tag:>10}] {outcome.name} ({outcome.wall_seconds:.2f}s)",
              flush=True)

    heartbeat_every = None if args.no_heartbeat else DEFAULT_EVERY
    if args.resume and args.out_dir is None:
        print("error: --resume needs --out-dir (the journaled campaign "
              "directory)", file=sys.stderr)
        return 2
    try:
        retry = None
        if args.max_attempts is not None or args.retry_on is not None:
            from repro.batch import RetryPolicy
            retry_kwargs = {}
            if args.max_attempts is not None:
                retry_kwargs["max_attempts"] = args.max_attempts
            if args.retry_on is not None:
                retry_kwargs["retry_statuses"] = frozenset(
                    s.strip() for s in args.retry_on.split(",")
                    if s.strip())
            retry = RetryPolicy(**retry_kwargs)
        report = run_campaign(
            config, workers=workers, out_dir=args.out_dir,
            on_result=stream, heartbeat_every=heartbeat_every,
            stall_after=args.stall_after, retry=retry,
            resume=args.resume)
    except MutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if "baseline run is not clean" in str(exc) else 2
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("campaign interrupted", file=sys.stderr)
        return 130

    print(format_mutation_report(report.to_dict()))
    print(f"[campaign] wall {report.wall_seconds:.2f}s on "
          f"{workers} worker(s)")
    if report.report_path is not None:
        print(f"[obs] campaign report: {report.report_path} "
              "(render with 'symsim report')")
    if report.batch.metrics_path is not None:
        print(f"[obs] aggregated metrics: {report.batch.metrics_path}")
    if args.report_out is not None:
        try:
            with open(args.report_out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write {args.report_out}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"[obs] report copied to {args.report_out}")
    return 0


def build_top_parser(prog: str = "symsim top") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Live table over heartbeat status files (files, "
                    "directories, or globs)",
    )
    parser.add_argument("paths", nargs="+",
                        help="status files / directories / globs "
                             "(e.g. a batch's <out-dir>/status/)")
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="refresh period in seconds (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="print one table and exit (scripts, CI)")
    parser.add_argument("--stall-after", type=float, default=None,
                        metavar="S",
                        help="age after which a 'running' heartbeat is "
                             "flagged STALL (default 30)")
    return parser


def top_main(argv: List[str]) -> int:
    from repro.obs.live import DEFAULT_STALL_AFTER
    from repro.obs.top import run_top

    args = build_top_parser().parse_args(argv)
    try:
        return run_top(args.paths, interval=args.interval, once=args.once,
                       stall_after=args.stall_after or DEFAULT_STALL_AFTER)
    except KeyboardInterrupt:
        return 0


def status_main(argv: List[str]) -> int:
    from repro.obs.live import DEFAULT_STALL_AFTER, scan_status
    from repro.obs.top import format_top

    parser = build_top_parser(prog="symsim status")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw heartbeat records as a JSON "
                             "array instead of a table")
    args = parser.parse_args(argv)
    records = scan_status(args.paths)
    if args.as_json:
        print(json.dumps(records, indent=2))
    else:
        print(format_top(records,
                         stall_after=args.stall_after or DEFAULT_STALL_AFTER))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim serve-metrics",
        description="Serve saved metrics and live heartbeat files as an "
                    "OpenMetrics scrape endpoint (GET /metrics; also "
                    "/status and /healthz)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9099,
                        help="bind port; 0 picks an ephemeral port "
                             "(default 9099)")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="a --metrics-out snapshot to re-read and "
                             "expose on every scrape")
    parser.add_argument("--status", action="append", default=[],
                        metavar="PATH",
                        help="heartbeat status file/directory/glob to fold "
                             "into symsim.run.* families (repeatable)")
    parser.add_argument("--once", action="store_true",
                        help="print one scrape body to stdout and exit "
                             "without binding a socket")
    return parser


def serve_metrics_main(argv: List[str]) -> int:
    from repro.obs.metrics import MetricError
    from repro.obs.serve import MetricsServer, build_scrape_source

    args = build_serve_parser().parse_args(argv)
    if args.metrics_json is None and not args.status:
        print("error: nothing to serve — give --metrics-json and/or "
              "--status", file=sys.stderr)
        return 2
    source = build_scrape_source(metrics_json=args.metrics_json,
                                 status_paths=args.status)
    if args.once:
        try:
            sys.stdout.write(source())
        except (OSError, ValueError, MetricError) as exc:
            print(f"error: cannot render scrape: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        server = MetricsServer(source, host=args.host, port=args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    server.watch_status(args.status)
    print(f"serving OpenMetrics on {server.url} (Ctrl-C to stop)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server._httpd.server_close()
    return 0


def build_front_door_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsim serve",
        description="The simulation-as-a-service front door: accept "
                    "repro.serve.request/1 submissions over HTTP+JSON "
                    "and run them on a durable multi-tenant worker pool "
                    "(see docs/SERVE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9088,
                        help="bind port; 0 picks an ephemeral port "
                             "(default 9088)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker pool width (default 1)")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="artifact root (runs/, status/, "
                             "journal.jsonl); "
                             "a temp dir when omitted")
    parser.add_argument("--max-in-flight", type=int, default=2, metavar="N",
                        help="default per-tenant concurrent-run quota "
                             "(default 2)")
    parser.add_argument("--max-pending", type=int, default=16, metavar="N",
                        help="default per-tenant queue depth before 429 "
                             "(default 16)")
    parser.add_argument("--heartbeat-every", type=int, default=None,
                        metavar="N",
                        help="per-run heartbeat cadence in safe points "
                             "(default 25; 0 disables)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="retry budget per run before quarantine "
                             "(default 3)")
    parser.add_argument("--tenants", default=None, metavar="PATH",
                        help="JSON file of per-tenant quota overrides: "
                             '{"<tenant>": {"max_in_flight": N, '
                             '"max_pending": N, "budget": {...}}}')
    parser.add_argument("--trace", action="store_true",
                        help="give workers JSONL trace shards")
    return parser


def _load_tenants(path: str):
    """Parse a ``--tenants`` quota file: tenant name -> quota object,
    each checked against ``TenantQuota``'s type hints."""
    from repro.api import check, parse

    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    check(document, dict, f"tenants file {path!r}")
    return {tenant: parse(spec, "quota", f"tenant {tenant!r}")
            for tenant, spec in document.items()}


def front_door_main(argv: List[str]) -> int:
    import signal

    from repro.batch import RetryPolicy
    from repro.errors import RequestError
    from repro.obs.live import DEFAULT_EVERY
    from repro.serve import ServeConfig, TenantQuota, serve_app

    args = build_front_door_parser().parse_args(argv)
    try:
        quotas = _load_tenants(args.tenants) if args.tenants else {}
    except (OSError, json.JSONDecodeError, RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    heartbeat = DEFAULT_EVERY if args.heartbeat_every is None \
        else (args.heartbeat_every or None)
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        out_dir=args.out_dir, heartbeat_every=heartbeat, trace=args.trace,
        retry=RetryPolicy(max_attempts=args.max_attempts)
        if args.max_attempts else None,
        default_quota=TenantQuota(max_in_flight=args.max_in_flight,
                                  max_pending=args.max_pending),
        quotas=quotas)
    try:
        app = serve_app(config)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"serving symsim front door on http://{app.host}:{app.port} "
          f"({args.workers} worker(s), out_dir={app.out_dir}; "
          "SIGINT/SIGTERM drains and stops)", flush=True)

    def _drain(signum, frame):
        raise KeyboardInterrupt

    # explicit handlers: SIGTERM (service managers) drains like Ctrl-C,
    # and background-job shells that start us with SIGINT ignored get
    # the handler back
    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        print("draining in-flight runs...", flush=True)
    finally:
        app.close(drain=True)
    return 0


_SUBCOMMANDS = {
    "report": report_main,
    "batch": batch_main,
    "mutate": mutate_main,
    "top": top_main,
    "status": status_main,
    "serve-metrics": serve_metrics_main,
    "serve": front_door_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = build_arg_parser().parse_args(argv)
    defines = {}
    for item in args.define:
        name, _, value = item.partition("=")
        defines[name] = value
    want_profile = args.profile or args.profile_out is not None
    try:
        obs = Observability.from_flags(
            trace_out=args.trace_out,
            trace_jsonl=args.trace_jsonl,
            metrics=args.metrics_out is not None or args.bdd_latency,
            profile=want_profile,
        )
    except OSError as exc:
        print(f"error: cannot open trace output: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("error: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    aborted = None
    try:
        # Flags route through the same repro.serve.request/1 schema a
        # manifest or HTTP submission uses.
        options = api.options_from_flags(args, obs=obs)
        sim = open_sim(path=args.source, top=args.top, options=options,
                       defines=defines, resume=args.resume)
        if args.bdd_latency:
            sim.mgr.instrument_latency(obs.metrics)
        result = sim.run(until=args.until)
    except SimulationAborted as exc:
        # Structured abort: the guard exhausted its mitigation ladder
        # (or hit a hard budget).  Report, keep the partial result, and
        # exit 4 so scripts can distinguish this from a plain error.
        print(f"aborted: {exc}", file=sys.stderr)
        if exc.partial_result is None:
            return 4
        aborted = exc
        result = exc.partial_result
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if obs is not None:
            obs.close()
    mode = "random" if args.random_seed is not None else "symbolic"
    if aborted is not None:
        ended = "aborted by resource guard"
    elif result.interrupted:
        ended = "interrupted at a safe point"
    elif result.finished:
        ended = "$finish"
    else:
        ended = "queue empty/bound"
    print(f"[{mode}] simulation ended at time {result.time} ({ended})")
    if args.stats:
        print(f"[stats] {result.stats.summary()}")
        cache = sim.mgr.cache_stats()
        managed = args.gc_threshold is not None or args.dyn_reorder
        # where a managed run's time went: timings stay on the cpu=
        # line, which every output comparison filters out
        spent = (f" gc={cache['gc_seconds']:.3f}s "
                 f"reorder={cache['reorder_seconds']:.3f}s"
                 if managed else "")
        # the native store's tables at their peak: a figure of the
        # store, not of the design, so it also stays on the cpu= line
        table_bytes = sim.mgr.arena.table_bytes()
        tables = ("" if table_bytes is None
                  else f" bdd-tables={table_bytes / 2**20:.2f}MiB")
        print(f"[stats] cpu={sim.kernel.cpu_seconds:.3f}s "
              f"bdd-nodes={sim.mgr.total_nodes} "
              f"bdd-peak={sim.mgr.peak_nodes}{tables}{spent}")
        print(f"[stats] bdd kernel: {sim.mgr.bdd_kernel}")
        heartbeat = getattr(sim.kernel, "_heartbeat", None)
        if heartbeat is not None:
            sink = heartbeat.path or "(in-process only)"
            print(f"[stats] heartbeats={heartbeat.beats} "
                  f"every={heartbeat.every} safe-points sink={sink}")
        print(f"[stats] fastpath-word={cache['fastpath_word_ops']} "
              f"fastpath-sym={cache['fastpath_symbolic_ops']} "
              f"concrete-ratio={cache['fastpath_word_ratio']:.3f} "
              f"apply-hit-rate={cache['apply_hit_rate']:.3f}")
        print(f"[stats] function-calls={cache['function_calls']} "
              f"memo-hits={cache['call_memo_hits']} "
              f"memo-derived={cache['call_memo_derived']}")
        ctier = sim.kernel.compile_tier_stats()
        if ctier is not None:
            print(f"[stats] compile-blocks={ctier['blocks']} "
                  f"compile-reused={ctier['reused']} "
                  f"compile-fused={ctier['fused_instructions']} "
                  f"compile-hits={ctier['tier_hits']} "
                  f"compile-misses={ctier['tier_misses']} "
                  f"compile-build={ctier['build_seconds']:.3f}s")
        if managed:
            print(f"[stats] gc-runs={cache['gc_runs']} "
                  f"gc-reclaimed={cache['gc_reclaimed']} "
                  f"reorder-runs={cache['reorder_runs']} "
                  f"reorder-swaps={cache['reorder_swaps']} "
                  f"reorder-saved={cache['reorder_saved']}")
    if args.metrics_out is not None:
        try:
            obs.metrics.write_json(args.metrics_out)
        except OSError as exc:
            print(f"error: cannot write {args.metrics_out}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"[obs] metrics written to {args.metrics_out}")
    if args.trace_out is not None:
        print(f"[obs] chrome trace written to {args.trace_out}")
    if args.trace_jsonl is not None:
        print(f"[obs] trace JSONL written to {args.trace_jsonl}")
    if args.heartbeat is not None:
        print(f"[obs] heartbeat status: {args.heartbeat}")
    if want_profile:
        document = sim.kernel.profile_document()
        if args.profile_out is not None:
            try:
                with open(args.profile_out, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=2)
                    handle.write("\n")
            except OSError as exc:
                print(f"error: cannot write {args.profile_out}: {exc}",
                      file=sys.stderr)
                return 2
            print(f"[obs] profile written to {args.profile_out}")
        if args.profile:
            from repro.obs.report import format_profile

            print(format_profile(document, top=args.profile_top))
    for violation in result.violations:
        print(violation)
    if result.violations and args.resimulate:
        print("--- concrete resimulation of the first violation ---")
        try:
            concrete = sim.resimulate(result.violations[0])
        except ReproError as exc:
            print(f"resimulation failed: {exc}", file=sys.stderr)
            return 3
        print(f"resimulation reproduced {len(concrete.violations)} "
              f"violation(s) at time {concrete.time}")
    if aborted is not None:
        return 4
    if result.interrupted:
        return 130
    return 1 if result.violations else 0


if __name__ == "__main__":
    sys.exit(main())
