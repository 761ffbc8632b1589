"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload symbolic --seed 1 --trace 0

The run repeats rounds of the workload until ``--seconds`` have
passed (default: ``run_seconds`` of ``BENCHMARK.json``), and at least
two rounds.  Before each round and after the last it repeats the
round's set-up a few times on its own (set-up replicas).  With
``--trace 0`` nothing is wrapped and the last line of standard output
carries the end-to-end metrics: ``wall_s`` (median round), ``setup_s``
(median over the rounds' and the replicas' set-up times) and
``peak_rss_mb``.  With ``--trace 1`` rounds alternate untraced and
traced (under the layer ledger of ``ledger.py``) and the line carries the
per-layer metrics, medians over the traced rounds.  Either way every
operation's outputs are checked; the line reports how many operations
were attempted and how many failed.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")

#: A run lasts ``--seconds`` and at least this many rounds, so that
#: ``wall_s`` is never a single round (a ``symbolic`` round takes most
#: of the default run) and a traced run has an untraced round too.
MIN_ROUNDS = 2

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def benchmark() -> dict:
    """``BENCHMARK.json``: run length, workloads and metric names."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(round_) -> dict:
    """Per-layer metrics of one traced round."""
    own = round_.layers["self"]
    calls = round_.layers["calls"]
    count = round_.counters()
    wall = round_.wall_s

    def c(key):
        return count.get(key, 0)

    run_batch_s = round_.layers["incl"].get("batch.run_batch", 0.0)
    busy = round_.extra.get("batch.worker_busy_s", 0.0)
    workers = round_.extra.get("batch.workers", 1)
    attributed = sum(own.values())
    return {
        "frontend.parse_s": own.get("frontend.parse", 0.0),
        "frontend.elaborate_s": own.get("frontend.elaborate", 0.0),
        "frontend.calls": (calls.get("frontend.parse", 0)
                           + calls.get("frontend.elaborate", 0)),
        "compile.compile_s": own.get("compile.compile", 0.0),
        "compile.programs": calls.get("compile.compile", 0),
        "compile.codegen_s": own.get("compile.codegen", 0.0),
        "compile.tier_hit_ratio": _ratio(
            c("compile.tier_hits"),
            c("compile.tier_hits") + c("compile.tier_misses")),
        "sim.kernel_init_s": own.get("sim.kernel_init", 0.0),
        "sim.run_self_s": own.get("sim.run", 0.0),
        "sim.run_self_share": _ratio(own.get("sim.run", 0.0), wall),
        "sim.events": c("sim.events"),
        "sim.instructions": c("sim.instructions"),
        "sim.vcd_bytes": c("sim.vcd_bytes"),
        "sim.merge_ratio": _ratio(c("sim.events_merged"),
                                  c("sim.events_scheduled")),
        "fourval.word_ops": c("bdd.fastpath_word_ops"),
        "fourval.symbolic_ops": c("bdd.fastpath_symbolic_ops"),
        "fourval.word_ratio": _ratio(
            c("bdd.fastpath_word_ops"),
            c("bdd.fastpath_word_ops") + c("bdd.fastpath_symbolic_ops")),
        "bdd.apply_s": own.get("bdd.apply", 0.0),
        "bdd.apply_share": _ratio(own.get("bdd.apply", 0.0), wall),
        "bdd.apply_calls": calls.get("bdd.apply", 0),
        "bdd.ite_misses": c("bdd.ite_misses"),
        "bdd.apply_misses": c("bdd.apply_misses"),
        "bdd.ite_hit_ratio": _ratio(c("bdd.ite_hits"),
                                    c("bdd.ite_hits") + c("bdd.ite_misses")),
        "bdd.apply_hit_ratio": _ratio(
            c("bdd.apply_hits"), c("bdd.apply_hits") + c("bdd.apply_misses")),
        "bdd.peak_nodes": c("bdd.peak_nodes"),
        "bdd.gc_s": own.get("bdd.gc", 0.0),
        "bdd.gc_reclaimed": c("bdd.gc_reclaimed"),
        "bdd.reorder_s": own.get("bdd.reorder", 0.0),
        "bdd.reorder_swaps": c("bdd.reorder_swaps"),
        "guard.save_s": own.get("guard.save", 0.0),
        "guard.load_s": own.get("guard.load", 0.0),
        "guard.checkpoint_bytes": c("guard.checkpoint_bytes"),
        "resim.replay_s": own.get("resim.replay", 0.0),
        "resim.replays": c("resim.replays"),
        "batch.run_batch_s": run_batch_s,
        "batch.worker_busy_s": busy,
        "batch.overhead_s": (run_batch_s - busy / workers
                             if run_batch_s else 0.0),
        "batch.attempts": c("batch.attempts"),
        "batch.retries": c("batch.retries"),
        "batch.journal_bytes": round_.extra.get("batch.journal_bytes", 0),
        "mutate.plan_s": own.get("mutate.plan", 0.0),
        "mutate.campaign_self_s": own.get("mutate.campaign", 0.0),
        "mutate.mutants": c("mutate.mutants"),
        "mutate.score": c("mutate.score"),
        "ledger.unattributed_s": wall - attributed,
        "ledger.coverage": _ratio(attributed, wall),
        "trace.wall_s": wall,
    }


def judge(rounds, goldens, exact: bool, log) -> tuple:
    """Count ``(attempted, failed)`` operations over all rounds.

    An operation fails on a raised exception, a failed requirement, a
    value that differs from its golden (when ``exact``), or a value or
    work counter that differs from the first round's -- every round
    repeats the same seed, traced or not.
    """
    attempted = failed = 0
    first = rounds[0]
    traced = [round_ for round_ in rounds if round_.layers is not None]
    for index, round_ in enumerate(rounds):
        names = list(round_.ops)
        if exact:
            names += [name for name in goldens if name not in round_.ops]
        # traced rounds must also agree on how often each layer ran
        calls_differ = (round_.layers is not None
                        and round_.layers["calls"] != traced[0].layers["calls"])
        for name in names:
            attempted += 1
            op = round_.ops.get(name)
            if op is None:
                problems = ["did not run"]
            else:
                problems = list(op.problems)
                if exact:
                    for key, value in goldens.get(name, {}).items():
                        got = op.observed.get(key)
                        if got != value:
                            problems.append(
                                f"{key} = {got!r}, golden {value!r}")
                reference = first.ops.get(name)
                if (reference is None
                        or reference.observed != op.observed
                        or reference.counters != op.counters):
                    problems.append("outputs differ from round 0")
            if calls_differ:
                problems.append("layer call counts differ between traced "
                                "rounds")
                calls_differ = False
            if problems:
                failed += 1
                log(f"round {index} {name}: FAILED: " + "; ".join(problems))
    return attempted, failed


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _clear(directory: str) -> None:
    for entry in os.listdir(directory):
        path = os.path.join(directory, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.unlink(path)


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: str, goldens: dict, log=lambda line: None) -> dict:
    """Run rounds of workload ``name``; return the result object."""
    import calibration
    from ledger import Ledger
    from workloads import DEFAULT_SEED, WORKLOADS, Round, prepare

    workload = WORKLOADS[name]
    ledger = Ledger() if trace else None
    # a traced run reports host seconds only
    clock = calibration.Clock(scaling=not trace)
    rounds, setup = [], []

    def replicas() -> None:
        gc.collect()
        if workload.specs is not None:
            for _ in range(workload.setup_repeats):
                specs = workload.specs(Round(seed, workdir))
                host, scaled = clock.read()
                seconds = prepare(specs)[1]
                host_end, scaled_end = clock.read()
                setup.append(seconds * (scaled_end - scaled)
                             / (host_end - host))
            gc.collect()

    started = time.perf_counter()
    clock.start()
    try:
        while True:
            # set-up replicas (in a traced run only a warm-up)
            replicas()
            # a traced run alternates untraced and traced rounds
            traced = trace and len(rounds) % 2 == 1
            if traced:
                ledger.install()
                ledger.reset()
            round_ = Round(seed, workdir, ledger if traced else None, clock)
            workload.run(round_)
            round_.mark()
            if traced:
                ledger.uninstall()
                round_.layers = ledger.snapshot()
            if round_.setup_s is not None:
                setup.append(round_.setup_s)
            rounds.append(round_)
            _clear(workdir)
            log(f"round {len(rounds) - 1}{' (traced)' if traced else ''}: "
                f"wall {round_.wall_s:.3f}s "
                f"scaled {round_.scaled_wall_s:.3f}s setup {round_.setup_s}")
            if (time.perf_counter() - started >= seconds
                    and len(rounds) >= MIN_ROUNDS):
                break
        # a last batch of replicas, so that they sample the run's start,
        # middle and end
        replicas()
    finally:
        clock.stop()
        if ledger is not None:
            ledger.uninstall()

    log(f"setup: {len(setup)} samples, min {min(setup):.4f}s "
        f"median {statistics.median(setup):.4f}s max {max(setup):.4f}s")
    exact = seed == DEFAULT_SEED or not workload.uses_seed
    attempted, failed = judge(rounds, goldens.get(name, {}), exact, log)
    if trace:
        untraced_wall = statistics.median(
            round_.wall_s for round_ in rounds if round_.layers is None)
        per_round = [layer_metrics(round_) for round_ in rounds
                     if round_.layers is not None]
        values = {key: statistics.median(m[key] for m in per_round)
                  for key in per_round[0]}
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_ratio"] = _ratio(values["trace.wall_s"],
                                                untraced_wall)
        listed = benchmark()["per_layer"]
        if {metric["name"] for metric in listed} != set(values):
            raise RuntimeError("per-layer metrics differ from BENCHMARK.json")
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in listed}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r.scaled_wall_s
                                                  for r in rounds),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)

    # The host slows each vCPU on its own (two pinned loops of the
    # calibration kernel were uncorrelated), so the kernel and the work
    # it scales must share one: pin the run, and the campaign's worker,
    # which inherits the affinity, to a single CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Every file the run writes stays inside the checkout.
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, goldens,
                         log=lambda line: print(line, file=sys.stderr,
                                                flush=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
