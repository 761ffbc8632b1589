"""Durable-queue benchmarks: what do leases, journaling and retry
bookkeeping cost when nothing fails?

The durability machinery (``repro.batch.queue`` + ``journal``) runs on
*every* batch, so its happy-path overhead is a tax on all of
``bench_batch``'s numbers.  The gate here bounds that tax: the Table-1
mix with the full durability stack armed (journal on, retries on, a
lease timeout ticking) may cost at most ``OVERHEAD_CEIL`` over the
same mix with the stack stripped to its minimum (no journal, no retry
policy).  The two sides run in alternating pairs, and the gate reads
the median of the per-pair ratios, so drift over the test and a few
disturbed pairs cannot decide it.  Two micro cells record the raw
component costs — journal appends and queue lease/fail/complete
cycles per second — so a regression in either is visible even while
the end-to-end ratio hides in simulation noise.  Everything lands in
``benchmarks/results/``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.batch import RetryPolicy, RunRequest, run_batch
from repro.batch.journal import BatchJournal
from repro.batch.queue import JobQueue
from repro.designs import load
from repro.sim import SimOptions

from benchmarks.conftest import report, report_json

#: the armed durability stack may cost at most this factor over the
#: stripped pool on the Table-1 mix (median of the per-pair ratios).
OVERHEAD_CEIL = 1.05
#: (bare, durable) pairs, alternating which side runs first.
PAIRS = 21

#: the Table-1 design mix, same workload sizes as bench_table1/bench_batch
TABLE1_MIX = {
    "dram": ({"bursts": 2}, 3000),
    "risc8": ({"runtime": 180}, 400),
    "gcd": ({"rounds": 1, "width": 5}, 5000),
}

_RESULTS: dict = {}


def _mix_requests(copies: int = 2):
    requests = []
    for design, (params, until) in TABLE1_MIX.items():
        source, top, defines = load(design, **params)
        for copy in range(copies):
            requests.append(RunRequest(
                name=f"{design}-{copy}", source=source, top=top,
                defines=defines, until=until,
                options=SimOptions(
                    concrete_random=copy if copy else None),
            ))
    return requests


def _timed(requests, out_dir, **kwargs):
    started = time.perf_counter()
    batch = run_batch(requests, workers=2, out_dir=out_dir,
                      trace=False, write_metrics=False, **kwargs)
    elapsed = time.perf_counter() - started
    assert batch.ok, batch.summary()
    assert batch.retries == 0, "happy path must not retry"
    return elapsed, batch


# ---------------------------------------------------------------------
# end-to-end: durability armed vs stripped on the Table-1 mix
# ---------------------------------------------------------------------

def test_queue_overhead(benchmark, tmp_path):
    def run():
        requests = _mix_requests(copies=2)
        policy = RetryPolicy(max_attempts=3, lease_timeout=300.0)
        plans = {"bare": dict(journal=False),
                 "durable": dict(journal=True, retry=policy)}
        walls = {"bare": [], "durable": []}
        reference = None
        for pair in range(PAIRS):
            # alternate the order so warm-up and drift cannot bias one
            # side
            order = ("bare", "durable") if pair % 2 == 0 \
                else ("durable", "bare")
            for tag in order:
                out = str(tmp_path / f"{tag}{pair}")
                elapsed, batch = _timed(requests, out, **plans[tag])
                walls[tag].append(elapsed)
                payloads = [outcome.result for outcome in batch]
                if reference is None:
                    reference = payloads
                else:
                    # the durability stack must never touch results
                    assert payloads == reference, \
                        f"results diverged with {tag} durability"
        ratio = statistics.median(
            durable / bare
            for bare, durable in zip(walls["bare"], walls["durable"]))
        _RESULTS["overhead/bare_wall"] = statistics.median(walls["bare"])
        _RESULTS["overhead/durable_wall"] = \
            statistics.median(walls["durable"])
        _RESULTS["overhead/retry_overhead"] = ratio
        assert ratio <= OVERHEAD_CEIL, (
            f"durability stack costs {ratio:.3f}x the stripped pool "
            f"(median of {PAIRS} pairs; ceiling {OVERHEAD_CEIL}x)")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# micro: journal append + queue lifecycle throughput
# ---------------------------------------------------------------------

class _Req:
    def __init__(self, name):
        self.name = name


def test_queue_micro(benchmark, tmp_path):
    def run():
        appends = 20_000
        journal = BatchJournal.create(
            str(tmp_path / "journal.jsonl"),
            {"r": "fp"}, "cat-sha")
        started = time.perf_counter()
        for index in range(appends):
            journal.attempt("r", 1, "start", worker_pid=index)
        journal.close()
        elapsed = time.perf_counter() - started
        _RESULTS["micro/journal_appends_per_second"] = appends / elapsed

        cycles = 20_000
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        queue = JobQueue(
            [(_Req(f"r{i}"), f"fp-{i}") for i in range(cycles)], policy)
        started = time.perf_counter()
        while not queue.finished():
            lease = queue.lease(0, 1)
            if lease.attempt == 1:
                queue.fail(lease.name, "worker-lost", "bench")
            else:
                queue.complete(lease.name, _Req(lease.name))
        elapsed = time.perf_counter() - started
        # each job = lease + fail + lease + complete
        _RESULTS["micro/queue_cycles_per_second"] = cycles / elapsed
        assert queue.retries == cycles

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# report
# ---------------------------------------------------------------------

def test_queue_report(benchmark):
    def build_report():
        if "overhead/bare_wall" not in _RESULTS:
            pytest.skip("overhead benchmark did not run")
        ratio = _RESULTS["overhead/retry_overhead"]
        lines = [
            "Durable-queue overhead, Table-1 mix x2 on 2 workers",
            f"  stripped pool (no journal, no retry): "
            f"{_RESULTS['overhead/bare_wall']:.2f}s (median)",
            f"  durability armed (journal + leases + retries): "
            f"{_RESULTS['overhead/durable_wall']:.2f}s (median)",
            f"  overhead: {ratio:.3f}x, median of {PAIRS} alternating "
            f"pairs (gate: <= {OVERHEAD_CEIL}x)",
        ]
        if "micro/journal_appends_per_second" in _RESULTS:
            lines.append(
                f"  journal appends/s: "
                f"{_RESULTS['micro/journal_appends_per_second']:,.0f}")
            lines.append(
                f"  queue lease/fail/complete cycles/s: "
                f"{_RESULTS['micro/queue_cycles_per_second']:,.0f}")
        report("queue", lines)
        report_json("queue", dict(_RESULTS))

    benchmark.pedantic(build_report, rounds=1, iterations=1)
