"""Front-door latency: submit→result over HTTP, cold vs cached.

One claim: the content-addressed result cache makes resubmission of an
identical request much cheaper than executing it.  The benchmark boots
a real :class:`~repro.serve.ServeApp` (HTTP server + scheduler + one
worker process), measures the full submit→result wall time for a cold
run (compile + queue + worker round trip), then resubmits the
identical request ``CACHED_ROUNDS`` times and takes the median cache
latency.  The gate: cached submissions must beat the cold path by
``CACHE_SPEEDUP_FLOOR`` — conservative, since the cold path crosses a
process boundary and the cached one never leaves the scheduler lock.

The measured cells (``cold_ms``, ``cached_ms``, ``cache_speedup``)
land in ``benchmarks/results/serve.metrics.json``.
"""

from __future__ import annotations

import json
import statistics
import time
import urllib.request

from repro.serve import serve_app

from benchmarks.conftest import report, report_json

#: cached submissions must beat the cold submit→result path by this
#: factor (conservative: the cold path spans compile + a worker
#: process round trip, the cached one is an in-memory lookup).
CACHE_SPEEDUP_FLOOR = 2.0

CACHED_ROUNDS = 20

SOURCE = """
module tb;
  reg [7:0] acc; reg [3:0] d;
  initial begin
    acc = 0;
    repeat (8) begin
      #10 d = $random;
      acc = acc + d;
    end
    $finish;
  end
endmodule
"""


def _submit_and_fetch(url: str, spec: dict) -> float:
    """Wall seconds for one full submit→result exchange."""
    started = time.perf_counter()
    request = urllib.request.Request(
        f"{url}/v1/runs", data=json.dumps(spec).encode("utf-8"),
        method="POST")
    with urllib.request.urlopen(request, timeout=60) as resp:
        rid = json.loads(resp.read())["id"]
    with urllib.request.urlopen(
            f"{url}/v1/runs/{rid}/result?wait=30", timeout=60) as resp:
        payload = resp.read()
        cache = resp.headers["X-Serve-Cache"]
    elapsed = time.perf_counter() - started
    outcome = json.loads(payload)
    assert outcome["status"] == "ok", outcome
    return elapsed, cache


def test_serve_latency(benchmark, tmp_path):
    def run():
        spec = {"source": SOURCE, "options": {"seed": 11}}
        with serve_app(workers=1, out_dir=str(tmp_path / "serve")) as app:
            app.start()
            cold, cache = _submit_and_fetch(app.url, spec)
            assert cache == "miss", "first submission must execute"
            laps = []
            for _ in range(CACHED_ROUNDS):
                elapsed, cache = _submit_and_fetch(app.url, spec)
                assert cache == "hit", "resubmission must dedup"
                laps.append(elapsed)
        cached = statistics.median(laps)
        speedup = cold / cached
        assert speedup >= CACHE_SPEEDUP_FLOOR, (
            f"cached submit→result only {speedup:.1f}x faster than cold "
            f"(floor {CACHE_SPEEDUP_FLOOR}x): cold {cold * 1e3:.1f}ms, "
            f"cached {cached * 1e3:.1f}ms")

        results = {
            "cold_ms": round(cold * 1e3, 3),
            "cached_ms": round(cached * 1e3, 3),
            "cache_speedup": round(speedup, 2),
        }
        report("serve", [
            "Front-door submit→result latency (1 worker)",
            f"{'path':>8s} {'wall':>10s}",
            f"{'cold':>8s} {results['cold_ms']:>8.1f}ms",
            f"{'cached':>8s} {results['cached_ms']:>8.1f}ms",
            f"cache speedup {results['cache_speedup']:.1f}x "
            f"(floor {CACHE_SPEEDUP_FLOOR}x, median of {CACHED_ROUNDS})",
        ])
        report_json("serve", results)

    benchmark.pedantic(run, rounds=1, iterations=1)
