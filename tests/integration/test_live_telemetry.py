"""Live telemetry end to end: kernel heartbeats, batch status files
and stall detection, the ``symsim top``/``status``/``serve-metrics``/
``report`` CLI surfaces, and one real HTTP scrape.

Uses ``repro.open_sim`` (not the deprecated ``from_source`` shims) so
the suite stays free of DeprecationWarnings.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro import SimOptions, open_sim
from repro.batch import RunRequest, run_batch
from repro.batch.engine import _watch_stalls
from repro.cli import main
from repro.errors import BatchError
from repro.obs.live import (
    SCHEMA, deterministic_view, read_status, scan_status, write_status,
)
from repro.obs.serve import MetricsServer, build_scrape_source

COUNTER = """
module tb;
  reg clk; reg [3:0] d; reg [7:0] acc;
  initial clk = 0;
  always #5 clk = !clk;
  initial begin
    acc = 0;
    repeat (8) begin
      @(posedge clk) d = $random;
      acc = acc + d;
    end
    #1 $finish;
  end
endmodule
"""

WEDGE = """
module tb;
  reg x;
  initial begin
    x = 0;
    while (1) x = !x;
  end
endmodule
"""


def _requests(count, **option_kwargs):
    return [RunRequest(name=f"counter-{index}", source=COUNTER,
                       options=SimOptions(**option_kwargs))
            for index in range(count)]


# ---------------------------------------------------------------------------
# kernel heartbeats


class TestKernelHeartbeat:
    def test_status_file_reaches_terminal_state(self, tmp_path):
        path = str(tmp_path / "run.json")
        sim = open_sim(COUNTER, options=SimOptions(
            heartbeat_path=path, heartbeat_every=2,
            heartbeat_name="hb-run", echo_output=False))
        sim.run()
        record = read_status(path)
        assert record["schema"] == SCHEMA
        assert record["name"] == "hb-run"
        assert record["status"] == "ok"
        assert record["events_processed"] > 0
        assert record["seq"] > 0

    def test_heartbeat_payloads_deterministic_across_runs(self):
        def run_once():
            beats = []
            sim = open_sim(COUNTER, options=SimOptions(
                heartbeat_every=2, heartbeat_callback=beats.append,
                heartbeat_name="same", echo_output=False))
            sim.run()
            views = [deterministic_view(b) for b in beats]
            return beats, hashlib.sha256(
                json.dumps(views, sort_keys=True).encode()).hexdigest()

        beats_a, hash_a = run_once()
        beats_b, hash_b = run_once()
        assert len(beats_a) == len(beats_b) > 1
        assert hash_a == hash_b
        # the raw records differ (wall clocks), only the views agree
        assert beats_a[-1]["status"] == "ok"

    def test_aborted_run_stamps_terminal_status(self, tmp_path):
        from repro.errors import SimulationAborted
        from repro.guard import ResourceBudgets

        path = str(tmp_path / "abort.json")
        sim = open_sim(COUNTER, options=SimOptions(
            heartbeat_path=path, heartbeat_every=1, echo_output=False,
            budgets=ResourceBudgets(max_events=5, max_concretizations=0)))
        with pytest.raises(SimulationAborted):
            sim.run()
        assert read_status(path)["status"] == "aborted"

    def test_heartbeat_options_visible_in_repr(self):
        options = SimOptions(heartbeat_path="s.json", heartbeat_every=7)
        text = repr(options)
        assert "heartbeat_path='s.json'" in text
        assert "heartbeat_every=7" in text


# ---------------------------------------------------------------------------
# batch: per-run status files + stall detection


class TestBatchTelemetry:
    def test_four_worker_batch_emits_per_run_status(self, tmp_path):
        out = str(tmp_path / "batch")
        result = run_batch(_requests(4), workers=4, out_dir=out,
                           heartbeat_every=2, trace=False)
        assert result.ok
        assert result.status_dir == os.path.join(out, "status")
        records = scan_status([result.status_dir])
        assert [r["name"] for r in records] == \
            [f"counter-{i}" for i in range(4)]
        assert all(r["status"] == "ok" for r in records)
        pids = {r["pid"] for r in records}
        assert len(pids) > 1  # really ran on multiple workers
        assert result.to_dict()["status_dir"] == result.status_dir

    def test_hung_run_status_file_reaches_hang(self, tmp_path):
        out = str(tmp_path / "batch")
        requests = [RunRequest(name="wedge", source=WEDGE,
                               options=SimOptions(max_step_activity=2000))]
        result = run_batch(requests, workers=1, out_dir=out,
                           heartbeat_every=2, trace=False)
        assert result["wedge"].status.value == "hang"
        record = read_status(os.path.join(out, "status", "wedge.json"))
        assert record["status"] == "hang"
        assert record["error"]

    def test_heartbeats_disabled(self, tmp_path):
        out = str(tmp_path / "batch")
        result = run_batch(_requests(1), workers=1, out_dir=out,
                           heartbeat_every=None, trace=False)
        assert result.status_dir is None
        assert not os.path.exists(os.path.join(out, "status"))

    def test_callback_rejected_and_stall_needs_heartbeats(self, tmp_path):
        bad = [RunRequest(name="cb", source=COUNTER,
                          options=SimOptions(heartbeat_callback=print))]
        with pytest.raises(BatchError, match="heartbeat_callback"):
            run_batch(bad, workers=1, out_dir=str(tmp_path))
        with pytest.raises(BatchError, match="stall_after"):
            run_batch(_requests(1), workers=1, out_dir=str(tmp_path),
                      heartbeat_every=None, stall_after=1.0)

    def test_watch_stalls_fires_once_per_wedged_run(self, tmp_path):
        status_dir = str(tmp_path / "status")
        stale = {"schema": SCHEMA, "name": "stuck", "status": "running",
                 "ts_unix": time.time() - 120.0}
        write_status(os.path.join(status_dir, "stuck.json"), stale)
        write_status(os.path.join(status_dir, "fine.json"),
                     {"schema": SCHEMA, "name": "fine",
                      "status": "running", "ts_unix": time.time()})
        write_status(os.path.join(status_dir, "done.json"),
                     {"schema": SCHEMA, "name": "done", "status": "ok",
                      "ts_unix": time.time() - 120.0})
        fired = []
        seen = set()
        for _ in range(3):  # repeated polls must not re-fire
            _watch_stalls(status_dir, ["stuck", "fine", "done"], seen,
                          stall_after=30.0, on_stall=fired.append)
        assert [h.name for h in fired] == ["stuck"]
        assert fired[0].age_seconds > 30.0
        # a stalled run that is no longer in flight is not reported
        seen.clear()
        fired.clear()
        _watch_stalls(status_dir, ["fine"], seen, stall_after=30.0,
                      on_stall=fired.append)
        assert fired == []

    def test_run_batch_reports_stall_through_polling_loop(self, tmp_path):
        """End to end through run_batch's wait/poll loop.

        The run itself is healthy; its status file is pre-seeded with
        an ancient ``running`` record and the worker's heartbeat period
        is set beyond the run's safe points, so the record stays stale
        while the run is genuinely in flight — exactly what a wedged
        worker looks like from the controller.
        """
        out = str(tmp_path / "batch")
        write_status(os.path.join(out, "status", "counter-0.json"),
                     {"schema": SCHEMA, "name": "counter-0",
                      "status": "running", "ts_unix": time.time() - 300.0})
        stalls = []
        # a run that outlasts the controller's first wait (stall_after
        # / 2) by a wide margin: COUNTER alone takes ~15 ms
        request = RunRequest(name="counter-0",
                             source=COUNTER.replace("repeat (8)",
                                                    "repeat (24)"),
                             options=SimOptions())
        result = run_batch([request], workers=1, out_dir=out,
                           heartbeat_every=10_000_000, trace=False,
                           stall_after=0.05, on_stall=stalls.append)
        assert result.stalled_runs == ["counter-0"]
        assert [h.name for h in stalls] == ["counter-0"]
        # the batch still drained fine; terminal status overwrote stale
        assert result.ok
        assert read_status(os.path.join(
            out, "status", "counter-0.json"))["status"] == "ok"

    def test_healthy_batch_reports_no_stalls(self, tmp_path):
        result = run_batch(_requests(2), workers=2,
                           out_dir=str(tmp_path / "batch"),
                           heartbeat_every=2, trace=False,
                           stall_after=300.0)
        assert result.stalled_runs == []


# ---------------------------------------------------------------------------
# CLI surfaces


@pytest.fixture(scope="module")
def status_dir(tmp_path_factory):
    """One finished two-run batch whose status dir the CLI tests read."""
    out = str(tmp_path_factory.mktemp("cli-batch"))
    run_batch(_requests(2), workers=2, out_dir=out, heartbeat_every=2,
              trace=False, write_metrics=True)
    return os.path.join(out, "status")


class TestTelemetryCli:
    def test_top_once(self, status_dir, capsys):
        assert main(["top", status_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "RUN" in out and "counter-0" in out and "counter-1" in out
        assert "2 runs: 0 running, 2 done" in out

    def test_top_once_empty_dir(self, tmp_path, capsys):
        assert main(["top", str(tmp_path), "--once"]) == 0
        assert "(no heartbeat records found)" in capsys.readouterr().out

    def test_status_json(self, status_dir, capsys):
        assert main(["status", status_dir, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in records] == ["counter-0", "counter-1"]
        assert all(r["schema"] == SCHEMA for r in records)

    def test_serve_metrics_once(self, status_dir, capsys):
        assert main(["serve-metrics", "--status", status_dir,
                     "--once"]) == 0
        body = capsys.readouterr().out
        assert 'symsim_run_info{run="counter-0",status="ok"} 1' in body
        assert body.endswith("# EOF\n")

    def test_serve_metrics_requires_a_source(self, capsys):
        assert main(["serve-metrics", "--once"]) == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_run_cli_heartbeat_and_stats(self, tmp_path, capsys):
        design = tmp_path / "tb.v"
        design.write_text(COUNTER)
        status = tmp_path / "hb.json"
        code = main([str(design), "--quiet", "--stats",
                     "--heartbeat", str(status),
                     "--heartbeat-every", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[stats] heartbeats=" in out
        assert f"[obs] heartbeat status: {status}" in out
        assert read_status(str(status))["status"] == "ok"

    def test_report_rejects_malformed_metrics_file(self, tmp_path,
                                                   capsys):
        bad = tmp_path / "metrics.json"
        bad.write_text("{definitely not json")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot render {bad}")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_report_empty_and_list_files(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "file is empty" in capsys.readouterr().err
        listing = tmp_path / "list.json"
        listing.write_text("[]")
        assert main(["report", str(listing)]) == 2
        err = capsys.readouterr().err
        assert "not an observability document" in err
        assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# one real scrape over HTTP


class TestMetricsServer:
    def test_scrape_status_and_healthz(self, status_dir):
        source = build_scrape_source(status_paths=[status_dir])
        with MetricsServer(source) as server:  # port=0: ephemeral
            server.watch_status([status_dir])
            server.start()
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "application/openmetrics-text")
                body = resp.read().decode()
            assert "symsim_run_sim_time" in body
            assert body.endswith("# EOF\n")
            base = f"http://{server.host}:{server.port}"
            with urllib.request.urlopen(f"{base}/status",
                                        timeout=10) as resp:
                assert len(json.load(resp)) == 2
            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10) as resp:
                assert resp.read() == b"ok\n"

    def test_unknown_route_404(self, status_dir):
        source = build_scrape_source(status_paths=[status_dir])
        with MetricsServer(source) as server:
            server.start()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope",
                    timeout=10)
            assert excinfo.value.code == 404
