"""Batch engine: determinism across pool widths, failure isolation,
manifest loading, and the ``symsim batch`` CLI."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.batch import (
    BatchResult, RunOutcome, RunRequest, load_manifest, run_batch,
)
from repro.errors import BatchError
from repro.guard import ResourceBudgets
from repro.obs import Observability, Tracer
from repro.sim import SimOptions, SimStatus

COUNTER = """
module tb;
  reg clk; reg [3:0] d; reg [7:0] acc;
  initial clk = 0;
  always #5 clk = !clk;
  initial begin
    acc = 0;
    repeat (4) begin
      @(posedge clk) d = $random;
      acc = acc + d;
    end
    $assert(acc != 60);
    #1 $finish;
  end
endmodule
"""

HANG = """
module tb;
  reg x;
  initial begin
    x = 0;
    while (1) x = !x;
  end
endmodule
"""


def _mix(seeds=(None, 1, 2)):
    return [
        RunRequest(
            name=f"counter-{'sym' if seed is None else seed}",
            source=COUNTER, vcd=True,
            options=SimOptions(concrete_random=seed),
        )
        for seed in seeds
    ]


# ---------------------------------------------------------------------------
# request validation / pickling


def test_request_requires_exactly_one_source():
    with pytest.raises(BatchError):
        RunRequest(name="x")
    with pytest.raises(BatchError):
        RunRequest(name="x", source="module m; endmodule", path="a.v")
    with pytest.raises(BatchError):
        RunRequest(name="", source="module m; endmodule")


def test_request_pickles_with_frozen_defines():
    request = RunRequest(name="r", source=COUNTER,
                         defines={"A": "1"}, until=50)
    clone = pickle.loads(pickle.dumps(request))
    assert clone == request
    assert dict(clone.defines) == {"A": "1"}
    with pytest.raises(TypeError):
        clone.defines["A"] = "2"


def test_requests_with_same_design_share_a_key():
    a = RunRequest(name="a", source=COUNTER,
                   options=SimOptions(concrete_random=1))
    b = RunRequest(name="b", source=COUNTER,
                   options=SimOptions(concrete_random=2))
    assert a.design_key() == b.design_key()


def test_batch_rejects_duplicates_and_obs_bundles():
    dup = [RunRequest(name="same", source=COUNTER),
           RunRequest(name="same", source=COUNTER)]
    with pytest.raises(BatchError, match="duplicate"):
        run_batch(dup, workers=1)
    wired = RunRequest(
        name="wired", source=COUNTER,
        options=SimOptions(obs=Observability(tracer=Tracer())))
    with pytest.raises(BatchError, match="obs bundle"):
        run_batch([wired], workers=1)
    with pytest.raises(BatchError):
        run_batch([], workers=1)
    with pytest.raises(BatchError):
        run_batch(_mix(), workers=0)


# ---------------------------------------------------------------------------
# determinism: pool width must not be observable in results


def test_one_vs_four_workers_identical_results(tmp_path):
    narrow = run_batch(_mix(), workers=1, out_dir=str(tmp_path / "w1"))
    wide = run_batch(_mix(), workers=4, out_dir=str(tmp_path / "w4"))
    assert [outcome.name for outcome in narrow] == \
        [outcome.name for outcome in wide]
    for left, right in zip(narrow, wide):
        assert left.status is right.status
        # the full result payload — status, output, violations with
        # traces, metrics — must be byte-for-byte independent of the
        # pool width
        assert left.result == right.result
        with open(left.vcd_path, "rb") as a, open(right.vcd_path, "rb") as b:
            assert a.read() == b.read(), f"VCD differs for {left.name}"


def test_streamed_callbacks_cover_every_run(tmp_path):
    seen = []
    batch = run_batch(_mix(), workers=2, out_dir=str(tmp_path),
                      on_result=seen.append)
    assert sorted(outcome.name for outcome in seen) == \
        sorted(outcome.name for outcome in batch)
    assert all(isinstance(outcome, RunOutcome) for outcome in seen)


# ---------------------------------------------------------------------------
# failure isolation: one bad run never kills the batch


def test_abort_hang_and_ok_coexist(tmp_path):
    requests = [
        RunRequest(name="ok", source=COUNTER,
                   options=SimOptions(concrete_random=1)),
        RunRequest(name="starved", source=COUNTER,
                   options=SimOptions(
                       budgets=ResourceBudgets(max_events=3,
                                               max_concretizations=0))),
        RunRequest(name="spinner", source=HANG,
                   options=SimOptions(max_step_activity=200)),
    ]
    batch = run_batch(requests, workers=2, out_dir=str(tmp_path))
    assert len(batch) == 3
    assert batch["ok"].status is SimStatus.OK
    assert batch["starved"].status is SimStatus.ABORTED
    assert batch["starved"].error
    assert batch["spinner"].status is SimStatus.HANG
    assert not batch.ok
    assert batch.counts() == {"ok": 1, "aborted": 1, "hang": 1}
    payload = batch.to_dict()
    assert payload["schema"] == "repro.batch.result/1"
    assert {run["name"] for run in payload["runs"]} == \
        {"ok", "starved", "spinner"}


# ---------------------------------------------------------------------------
# artifacts: merged trace + aggregated metrics


def test_merged_trace_has_one_lane_per_worker(tmp_path):
    batch = run_batch(_mix(), workers=2, out_dir=str(tmp_path))
    assert batch.trace_path and os.path.exists(batch.trace_path)
    with open(batch.trace_path) as handle:
        document = json.load(handle)
    assert document["schema"] == "repro.obs.trace/1"
    pids = {event["pid"] for event in document["traceEvents"]}
    worker_pids = {outcome.worker_pid for outcome in batch}
    assert pids == worker_pids
    names = {event["args"]["name"]
             for event in document["traceEvents"] if event["ph"] == "M"}
    assert names == {f"worker {pid}" for pid in worker_pids}
    spans = [event for event in document["traceEvents"]
             if event.get("ph") == "B" and event["name"].startswith("run:")]
    assert {span["name"] for span in spans} == \
        {f"run:{outcome.name}" for outcome in batch}


def test_aggregated_metrics(tmp_path):
    batch = run_batch(_mix(), workers=1, out_dir=str(tmp_path))
    registry = batch.metrics
    assert registry.get("batch.runs") is not None
    assert registry.get("batch.workers").value == 1
    assert registry.get("batch.designs_compiled").value == 1
    per_run = registry.get("batch.run_events_processed")
    for outcome in batch:
        child = per_run.labels(run=outcome.name)
        assert child.value == outcome.result["metrics"]["events_processed"]
        assert child.value > 0
    with open(batch.metrics_path) as handle:
        assert json.load(handle)["schema"] == "repro.obs.metrics/1"


def test_compile_once_per_unique_design(tmp_path):
    batch = run_batch(_mix(), workers=1, out_dir=str(tmp_path))
    assert batch.designs_compiled == 1


def test_structural_twins_get_distinct_programs():
    """Catalog regression: the compile-once catalog must key designs by
    source *content*, not by structural fingerprint.

    Two designs that differ only in one operator (e.g. a mutant and
    its baseline) have identical net tables and instruction counts; a
    structural fingerprint collides and silently runs one design in
    place of the other.
    """
    plus = """
module tb;
  reg [3:0] x;
  initial begin
    x = 4'd3 + 4'd1;
    $assert(x == 4'd4);
  end
endmodule
"""
    minus = plus.replace("4'd3 + 4'd1", "4'd3 - 4'd1")
    for order in ([("plus", plus), ("minus", minus)],
                  [("minus", minus), ("plus", plus)]):
        batch = run_batch(
            [RunRequest(name=name, source=source)
             for name, source in order],
            workers=1)
        assert batch.designs_compiled == 2
        assert batch["plus"].status is SimStatus.OK
        assert batch["minus"].status is SimStatus.ASSERT_FAILED


# ---------------------------------------------------------------------------
# manifest loading


def test_manifest_roundtrip(tmp_path):
    design = tmp_path / "mini.v"
    design.write_text(COUNTER)
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps({
        "defaults": {"vcd": True, "until": 200,
                     "options": {"accumulation": "full"}},
        "runs": [
            {"name": "builtin", "design": "gcd",
             "params": {"rounds": 1, "width": 3}, "until": 3000},
            {"name": "from-file", "path": "mini.v",
             "options": {"seed": 7}},
            {"name": "inline", "source": COUNTER,
             "options": {"budget": {"max_events": 100000}}},
        ],
    }))
    requests = load_manifest(str(manifest))
    assert [request.name for request in requests] == \
        ["builtin", "from-file", "inline"]
    builtin, from_file, inline = requests
    assert builtin.top == "gcd_tb"
    assert builtin.until == 3000  # run overrides the default
    assert dict(builtin.defines)["GCD_W"] == "3"
    assert from_file.path == str(design)
    assert from_file.until == 200  # default applies
    assert from_file.vcd is True
    assert from_file.options.concrete_random == 7
    assert inline.options.budgets.max_events == 100000


@pytest.mark.parametrize("document, match", [
    ({"runs": []}, "non-empty"),
    ({}, "runs"),
    ({"runs": [{"design": "gcd"}]}, "name"),
    ({"runs": [{"name": "x"}]}, "exactly one"),
    ({"runs": [{"name": "x", "design": "gcd", "source": "m"}]},
     "exactly one"),
    ({"runs": [{"name": "x", "path": "nope.v"}]}, "not found"),
    ({"runs": [{"name": "x", "design": "nonesuch"}]}, "unknown design"),
    ({"runs": [{"name": "x", "source": "m",
                "options": {"bogus": 1}}]}, "unknown option"),
    ({"runs": [{"name": "x", "source": "m",
                "options": {"accumulation": "sideways"}}]},
     "accumulation"),
])
def test_manifest_rejects_malformed(tmp_path, document, match):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(document))
    with pytest.raises(BatchError, match=match):
        load_manifest(str(path))


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text("{nope")
    with pytest.raises(BatchError, match="JSON"):
        load_manifest(str(path))
    with pytest.raises(BatchError, match="read"):
        load_manifest(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# CLI


def _write_manifest(tmp_path, runs):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_cli_batch_ok(tmp_path, capsys):
    from repro.cli import main

    manifest = _write_manifest(tmp_path, [
        {"name": "a", "source": COUNTER, "options": {"seed": 1}},
        {"name": "b", "source": COUNTER, "options": {"seed": 2}},
    ])
    code = main(["batch", manifest, "--workers", "2",
                 "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 runs on 2 workers" in out
    assert "merged chrome trace" in out


def test_cli_batch_exit_codes(tmp_path, capsys):
    from repro.cli import main

    failing = _write_manifest(tmp_path, [
        {"name": "sym", "source": COUNTER},  # symbolic: assert can fail
    ])
    assert main(["batch", failing, "--quiet", "--no-trace",
                 "--out-dir", str(tmp_path / "o1")]) == 1
    hanging = _write_manifest(tmp_path, [
        {"name": "h", "source": HANG,
         "options": {"max_step_activity": 200}},
    ])
    assert main(["batch", hanging, "--quiet", "--no-trace",
                 "--out-dir", str(tmp_path / "o2")]) == 4
    capsys.readouterr()


def test_cli_batch_bad_manifest(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "jobs.json"
    path.write_text("not json")
    assert main(["batch", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_batch_non_utf8_source(tmp_path, capsys):
    """A manifest naming a non-UTF-8 file fails with one error line."""
    from repro import api
    from repro.cli import main
    from repro.errors import RequestError

    bad = tmp_path / "latin1.v"
    bad.write_bytes(b'module tb; initial $display("\xff"); endmodule\n')
    manifest = _write_manifest(tmp_path, [{"name": "a", "path": "latin1.v"}])
    assert main(["batch", manifest, "--quiet", "--no-trace",
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "latin1.v" in err and "UTF-8" in err
    # the inline read (mutation manifests) reports it as a request error
    with pytest.raises(RequestError, match="UTF-8"):
        api.resolve_design({"path": "latin1.v"}, str(tmp_path), "runs[0]",
                           inline=True)
