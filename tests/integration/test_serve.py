"""End-to-end tests of the ``repro.serve`` front door.

Boots real :class:`ServeApp` instances (stdlib HTTP server + scheduler
+ worker processes) and talks to them over the wire: concurrent
multi-tenant submission, quota rejection (429 + ``Retry-After``),
result-cache dedup (byte-identical payloads, operational-change hits
vs semantic-change misses), malformed-request 400s, graceful
shutdown draining to a ``BATCHJRNL/1`` journal, and the batch retry
policy applied to served runs (worker loss, lease-timeout kills).
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.batch import (
    JOURNAL_NAME, JOURNAL_SCHEMA, RetryPolicy, read_journal,
)
from repro.batch.worker import CHAOS_KILL_ENV
from repro.serve import (
    Scheduler, ServeConfig, ServeUnavailable, TenantQuota, serve_app,
)

OK_SOURCE = """
module t;
  reg [7:0] k;
  initial begin
    k = 0;
    repeat (4) #10 k = k + 1;
    $finish;
  end
endmodule
"""

ASSERT_SOURCE = """
module t;
  reg [1:0] a;
  initial begin
    a = $random;
    $assert(a != 2);
  end
endmodule
"""

SLOW_SOURCE = """
module t;
  reg [15:0] k;
  initial begin
    k = 0;
    repeat (3000) #1 k = k + 1;
    $finish;
  end
endmodule
"""


def _request(url: str, method: str = "GET", doc=None):
    """(status, headers, body-bytes) for one HTTP exchange."""
    data = json.dumps(doc).encode("utf-8") if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _submit(app, doc):
    return _request(f"{app.url}/v1/runs", "POST", doc)


def _result(app, rid, wait=30):
    return _request(f"{app.url}/v1/runs/{rid}/result?wait={wait}")


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("serve"))
    config = ServeConfig(
        workers=2, out_dir=out_dir,
        quotas={"capped": TenantQuota(max_pending=0)})
    with serve_app(config) as running:
        running.start()
        yield running


# ---------------------------------------------------------------------
# the basic protocol
# ---------------------------------------------------------------------


def test_submit_status_result_roundtrip(app):
    code, headers, body = _submit(
        app, {"schema": "repro.serve.request/1", "source": OK_SOURCE,
              "options": {"seed": 101}})
    assert code == 202
    doc = json.loads(body)
    rid = doc["id"]
    assert headers["Location"] == f"/v1/runs/{rid}"
    assert doc["state"] in ("queued", "running")
    assert doc["cached"] is False

    code, headers, body = _result(app, rid)
    assert code == 200
    assert headers["X-Serve-Cache"] == "miss"
    outcome = json.loads(body)
    assert outcome["status"] == "ok" and outcome["ok"] is True

    code, _, body = _request(f"{app.url}/v1/runs/{rid}")
    assert code == 200
    status = json.loads(body)
    assert status["state"] == "done" and status["status"] == "ok"


def test_unknown_run_is_404(app):
    for sub in ("", "/result", "/trace"):
        code, _, body = _request(f"{app.url}/v1/runs/nope{sub}")
        assert code == 404
        assert "no run" in json.loads(body)["error"]


def test_healthz_status_and_metrics(app):
    code, _, body = _request(f"{app.url}/healthz")
    assert (code, body) == (200, b"ok\n")
    code, _, body = _request(f"{app.url}/status")
    assert code == 200 and isinstance(json.loads(body), list)
    code, headers, body = _request(f"{app.url}/metrics")
    assert code == 200
    assert "openmetrics" in headers["Content-Type"]
    exposition = body.decode("utf-8")
    assert "serve.submitted" in exposition.replace("_", ".")
    assert exposition.endswith("# EOF\n")


# ---------------------------------------------------------------------
# dedup: byte-identity, operational hits, semantic misses
# ---------------------------------------------------------------------


def test_dedup_is_byte_identical(app):
    spec = {"source": OK_SOURCE, "options": {"seed": 202}}
    code, _, body = _submit(app, spec)
    assert code == 202
    cold_id = json.loads(body)["id"]
    _, _, cold_payload = _result(app, cold_id)

    code, _, body = _submit(app, spec)
    assert code == 200  # served from cache at submission time
    doc = json.loads(body)
    assert doc["cached"] is True and doc["state"] == "done"
    assert doc["id"] != cold_id

    code, headers, hit_payload = _result(app, doc["id"])
    assert code == 200
    assert headers["X-Serve-Cache"] == "hit"
    assert hit_payload == cold_payload  # byte-identical, not just equal
    assert b"cached" not in hit_payload  # the marker is out-of-band


def test_operational_change_hits_semantic_change_misses(app):
    spec = {"source": OK_SOURCE, "options": {"seed": 303}}
    _, _, body = _submit(app, spec)
    _result(app, json.loads(body)["id"])

    operational = {"source": OK_SOURCE,
                   "options": {"seed": 303, "heartbeat_every": 50}}
    _, _, body = _submit(app, operational)
    assert json.loads(body)["cached"] is True

    semantic = {"source": OK_SOURCE, "options": {"seed": 304}}
    code, _, body = _submit(app, semantic)
    assert code == 202
    assert json.loads(body)["cached"] is False
    _result(app, json.loads(body)["id"])


def test_trace_endpoint_serves_violations(app):
    spec = {"source": ASSERT_SOURCE}  # symbolic $random: a == 2 reachable
    _, _, body = _submit(app, spec)
    rid = json.loads(body)["id"]
    code, _, body = _result(app, rid)
    assert code == 200
    assert json.loads(body)["status"] == "assert_failed"

    code, _, body = _request(f"{app.url}/v1/runs/{rid}/trace")
    assert code == 200
    trace = json.loads(body)
    assert trace["status"] == "assert_failed"
    assert trace["violations"], "expected at least one violation"

    # verdict statuses cache: the failing run dedups too
    _, _, body = _submit(app, spec)
    assert json.loads(body)["cached"] is True


# ---------------------------------------------------------------------
# quotas and malformed requests
# ---------------------------------------------------------------------


def test_quota_rejection_is_429_with_retry_after(app):
    code, headers, body = _submit(
        app, {"tenant": "capped", "source": OK_SOURCE})
    assert code == 429
    assert int(headers["Retry-After"]) >= 1
    error = json.loads(body)["error"]
    assert "max_pending" in error and "\n" not in error


@pytest.mark.parametrize("doc, fragment", [
    ({"source": OK_SOURCE, "schema": "repro.serve.request/0"},
     "unsupported schema"),
    ({}, "exactly one"),
    ({"source": OK_SOURCE, "path": "x.v"}, "exactly one"),
    ({"path": "relative.v"}, "must be absolute"),
    ({"source": OK_SOURCE, "options": {"bogus": 1}}, "unknown option"),
    ({"source": OK_SOURCE, "tenant": ""}, "non-empty"),
    ({"source": "module t; syntax error"}, ""),  # compile error -> 400
    ({"source": OK_SOURCE, "options": {"gc_threshold": "abc"}},
     "'gc_threshold' must be an integer"),
    ({"source": OK_SOURCE, "until": "abc"}, '"until" must be'),
    ({"source": OK_SOURCE, "top": ["t"]}, '"top" must be a string'),
    ({"source": OK_SOURCE, "defines": {"A": 3}},
     '"defines" must be an object of strings'),
])
def test_malformed_requests_are_400(app, doc, fragment):
    code, _, body = _submit(app, doc)
    assert code == 400
    error = json.loads(body)["error"]
    assert fragment in error
    assert "\n" not in error  # single-line contract


def test_non_json_body_is_400(app):
    req = urllib.request.Request(
        f"{app.url}/v1/runs", data=b"not json {", method="POST")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(req, timeout=30)
    assert info.value.code == 400
    assert "not valid JSON" in json.loads(info.value.read())["error"]


# ---------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------


def test_concurrent_tenants_all_complete(app):
    results = {}
    errors = []

    def drive(tenant: str, seed: int) -> None:
        try:
            spec = {"tenant": tenant, "source": OK_SOURCE,
                    "options": {"seed": seed}}
            code, _, body = _submit(app, spec)
            assert code in (200, 202), body
            rid = json.loads(body)["id"]
            code, _, payload = _result(app, rid)
            assert code == 200, payload
            results[rid] = json.loads(payload)["status"]
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(f"team-{index % 3}",
                                             500 + index))
        for index in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert len(results) == 6
    assert set(results.values()) == {"ok"}


# ---------------------------------------------------------------------
# tenancy clamps and coalescing (scheduler level)
# ---------------------------------------------------------------------


def test_tenant_quota_clamps_budgets():
    from repro.guard import ResourceBudgets
    from repro.sim import SimOptions

    quota = TenantQuota(budgets=ResourceBudgets(
        wall_seconds=60, max_live_nodes=1000, max_concretizations=4))
    # a request without budgets inherits the ceilings outright
    inherited = quota.clamp(SimOptions()).budgets
    assert inherited.wall_seconds == 60
    assert inherited.max_live_nodes == 1000
    assert inherited.max_concretizations == 4
    # asking for less is allowed; more is clamped
    asked = SimOptions(budgets=ResourceBudgets(
        wall_seconds=10, max_live_nodes=99999, max_rss_mb=512,
        max_concretizations=2))
    clamped = quota.clamp(asked).budgets
    assert clamped.wall_seconds == 10       # under the ceiling
    assert clamped.max_live_nodes == 1000   # clamped down
    assert clamped.max_rss_mb == 512        # no ceiling set
    assert clamped.max_concretizations == 2


def test_identical_in_flight_submissions_coalesce(tmp_path):
    # unstarted scheduler: submissions queue but never dispatch, so the
    # second identical one must coalesce onto the first
    scheduler = Scheduler(ServeConfig(out_dir=str(tmp_path)))
    spec = {"source": OK_SOURCE, "options": {"seed": 7}}
    first = scheduler.submit(dict(spec))
    second = scheduler.submit(dict(spec))
    assert first["state"] == "queued"
    assert second["primary"] == first["id"]
    assert second["fingerprint"] == first["fingerprint"]
    third = scheduler.submit({"source": OK_SOURCE, "options": {"seed": 8}})
    assert "primary" not in third
    scheduler.close()


# ---------------------------------------------------------------------
# graceful shutdown
# ---------------------------------------------------------------------


def test_close_drains_to_journal(tmp_path):
    out_dir = str(tmp_path / "serve")
    running = serve_app(workers=1, out_dir=out_dir).start()
    submitted = []
    for seed in (1, 2, 3):
        _, _, body = _submit(
            running,
            {"source": SLOW_SOURCE, "options": {"seed": seed}})
        submitted.append(json.loads(body)["id"])
    running.close(drain=True)

    path = os.path.join(out_dir, JOURNAL_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert records[0]["kind"] == "header"
    assert records[0]["schema"] == JOURNAL_SCHEMA
    assert records[-1]["kind"] == "close"
    # every submission reached a journaled verdict: ran to completion
    # ("terminal") or was cancelled in the queue — never lost
    fates = {record["run"]: record["kind"] for record in records
             if record["kind"] in ("terminal", "cancelled")}
    assert set(fates) == set(submitted)
    assert all(kind in ("terminal", "cancelled")
               for kind in fates.values())
    # the batch journal reader parses a serve journal as-is
    state = read_journal(path)
    assert set(state.terminal) == {run for run, kind in fates.items()
                                   if kind == "terminal"}


def test_coalesced_followers_journal_the_primary_outcome(tmp_path):
    scheduler = Scheduler(ServeConfig(out_dir=str(tmp_path), workers=1))
    spec = {"source": OK_SOURCE, "options": {"seed": 11}}
    primary = scheduler.submit(dict(spec))
    follower = scheduler.submit(dict(spec))
    assert follower["primary"] == primary["id"]
    scheduler.start()
    assert scheduler.wait_done(follower["id"], 60)
    scheduler.close()
    state = read_journal(os.path.join(str(tmp_path), JOURNAL_NAME))
    assert state.terminal[follower["id"]] == state.terminal[primary["id"]]


def test_closed_scheduler_rejects_submissions(tmp_path):
    scheduler = Scheduler(ServeConfig(out_dir=str(tmp_path)))
    scheduler.close()
    with pytest.raises(ServeUnavailable, match="draining"):
        scheduler.submit({"source": OK_SOURCE})


# ---------------------------------------------------------------------
# durability: the batch retry policy governs served runs
# ---------------------------------------------------------------------

#: A zero-time loop: no heartbeat ever lands, so only a lease timeout
#: gets the worker back.
WEDGE = """
module tb;
  reg x;
  initial begin
    x = 0;
    while (1) x = !x;
  end
endmodule
"""


def _outcome(scheduler, rid):
    assert scheduler.wait_done(rid, 60)
    state, payload, _ = scheduler.result_bytes(rid)
    assert state == "done"
    return json.loads(payload)


def test_lease_timeout_kills_and_quarantines_wedged_run(tmp_path):
    policy = RetryPolicy(max_attempts=2, backoff_base=0.01,
                         lease_timeout=0.75)
    with Scheduler(ServeConfig(out_dir=str(tmp_path), workers=1,
                               retry=policy)) as scheduler:
        scheduler.start()
        rid = scheduler.submit({"source": WEDGE})["id"]
        outcome = _outcome(scheduler, rid)
    assert outcome["quarantined"] is True
    assert outcome["attempts"] == 2
    assert [entry["kind"] for entry in outcome["failure_history"]] == \
        ["stall-kill", "stall-kill"]


def test_worker_loss_requeues_served_run(tmp_path, monkeypatch):
    monkeypatch.setenv(CHAOS_KILL_ENV, "r000001:1")
    policy = RetryPolicy(backoff_base=0.01)
    with Scheduler(ServeConfig(out_dir=str(tmp_path), workers=1,
                               retry=policy)) as scheduler:
        scheduler.start()
        first = scheduler.submit(
            {"source": OK_SOURCE, "options": {"seed": 1}})["id"]
        second = scheduler.submit(
            {"source": OK_SOURCE, "options": {"seed": 2}})["id"]
        assert first == "r000001"
        victim = _outcome(scheduler, first)
        bystander = _outcome(scheduler, second)
        assert scheduler.snapshot(first)["attempts"] == 2
    assert victim["status"] == "ok" and victim["attempts"] == 2
    assert [entry["kind"] for entry in victim["failure_history"]] == \
        ["worker-lost"]
    assert bystander["attempts"] == 1
    state = read_journal(os.path.join(str(tmp_path), JOURNAL_NAME))
    requeues = [record for records in state.attempts.values()
                for record in records if record["event"] == "requeue"]
    assert len(requeues) == 1 and requeues[0]["run"] == first


# ---------------------------------------------------------------------
# the CLI front door
# ---------------------------------------------------------------------


def test_front_door_parser_and_tenant_file(tmp_path):
    from repro.cli import _load_tenants, build_front_door_parser

    args = build_front_door_parser().parse_args(
        ["--port", "0", "--workers", "3", "--max-in-flight", "4"])
    assert args.port == 0 and args.workers == 3
    assert args.max_in_flight == 4

    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({
        "alice": {"max_in_flight": 1, "max_pending": 2,
                  "budget": {"wall_seconds": 30}},
        "bob": {},
    }))
    quotas = _load_tenants(str(tenants))
    assert quotas["alice"].max_in_flight == 1
    assert quotas["alice"].budgets.wall_seconds == 30
    assert quotas["bob"] == TenantQuota()
