"""The BATCHJRNL/1 journal: request fingerprints, round trips, torn
and corrupt lines, and resume verification."""

from __future__ import annotations

import json

import pytest

from repro.batch import RunRequest
from repro.batch.journal import (
    JOURNAL_SCHEMA, BatchJournal, catalog_sha, read_journal,
    request_fingerprint,
)
from repro.errors import BatchError
from repro.guard import Fault, FaultInjector, ResourceBudgets
from repro.sim import SimOptions

SRC = "module tb; initial $finish; endmodule"


def _fp(**kwargs):
    defaults = dict(name="r", source=SRC)
    defaults.update(kwargs)
    return request_fingerprint(RunRequest(**defaults), "design-fp")


# ---------------------------------------------------------------------------
# fingerprints


class TestRequestFingerprint:
    def test_stable_for_equal_requests(self):
        assert _fp() == _fp()

    def test_semantic_fields_change_it(self):
        base = _fp()
        assert _fp(until=100) != base
        assert _fp(vcd=True) != base
        assert _fp(options=SimOptions(concrete_random=7)) != base
        assert _fp(options=SimOptions(
            budgets=ResourceBudgets(max_events=10))) != base
        # a different design fingerprint changes it too
        assert request_fingerprint(
            RunRequest(name="r", source=SRC), "other-design") != base

    def test_operational_fields_do_not_change_it(self):
        base = _fp()
        assert _fp(options=SimOptions(heartbeat_every=99)) == base
        assert _fp(options=SimOptions(heartbeat_path="/tmp/x.json")) == base
        assert _fp(options=SimOptions(vcd_path="/tmp/w.vcd")) == base
        assert _fp(options=SimOptions(checkpoint_dir="/tmp/ck")) == base
        assert _fp(options=SimOptions(defer_interrupt=True)) == base
        # the compiled tier is bit-identical to the interpreter, so
        # toggling it must not invalidate a resumable journal
        assert _fp(options=SimOptions(compile_tier=False)) == base

    def test_fault_plans_are_fingerprinted(self):
        injector = FaultInjector([Fault("interrupt", at_step=3)])
        with_faults = _fp(options=SimOptions(faults=injector))
        assert with_faults != _fp()
        again = _fp(options=SimOptions(
            faults=FaultInjector([Fault("interrupt", at_step=3)])))
        assert with_faults == again
        # attempt scoping is semantic
        scoped = _fp(options=SimOptions(faults=FaultInjector(
            [Fault("interrupt", at_step=3, on_attempt=1)])))
        assert scoped != with_faults

    def test_request_method_delegates(self):
        request = RunRequest(name="r", source=SRC)
        assert request.fingerprint("design-fp") == \
            request_fingerprint(request, "design-fp")

    def test_catalog_sha_orders_keys(self):
        assert catalog_sha({"a": b"1", "b": b"2"}) == \
            catalog_sha({"b": b"9", "a": b"0"})  # values don't matter
        assert catalog_sha({"a": b""}) != catalog_sha({"c": b""})


# ---------------------------------------------------------------------------
# journal write / read round trips


def _journal(tmp_path, runs=None):
    path = str(tmp_path / "journal.jsonl")
    journal = BatchJournal.create(
        path, runs or {"a": "fp-a", "b": "fp-b"}, "cat-sha")
    return path, journal


class TestJournalRoundTrip:
    def test_round_trip(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.attempt("a", 1, "start", worker_pid=7)
        journal.attempt("a", 2, "requeue", failure_kind="worker-lost",
                        error="died", worker_pid=7, delay=0.5)
        journal.terminal("a", {"name": "a", "status": "ok"})
        journal.close()

        state = read_journal(path)
        assert state.catalog_sha == "cat-sha"
        assert state.runs == {"a": "fp-a", "b": "fp-b"}
        assert state.terminal == {"a": {"name": "a", "status": "ok"}}
        events = [(r["attempt"], r["event"]) for r in state.attempts["a"]]
        assert events == [(1, "start"), (2, "requeue")]
        assert state.attempts["a"][1]["failure_kind"] == "worker-lost"

    def test_reopen_appends_resume_marker(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.terminal("a", {"name": "a", "status": "ok"})
        journal.close()
        BatchJournal.reopen(path, restored=1).close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[-1] == {"kind": "resume", "restored": 1}
        # a reopen never clobbers earlier records
        assert read_journal(path).terminal["a"]["status"] == "ok"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.terminal("a", {"name": "a", "status": "ok"})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "terminal", "run": "b", "outc')
        state = read_journal(path)
        assert set(state.terminal) == {"a"}

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.terminal("a", {"name": "a", "status": "ok"})
        journal.close()
        text = open(path, encoding="utf-8").read().splitlines()
        # corruption must sit *before* the end: a torn line is only
        # forgiven when it is the final append
        text[1] = "{broken"
        text.append(json.dumps({"kind": "terminal", "run": "b",
                                "outcome": {}}))
        open(path, "w", encoding="utf-8").write("\n".join(text) + "\n")
        with pytest.raises(BatchError, match="corrupt at line 2"):
            read_journal(path)

    def test_missing_empty_and_headerless_files(self, tmp_path):
        with pytest.raises(BatchError, match="cannot read"):
            read_journal(str(tmp_path / "nope.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(BatchError, match="is empty"):
            read_journal(str(empty))
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text('{"kind": "terminal", "run": "a", '
                              '"outcome": {}}\n')
        with pytest.raises(BatchError, match="header"):
            read_journal(str(headerless))

    def test_unsupported_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": "header", "schema": "BATCHJRNL/99", "runs": {}}) + "\n")
        with pytest.raises(BatchError, match="unsupported schema"):
            read_journal(str(path))

    @pytest.mark.parametrize("record, match", [
        ({"kind": "terminal"}, '"outcome" is required'),
        ({"kind": "terminal", "run": "b"}, '"outcome" is required'),
        ({"kind": "terminal", "run": 3, "outcome": {}},
         '"run" must be a string'),
        ({"kind": "terminal", "run": "b", "outcome": []},
         '"outcome" must be an object'),
        ({"kind": "attempt", "run": "b"}, '"attempt" is required'),
        ({"kind": "attempt", "run": "b", "attempt": "1", "event": "start"},
         '"attempt" must be an integer'),
        ({"kind": "terminal", "run": "b", "outcome": {}, "zap": 1},
         r"unknown keys \['zap'\]"),
        ({"kind": 5}, '"kind" must be a string'),
        ({"run": "b"}, '"kind" must be a string'),
        (["terminal"], "line 2 is not an object"),
    ], ids=["terminal-bare", "terminal-no-outcome", "terminal-run-int",
            "terminal-outcome-array", "attempt-no-attempt",
            "attempt-string", "terminal-unknown-key", "kind-int",
            "kind-missing", "array"])
    def test_malformed_middle_record_is_one_error_line(self, tmp_path,
                                                       record, match):
        path, journal = _journal(tmp_path)
        journal.terminal("a", {"name": "a", "status": "ok"})
        journal.close()
        text = open(path, encoding="utf-8").read().splitlines()
        text.insert(1, json.dumps(record))
        open(path, "w", encoding="utf-8").write("\n".join(text) + "\n")
        with pytest.raises(BatchError, match=match) as info:
            read_journal(path)
        assert "line 2" in str(info.value) and "\n" not in str(info.value)

    @pytest.mark.parametrize("runs", [["a"], "a", {"a": 1}, None])
    def test_header_runs_must_map_names_to_fingerprints(self, tmp_path,
                                                        runs):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps(
            {"kind": "header", "schema": JOURNAL_SCHEMA,
             "catalog_sha": "c", "runs": runs}) + "\n")
        with pytest.raises(BatchError, match='"runs" must be an object of '
                                             'strings') as info:
            read_journal(str(path))
        assert "\n" not in str(info.value)

    def test_audit_records_are_not_read_back(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.append({"kind": "submitted", "run": "a", "tenant": "t"})
        journal.append({"kind": "close"})
        journal.close()
        state = read_journal(path)
        assert state.runs == {"a": "fp-a", "b": "fp-b"}
        assert state.terminal == {} and state.attempts == {}


# ---------------------------------------------------------------------------
# resume verification


class TestVerify:
    def _state(self, tmp_path):
        path, journal = _journal(tmp_path)
        journal.close()
        return read_journal(path)

    def test_matching_manifest_passes(self, tmp_path):
        state = self._state(tmp_path)
        state.verify({"a": "fp-a", "b": "fp-b"}, "cat-sha")

    def test_run_set_mismatch(self, tmp_path):
        state = self._state(tmp_path)
        with pytest.raises(BatchError, match="run set differs") as err:
            state.verify({"a": "fp-a", "c": "fp-c"}, "cat-sha")
        assert "\n" not in str(err.value)  # single-line contract

    def test_fingerprint_mismatch(self, tmp_path):
        state = self._state(tmp_path)
        with pytest.raises(BatchError, match="fingerprint changed") as err:
            state.verify({"a": "fp-a", "b": "fp-EDITED"}, "cat-sha")
        assert "\n" not in str(err.value)

    def test_catalog_mismatch(self, tmp_path):
        state = self._state(tmp_path)
        with pytest.raises(BatchError, match="design catalog changed"):
            state.verify({"a": "fp-a", "b": "fp-b"}, "other-cat")
