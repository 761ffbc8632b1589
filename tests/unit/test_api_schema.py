"""``repro.api`` — the one request/options parsing surface.

Golden parse-equivalence: the three pre-existing entry points (batch
manifests, mutate manifests, the ``symsim`` CLI) are thin adapters
over :mod:`repro.api`, so identical inputs must yield *equal*
``SimOptions`` / ``ResourceBudgets`` / ``RetryPolicy`` objects through
every path.  Plus the semantic/operational split the journal and the
serve result cache share, and the single-line ``RequestError``
contract.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.batch import load_manifest
from repro.batch.journal import read_journal
from repro.batch.manifest import load_policy
from repro.batch.queue import RetryPolicy
from repro.compile.instructions import AccumulationMode
from repro.errors import RequestError
from repro.guard import ResourceBudgets
from repro.mutate.manifest import load_campaign
from repro.sim import SimOptions

OPTIONS_SPEC = {
    "accumulation": "none",
    "seed": 7,
    "gc_threshold": 5000,
    "stop_on_violation": False,
    "budget": {"wall_seconds": 30, "max_live_nodes": 100000},
}


# ---------------------------------------------------------------------
# parse_options / parse_budgets / parse_retry
# ---------------------------------------------------------------------


def test_parse_options_golden():
    options = api.parse_options(OPTIONS_SPEC, "test")
    assert options.accumulation is AccumulationMode.NONE
    assert options.concrete_random == 7
    assert options.gc_threshold == 5000
    assert options.stop_on_violation is False
    assert options.budgets == ResourceBudgets(
        wall_seconds=30, max_live_nodes=100000)


def test_seed_is_sugar_for_concrete_random():
    assert api.parse_options({"seed": 3}, "t") == \
        api.parse_options({"concrete_random": 3}, "t")


def test_accumulation_accepts_name_value_and_enum():
    for form in ("none", "NONE", AccumulationMode.NONE):
        options = api.parse_options({"accumulation": form}, "t")
        assert options.accumulation is AccumulationMode.NONE
    with pytest.raises(RequestError,
                       match="option 'accumulation' must be one of"):
        api.parse_options({"accumulation": "bogus"}, "t")


def test_unknown_option_is_single_line_error():
    with pytest.raises(RequestError,
                       match=r"unknown option keys \['frobnicate'\]"):
        api.parse_options({"frobnicate": 1}, "somewhere")
    try:
        api.parse_options({"frobnicate": 1}, "somewhere")
    except RequestError as exc:
        assert "\n" not in str(exc)
        assert str(exc).startswith("somewhere:")


def test_parse_budgets_rejects_unknown_keys():
    with pytest.raises(RequestError, match="unknown budget keys"):
        api.parse_budgets({"wall_minutes": 5}, "t")
    with pytest.raises(RequestError, match="t is not an object"):
        api.parse_budgets([1, 2], "t")


def test_parse_retry_golden():
    policy = api.parse_retry(
        {"max_attempts": 4, "backoff_base": 0.5,
         "retry_statuses": ["aborted", "hang"], "lease_timeout": 120},
        "t")
    assert policy == RetryPolicy(
        max_attempts=4, backoff_base=0.5,
        retry_statuses=frozenset({"aborted", "hang"}), lease_timeout=120)


def test_parse_retry_folds_policy_validation_into_request_error():
    with pytest.raises(RequestError, match="bad retry object"):
        api.parse_retry({"max_attempts": 0}, "t")
    with pytest.raises(RequestError, match="unknown retry keys"):
        api.parse_retry({"attempts": 3}, "t")
    with pytest.raises(RequestError, match="must be an array"):
        api.parse_retry({"retry_statuses": "aborted"}, "t")


@pytest.mark.parametrize("spec, key", [
    ({"max_attempts": True}, "max_attempts"),
    ({"max_attempts": 2.5}, "max_attempts"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"lease_timeout": True}, "lease_timeout"),
    ({"backoff_base": "fast"}, "backoff_base"),
    ({"retry_statuses": [1, None]}, "retry_statuses"),
    ({"retry_statuses": ["aborted", 2]}, "retry_statuses"),
])
def test_retry_values_are_type_checked(spec, key):
    with pytest.raises(RequestError) as info:
        api.parse_retry(spec, "manifest 'm'")
    message = str(info.value)
    assert message.startswith("manifest 'm':")
    assert key in message and "\n" not in message


def test_retry_values_of_the_right_type_pass():
    policy = api.parse_retry({"seed": 3, "lease_timeout": 1.5,
                              "backoff_cap": 2, "retry_statuses": []}, "t")
    assert policy == RetryPolicy(seed=3, lease_timeout=1.5, backoff_cap=2)
    assert api.parse_retry({"lease_timeout": None}, "t").lease_timeout \
        is None


# ---------------------------------------------------------------------
# the semantic/operational split
# ---------------------------------------------------------------------


def test_operational_options_are_real_fields():
    fields = {f.name for f in dataclasses.fields(SimOptions)}
    assert api.OPERATIONAL_OPTIONS <= fields


def test_semantic_options_exclude_operational_knobs():
    base = SimOptions()
    operational = dataclasses.replace(
        base, heartbeat_every=5, heartbeat_name="x",
        vcd_path="/tmp/x.vcd", compile_tier=not base.compile_tier)
    assert api.semantic_options(base) == api.semantic_options(operational)
    semantic = dataclasses.replace(base, concrete_random=9)
    assert api.semantic_options(base) != api.semantic_options(semantic)


def test_semantic_options_are_json_stable():
    options = api.parse_options(OPTIONS_SPEC, "t")
    folded = api.semantic_options(options)
    assert json.loads(json.dumps(folded, sort_keys=True)) == folded


# ---------------------------------------------------------------------
# run specs
# ---------------------------------------------------------------------

TRIVIAL = "module t; initial $finish; endmodule"


def test_resolve_design_exactly_one_way(tmp_path):
    with pytest.raises(RequestError, match="exactly one"):
        api.resolve_design({}, str(tmp_path), "t")
    with pytest.raises(RequestError, match="exactly one"):
        api.resolve_design({"source": TRIVIAL, "path": "x.v"},
                           str(tmp_path), "t")


def test_resolve_design_requires_absolute_path_without_base_dir(tmp_path):
    design = tmp_path / "t.v"
    design.write_text(TRIVIAL)
    # the HTTP entry point has no manifest directory to anchor on
    with pytest.raises(RequestError, match="must be absolute"):
        api.resolve_design({"path": "t.v"}, None, "t")
    source, path, _, _ = api.resolve_design(
        {"path": str(design)}, None, "t")
    assert path == str(design) and source is None


def test_resolve_design_inline_reads_the_file(tmp_path):
    design = tmp_path / "t.v"
    design.write_text(TRIVIAL)
    source, path, _, _ = api.resolve_design(
        {"path": "t.v"}, str(tmp_path), "t", inline=True)
    assert source == TRIVIAL and path is None


def test_parse_run_merges_defaults_key_wise():
    defaults = {"until": 100, "vcd": True,
                "options": {"seed": 1, "gc_threshold": 9}}
    request = api.parse_run(
        {"name": "a", "source": TRIVIAL, "options": {"seed": 2}},
        defaults=defaults)
    assert request.until == 100 and request.vcd is True
    assert request.options.concrete_random == 2  # spec wins
    assert request.options.gc_threshold == 9     # default survives


@pytest.mark.parametrize("vcd", ["no", 0, 1, None, []])
def test_vcd_must_be_a_boolean(vcd):
    with pytest.raises(RequestError, match='"vcd" must be') as info:
        api.parse_run({"name": "a", "source": TRIVIAL, "vcd": vcd})
    assert str(info.value).startswith("run 'a':")
    with pytest.raises(RequestError, match='"vcd" must be'):
        api.parse_run({"name": "a", "source": TRIVIAL},
                      defaults={"vcd": vcd})
    assert api.parse_run({"name": "a", "source": TRIVIAL,
                          "vcd": False}).vcd is False


def test_parse_run_design_identity_never_from_defaults():
    with pytest.raises(RequestError, match="exactly one"):
        api.parse_run({"name": "a"}, defaults={"source": TRIVIAL})


def test_parse_run_server_assigned_name_overrides_spec():
    request = api.parse_run({"name": "client", "source": TRIVIAL},
                            name="r000001")
    assert request.name == "r000001"


# ---------------------------------------------------------------------
# golden parse-equivalence across the three adapters
# ---------------------------------------------------------------------


def test_batch_manifest_parses_through_api(tmp_path):
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps({
        "defaults": {"until": 50},
        "retry": {"max_attempts": 2, "retry_statuses": ["aborted"]},
        "runs": [{"name": "one", "source": TRIVIAL,
                  "options": dict(OPTIONS_SPEC)}],
    }))
    (request,) = load_manifest(str(manifest))
    assert request.options == api.parse_options(OPTIONS_SPEC, "x")
    assert request.until == 50
    assert load_policy(str(manifest)) == api.parse_retry(
        {"max_attempts": 2, "retry_statuses": ["aborted"]}, "x")


def test_mutate_manifest_parses_through_api(tmp_path):
    manifest = tmp_path / "campaign.json"
    manifest.write_text(json.dumps({
        "source": TRIVIAL,
        "options": dict(OPTIONS_SPEC),
    }))
    config, _workers = load_campaign(str(manifest))
    assert config.options == api.parse_options(OPTIONS_SPEC, "x")
    assert config.source == TRIVIAL


def test_cli_flags_parse_through_api(tmp_path):
    from repro.cli import build_arg_parser

    design = tmp_path / "t.v"
    design.write_text(TRIVIAL)
    args = build_arg_parser().parse_args([
        str(design), "--accumulation", "none", "--random-seed", "7",
        "--gc-threshold", "5000", "--continue-on-violation",
        "--budget-seconds", "30", "--budget-nodes", "100000",
    ])
    options = api.options_from_flags(args)
    golden = api.parse_options(
        {**OPTIONS_SPEC,
         "budget": {"wall_seconds": 30.0, "max_live_nodes": 100000,
                    "max_concretizations": 8}},
        "x")
    # the CLI's operational extras (echo, obs paths) sit on top of the
    # shared semantic schema — the fingerprint halves must agree
    assert api.semantic_options(options)["concrete_random"] == 7
    assert options.budgets == golden.budgets
    assert options.accumulation == golden.accumulation
    assert options.gc_threshold == golden.gc_threshold
    assert options.stop_on_violation is False


def test_adapters_preserve_single_line_errors(tmp_path):
    from repro.errors import BatchError, MutationError

    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps(
        {"runs": [{"name": "one", "source": TRIVIAL,
                   "options": {"bogus": 1}}]}))
    with pytest.raises(BatchError, match=r"unknown option keys \['bogus'\]"):
        load_manifest(str(manifest))

    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps(
        {"source": TRIVIAL, "options": {"bogus": 1}}))
    with pytest.raises(MutationError,
                       match=r"unknown option keys \['bogus'\]"):
        load_campaign(str(campaign))


# ---------------------------------------------------------------------
# value types at the request boundary
# ---------------------------------------------------------------------


@pytest.mark.parametrize("spec, key", [
    ({"gc_threshold": "abc"}, "gc_threshold"),
    ({"seed": 1.5}, "seed"),
    ({"compile_tier": "yes"}, "compile_tier"),
    ({"no_fastpath": 1}, "no_fastpath"),
    ({"reorder_threshold": None}, "reorder_threshold"),
    ({"reorder_growth": True}, "reorder_growth"),
    ({"max_step_activity": [1]}, "max_step_activity"),
    ({"budget": {"max_live_nodes": "x"}}, "max_live_nodes"),
    ({"budget": {"wall_seconds": False}}, "wall_seconds"),
    ({"budget": {"max_concretizations": None}}, "max_concretizations"),
])
def test_option_values_are_type_checked(spec, key):
    with pytest.raises(RequestError) as info:
        api.parse_options(spec, "run 'r'")
    message = str(info.value)
    assert message.startswith("run 'r':")
    assert repr(key) in message and "\n" not in message


def test_option_values_of_the_right_type_pass():
    options = api.parse_options(
        {"seed": None, "gc_threshold": None, "reorder_growth": 3,
         "compile_tier": False,
         "budget": {"wall_seconds": 2, "max_rss_mb": 1.5}}, "t")
    assert options.concrete_random is None
    assert options.reorder_growth == 3 and options.compile_tier is False
    assert options.budgets == ResourceBudgets(wall_seconds=2,
                                              max_rss_mb=1.5)


@pytest.mark.parametrize("until", ["abc", True, -1, 2.5])
def test_until_must_be_a_non_negative_integer_or_null(until):
    with pytest.raises(RequestError, match='"until" must be') as info:
        api.parse_run({"name": "a", "source": TRIVIAL, "until": until})
    assert "\n" not in str(info.value)
    assert api.parse_run({"name": "a", "source": TRIVIAL,
                          "until": None}).until is None


@pytest.mark.parametrize("key, value", [
    ("top", ["t"]),
    ("top", 3),
    ("defines", ["A"]),
    ("defines", {"A": 3}),
    ("defines", {"A": None}),
    ("defines", "A=1"),
])
def test_top_and_defines_are_type_checked(key, value):
    with pytest.raises(RequestError, match=f'"{key}" must be') as info:
        api.parse_run({"name": "a", "source": TRIVIAL, key: value})
    message = str(info.value)
    assert message.startswith("run 'a':") and "\n" not in message


def test_top_and_defines_of_the_right_type_pass():
    request = api.parse_run({"name": "a", "source": TRIVIAL, "top": "t",
                             "defines": {"A": "1", "B": ""}})
    assert request.top == "t" and request.defines == {"A": "1", "B": ""}
    request = api.parse_run({"name": "a", "source": TRIVIAL, "top": None,
                             "defines": None})
    assert request.top is None and request.defines is None
    # explicit defines still override a built-in design's macros
    _, _, _, defines = api.resolve_design(
        {"design": "alu4", "defines": {"ALU_RUNTIME": "9"}}, None, "t")
    assert defines["ALU_RUNTIME"] == "9"


@pytest.mark.parametrize("command, document", [
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL,
                         "options": {"gc_threshold": "abc"}}]}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL, "top": ["t"]}]}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL,
                         "defines": {"A": 3}}]}),
    ("mutate", {"source": TRIVIAL, "seed": True}),
    ("mutate", {"source": TRIVIAL, "verify_witnesses": "no"}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL,
                         "until": "abc"}]}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL,
                         "options": {"budget": {"max_live_nodes": "x"}}}]}),
    ("mutate", {"source": TRIVIAL, "options": {"seed": 1.5}}),
    ("mutate", {"source": TRIVIAL, "until": True}),
    ("batch", {"retry": {"max_attempts": True},
               "runs": [{"name": "r", "source": TRIVIAL}]}),
    ("batch", {"retry": {"retry_statuses": [1, None]},
               "runs": [{"name": "r", "source": TRIVIAL}]}),
    ("mutate", {"source": TRIVIAL, "variants": 5}),
    # every object rejects unknown keys, and values out of range
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL, "untill": 100}]}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL}],
               "defaults": {"vcdd": True}}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL}],
               "defualts": {}}),
    ("batch", {"runs": [{"name": "r", "source": TRIVIAL,
                         "options": {"checkpoint_every": -3}}]}),
    ("batch", {"runs": [{"name": "r", "design": "gcd",
                         "params": {"width": "5"}}]}),
    ("mutate", {"source": TRIVIAL,
                "variants": [{"name": "v", "source": TRIVIAL, "zap": 1}]}),
])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, command,
                                         document):
    from repro.cli import main

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(document))
    code = main([command, str(manifest), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1, err


def test_vcd_no_writes_no_wave(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"runs": [{"name": "r", "design": "gcd", "vcd": "no"}]}))
    out_dir = tmp_path / "o"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert '"vcd" must be a boolean' in err and len(err.splitlines()) == 1
    assert not (out_dir / "runs" / "r" / "wave.vcd").exists()


# ---------------------------------------------------------------------
# one checker: unknown keys, ranges, design params, tenants
# ---------------------------------------------------------------------


@pytest.mark.parametrize("spec, defaults, message", [
    ({"untill": 100}, None, r"run 'a': unknown keys \['untill'\]"),
    ({"vcdd": True}, None, r"unknown keys \['vcdd'\]"),
    ({}, {"untill": 100}, r"run 'a': unknown keys \['untill'\]"),
    ({"options": {"budget": {"wall_minutes": 1}}}, None,
     r"unknown budget keys \['wall_minutes'\]"),
], ids=["run-untill", "run-vcdd", "defaults-untill", "budget-wall_minutes"])
def test_typo_keys_are_refused(spec, defaults, message):
    with pytest.raises(RequestError, match=message) as info:
        api.parse_run({"name": "a", "source": TRIVIAL, **spec},
                      defaults=defaults)
    assert "(known: [" in str(info.value)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("document, message", [
    ({"runs": [{"name": "r", "source": TRIVIAL}], "retyr": {}},
     r"unknown keys \['retyr'\] \(known: \['defaults', 'retry', 'runs'\]\)"),
    ({"runs": [{"name": "r", "source": TRIVIAL}], "defaults": {"vcdd": 1}},
     r"unknown keys \['vcdd'\]"),
    ({"runs": [{"name": "r", "source": TRIVIAL}],
      "defaults": {"source": TRIVIAL}}, r"unknown keys \['source'\]"),
    ({"runs": [{"name": "r", "source": TRIVIAL}], "retry": None},
     '"retry" must be an object'),
], ids=["retyr", "defaults-vcdd", "defaults-source", "retry-null"])
def test_manifest_typo_keys_are_refused(tmp_path, document, message):
    from repro.errors import BatchError

    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps(document))
    with pytest.raises(BatchError, match=message):
        load_manifest(str(manifest))


def test_body_typo_keys_are_refused():
    body = {"source": TRIVIAL, "tenant": "t", "schema": api.REQUEST_SCHEMA}
    request = api.parse_run(body, name="r1", kind="body")
    assert request.name == "r1"
    with pytest.raises(RequestError, match=r"unknown keys \['tenat'\]"):
        api.parse_run({"source": TRIVIAL, "tenat": "t"}, name="r1",
                      kind="body")
    with pytest.raises(RequestError, match=r"unknown keys \['tenant'\]"):
        api.parse_run({"name": "a", "source": TRIVIAL, "tenant": "t"})


@pytest.mark.parametrize("value", [-3, 0, 1.5, True])
def test_checkpoint_every_must_be_positive(value):
    with pytest.raises(RequestError, match="'checkpoint_every' must be an "
                                           "integer >= 1 or null"):
        api.parse_options({"checkpoint_every": value}, "t")
    assert api.parse_options({"checkpoint_every": 1}, "t") \
        .checkpoint_every == 1


@pytest.mark.parametrize("key", ["wall_seconds", "max_live_nodes",
                                 "max_rss_mb", "max_events",
                                 "max_concretizations"])
def test_budget_limits_must_be_non_negative(key):
    with pytest.raises(RequestError, match=f"budget '{key}' must be an? "
                                           r"\w+ >= 0"):
        api.parse_budgets({key: -1}, "t")
    assert getattr(api.parse_budgets({key: 0}, "t"), key) == 0


@pytest.mark.parametrize("params, message", [
    ({"width": "5"}, "params 'width' must be an integer, not '5'"),
    ({"width": True}, "params 'width' must be an integer, not True"),
    ({"rounds": 1.5}, "params 'rounds' must be an integer, not 1.5"),
    ({"widht": 5}, r"unknown params keys \['widht'\] "
                   r"\(known: \['rounds', 'width'\]\)"),
], ids=["width-string", "width-true", "rounds-float", "widht"])
def test_builtin_params_follow_the_loader_signature(params, message):
    with pytest.raises(RequestError, match=message) as info:
        api.parse_run({"name": "a", "design": "gcd", "params": params})
    assert str(info.value).startswith("run 'a':")
    request = api.parse_run({"name": "a", "design": "gcd",
                             "params": {"rounds": 2, "width": 5}})
    assert dict(request.defines) == {"GCD_ROUNDS": "2", "GCD_W": "5"}
    request = api.parse_run({"name": "a", "design": "mcu8",
                             "params": {"fixed": True}})
    assert request.defines["MCU_FIXED"] == "1"


@pytest.mark.parametrize("quota, message", [
    ({"max_in_flight": "x"}, "quota 'max_in_flight' must be an integer"),
    ({"max_in_flight": True}, "quota 'max_in_flight' must be an integer"),
    ({"max_pending": 2.9}, "quota 'max_pending' must be an integer"),
    ({"max_in_flight": 0}, "quota 'max_in_flight' must be an integer >= 1"),
    ({"budget": {"wall_seconds": -1}}, "budget 'wall_seconds' must be"),
    ({"max_inflight": 1}, r"unknown quota keys \['max_inflight'\]"),
], ids=["in_flight-x", "in_flight-true", "pending-2.9", "in_flight-0",
        "budget-negative", "max_inflight"])
def test_tenant_quota_values_follow_the_type_hints(tmp_path, quota,
                                                   message):
    from repro.cli import _load_tenants

    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({"alice": quota}))
    with pytest.raises(RequestError, match=message) as info:
        _load_tenants(str(tenants))
    assert str(info.value).startswith("tenant 'alice':")
    tenants.write_text(json.dumps([quota]))
    with pytest.raises(RequestError, match="is not an object"):
        _load_tenants(str(tenants))


def _resume_case(tmp_path, capsys, record):
    """Run a one-run batch, put ``record`` in the middle of its
    journal, and return the argv that resumes it."""
    from repro.cli import main

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"runs": [{"name": "r", "source": TRIVIAL}]}))
    out_dir = tmp_path / "o"
    argv = ["batch", str(manifest), "--quiet", "--no-trace"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    journal = out_dir / "journal.jsonl"
    lines = journal.read_text().splitlines()
    lines.insert(1, json.dumps(record))
    journal.write_text("\n".join(lines) + "\n")
    return argv + ["--resume", str(out_dir)]


def _tenants_case(tmp_path, capsys, quota):
    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({"alice": quota}))
    return ["serve", "--port", "0", "--tenants", str(tenants)]


def _no_server(config):
    raise AssertionError("a bad --tenants file started the server")


@pytest.mark.parametrize("make, document", [
    (_tenants_case, {"max_in_flight": "x"}),
    (_tenants_case, {"max_in_flight": True}),
    (_tenants_case, {"max_pending": 2.9}),
    (_resume_case, {"kind": "terminal"}),
    (_resume_case, {"kind": "attempt", "run": "r", "attempt": "1",
                    "event": "start"}),
], ids=["tenants-x", "tenants-true", "tenants-2.9", "resume-terminal",
        "resume-attempt"])
def test_bad_documents_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                            make, document):
    from repro.cli import main

    monkeypatch.setattr("repro.serve.serve_app", _no_server)
    argv = make(tmp_path, capsys, document)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1, err


# ---------------------------------------------------------------------
# the docs' JSON examples fit their tables
# ---------------------------------------------------------------------

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"

#: Every JSON example in these docs, in order, and the table it is
#: checked against.  A new example must be listed here.
DOC_EXAMPLES = {
    "BATCH.md": ["manifest"],
    "MUTATION.md": ["campaign"],
    "SERVE.md": ["body", "tenants"],
}


def _doc_examples(name):
    """The JSON examples of one doc: fenced ``json``/``jsonc`` blocks
    and ``curl -d '...'`` bodies, with ``//`` comments stripped."""
    text = (DOCS / name).read_text(encoding="utf-8")
    examples = re.findall(r"```jsonc?\n(.*?)```|-d '(\{.*?\})'", text,
                          re.DOTALL)
    return [json.loads(re.sub(r"\s//[^\n]*", "", fenced or body))
            for fenced, body in examples]


@pytest.mark.parametrize("name", sorted(DOC_EXAMPLES))
def test_doc_examples_fit_their_tables(name):
    examples = _doc_examples(name)
    assert len(examples) == len(DOC_EXAMPLES[name])
    for example, kind in zip(examples, DOC_EXAMPLES[name]):
        where = f"{name} {kind} example"
        if kind == "tenants":
            for tenant, quota in example.items():
                api.parse(quota, "quota", where)
            continue
        api.check(example, api.tables()[kind], where)
        nested = [(run, "run") for run in example.get("runs", [])] + [
            (variant, "variant") for variant in example.get("variants", [])]
        for document, table in nested:
            api.check(document, api.tables()[table], where)
        for document in [example] + [document for document, _ in nested]:
            if "design" in document:  # params fit the loader's signature
                api.resolve_design(document, None, where)


# ---------------------------------------------------------------------
# fuzz: any JSON value under any key is accepted or one error line
# ---------------------------------------------------------------------

_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=8))
#: One strategy per JSON type.
JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=12),
    "array": st.lists(_SCALAR, max_size=3),
    "object": st.dictionaries(st.text(max_size=6), _SCALAR, max_size=3),
}


def _file(tmp_path, document) -> str:
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    return str(path)


def _journal_with(tmp_path, record) -> str:
    header = {"kind": "header", "schema": "BATCHJRNL/1",
              "catalog_sha": "c", "runs": {"r": "f"}}
    path = tmp_path / "journal.jsonl"
    records = [record] if record.get("kind") == "header" \
        else [header, record]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def _parse_manifest(tmp_path, document):
    path = _file(tmp_path, document)
    load_manifest(path)
    load_policy(path)


def _load_tenants_file(tmp_path, document):
    from repro.cli import _load_tenants

    _load_tenants(_file(tmp_path, {"alice": document}))


#: Document kind -> (a valid document, its keys, the parser it goes
#: through at its entry point).
FUZZ = {
    "options": ({}, lambda tmp, doc: api.parse_options(doc, "t")),
    "budget": ({}, lambda tmp, doc: api.parse_budgets(doc, "t")),
    "retry": ({}, lambda tmp, doc: api.parse_retry(doc, "t")),
    "quota": ({}, _load_tenants_file),
    "defaults": ({}, lambda tmp, doc: api.parse_run(
        {"name": "r", "source": TRIVIAL}, defaults=doc)),
    "run": ({"name": "r", "source": TRIVIAL},
            lambda tmp, doc: api.parse_run(doc, base_dir=str(tmp))),
    "body": ({"source": TRIVIAL},
             lambda tmp, doc: api.parse_run(doc, name="r1", kind="body")),
    "manifest": ({"runs": [{"name": "r", "source": TRIVIAL}]},
                 _parse_manifest),
    "campaign": ({"source": TRIVIAL},
                 lambda tmp, doc: load_campaign(_file(tmp, doc))),
    "variant": ({"name": "v", "source": TRIVIAL},
                lambda tmp, doc: load_campaign(_file(
                    tmp, {"source": TRIVIAL, "variants": [doc]}))),
    "params": ({}, lambda tmp, doc: api.parse_run(
        {"name": "r", "design": "mcu8", "params": doc})),
    "header": ({"kind": "header", "schema": "BATCHJRNL/1",
                "catalog_sha": "c", "runs": {}},
               lambda tmp, doc: read_journal(_journal_with(tmp, doc))),
    "attempt": ({"kind": "attempt", "run": "r", "attempt": 1,
                 "event": "start"},
                lambda tmp, doc: read_journal(_journal_with(tmp, doc))),
    "terminal": ({"kind": "terminal", "run": "r", "outcome": {}},
                 lambda tmp, doc: read_journal(_journal_with(tmp, doc))),
}


def _keys(kind):
    from repro import designs
    from repro.batch.journal import RECORDS

    if kind == "params":
        return set(inspect.signature(designs.LOADERS["mcu8"]).parameters)
    if kind in RECORDS:
        return set(RECORDS[kind].keys)
    return set(api.tables()[kind].keys)


@pytest.mark.parametrize("kind", sorted(FUZZ))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_under_any_key_is_accepted_or_one_line(tmp_path, kind,
                                                          data):
    from repro.errors import BatchError, MutationError

    base, parse_document = FUZZ[kind]
    parse_document(tmp_path, base)
    for key in sorted(_keys(kind)) + ["zz_unknown"]:
        for json_type, values in JSON_TYPES.items():
            document = {**base, key: data.draw(values,
                                               label=f"{key}={json_type}")}
            try:
                parse_document(tmp_path, document)
            except (RequestError, BatchError, MutationError) as exc:
                assert str(exc) and "\n" not in str(exc), str(exc)
