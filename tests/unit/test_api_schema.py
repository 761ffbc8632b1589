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
import json

import pytest

from repro import api
from repro.batch import load_manifest
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
    with pytest.raises(RequestError, match="unknown accumulation mode"):
        api.parse_options({"accumulation": "bogus"}, "t")


def test_unknown_option_is_single_line_error():
    with pytest.raises(RequestError, match="unknown option 'frobnicate'"):
        api.parse_options({"frobnicate": 1}, "somewhere")
    try:
        api.parse_options({"frobnicate": 1}, "somewhere")
    except RequestError as exc:
        assert "\n" not in str(exc)
        assert str(exc).startswith("somewhere:")


def test_parse_budgets_rejects_unknown_keys():
    with pytest.raises(RequestError, match="unknown budget keys"):
        api.parse_budgets({"wall_minutes": 5}, "t")
    with pytest.raises(RequestError, match="must be an object"):
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
    with pytest.raises(BatchError, match="unknown option 'bogus'"):
        load_manifest(str(manifest))

    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps(
        {"source": TRIVIAL, "options": {"bogus": 1}}))
    with pytest.raises(MutationError, match="unknown option 'bogus'"):
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
