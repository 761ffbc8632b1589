"""Mutation campaigns end to end: classification, determinism across
pool widths, manifest loading and the ``symsim mutate`` CLI.

The workhorse design pairs a checked adder with an *unchecked* spare
output, so one campaign produces detected mutants, surviving mutants,
and (via monkeypatched stillborn sources) invalid ones — every
classification bucket without any slow symbolic run.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import MutationError
from repro.mutate import (
    BASELINE_NAME, CampaignConfig, MutationPlan, Variant, classify,
    load_campaign, run_campaign, witness_trace,
)
from repro.sim.resim import resimulate

# dut.s is checked by the testbench; dut.spare and dut.t are not —
# mutants on the spare logic survive the checker.
DESIGN = """
module dut(a, b, s, spare, t);
  input [3:0] a, b;
  output [4:0] s;
  output [3:0] spare;
  output t;
  assign s = {1'b0, a} + {1'b0, b};
  assign spare = a & b;
  assign t = (a == b);
endmodule

module tb;
  reg [3:0] a, b;
  wire [4:0] s;
  wire [3:0] spare;
  wire t;
  dut u(.a(a), .b(b), .s(s), .spare(spare), .t(t));
  initial begin
    a = $random;
    b = $random;
    #1 $assert(s == ({1'b0, a} + {1'b0, b}));
    #1 $finish;
  end
endmodule
"""

BROKEN_CHECKER = DESIGN.replace("$assert(s == ({1'b0, a} + {1'b0, b}))",
                                "$assert(s == 5'd0)")

BUGGY_VARIANT = DESIGN.replace("{1'b0, a} + {1'b0, b};\n  assign spare",
                               "{1'b0, a} - {1'b0, b};\n  assign spare")


def small_config(**overrides) -> CampaignConfig:
    kwargs = dict(source=DESIGN, until=10)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


# ---------------------------------------------------------------------------
# classification


def test_campaign_classifies_detected_and_surviving(tmp_path):
    report = run_campaign(small_config(), workers=1,
                          out_dir=str(tmp_path / "out"))
    assert report.baseline_status == "ok"
    by_id = {m.id: m for m in report.mutants}
    # checked adder: stuck-at and opswap mutants must be caught
    detected_sites = {(m.operator, m.ordinal) for m in report.mutants
                      if m.classification == "detected"}
    assert ("opswap", 0) in detected_sites  # the + in s
    assert any(op == "stuck0" for op, _ in detected_sites)
    # unchecked spare logic: its mutants survive
    survivors = report.survivors
    assert survivors
    assert {m.id for m in survivors} <= {
        m.id for m in report.mutants if m.classification == "undetected"}
    # totals are consistent and the score matches its definition
    totals = report.totals
    assert totals["planned"] == len(report.mutants)
    assert sum(totals[b] for b in
               ("detected", "undetected", "aborted", "invalid")) \
        == totals["planned"]
    assert report.score == pytest.approx(
        totals["detected"] / (totals["detected"] + totals["undetected"]))
    assert 0.0 < report.score < 1.0
    # per-operator rows sum to the totals
    for bucket in ("detected", "undetected"):
        assert sum(row[bucket] for row in report.by_operator.values()) \
            == totals[bucket]
    # every mutant id resolves back into the plan
    for mutant in report.mutants:
        planned = report.plan[mutant.id]
        assert planned.operator == mutant.operator
        assert mutant.description == planned.description
    assert by_id  # silence unused warning paths


def test_detected_mutants_carry_replayable_witnesses():
    report = run_campaign(small_config(verify_witnesses=True), workers=1)
    detected = [m for m in report.mutants if m.classification == "detected"]
    assert detected
    for mutant in detected:
        assert mutant.witness is not None
        assert mutant.witness["trace"], "witness must carry trace entries"
        assert mutant.witness_verified is True
    survivors = report.survivors
    for mutant in survivors:
        assert mutant.witness is None
        assert mutant.witness_verified is None


def test_witness_replays_outside_the_campaign():
    """A witness dict alone (no campaign state) replays concretely."""
    from repro.compile import compile_design
    from repro.frontend import elaborate, parse_source

    report = run_campaign(small_config(), workers=1)
    detected = next(m for m in report.mutants
                    if m.classification == "detected")
    source = report.plan.mutant_source(report.plan[detected.id])
    program = compile_design(elaborate(parse_source(source),
                                       top=report.top))
    result = resimulate(program, witness_trace(detected.witness),
                        until=10, expect_violation=True)
    assert result.violations


def test_invalid_mutants_fold_into_the_report(monkeypatch):
    original = MutationPlan.mutant_source
    target = {}

    def corrupt(self, mutant):
        if not target:
            target["id"] = mutant.id
        if mutant.id == target["id"]:
            return "module broken("
        return original(self, mutant)

    monkeypatch.setattr(MutationPlan, "mutant_source", corrupt)
    report = run_campaign(small_config(), workers=1)
    broken = next(m for m in report.mutants if m.id == target["id"])
    assert broken.classification == "invalid"
    assert broken.status == "invalid"
    assert broken.error
    assert report.totals["invalid"] == 1
    # stillborn mutants are excluded from the score denominator
    judged = report.totals["detected"] + report.totals["undetected"]
    assert report.score == pytest.approx(
        report.totals["detected"] / judged)


def test_each_design_is_compiled_once_in_the_controller(monkeypatch):
    """Validation's programs feed the batch catalog: no second compile."""
    import repro.compile
    import repro.compile.compiler

    compiled = []
    original = repro.compile.compiler.compile_design

    def counting(design, *args, **kwargs):
        compiled.append(design.top)
        return original(design, *args, **kwargs)

    monkeypatch.setattr(repro.compile.compiler, "compile_design", counting)
    monkeypatch.setattr(repro.compile, "compile_design", counting)
    report = run_campaign(small_config(verify_witnesses=True), workers=1)
    valid = report.totals["planned"] - report.totals["invalid"]
    assert valid > 1
    assert len(compiled) == valid + 1  # every valid mutant + the baseline


def test_dirty_baseline_raises():
    with pytest.raises(MutationError, match="baseline run is not clean"):
        run_campaign(CampaignConfig(source=BROKEN_CHECKER, until=10))


def test_variant_name_collisions_raise():
    config = small_config(
        variants=[Variant(name=BASELINE_NAME, source=DESIGN)])
    with pytest.raises(MutationError, match="collides"):
        run_campaign(config)


def test_explicit_variants_are_classified():
    config = small_config(
        verify_witnesses=True,
        variants=[Variant(name="planted-sub", source=BUGGY_VARIANT),
                  Variant(name="clean-twin", source=DESIGN)])
    report = run_campaign(config, workers=2)
    variants = {v.id: v for v in report.variants}
    assert variants["planted-sub"].classification == "detected"
    assert variants["planted-sub"].witness_verified is True
    assert variants["clean-twin"].classification == "undetected"
    assert report.totals["variants"] == 2
    # variants never contaminate the mutation score
    assert report.totals["planned"] == len(report.mutants)


def test_classify_maps_statuses():
    assert classify("assert_failed") == "detected"
    assert classify("ok") == "undetected"
    assert classify("aborted") == "aborted"
    assert classify("crash") == "aborted"


# ---------------------------------------------------------------------------
# determinism: the report must not observe the pool width


def test_report_identical_across_pool_widths(tmp_path):
    narrow = run_campaign(small_config(seed=5), workers=1,
                          out_dir=str(tmp_path / "w1"))
    wide = run_campaign(small_config(seed=5), workers=4,
                        out_dir=str(tmp_path / "w4"))
    assert narrow.to_json() == wide.to_json()
    # and the serialized report files are byte-identical too
    with open(narrow.report_path, "rb") as left, \
            open(wide.report_path, "rb") as right:
        assert left.read() == right.read()


def test_report_and_metrics_written(tmp_path):
    out = tmp_path / "out"
    report = run_campaign(small_config(), workers=1, out_dir=str(out))
    assert report.report_path == str(out / "report.json")
    with open(report.report_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == "repro.mutate.report/1"
    assert document["score"] == pytest.approx(report.score)
    with open(out / "metrics.json", "r", encoding="utf-8") as handle:
        metrics = json.load(handle)
    names = {m["name"] for m in metrics["metrics"]}
    assert {"mutate.sites", "mutate.planned", "mutate.score",
            "mutate.mutants", "mutate.operator_mutants"} <= names
    score = next(m for m in metrics["metrics"]
                 if m["name"] == "mutate.score")
    assert score["value"] == pytest.approx(report.score)
    # the batch engine's own families survive the rewrite
    assert any(name.startswith("batch.") for name in names)


# ---------------------------------------------------------------------------
# manifest loading


def write_manifest(tmp_path, document, name="campaign.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_manifest_roundtrip(tmp_path):
    (tmp_path / "design.v").write_text(DESIGN)
    path = write_manifest(tmp_path, {
        "path": "design.v",
        "operators": ["opswap", "cmpswap"],
        "seed": 9,
        "max_mutants": 3,
        "until": 10,
        "workers": 2,
        "verify_witnesses": True,
        "variants": [{"name": "twin", "path": "design.v"}],
    })
    config, workers = load_campaign(path)
    assert workers == 2
    assert config.operators == ["opswap", "cmpswap"]
    assert config.seed == 9
    assert config.max_mutants == 3
    assert config.until == 10
    assert config.verify_witnesses is True
    assert config.source == DESIGN
    assert [v.name for v in config.variants] == ["twin"]


def test_manifest_builtin_design(tmp_path):
    path = write_manifest(tmp_path, {
        "design": "alu4", "params": {"runtime": 20, "fixed": True},
    })
    config, workers = load_campaign(path)
    assert workers == 1
    assert config.defines["ALU_FIXED"] == "1"
    assert "module alu4" in config.source


@pytest.mark.parametrize("document, match", [
    ({"source": "module m; endmodule", "zap": 1}, "unknown key"),
    ({}, "exactly one"),
    ({"source": "m", "path": "x.v"}, "exactly one"),
    ({"source": "m", "operators": ["zap"]}, "unknown mutation operator"),
    ({"source": "m", "seed": "x"}, "seed"),
    ({"source": "m", "max_mutants": -2}, "max_mutants"),
    ({"source": "m", "workers": 0}, "workers"),
    ({"source": "m", "variants": [{"source": "m"}]}, "name"),
    ({"source": "m", "variants": [
        {"name": "a", "source": "m"},
        {"name": "a", "source": "m"}]}, "duplicate"),
    # JSON booleans are not integers, and "no" is not a boolean
    ({"source": "m", "seed": True}, '"seed" must be an integer'),
    ({"source": "m", "max_mutants": False}, '"max_mutants" must be'),
    ({"source": "m", "workers": True}, '"workers" must be'),
    ({"source": "m", "verify_witnesses": "no"},
     '"verify_witnesses" must be a boolean'),
    ({"source": "m", "verify_witnesses": 1}, '"verify_witnesses" must be'),
    # "variants" is an array of objects
    ({"source": "m", "variants": 5}, '"variants" must be an array'),
    ({"source": "m", "variants": None}, '"variants" must be an array'),
    ({"source": "m", "variants": {"name": "a"}},
     '"variants" must be an array'),
    ({"source": "m", "variants": [5]}, "variant #0 is not an object"),
    # every object rejects unknown keys
    ({"source": "m", "variants": [{"name": "a", "source": "m", "zap": 1}]},
     r"variant #0: unknown keys \['zap'\]"),
    ({"source": "m", "workers": 2, "wokers": 2}, r"unknown keys \['wokers'\]"),
])
def test_manifest_rejects_malformed(tmp_path, document, match):
    path = write_manifest(tmp_path, document)
    with pytest.raises(MutationError, match=match):
        load_campaign(path)


def test_manifest_unreadable_and_invalid_json(tmp_path):
    with pytest.raises(MutationError, match="cannot read"):
        load_campaign(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MutationError, match="not valid JSON"):
        load_campaign(str(bad))


# ---------------------------------------------------------------------------
# the symsim mutate CLI


def test_cli_campaign_end_to_end(tmp_path, capsys):
    (tmp_path / "design.v").write_text(DESIGN)
    path = write_manifest(tmp_path, {
        "path": "design.v", "until": 10,
        "operators": ["opswap", "stuck0"], "workers": 2,
    })
    out_dir = tmp_path / "out"
    code = main(["mutate", path, "--out-dir", str(out_dir),
                 "--report-out", str(tmp_path / "report.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "mutation campaign" in out
    assert "score:" in out
    assert "detected] m0000_opswap_dut_o0" in out
    assert (out_dir / "report.json").exists()
    assert (tmp_path / "report.json").exists()
    # the saved report renders through `symsim report`
    code = main(["report", str(out_dir / "report.json")])
    assert code == 0
    assert "mutation campaign" in capsys.readouterr().out


def test_cli_plan_only(tmp_path, capsys):
    path = write_manifest(tmp_path, {"source": DESIGN, "until": 10})
    code = main(["mutate", path, "--plan-only"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro.mutate.plan/1"
    assert document["mutants"]


def test_cli_operator_and_seed_overrides(tmp_path, capsys):
    path = write_manifest(tmp_path, {"source": DESIGN, "until": 10})
    code = main(["mutate", path, "--plan-only", "--operators",
                 "opswap,cmpswap", "--seed", "4", "--max-mutants", "2"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["operators"] == ["opswap", "cmpswap"]
    assert document["seed"] == 4
    assert len(document["mutants"]) == 2


def test_cli_bad_manifest_exits_2(tmp_path, capsys):
    path = write_manifest(tmp_path, {"source": DESIGN, "zap": True})
    assert main(["mutate", path]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_dirty_baseline_exits_3(tmp_path, capsys):
    path = write_manifest(tmp_path,
                          {"source": BROKEN_CHECKER, "until": 10,
                           "operators": ["opswap"]})
    assert main(["mutate", path, "--quiet"]) == 3
    assert "baseline" in capsys.readouterr().err
