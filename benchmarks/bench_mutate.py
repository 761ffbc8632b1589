"""Mutation-campaign benchmark: checker score and campaign throughput.

One real campaign over the planted-bug corpus's fast member: the
fixed alu4 as clean baseline, opswap/cmpswap/stuck1 mutants of the
ALU datapath, and the buggy edition as an explicit variant.  The
symbolic checker covers all 2^10 stimulus patterns per cycle, so a
datapath mutant can only survive by being semantically equivalent —
the measured mutation score is a *correctness* floor (gate: the score
must not fall below ``SCORE_FLOOR``), while ``mutants_per_second``
records campaign throughput in the report under ``benchmarks/results/``.
"""

from __future__ import annotations

import time

import pytest

from repro.designs import load
from repro.mutate import CampaignConfig, Variant, run_campaign

from benchmarks.conftest import report, report_json

#: The campaign's mutation score may never fall below this: every
#: non-equivalent datapath mutant of the checked ALU must be caught.
SCORE_FLOOR = 0.9

OPERATORS = ["opswap", "cmpswap", "stuck1"]
UNTIL = 80
WORKERS = 2

_RESULTS: dict = {}


def _campaign_config() -> CampaignConfig:
    source, top, defines = load("alu4", runtime=60, fixed=True)
    bug_source, bug_top, bug_defines = load("alu4", runtime=60)
    return CampaignConfig(
        source=source, top=top, defines=defines,
        operators=OPERATORS, until=UNTIL, verify_witnesses=True,
        variants=[Variant(name="planted-alu4", source=bug_source,
                          top=bug_top, defines=bug_defines)])


def test_mutation_campaign(benchmark, tmp_path):
    def run():
        started = time.perf_counter()
        campaign = run_campaign(_campaign_config(), workers=WORKERS,
                                out_dir=str(tmp_path / "out"))
        elapsed = time.perf_counter() - started

        assert campaign.baseline_status == "ok"
        planned = campaign.totals["planned"]
        judged = (campaign.totals["detected"]
                  + campaign.totals["undetected"])
        assert judged > 0, "campaign must judge at least one mutant"
        assert campaign.score is not None
        assert campaign.score >= SCORE_FLOOR, (
            f"mutation score {campaign.score:.3f} fell below the "
            f"{SCORE_FLOOR} floor; survivors: "
            f"{[m.id for m in campaign.survivors]}")

        # the planted bug must be detected with a verified witness
        planted = {v.id: v for v in campaign.variants}["planted-alu4"]
        assert planted.classification == "detected"
        assert planted.witness_verified is True

        detected = [m for m in campaign.mutants
                    if m.classification == "detected"]
        verified = [m for m in detected if m.witness_verified]
        _RESULTS.update({
            "wall_seconds": elapsed,
            "planned": planned,
            "score": campaign.score,
            "mutants_per_second": planned / elapsed,
            "witness_verify_rate":
                len(verified) / len(detected) if detected else 1.0,
            "by_operator": {
                op: row["detected"]
                for op, row in campaign.by_operator.items()},
        })

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_mutate_report(benchmark):
    def build_report():
        if "score" not in _RESULTS:
            pytest.skip("campaign benchmark did not run")
        lines = [
            f"Mutation campaign: alu4 (fixed) baseline, "
            f"operators {'/'.join(OPERATORS)}, until={UNTIL}, "
            f"{WORKERS} workers",
            f"  mutants planned   {_RESULTS['planned']}",
            f"  mutation score    {_RESULTS['score']:.3f} "
            f"(floor {SCORE_FLOOR})",
            f"  witness verify    {_RESULTS['witness_verify_rate']:.3f}",
            f"  wall              {_RESULTS['wall_seconds']:.2f}s "
            f"({_RESULTS['mutants_per_second']:.2f} mutants/s)",
            "  detected by operator: " + ", ".join(
                f"{op}={n}" for op, n in _RESULTS["by_operator"].items()),
        ]
        report("mutate", lines)
        report_json("mutate", dict(_RESULTS))

    benchmark.pedantic(build_report, rounds=1, iterations=1)
