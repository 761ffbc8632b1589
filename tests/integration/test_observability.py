"""Integration: observability instruments a real symbolic run.

Covers the acceptance path of the obs subsystem: a small design traced
to a Chrome-trace JSON that loads via ``json.load`` and contains
matched begin/end spans per simulation time step; profiler and metrics
agreeing with ``SimStats``; the CLI surface (``--trace-out``,
``--profile-out``, ``--metrics-out``, ``symsim report``).
"""

import json

import pytest

import repro
from repro import (
    HotSpotProfiler, MetricsRegistry, Observability, SimOptions, Tracer,
)
from repro.cli import main as cli_main
from repro.sim.kernel import Kernel

#: quickstart-shaped design: symbolic splits, a merge, delays, $finish
SOURCE = r"""
module tb;
  reg [3:0] a, b;
  reg [4:0] sum;
  reg [3:0] prod;
  initial begin
    a = $random;
    b = $random;
    sum = a + b;
    if (a < b) prod = a;
    else       prod = b;
    #1 sum = sum + 1;
    #2 prod = 0;
    #1 $finish;
  end
endmodule
"""


def run_with(obs, trace_stats=False):
    sim = repro.open_sim(
        SOURCE, options=SimOptions(obs=obs, trace_stats=trace_stats))
    return sim, sim.run()


class TestStepSpans:
    def test_matched_begin_end_per_time_step(self):
        obs = Observability(tracer=Tracer())
        _, result = run_with(obs)
        records = obs.tracer.records
        begins = [r for r in records
                  if r["ev"] == "begin" and r["name"] == "step"]
        ends = [r for r in records
                if r["ev"] == "end" and r["name"] == "step"]
        assert len(begins) == len(ends) > 0
        begin_times = [r["args"]["sim_time"] for r in begins]
        end_times = [r["args"]["sim_time"] for r in ends]
        assert begin_times == end_times
        # every simulated time step appears exactly once, in order
        assert begin_times == sorted(set(begin_times))
        assert begin_times[0] == 0
        assert begin_times[-1] == result.time

    def test_chrome_trace_loads_and_contains_steps(self, tmp_path):
        path = tmp_path / "trace.json"
        obs = Observability(tracer=Tracer(chrome_path=str(path)))
        run_with(obs)
        obs.close()
        document = json.load(open(path))  # must be valid JSON
        events = document["traceEvents"]
        step_b = [e for e in events
                  if e["name"] == "step" and e["ph"] == "B"]
        step_e = [e for e in events
                  if e["name"] == "step" and e["ph"] == "E"]
        assert len(step_b) == len(step_e) > 0
        # pops and resumes present as complete ('X') events
        assert any(e["ph"] == "X" and e["cat"] == "pop" for e in events)
        assert any(e["ph"] == "X" and e["cat"] == "resume" for e in events)

    def test_pop_spans_cover_every_event(self):
        obs = Observability(tracer=Tracer())
        _, result = run_with(obs)
        pops = [r for r in obs.tracer.records if r["cat"] == "pop"]
        assert len(pops) == result.stats.events_processed
        for record in pops:
            assert "dur_us" in record
            assert "site" in record["args"]

    def test_merge_instants_match_stats(self):
        obs = Observability(tracer=Tracer())
        _, result = run_with(obs)
        merges = [r for r in obs.tracer.records if r["name"] == "merge"]
        assert len(merges) == result.stats.events_merged > 0


class TestProfiler:
    def test_profile_agrees_with_stats(self):
        obs = Observability(profiler=HotSpotProfiler())
        sim, result = run_with(obs)
        totals = obs.profiler.totals()
        assert totals["pops"] == result.stats.events_processed
        assert totals["merges"] == result.stats.events_merged
        assert totals["instructions"] == result.stats.instructions
        # every site label carries a source line
        assert all(":" in s.label for s in obs.profiler.sites.values()
                   if s.kind == "proc")

    def test_profile_document_includes_bdd(self):
        obs = Observability(profiler=HotSpotProfiler())
        sim, _ = run_with(obs)
        document = sim.kernel.profile_document()
        assert document["schema"] == "repro.obs.profile/1"
        assert document["bdd"]["ite_hits"] > 0
        assert document["meta"]["design"] == "tb"
        assert document["sites"]

    def test_profile_document_requires_profiler(self):
        sim, _ = run_with(None)
        with pytest.raises(repro.SimulationError):
            sim.kernel.profile_document()


class TestMetrics:
    def test_gauges_match_stats(self):
        obs = Observability(metrics=MetricsRegistry())
        sim, result = run_with(obs)
        registry = obs.metrics
        assert registry.gauge("sim.events_processed").value == \
            result.stats.events_processed
        assert registry.gauge("sim.instructions").value == \
            result.stats.instructions
        assert registry.gauge("bdd.nodes").value == sim.mgr.total_nodes
        assert registry.counter("sim.merges").value == \
            result.stats.events_merged

    def test_timeline_series_mirror_stats_timeline(self):
        obs = Observability(metrics=MetricsRegistry())
        _, result = run_with(obs, trace_stats=True)
        samples = obs.metrics.series("sim.timeline.events").samples
        by_time = dict(samples)
        for point in result.stats.timeline:
            assert by_time[point.sim_time] == point.events

    def test_bdd_latency_instrumentation(self):
        obs = Observability(metrics=MetricsRegistry())
        sim = repro.open_sim(
            SOURCE, options=SimOptions(obs=obs))
        sim.mgr.instrument_latency(obs.metrics, sample_every=2)
        sim.run()
        hist = obs.metrics.histogram(
            "bdd.op_seconds", labels=("op",)).labels(op="ite")
        assert hist.count > 0
        assert hist.sum >= 0


class TestStatsSummary:
    def test_summary_includes_instructions_and_bdd(self):
        sim, result = run_with(None)
        text = result.stats.summary()
        assert "instructions=" in text
        assert "bdd:" in text
        assert "ite-cache" in text
        assert f"nodes={sim.mgr.total_nodes}" in text

    def test_no_obs_leaves_hot_paths_unwrapped(self):
        sim, _ = run_with(None)
        assert sim.kernel._dispatcher is Kernel._dispatch
        # The compiled tier installs its own frame runner, but no
        # observability wrapper may be present without a bundle.
        runner = sim.kernel._frame_runner
        assert runner is not Kernel._obs_run_frame
        assert runner is sim.kernel._frame_impl
        assert runner is Kernel._run_frame_compiled

    def test_obs_swaps_instance_dispatch(self):
        obs = Observability(tracer=Tracer())
        sim, _ = run_with(obs)
        assert sim.kernel._dispatcher is Kernel._obs_dispatch
        assert sim.kernel._frame_runner is Kernel._obs_run_frame


class TestCliSurface:
    def write_design(self, tmp_path):
        path = tmp_path / "design.v"
        path.write_text(SOURCE)
        return str(path)

    def test_run_flags_and_report(self, tmp_path, capsys):
        design = self.write_design(tmp_path)
        trace = tmp_path / "t.json"
        profile = tmp_path / "p.json"
        metrics = tmp_path / "m.json"
        code = cli_main([design, "--quiet",
                         "--trace-out", str(trace),
                         "--profile-out", str(profile),
                         "--metrics-out", str(metrics)])
        assert code == 0
        assert json.load(open(trace))["traceEvents"]
        assert json.load(open(profile))["schema"] == "repro.obs.profile/1"
        assert json.load(open(metrics))["schema"] == "repro.obs.metrics/1"
        capsys.readouterr()

        assert cli_main(["report", str(profile), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "hot-spot profile" in out
        assert "ite-cache hit-rate" in out

        assert cli_main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "sim.events_processed" in out

    def test_profile_prints_inline(self, tmp_path, capsys):
        design = self.write_design(tmp_path)
        assert cli_main([design, "--quiet", "--profile",
                         "--profile-top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top" in out and "event sites" in out
        assert "ite-cache hit-rate" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "unknown/9"}')
        assert cli_main(["report", str(bad)]) == 2

    def test_trace_jsonl_schema(self, tmp_path, capsys):
        design = self.write_design(tmp_path)
        jsonl = tmp_path / "t.jsonl"
        assert cli_main([design, "--quiet",
                         "--trace-jsonl", str(jsonl)]) == 0
        lines = jsonl.read_text().strip().splitlines()
        assert lines
        names = set()
        for line in lines:
            record = json.loads(line)
            names.add(record["name"])
        assert "step" in names
