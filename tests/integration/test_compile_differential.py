"""Differential fuzz: compiled tier vs interpreter, bit for bit.

The compiled tier (:mod:`repro.compile.codegen`) must be perfectly
invisible: for every design, workload, accumulation mode, memory-
management regime, and checkpoint cut, the full ``SimResult.to_dict()``
payload — outputs, violations, stats, fast-path counters, BDD cache
counters — and the VCD stream must compare equal byte for byte
against the interpreter.  The interpreter is the differential oracle
(``SimOptions(compile_tier=False)`` / ``symsim --no-compile``).
"""

import json
import os

import pytest

import repro
from repro import AccumulationMode, SimOptions
from repro.designs import PLANTED_BUGS, load
from repro.guard.checkpoint import _collect_payload


#: design -> (loader kwargs, until) — small editions of every Table-1
#: design plus the extra workloads, sized for tier-1 runtime.
WORKLOADS = {
    "gcd": ({"rounds": 1, "width": 3}, 2000),
    "dram": ({"bursts": 1}, 2000),
    "risc8": ({"runtime": 60}, 100),
    "mcu8": ({"runtime": 30, "fixed": True}, 40),
    "alu4": ({"runtime": 30, "fixed": True}, 50),
    "arbiter": ({"runtime": 40}, 60),
}


def run_one(name, *, until, compile_tier, vcd_path=None, resume=None,
            **option_kwargs):
    src, top, defines = load(name, **WORKLOADS[name][0])
    options = SimOptions(compile_tier=compile_tier, echo_output=False,
                         concrete_random=7, vcd_path=vcd_path,
                         **option_kwargs)
    sim = repro.open_sim(src, top=top, options=options, defines=defines,
                         resume=resume)
    result = sim.run(until=until)
    return sim, result


def payload(result):
    """Canonical byte string of the full result, stats included."""
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_differential(name, **option_kwargs):
    until = WORKLOADS[name][1]
    _, ref = run_one(name, until=until, compile_tier=False,
                     **option_kwargs)
    _, new = run_one(name, until=until, compile_tier=True,
                     **option_kwargs)
    assert payload(ref) == payload(new), (
        f"{name}: compiled tier diverged from the interpreter "
        f"({option_kwargs or 'default options'})")
    return ref


class TestAllDesigns:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bit_identical(self, name):
        assert_differential(name)

    @pytest.mark.parametrize("name", ["gcd", "risc8"])
    @pytest.mark.parametrize("mode", list(AccumulationMode))
    def test_accumulation_modes(self, name, mode):
        assert_differential(name, accumulation=mode)

    @pytest.mark.parametrize("name", ["gcd", "dram"])
    def test_no_fastpath_matrix(self, name):
        # compile_tier x no_fastpath: the unspecialized compiled tier
        # (pure block fusion, no word probes) must also match the
        # no-fastpath interpreter.
        assert_differential(name, no_fastpath=True)

    @pytest.mark.parametrize("name", ["gcd", "risc8"])
    def test_aggressive_gc_and_reorder(self, name):
        assert_differential(name, gc_threshold=64, dyn_reorder=True,
                            reorder_threshold=128)


class TestPlantedBugs:
    @pytest.mark.parametrize("name", sorted(PLANTED_BUGS))
    def test_buggy_editions_agree(self, name):
        entry = PLANTED_BUGS[name]
        src, top, defines = load(name, **entry["params"])
        payloads = []
        for compile_tier in (False, True):
            # Fully symbolic stimulus: the planted bugs only fall out
            # of the symbolic sweep, not one concrete $random draw.
            # Stop at the first violation — a non-pruning mcu8 run
            # accumulates BDD state for minutes (see designs docs).
            options = SimOptions(compile_tier=compile_tier,
                                 echo_output=False)
            sim = repro.open_sim(src, top=top, options=options,
                                 defines=defines)
            result = sim.run(until=entry["until"])
            assert result.violations, f"{name}: planted bug not found"
            payloads.append(payload(result))
        assert payloads[0] == payloads[1]


class TestVcdStreams:
    @pytest.mark.parametrize("name", ["gcd", "arbiter"])
    def test_vcd_byte_identical(self, name, tmp_path):
        until = WORKLOADS[name][1]
        streams = []
        for compile_tier in (False, True):
            path = tmp_path / f"{name}_{int(compile_tier)}.vcd"
            run_one(name, until=until, compile_tier=compile_tier,
                    vcd_path=str(path))
            with open(path, "rb") as handle:
                streams.append(handle.read())
        assert streams[0], "VCD stream is empty"
        assert streams[0] == streams[1]


class TestCheckpointAcrossTiers:
    """A checkpoint is a tier-neutral artifact: saving under one tier
    and resuming under the other must land on the interpreter-only
    reference, in every combination."""

    def _final(self, name, until, save_tier, resume_tier, tmp_path):
        src, top, defines = load(name, **WORKLOADS[name][0])
        options = SimOptions(compile_tier=save_tier, echo_output=False,
                             concrete_random=7)
        sim = repro.open_sim(src, top=top, options=options,
                             defines=defines)
        sim.run(until=until // 2)
        ckpt = os.path.join(tmp_path, f"{name}_{save_tier}_{resume_tier}")
        repro.save_checkpoint(sim.kernel, ckpt)
        resumed = repro.open_sim(
            src, top=top, defines=defines, resume=ckpt,
            options=SimOptions(compile_tier=resume_tier,
                               echo_output=False, concrete_random=7))
        return payload(resumed.run(until=until))

    @pytest.mark.parametrize("save_tier,resume_tier",
                             [(False, True), (True, False), (True, True)])
    def test_gcd_resume_matrix(self, save_tier, resume_tier, tmp_path):
        reference = self._final("gcd", WORKLOADS["gcd"][1],
                                False, False, str(tmp_path))
        crossed = self._final("gcd", WORKLOADS["gcd"][1],
                              save_tier, resume_tier, str(tmp_path))
        assert crossed == reference


class TestTierMechanics:
    def test_compiled_tier_actually_ran(self):
        sim, _ = run_one("gcd", until=WORKLOADS["gcd"][1],
                         compile_tier=True)
        stats = sim.kernel.compile_tier_stats()
        assert stats is not None
        assert stats["blocks"] > 0
        assert stats["fused_instructions"] > 0
        assert stats["tier_hits"] + stats["tier_misses"] > 0

    def test_interpreter_reports_no_tier(self):
        sim, _ = run_one("gcd", until=WORKLOADS["gcd"][1],
                         compile_tier=False)
        assert sim.kernel.compile_tier_stats() is None


#: Single-driver whole-net assigns (port hookups included) take the
#: kernel's direct commit with fast paths on; a multi-driver wire, a
#: tri0, a wand and a part-driven wire stay on driver resolution.
DRIVERS_SOURCE = """
module leaf(s, d, q);
  input s;
  input [3:0] d;
  output [3:0] q;
  assign q = s ? d : 4'd0;
endmodule

module tb;
  reg [3:0] d;
  reg en;
  wire [3:0] q, multi;
  tri0 [3:0] pulled;
  wand [3:0] anded;
  wire [7:0] halves;
  wire [3:0] cast;
  integer i;
  leaf u(1'b1, d, q);
  assign cast = $signed(d);
  assign multi = en ? d : 4'bz;
  assign multi = en ? 4'bz : ~d;
  assign pulled = en ? d : 4'bz;
  assign anded = d;
  assign anded = {en, en, en, en};
  assign halves[3:0] = q;
  assign halves[7:4] = multi;
  initial begin
    for (i = 0; i < 8; i = i + 1) begin
      #5 d = $random;
      en = $random;
    end
    #5 $display("%h %h %h %h %h %h", q, multi, pulled, anded, halves,
                cast);
    $finish;
  end
endmodule
"""

DIRECT_NETS = {"u.s", "u.d", "u.q", "q", "cast"}
RESOLVED_NETS = {"multi", "pulled", "anded", "halves"}

#: (compile_tier, no_fastpath): the compiled tier, the interpreter, and
#: the interpreter with fast paths off (the resolution-path oracle)
DRIVER_CONFIGS = {"compiled": (True, False), "interpreter": (False, False),
                  "no_fastpath": (False, True)}


class TestDirectAssigns:
    """The direct commit must leave every artifact of a run — VCD,
    driver slots, final state, checkpoint bytes — exactly as driver
    resolution does."""

    def _open(self, config, vcd_path=None, resume=None, direct=True):
        compile_tier, no_fastpath = DRIVER_CONFIGS[config]
        options = SimOptions(compile_tier=compile_tier,
                             no_fastpath=no_fastpath, echo_output=False,
                             concrete_random=11, vcd_path=vcd_path)
        sim = repro.open_sim(DRIVERS_SOURCE, top="tb", options=options,
                             resume=resume)
        if not direct:
            for assign in sim.kernel.program.assigns:
                assign.direct = False
        return sim

    @staticmethod
    def _artifacts(sim):
        kern = sim.kernel
        drivers = {net: {key: (vec.bits, vec.signed)
                         for key, vec in slots.items()}
                   for net, slots in kern._drivers.items()}
        return drivers, kern.state.snapshot(), list(kern.output)

    def _run(self, config, tmp_path, monkeypatch, direct=True):
        """VCD bytes, final artifacts, and the checkpoint taken at t=20
        as bytes and as a payload without the fast-path counters (which
        the no-fastpath oracle leaves at zero)."""
        # The VCD path is part of the checkpoint: keep it the same.
        workdir = tmp_path / f"{config}-{direct}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        sim = self._open(config, vcd_path="run.vcd", direct=direct)
        sim.run(until=22)
        sim.kernel._cpu_accum = 0.0  # wall clock: the one varying field
        repro.save_checkpoint(sim.kernel, "run.ckpt")
        payload = _collect_payload(sim.kernel)
        for key in [k for k in payload["stats"]["bdd"]
                    if k.startswith("fastpath_")]:
            del payload["stats"]["bdd"][key]
        assert sim.run().finished
        return {"vcd": (workdir / "run.vcd").read_bytes(),
                "final": self._artifacts(sim),
                "checkpoint": payload,
                "checkpoint_bytes": (workdir / "run.ckpt").read_bytes()}

    def test_marking(self):
        sim = self._open("compiled")
        marked = {assign.targets[0].net: assign.direct
                  for assign in sim.kernel.program.assigns}
        assert {n for n, direct in marked.items() if direct} == DIRECT_NETS
        assert RESOLVED_NETS <= {n for n, d in marked.items() if not d}

    def test_first_constant_drive_takes_the_word_path(self, monkeypatch):
        raw_writes = []
        write_net_raw = repro.Kernel.write_net_raw

        def recording(kern, name, raw):
            raw_writes.append(name)
            return write_net_raw(kern, name, raw)

        monkeypatch.setattr(repro.Kernel, "write_net_raw", recording)
        self._open("compiled").run()
        assert raw_writes[0] == "u.s"
        assert not RESOLVED_NETS & set(raw_writes)
        raw_writes.clear()
        self._open("interpreter").run()
        assert raw_writes == []

    @pytest.mark.parametrize("config", ["compiled", "interpreter"])
    def test_direct_commit_matches_resolution(self, config, tmp_path,
                                              monkeypatch):
        direct = self._run(config, tmp_path, monkeypatch)
        resolved = self._run(config, tmp_path, monkeypatch, direct=False)
        assert direct == resolved

    def test_artifacts_identical_across_tiers(self, tmp_path, monkeypatch):
        # Checkpoint *bytes* are compared per tier above: the tiers'
        # pickles share bit tuples differently, so across tiers only
        # the decoded payloads can match.
        runs = {config: self._run(config, tmp_path, monkeypatch)
                for config in DRIVER_CONFIGS}
        reference = runs.pop("no_fastpath")
        assert reference["final"][0].keys() >= DIRECT_NETS | RESOLVED_NETS
        for config, run in runs.items():
            for artifact in ("vcd", "final", "checkpoint"):
                assert run[artifact] == reference[artifact], (config,
                                                              artifact)

    def test_resume_mid_run(self, tmp_path):
        finals = {}
        for config in DRIVER_CONFIGS:
            ckpt = str(tmp_path / config)
            sim = self._open(config)
            sim.run(until=22)
            repro.save_checkpoint(sim.kernel, ckpt)
            uninterrupted = self._open(config)
            uninterrupted.run()
            for resume_config in DRIVER_CONFIGS:
                resumed = self._open(resume_config, resume=ckpt)
                assert resumed.run().finished
                assert (self._artifacts(resumed)
                        == self._artifacts(uninterrupted)), (
                    config, resume_config)
            finals[config] = self._artifacts(uninterrupted)
        assert finals["compiled"] == finals["interpreter"] \
            == finals["no_fastpath"]
