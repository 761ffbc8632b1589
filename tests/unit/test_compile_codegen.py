"""Unit tests on the compiled tier's block construction
(:mod:`repro.compile.codegen`) and the raw-word value store it writes
through (:meth:`repro.sim.state.SimState.store_raw`)."""

import pickle

import pytest

import repro
from repro import SimOptions, compile_design, designs, elaborate, parse_source
from repro.compile.codegen import CompiledTables, _compiled, compiled_tables
from repro.compile.instructions import AccumulationMode
from repro.fourval import FourVec
from repro.mutate import CampaignConfig, run_campaign
from repro.mutate.plan import build_plan


def compile_src(src, top=None):
    return compile_design(elaborate(parse_source(src), top=top))


STRAIGHT_LINE = """
    module tb; reg [7:0] a, b;
      initial begin
        a = 8'd3;        // line 4
        b = a + 1;       // line 5
        a = b ^ a;       // line 6
      end
    endmodule
"""

BRANCHY = """
    module tb; reg c; reg [3:0] x;
      initial begin
        x = 1;
        if (c) x = 2;
        else x = 3;
        x = x + 1;
      end
    endmodule
"""


class TestBlockFusion:
    def test_straight_line_fuses_to_one_block(self):
        program = compile_src(STRAIGHT_LINE)
        tables = CompiledTables(program, AccumulationMode.FULL, True)
        proc = program.processes[0]
        block = tables.ensure(0, 0)
        # The whole body (Execs + PrioDec + End) is one fused block.
        assert block.fused == len(proc.instructions)
        assert block.start == 0
        assert "def _b(kern, frame):" in block.source

    def test_site_seq_matches_sites(self):
        program = compile_src(STRAIGHT_LINE)
        tables = CompiledTables(program, AccumulationMode.FULL, True)
        block = tables.ensure(0, 0)
        assert len(block.site_seq) == block.fused
        counted = {}
        for label in block.site_seq:
            counted[label] = counted.get(label, 0) + 1
        assert counted == dict(block.sites)

    def test_splits_bound_blocks(self):
        program = compile_src(BRANCHY)
        tables = CompiledTables(program, AccumulationMode.FULL, True)
        entry = tables.ensure(0, 0)
        # The entry block ends at the IfSplit; the branch bodies are
        # separate blocks.
        proc = program.processes[0]
        assert entry.fused < len(proc.instructions)

    def test_entry_points_prebuilt(self):
        program = compile_src(BRANCHY)
        tables = CompiledTables(program, AccumulationMode.FULL, True)
        assert tables.blocks_built >= 3   # entry + both branch targets
        assert tables.fused_instructions >= len(
            program.processes[0].instructions)

    def test_lazy_ensure_builds_unpredicted_label(self):
        program = compile_src(STRAIGHT_LINE)
        tables = CompiledTables(program, AccumulationMode.FULL, True)
        before = tables.blocks_built
        mid = tables.ensure(0, 1)   # not a static entry point
        assert mid is tables.tables[0][1]
        assert tables.blocks_built == before + 1
        assert mid is tables.ensure(0, 1)   # cached on second ask

    def test_stats_shape(self):
        program = compile_src(STRAIGHT_LINE)
        tables = CompiledTables(program, AccumulationMode.FULL, False)
        stats = tables.stats()
        assert set(stats) == {"blocks", "reused", "fused_instructions",
                              "build_seconds", "specialize"}
        assert stats["specialize"] is False


class TestTableCache:
    def test_keyed_by_mode_and_specialize(self):
        program = compile_src(STRAIGHT_LINE)
        a = compiled_tables(program, AccumulationMode.FULL, True)
        b = compiled_tables(program, AccumulationMode.FULL, True)
        c = compiled_tables(program, AccumulationMode.FULL, False)
        d = compiled_tables(program, AccumulationMode.NONE, True)
        assert a is b
        assert a is not c
        assert a is not d

    def test_cache_does_not_survive_pickle(self):
        # Batch workers ship Programs by value; blocks must rebuild in
        # the worker, never cross the pickle boundary.
        program = compile_src(STRAIGHT_LINE)
        compiled_tables(program, AccumulationMode.FULL, True)
        clone = pickle.loads(pickle.dumps(program))
        assert getattr(clone, "_codegen_cache", None) is None
        rebuilt = compiled_tables(clone, AccumulationMode.FULL, True)
        assert rebuilt.blocks_built > 0


class TestRawWordStore:
    def _sim(self, compile_tier=True):
        return repro.open_sim(STRAIGHT_LINE, options=SimOptions(
            compile_tier=compile_tier, echo_output=False))

    def test_value_materializes_exact_vector(self):
        sim = self._sim()
        sim.run()
        state = sim.kernel.state
        # Force a raw slot and check the materialized vector equals a
        # generic register-shaped store.
        state.store_raw("a", 0x2A)
        assert state.known_word("a") == 0x2A
        vec = state.value("a")
        assert isinstance(vec, FourVec)
        assert vec.known_int() == 0x2A
        ref = FourVec.from_int(sim.mgr, 0x2A, 8)
        assert vec.bits == ref.bits
        assert vec.signed == ref.signed
        # Materialization is cached: the slot now holds the vector.
        assert state.peek("a") is vec

    def test_signed_nets_materialize_signed(self):
        sim = repro.open_sim("""
            module tb; integer n; initial n = 5; endmodule
        """, options=SimOptions(compile_tier=True, echo_output=False))
        sim.run()
        state = sim.kernel.state
        state.store_raw("n", 9)
        assert state.value("n").signed is True

    def test_raw_slots_invisible_to_gc_roots(self):
        sim = self._sim()
        sim.run()
        state = sim.kernel.state
        state.store_raw("a", 1)
        for _ in state.bdd_roots():
            pass   # must not raise on int slots
        state.bdd_remap(lambda node: node, {})
        assert state.known_word("a") == 1

    def test_snapshot_materializes_raw_slots(self):
        sim = self._sim()
        sim.run()
        state = sim.kernel.state
        state.store_raw("a", 7)
        image = state.snapshot()
        bits, signed = image["values"]["a"]
        ref = FourVec.from_int(sim.mgr, 7, 8)
        assert [tuple(bit) for bit in bits] == list(ref.bits)
        assert signed == ref.signed


class TestKernelWiring:
    def test_tables_deferred_until_startup(self):
        sim = repro.open_sim(STRAIGHT_LINE, options=SimOptions(
            compile_tier=True, echo_output=False))
        assert sim.kernel._ctables is None
        sim.run()
        assert sim.kernel._ctables is not None

    def test_no_fastpath_disables_specialization(self):
        sim = repro.open_sim(STRAIGHT_LINE, options=SimOptions(
            compile_tier=True, no_fastpath=True, echo_output=False))
        sim.run()
        assert sim.kernel._ctables.specialize is False
        assert sim.kernel._cspec is False

    def test_interpreter_leaves_no_tables(self):
        sim = repro.open_sim(STRAIGHT_LINE, options=SimOptions(
            compile_tier=False, echo_output=False))
        sim.run()
        assert sim.kernel._ctables is None
        assert sim.kernel.compile_tier_stats() is None


class TestSharedCodeObjects:
    """Blocks with the same generated text share one code object per
    process; each Program still gets its own functions and the
    instructions they call."""

    @staticmethod
    def _tables(source, top):
        sim = repro.open_sim(source, top=top,
                             options=SimOptions(echo_output=False))
        return sim, compiled_tables(sim.kernel.program,
                                    AccumulationMode.FULL, True)

    @staticmethod
    def _pairs(left, right):
        for row_a, row_b in zip(left.tables, right.tables):
            for block_a, block_b in zip(row_a, row_b):
                if block_a is not None and block_b is not None:
                    yield block_a, block_b

    def test_two_mutants_share_code_not_state(self):
        source, top, defines = designs.load("arbiter", runtime=20)
        plan = build_plan(source, top=top, defines=defines,
                          operators=["stuck0", "nbaswap"])
        stuck = next(m for m in plan.mutants if m.operator == "stuck0")
        swap = next(m for m in plan.mutants if m.operator == "nbaswap")
        _, first = self._tables(plan.mutant_source(stuck), top)
        _, second = self._tables(plan.mutant_source(swap), top)
        assert second.blocks_reused > 0
        shared = differ = bound = 0
        for block_a, block_b in self._pairs(first, second):
            if block_a.source != block_b.source:
                differ += 1
                assert block_a.__code__ is not block_b.__code__
                continue
            shared += 1
            assert block_a.__code__ is block_b.__code__
            assert block_a is not block_b
            assert block_a.__globals__ is not block_b.__globals__
            for name, value in block_a.__globals__.items():
                if name[0] in "fi" and name[1:].isdigit():
                    bound += 1
                    assert block_b.__globals__[name] is not value
        assert shared and differ and bound

    def test_code_cache_keeps_block_filenames(self):
        program = compile_src(STRAIGHT_LINE)
        tables = compiled_tables(program, AccumulationMode.FULL, True)
        block = tables.tables[0][0]
        name = program.processes[0].name
        assert block.__code__.co_filename == f"<codegen:{name}@0>"

    def test_campaign_report_same_with_cold_and_warm_cache(self, tmp_path):
        source, top, defines = designs.load("arbiter", runtime=20)
        config = CampaignConfig(source=source, top=top, defines=defines,
                                operators=["stuck0", "stuck1"],
                                max_mutants=6, seed=3, until=30,
                                verify_witnesses=True)
        _compiled.cache_clear()
        cold = run_campaign(config, workers=1, out_dir=str(tmp_path / "a"))
        # the controller's witness replays compiled the detected mutants
        assert "detected" in {m.classification for m in cold.mutants}
        hits = _compiled.cache_info().hits
        warm = run_campaign(config, workers=1, out_dir=str(tmp_path / "b"))
        assert _compiled.cache_info().hits > hits
        assert cold.to_json() == warm.to_json()
