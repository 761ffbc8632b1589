"""Unit tests for the checkpoint file format and its failure modes.

Every way a checkpoint can be wrong — truncated, bit-flipped, header
mangled, wrong design, wrong semantic options, or actively malicious
(pickle payload referencing classes) — must surface as a
:class:`CheckpointError` with a readable message, never a bare
traceback or, worse, silent acceptance.
"""

import hashlib
import json
import pickle

import pytest

import repro
from repro import SimOptions
from repro.compile import compile_design
from repro.designs import load
from repro.errors import CheckpointError
from repro.frontend import elaborate, parse_source
from repro.guard import (
    FORMAT_VERSION, design_fingerprint, load_checkpoint, read_header,
    save_checkpoint,
)
from repro.guard.checkpoint import MAGIC
from repro.guard.faults import (
    Fault, FaultInjector, corrupt_header, flip_byte, truncate_file,
)

SRC = """
    module tb; reg [3:0] a; reg [7:0] acc; reg clk; integer i;
      initial begin acc = 0; clk = 0;
        for (i = 0; i < 8; i = i + 1) #5 clk = ~clk; end
      always @(posedge clk) begin a <= $random; acc <= acc + a; end
      initial #50 $finish;
    endmodule
"""

OTHER_SRC = """
    module tb; reg [7:0] b;
      initial begin b = 1; #10 $finish; end
    endmodule
"""


#: A concrete counter: no $random, so no BDD variable.
COUNTER_SRC = """
    module tb; reg [7:0] n; reg clk; integer i;
      initial begin n = 0; clk = 0;
        for (i = 0; i < 20; i = i + 1) #1 clk = ~clk; end
      always @(posedge clk) n <= n + 1;
      initial #30 $finish;
    endmodule
"""


def compile_src(source=SRC):
    return compile_design(elaborate(parse_source(source)))


@pytest.fixture
def ckpt(tmp_path):
    """A valid mid-run checkpoint of SRC, paused at time 20."""
    sim = repro.open_sim(SRC)
    sim.run(until=20)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(sim.kernel, path)
    return path


class TestFormat:
    def test_header_roundtrip(self, ckpt):
        header = read_header(ckpt)
        assert header["version"] == FORMAT_VERSION
        assert header["top"] == "tb"
        assert header["sim_time"] == 20  # paused at the until=20 bound
        assert header["design"] == design_fingerprint(compile_src())
        assert header["options"]["accumulation"] == "full"
        with open(ckpt, "rb") as handle:
            assert handle.readline() == MAGIC

    def test_checksum_covers_payload(self, ckpt):
        header = read_header(ckpt)
        with open(ckpt, "rb") as handle:
            handle.readline()
            handle.readline()
            payload = handle.read()
        assert len(payload) == header["payload_bytes"]
        assert hashlib.sha256(payload).hexdigest() == \
            header["payload_sha256"]

    def test_load_continues_to_same_end(self, ckpt):
        ref = repro.open_sim(SRC).run()
        kern = load_checkpoint(compile_src(), ckpt)
        resumed = kern.run()
        assert resumed.time == ref.time
        assert resumed.finished
        assert resumed.output == ref.output

    def test_atomic_write_leaves_no_temp_files(self, ckpt, tmp_path):
        assert [p.name for p in tmp_path.iterdir()] == ["mid.ckpt"]

    def test_fingerprint_distinguishes_designs(self):
        assert design_fingerprint(compile_src()) != \
            design_fingerprint(compile_src(OTHER_SRC))


class TestRejection:
    def test_truncated_payload(self, ckpt):
        truncate_file(ckpt, 200)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(compile_src(), ckpt)

    def test_flipped_payload_byte(self, ckpt):
        flip_byte(ckpt, -10)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(compile_src(), ckpt)

    def test_corrupt_header(self, ckpt):
        corrupt_header(ckpt)
        with pytest.raises(CheckpointError, match="header"):
            read_header(ckpt)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "not.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"GARBAGE\nmore garbage\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(compile_src(), path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(compile_src(), str(tmp_path / "absent.ckpt"))

    def test_future_format_version(self, ckpt):
        _rewrite_header(ckpt, lambda h: {**h, "version": FORMAT_VERSION + 1})
        with pytest.raises(CheckpointError, match="not supported"):
            load_checkpoint(compile_src(), ckpt)

    def test_wrong_design_rejected(self, ckpt):
        with pytest.raises(CheckpointError, match="different design"):
            load_checkpoint(compile_src(OTHER_SRC), ckpt)

    def test_semantic_option_mismatch_rejected(self, ckpt):
        from repro.compile.instructions import AccumulationMode

        with pytest.raises(CheckpointError, match="accumulation"):
            load_checkpoint(
                compile_src(), ckpt,
                options=SimOptions(accumulation=AccumulationMode.NONE))

    def test_operational_options_are_free(self, ckpt):
        # GC/reorder knobs are not semantic: resume may change them.
        kern = load_checkpoint(
            compile_src(), ckpt,
            options=SimOptions(gc_threshold=16, dyn_reorder=True,
                               reorder_threshold=32))
        result = kern.run()
        assert result.finished

    def test_pickle_payload_cannot_name_classes(self, ckpt):
        # An attacker-crafted payload that references a class (the
        # classic pickle RCE vector) must be refused outright, even
        # with a self-consistent checksum.
        evil = pickle.dumps({"mgr": repro.SymbolicSimulator})
        _rewrite_payload(ckpt, evil)
        with pytest.raises(CheckpointError, match="builtin"):
            load_checkpoint(compile_src(), ckpt)


class TestArenaValidation:
    """A checkpoint whose checksum holds but whose arena is not a
    reduced, ordered node store is refused with one line."""

    def _load_with(self, ckpt, mutate):
        _rewrite_arena(ckpt, mutate)
        with pytest.raises(CheckpointError, match="invalid BDD arena") as info:
            load_checkpoint(compile_src(), ckpt)
        assert "\n" not in str(info.value)
        return str(info.value)

    def test_forward_child_reference(self, ckpt):
        def forward(image):
            image["low"][2] = len(image["low"]) - 1

        assert "does not precede" in self._load_with(ckpt, forward)

    def test_level_beyond_variables(self, ckpt):
        def too_deep(image):
            image["level"][-1] = len(image["var_names"])

        assert "not below" in self._load_with(ckpt, too_deep)

    def test_duplicate_node(self, ckpt):
        def duplicate(image):
            for name in ("level", "low", "high"):
                image[name].append(image[name][-1])

        assert "duplicates node" in self._load_with(ckpt, duplicate)

    def test_blown_up_arena_still_loads(self, tmp_path):
        # fault-injected dead rows are a valid image until GC drops them
        faults = FaultInjector([Fault("arena-blowup", at_step=2,
                                      magnitude=10)])
        sim = repro.open_sim(SRC, options=SimOptions(faults=faults))
        sim.run(until=20)
        path = str(tmp_path / "blown.ckpt")
        save_checkpoint(sim.kernel, path)
        assert load_checkpoint(compile_src(), path).run().finished

    def test_blowup_is_skipped_without_variables(self, tmp_path, store):
        # a concrete design has no level for valid dead rows: the fault
        # is recorded as skipped and every checkpoint stays loadable
        faults = FaultInjector([Fault("arena-blowup", at_step=2,
                                      magnitude=10)])
        directory = str(tmp_path / "ckpts")
        sim = repro.open_sim(COUNTER_SRC, options=SimOptions(
            faults=faults, checkpoint_every=2, checkpoint_dir=directory))
        sim.run(until=12)
        assert sim.mgr.var_count == 0
        assert faults.skipped == faults.fired == faults.faults
        resumed = load_checkpoint(compile_src(COUNTER_SRC),
                                  str(tmp_path / "ckpts" / "latest.ckpt"))
        tail = resumed.run()
        whole = repro.open_sim(COUNTER_SRC).run()
        assert tail.finished and whole.finished
        assert (tail.value("n").to_verilog_bits()
                == whole.value("n").to_verilog_bits() == "00001010")

    def test_equal_children(self, ckpt):
        def redundant(image):
            image["high"][-1] = image["low"][-1]

        assert "equal children" in self._load_with(ckpt, redundant)


class TestSiftTrigger:
    @pytest.mark.parametrize("threshold", [10 ** 7, 5000],
                             ids=["before-first-sift", "after-a-sift"])
    def test_trigger_state_round_trips(self, tmp_path, threshold):
        # the phase, the re-arm point and the nodes built so far: a
        # resumed run must sift exactly where the whole run does
        source, top, defines = load("gcd", rounds=1, width=4)
        options = SimOptions(gc_threshold=200, dyn_reorder=True,
                             reorder_threshold=threshold)
        sim = repro.open_sim(source, top=top, defines=defines,
                             options=options)
        sim.run(until=10)
        mgr = sim.kernel.mgr
        assert mgr.cache_stats()["gc_reclaimed"] > 0
        assert (mgr._next_sift_at is None) == (threshold > 5000)
        path = str(tmp_path / "gcd.ckpt")
        save_checkpoint(sim.kernel, path)
        program = compile_design(elaborate(
            parse_source(source, defines=defines), top=top))
        resumed = load_checkpoint(program, path, options=options).mgr
        for attr in ("_next_sift_at", "_last_gc_size", "total_nodes",
                     "nodes_built"):
            assert getattr(resumed, attr) == getattr(mgr, attr), attr


class TestVcdPath:
    """The VCD path is stored relative to the checkpoint's directory."""

    @staticmethod
    def _checkpoint(directory):
        directory.mkdir(parents=True)
        options = SimOptions(vcd_path=str(directory / "run.vcd"))
        sim = repro.open_sim(SRC, options=options)
        sim.run(until=20)
        path = directory / "mid.ckpt"
        save_checkpoint(sim.kernel, str(path))
        return path

    @staticmethod
    def _whole_run(tmp_path):
        vcd = tmp_path / "whole.vcd"
        result = repro.open_sim(SRC, options=SimOptions(vcd_path=str(vcd))
                                ).run()
        return result.output, vcd.read_bytes()

    def test_size_does_not_depend_on_the_directory(self, tmp_path):
        short = self._checkpoint(tmp_path / "a")
        long = self._checkpoint(tmp_path / ("a" * 40) / "nested")
        assert short.stat().st_size == long.stat().st_size
        assert pickle.loads(_read_parts(short)[2])["vcd"]["path"] == \
            "run.vcd"

    def test_moved_directory_resumes(self, tmp_path):
        output, vcd = self._whole_run(tmp_path)
        path = self._checkpoint(tmp_path / "before")
        moved = tmp_path / "after" / "deeper"
        moved.parent.mkdir()
        (tmp_path / "before").rename(moved)
        resumed = load_checkpoint(compile_src(), str(moved / "mid.ckpt"))
        result = resumed.run()
        resumed._close_vcd()
        assert result.finished and result.output == output
        assert (moved / "run.vcd").read_bytes() == vcd
        assert not path.exists()

    def test_stored_absolute_path_loads(self, tmp_path):
        output, vcd = self._whole_run(tmp_path)
        path = self._checkpoint(tmp_path / "ckpt")
        elsewhere = tmp_path / "elsewhere.vcd"
        (tmp_path / "ckpt" / "run.vcd").rename(elsewhere)
        data = pickle.loads(_read_parts(path)[2])
        data["vcd"]["path"] = str(elsewhere)
        _rewrite_payload(str(path), pickle.dumps(data, protocol=4))
        resumed = load_checkpoint(compile_src(), str(path))
        assert resumed.run().output == output
        resumed._close_vcd()
        assert elsewhere.read_bytes() == vcd


def _read_parts(path):
    with open(path, "rb") as handle:
        magic = handle.readline()
        header = json.loads(handle.readline())
        payload = handle.read()
    return magic, header, payload


def _write_parts(path, magic, header, payload):
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(json.dumps(header).encode())
        handle.write(b"\n")
        handle.write(payload)


def _rewrite_header(path, mutate):
    magic, header, payload = _read_parts(path)
    _write_parts(path, magic, mutate(header), payload)


def _rewrite_payload(path, payload):
    magic, header, _ = _read_parts(path)
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    _write_parts(path, magic, header, payload)


def _rewrite_arena(path, mutate):
    """Apply ``mutate`` to the payload's arena image, keeping the
    checksum valid."""
    _, _, payload = _read_parts(path)
    data = pickle.loads(payload)
    mutate(data["mgr"])
    _rewrite_payload(path, pickle.dumps(data, protocol=4))
