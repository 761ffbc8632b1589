"""Unit tests for the symbolic value store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import SimulationError
from repro.frontend import elaborate, parse_source
from repro.frontend.elaborate import NetInfo
from repro.fourval import FourVec
from repro.sim.state import SimState


@pytest.fixture
def setup():
    design = elaborate(parse_source("""
        module tb;
          reg [3:0] r;
          wire [1:0] w;
          integer i;
          event ev;
          reg [7:0] mem [2:5];
        endmodule
    """))
    mgr = BddManager()
    return mgr, SimState(mgr, design), design


class TestInitialValues:
    def test_reg_x(self, setup):
        _, state, _ = setup
        assert state.value("r").to_verilog_bits() == "xxxx"

    def test_wire_z(self, setup):
        _, state, _ = setup
        assert state.value("w").to_verilog_bits() == "zz"

    def test_event_zero(self, setup):
        _, state, _ = setup
        assert state.value("ev").to_int() == 0

    def test_integer_signed(self, setup):
        _, state, _ = setup
        assert state.value("i").signed

    def test_unknown_name(self, setup):
        _, state, _ = setup
        with pytest.raises(SimulationError):
            state.value("nope")

    def test_memory_not_scalar(self, setup):
        _, state, _ = setup
        with pytest.raises(SimulationError):
            state.value("mem")
        assert state.is_array("mem")


class TestArrays:
    def test_concrete_rw(self, setup):
        mgr, state, _ = setup
        idx = FourVec.from_int(mgr, 3, 4)
        value = FourVec.from_int(mgr, 0xAB, 8)
        change = state.write_array("mem", idx, value, TRUE, 2, 5)
        assert change == TRUE
        assert state.read_array("mem", idx, 2, 5).to_int() == 0xAB

    def test_unwritten_reads_x(self, setup):
        mgr, state, _ = setup
        idx = FourVec.from_int(mgr, 4, 4)
        assert state.read_array("mem", idx, 2, 5).to_verilog_bits() == "x" * 8

    def test_out_of_range(self, setup):
        mgr, state, _ = setup
        bad = FourVec.from_int(mgr, 9, 4)
        assert state.read_array("mem", bad, 2, 5).to_verilog_bits() == "x" * 8
        assert state.write_array(
            "mem", bad, FourVec.from_int(mgr, 1, 8), TRUE, 2, 5
        ) == FALSE

    def test_idempotent_write_no_change(self, setup):
        mgr, state, _ = setup
        idx = FourVec.from_int(mgr, 2, 4)
        value = FourVec.from_int(mgr, 7, 8)
        state.write_array("mem", idx, value, TRUE, 2, 5)
        assert state.write_array("mem", idx, value, TRUE, 2, 5) == FALSE

    def test_guarded_write(self, setup):
        mgr, state, _ = setup
        control = mgr.new_var("c")
        idx = FourVec.from_int(mgr, 2, 4)
        value = FourVec.from_int(mgr, 9, 8)
        state.write_array("mem", idx, value, control, 2, 5)
        word = state.read_array("mem", idx, 2, 5)
        assert word.substitute({0: True}).to_int() == 9
        assert word.substitute({0: False}).to_verilog_bits() == "x" * 8

    def test_symbolic_index_write(self, setup):
        mgr, state, _ = setup
        sym = FourVec.fresh_symbol(mgr, 2, "a")  # levels 0,1
        # address sym+2 covers the whole 2..5 range
        from repro.fourval import ops

        idx = ops.add(sym.resize(4), FourVec.from_int(mgr, 2, 4))
        state.write_array("mem", idx, FourVec.from_int(mgr, 0x55, 8), TRUE,
                          2, 5)
        for word_index in range(2, 6):
            word = state.read_array(
                "mem", FourVec.from_int(mgr, word_index, 4), 2, 5
            )
            offset = word_index - 2
            cube = {0: bool(offset & 1), 1: bool(offset & 2)}
            assert word.substitute(cube).to_int() == 0x55

    def test_zero_control_write_is_noop(self, setup):
        mgr, state, _ = setup
        idx = FourVec.from_int(mgr, 2, 4)
        assert state.write_array(
            "mem", idx, FourVec.from_int(mgr, 1, 8), FALSE, 2, 5
        ) == FALSE
        assert not state.array_words("mem")


#: one address/data bit: a constant digit or the level of a two-valued
#: symbolic variable
_BITS = st.sampled_from(["0", "1", "x", "z", 0, 1, 2])


def _words(width):
    """A fully-known word half the time, else freely mixed bits."""
    known = st.integers(0, (1 << width) - 1).map(
        lambda n: [str(n >> i & 1) for i in range(width)])
    return st.one_of(known, st.lists(_BITS, min_size=width,
                                     max_size=width))


_CONTROLS = st.sampled_from(["true", "false", "v0", "!v1", "v0&v2"])
#: (address bits, data bits, control, repeat the previous write)
_WRITES = st.lists(
    st.tuples(_words(3), _words(4), _CONTROLS, st.booleans()),
    max_size=8)

_PROPERTY_DESIGN = elaborate(parse_source("""
    module tb;
      reg [3:0] mem [2:5];
    endmodule
"""))


def _bits_vec(mgr, bits):
    pairs = []
    for bit in bits:
        if isinstance(bit, int):
            pairs.append((mgr.var(bit), FALSE))
        else:
            pairs.append(FourVec.from_verilog_bits(mgr, bit).bits[0])
    return FourVec(mgr, pairs)


def _control(mgr, name):
    return {"true": TRUE, "false": FALSE, "v0": mgr.var(0),
            "!v1": mgr.not_(mgr.var(1)),
            "v0&v2": mgr.and_(mgr.var(0), mgr.var(2))}[name]


class TestWriteChangeFlag:
    """The write flag is the old change-condition BDD compared with FALSE.

    3-bit addresses reach below (0, 1) and above (6, 7) the ``[2:5]``
    range; X/Z address bits and symbolic bits mix freely.
    """

    @settings(max_examples=150, deadline=None)
    @given(writes=_WRITES)
    def test_flag_matches_change_condition(self, writes):
        for fastpath in (True, False):
            mgr = BddManager()
            mgr.fastpath = fastpath
            for name in ("v0", "v1", "v2"):
                mgr.new_var(name)
            state = SimState(mgr, _PROPERTY_DESIGN)
            words = state.array_words("mem")
            unwritten = FourVec.all_x(mgr, 4)
            previous = None
            for address, data, control, repeat in writes:
                if repeat and previous is not None:
                    address, data, control = previous
                previous = address, data, control
                before = dict(words)
                changed = state.write_array(
                    "mem", _bits_vec(mgr, address), _bits_vec(mgr, data),
                    _control(mgr, control), 2, 5)
                oracle = mgr.or_all(
                    before.get(i, unwritten).change_condition(
                        words.get(i, unwritten))
                    for i in range(2, 6))
                assert type(changed) is bool
                assert changed == (oracle != FALSE)


class TestRegistration:
    def test_sync_with_design(self, setup):
        mgr, state, design = setup
        design.add_net(NetInfo(full_name="$shadow.99.t", kind="reg", msb=3))
        state.sync_with_design()
        assert state.value("$shadow.99.t").to_verilog_bits() == "xxxx"
