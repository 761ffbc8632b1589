"""VCD (Value Change Dump) waveform output.

``$dumpfile("x.vcd")`` + ``$dumpvars`` in the testbench — or
``SimOptions(vcd_path=...)`` — produce an IEEE-1364 VCD file viewable
in GTKWave & co.  During *symbolic* simulation a bit that is still
symbolic has no single waveform value; it is emitted as ``x`` (the
honest projection), while concrete resimulations produce exact
waveforms.  Memories and the kernel's internal shadow registers are
not dumped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO

from repro.bdd import TRUE
from repro.fourval import FourVec

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """VCD short identifiers: printable-ASCII base-94 counter."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


def _value_chars(value: FourVec) -> str:
    """MSB-first characters; symbolic bits project to 'x'."""
    chars = []
    for a, b in reversed(value.bits):
        if a > TRUE or b > TRUE:
            chars.append("x")
        elif b == TRUE:
            chars.append("x" if a == TRUE else "z")
        else:
            chars.append("1" if a == TRUE else "0")
    return "".join(chars)


class VcdWriter:
    """Streams value changes for a set of nets to a VCD file."""

    def __init__(self, stream: TextIO, timescale: str = "1ns") -> None:
        self._stream = stream
        self._timescale = timescale
        self._ids: Dict[str, str] = {}
        self._widths: Dict[str, int] = {}
        self._last: Dict[str, str] = {}
        self._header_done = False
        self._current_time: Optional[int] = None

    # ------------------------------------------------------------------

    def declare(self, full_name: str, width: int) -> None:
        """Register one net before the header is written."""
        if self._header_done or full_name in self._ids:
            return
        self._ids[full_name] = _identifier(len(self._ids))
        self._widths[full_name] = width

    def write_header(self, top: str) -> None:
        out = self._stream
        out.write(f"$timescale {self._timescale} $end\n")
        # group variables by hierarchical scope
        scoped: Dict[str, List[str]] = {}
        for name in self._ids:
            scope, _, leaf = name.rpartition(".")
            scoped.setdefault(scope, []).append(name)
        out.write(f"$scope module {top} $end\n")
        for name in scoped.get("", []):
            self._write_var(name, name)
        for scope in sorted(s for s in scoped if s):
            for part in scope.split("."):
                out.write(f"$scope module {part} $end\n")
            for name in scoped[scope]:
                self._write_var(name, name.rpartition(".")[2])
            for _ in scope.split("."):
                out.write("$upscope $end\n")
        out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")
        self._header_done = True

    def _write_var(self, full_name: str, leaf: str) -> None:
        width = self._widths[full_name]
        ref = leaf if width == 1 else f"{leaf} [{width - 1}:0]"
        self._stream.write(
            f"$var wire {width} {self._ids[full_name]} {ref} $end\n"
        )

    # ------------------------------------------------------------------

    def record(self, sim_time: int, full_name: str, value: FourVec) -> None:
        """Emit a change record (deduplicated against the last value)."""
        ident = self._ids.get(full_name)
        if ident is None:
            return
        self._emit(sim_time, full_name, ident, _value_chars(value))

    def record_raw(self, sim_time: int, full_name: str, raw: int) -> None:
        """:meth:`record` of a fully-known word, without its vector."""
        ident = self._ids.get(full_name)
        if ident is None:
            return
        self._emit(sim_time, full_name, ident,
                   format(raw, f"0{self._widths[full_name]}b"))

    def _emit(self, sim_time: int, full_name: str, ident: str,
              chars: str) -> None:
        if self._last.get(full_name) == chars:
            return
        self._last[full_name] = chars
        if self._current_time != sim_time:
            self._current_time = sim_time
            self._stream.write(f"#{sim_time}\n")
        if len(chars) == 1:
            self._stream.write(f"{chars}{ident}\n")
        else:
            self._stream.write(f"b{chars} {ident}\n")

    def dump_all(self, sim_time: int, values) -> None:
        """Emit the current value of every declared net (``$dumpvars``)."""
        self._current_time = sim_time
        self._stream.write("$dumpvars\n")
        for name in self._ids:
            value = values(name)
            if value is not None:
                self._last.pop(name, None)
                self.record(sim_time, name, value)
        self._stream.write("$end\n")

    def close(self) -> None:
        self._stream.flush()
