"""Benchmark designs (Verilog sources) and their loaders.

Four designs reproduce the paper's evaluation workloads:

=========  ============================  ==============================
name       paper artifact                role
=========  ============================  ==============================
``gcd``    GCD circuit with delays       Table 1 worst case: while loop
                                         splitting paths on symbolic
                                         operands
``dram``   timing-accurate DRAM model    Table 1 accumulation-neutral
                                         case: symbolic data flows only
                                         through the datapath
``risc8``  8-bit RISC processor          Table 1 intermediate case:
                                         symbolic data-in every cycle
``mcu8``   8051-style micro-controller   Section 7 bug hunt: planted
           with a known bug              sequence-dependent bug, 12
                                         symbolic variables per cycle
=========  ============================  ==============================

``alu4`` (4-bit ALU with a planted carry-out bug) and ``arbiter``
(round-robin arbiter + fairness checker) are extra workloads beyond
the paper's table.  The designs with planted bugs take ``fixed=True``
to load the repaired edition; :data:`PLANTED_BUGS` registers them as
the regression corpus for the mutation/fault campaign engine
(:mod:`repro.mutate`).

Each loader returns (source_text, top_module_name, defines) with the
required workload-size macros filled in.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))


def _read(name: str) -> str:
    path = os.path.join(_HERE, "verilog", name)
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def gcd_design(rounds: int = 1, width: int = 4) -> Tuple[str, str, Dict[str, str]]:
    """GCD circuit + testbench.

    ``rounds`` symbolic operand pairs are pushed through the unit; each
    round adds 2×``width`` symbolic variables and a data-dependent
    while loop of up to ``2^width - 1`` iterations.  Without event
    accumulation the number of live execution paths approaches
    ``2^(2·width·rounds)`` — keep ``width·rounds`` small for the NONE
    mode.
    """
    return _read("gcd.v"), "gcd_tb", {
        "GCD_ROUNDS": str(rounds),
        "GCD_W": str(width),
    }


def dram_design(bursts: int = 2) -> Tuple[str, str, Dict[str, str]]:
    """DRAM timing model + testbench with ``bursts`` extra write/read
    pairs on symbolic addresses/data."""
    return _read("dram.v"), "dram_tb", {"DRAM_BURSTS": str(bursts)}


def risc8_design(runtime: int = 200) -> Tuple[str, str, Dict[str, str]]:
    """RISC8 processor + golden-model testbench, run for ``runtime``
    time units (one instruction cycle = 10 units)."""
    return _read("risc8.v"), "risc8_tb", {"RISC_RUNTIME": str(runtime)}


def mcu8_design(
    runtime: int = 100, quiet: int = 0, period: int = 1,
    fixed: bool = False,
) -> Tuple[str, str, Dict[str, str]]:
    """MCU8 micro-controller with the planted ADDC/interrupt bug.

    ``runtime`` simulation time units (10 per cycle); the shortest
    instruction sequence exposing the bug completes within ~50 units (4
    cycles after reset release at t=12) with the default full-rate
    injection.  ``quiet`` cycles after reset receive concrete NOPs (the
    init phase of Fig. 11); ``period`` injects symbols only every Nth
    cycle, throttling BDD growth on long runs.  ``fixed=True`` loads
    the repaired edition (the carry-in added unconditionally) — the
    clean baseline for mutation campaigns.
    """
    defines = {
        "MCU_RUNTIME": str(runtime),
        "MCU_QUIET": str(quiet),
        "MCU_PERIOD": str(period),
    }
    if fixed:
        defines["MCU_FIXED"] = "1"
    return _read("mcu8.v"), "mcu8_tb", defines


def alu4_design(
    runtime: int = 60, fixed: bool = False
) -> Tuple[str, str, Dict[str, str]]:
    """4-bit ALU with a planted ADD carry-out bug + golden-model
    checker; 10 fully symbolic stimulus bits per cycle (10 units each).
    ``fixed=True`` loads the repaired edition."""
    defines = {"ALU_RUNTIME": str(runtime)}
    if fixed:
        defines["ALU_FIXED"] = "1"
    return _read("alu4.v"), "alu4_tb", defines


def arbiter_design(runtime: int = 100) -> Tuple[str, str, Dict[str, str]]:
    """Round-robin arbiter + fairness checker (extra workload, not one
    of the paper's Table-1 designs); 4 symbolic request lines per
    cycle, one-hot/grant-implies-request/bounded-waiting properties."""
    return _read("arbiter.v"), "arbiter_tb", {"ARB_RUNTIME": str(runtime)}


#: Planted-bug regression corpus for mutation/fault campaigns: design
#: name -> loader kwargs for the buggy edition, a time horizon that
#: provably exposes the bug symbolically, and a human description.
#: The fixed edition of each entry (``fixed=True``) runs clean over
#: the same horizon; ``fixed_fast`` marks entries whose clean run is
#: cheap enough for tier-1 tests and campaign baselines (a clean
#: symbolic mcu8 run never prunes on a violation, so its BDD state
#: accumulates across every injected cycle — minutes, not seconds).
PLANTED_BUGS: Dict[str, Dict[str, object]] = {
    "mcu8": {
        "params": {"runtime": 50},
        "until": 60,
        "fixed_fast": False,
        "description": "ADDC carry-in dropped when an interrupt is "
                       "taken during the operand cycle",
    },
    "alu4": {
        "params": {"runtime": 60},
        "until": 80,
        "fixed_fast": True,
        "description": "ADD carry-out computed as a[3] & b[3] instead "
                       "of the true 5-bit sum's carry",
    },
}


#: Built-in design name -> loader; a loader's signature is the table
#: of its ``"params"`` (see :func:`repro.api.resolve_design`).
LOADERS = {
    "gcd": gcd_design,
    "dram": dram_design,
    "risc8": risc8_design,
    "mcu8": mcu8_design,
    "alu4": alu4_design,
    "arbiter": arbiter_design,
}


def loader(name: str):
    """The loader of built-in design ``name`` (KeyError naming the
    choices when there is none)."""
    if name not in LOADERS:
        raise KeyError(f"unknown design {name!r}; pick from {sorted(LOADERS)}")
    return LOADERS[name]


def load(name: str, **kwargs) -> Tuple[str, str, Dict[str, str]]:
    """Load a design by name
    (``gcd``/``dram``/``risc8``/``mcu8``/``alu4``/``arbiter``)."""
    return loader(name)(**kwargs)
