"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import pytest

import repro
from repro import SimOptions
from repro.bdd import BddManager, native


@pytest.fixture
def mgr() -> BddManager:
    return BddManager()


@pytest.fixture
def python_store(monkeypatch) -> None:
    """Managers made during the test pick the Python node store (the
    native one reports itself unavailable)."""
    monkeypatch.setattr(native, "unavailable",
                        lambda: "disabled for this test")


@pytest.fixture(params=["native", "python"])
def store(request) -> str:
    """Run the test once per node store; the native leg skips where
    the native store cannot be built."""
    if request.param == "native":
        reason = native.unavailable()
        if reason is not None:
            pytest.skip(f"native BDD store unavailable: {reason}")
    else:
        request.getfixturevalue("python_store")
    return request.param


def run_source(source: str, top=None, until=None, **option_kwargs):
    """Compile and run Verilog source; return (SimResult, simulator)."""
    options = SimOptions(**option_kwargs) if option_kwargs else None
    sim = repro.open_sim(source, top=top, options=options)
    result = sim.run(until=until)
    return result, sim


def run_value(source: str, net: str, top=None, until=None, **option_kwargs):
    """Run source and return a net's final value as a bit string."""
    result, sim = run_source(source, top=top, until=until, **option_kwargs)
    return sim.value(net).to_verilog_bits()
