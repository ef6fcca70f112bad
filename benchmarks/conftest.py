"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` module reproduces one experiment of the paper (E1–E9)
as pytest tests.  Heavyweight inputs are built once per session here.

The modules are named ``bench_*.py``, which pytest does not collect by
default, so name the pattern when running them (from the repository root)::

    PYTHONPATH=src python -m pytest benchmarks/ -o python_files='bench_*.py' --benchmark-disable

``--benchmark-disable`` runs each timed body once, as a plain test; drop it
to let pytest-benchmark time them.

Set ``COBRA_BENCH_FULL=1`` to run the Section 4 experiment at the paper's
full scale (1,055 zip codes / 139,260 monomials); the default uses the same
structure at full zip-code count but fewer customers, which leaves every
reported monomial count identical and only shrinks the coefficients' sample
size.
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import TelephonyConfig, generate_revenue_provenance
from repro.workloads.tpch import TpchConfig, generate_tpch_catalog


def pytest_report_header(config):
    return "COBRA reproduction benchmarks — one module per paper experiment (E1–E9)"


@pytest.fixture(scope="session")
def section4_config() -> TelephonyConfig:
    """The Section 4 instance: 1,055 zips x 11 plans x 12 months."""
    full = os.environ.get("COBRA_BENCH_FULL") == "1"
    return TelephonyConfig(
        num_customers=1_000_000 if full else 100_000,
        num_zips=1_055,
        months=tuple(range(1, 13)),
    )


@pytest.fixture(scope="session")
def section4_provenance(section4_config):
    """The 139,260-monomial provenance of the Section 4 instance."""
    return generate_revenue_provenance(section4_config)


@pytest.fixture(scope="session")
def medium_provenance():
    """A medium telephony instance (200 zips) for sweeps and scenario benches."""
    config = TelephonyConfig(
        num_customers=20_000, num_zips=200, months=tuple(range(1, 13))
    )
    return generate_revenue_provenance(config)


@pytest.fixture(scope="session")
def fig2_tree():
    return plans_tree()


@pytest.fixture(scope="session")
def tpch_catalog():
    """A small TPC-H-style instance (about 5k lineitems)."""
    return generate_tpch_catalog(TpchConfig(scale=0.001))
