"""Shared fixtures for the claim benchmarks.

Every benchmark regenerates one quantitative claim (experiments E1-E14 and
ablations A1-A3, catalogued in docs/BENCHMARKS.md).  The overlays used
repeatedly are built once per session — from the *same* declarative
topology specs the scenario registry's presets carry
(``repro.scenarios.presets``), so the benchmarks and ``scripts/scenario.py``
provably run on identical overlays.  Each benchmark prints a small table
with its measurements; ``pytest benchmarks/ -s`` shows them.
"""

import pytest

from repro.scenarios.presets import OVERLAY_100, OVERLAY_200, OVERLAY_1000


@pytest.fixture(scope="session")
def overlay_1000():
    """The paper's evaluation overlay: 1,000 peers, Bitcoin-like degree 8."""
    return OVERLAY_1000.build()


@pytest.fixture(scope="session")
def overlay_200():
    """A smaller overlay used by the attack experiments to keep runs fast."""
    return OVERLAY_200.build()


@pytest.fixture(scope="session")
def overlay_100():
    """A small overlay for parameter sweeps with many repetitions."""
    return OVERLAY_100.build()
