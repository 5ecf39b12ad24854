"""Name-based registry of scenario presets.

The registry does for *experiments* what :mod:`repro.protocols.registry`
does for protocols: every :class:`~repro.scenarios.spec.ScenarioSpec`
registered here is addressable by name from the CLI
(``scripts/scenario.py``), the benchmarks and the examples.  Importing
:mod:`repro.scenarios` registers the built-in presets — the paper's E1–E12
evaluation settings plus the stress scenarios (see
:mod:`repro.scenarios.presets` and ``docs/SCENARIOS.md``).
"""

from __future__ import annotations

from typing import Tuple

from repro.registry import Registry
from repro.scenarios.spec import ScenarioSpec

#: Preset specs by their ``name``.
SCENARIOS: Registry[ScenarioSpec] = Registry("scenario")

#: Add a spec under its name; returns it, so presets register and bind in
#: one line.
register_scenario = SCENARIOS.register
#: The spec registered under a name (``ValueError`` if unknown).
scenario = SCENARIOS.lookup


def available_scenarios(tag: str = "") -> Tuple[str, ...]:
    """Sorted names of every registered scenario (optionally one tag only)."""
    return tuple(
        name for name in SCENARIOS if not tag or tag in SCENARIOS[name].tags
    )
