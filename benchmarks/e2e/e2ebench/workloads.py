"""The five workloads: plain spec dictionaries generated from ``--seed``.

Nothing here imports ``repro`` — a workload is the JSON a researcher would
hand to ``ScenarioRunner``.  ``--seed`` is added to every topology seed and
every ``base_seed``; names and sizes never depend on it.

Topology sizes are the ones the issue fixes.  The driver's time cap (114
invocations in 3,420 s) is met by cutting ``broadcasts`` and ``repetitions``
only, so a timed run lasts 5-16 s and an invocation makes two to four of
them.  ``tiny`` is the self-test scale (<= 300 peers), reachable from the
self-tests alone.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

HERE = pathlib.Path(__file__).resolve().parent.parent
PRESETS_FILE = HERE / "presets.json"
SPEC_DIR = HERE / "workloads"

SCALES = ("full", "tiny")

IDEAL = {"kind": "ideal", "delay": 0.1}
FIRST_SPY_20 = {"fraction": 0.2, "estimator": "first_spy"}


def nproc() -> int:
    """CPUs this process may run on (what ``P`` and ``shards`` are capped by)."""
    return len(os.sched_getaffinity(0))


def _regular(nodes: int, seed: int) -> Dict[str, Any]:
    return {
        "family": "random_regular",
        "params": {"num_nodes": nodes, "degree": 8, "seed": seed},
    }


def _paper_three_phase(seed: int, scale: str) -> List[Dict[str, Any]]:
    nodes, broadcasts = {"full": (10_000, 2), "tiny": (200, 2)}[scale]
    return [{
        "name": "paper_three_phase",
        "topology": _regular(nodes, 1100 + seed),
        "conditions": IDEAL,
        "protocol": "three_phase",
        "protocol_options": {"group_size": 5, "diffusion_depth": 3},
        "adversary": FIRST_SPY_20,
        "workload": {"broadcasts": broadcasts},
        "seeds": {"base_seed": 11 + seed, "repetitions": 1},
        "engine": "batched",
    }]


def _flood_scale(seed: int, scale: str) -> List[Dict[str, Any]]:
    nodes, broadcasts = {"full": (100_000, 1), "tiny": (300, 1)}[scale]
    return [{
        "name": "flood_scale",
        "topology": _regular(nodes, 2100 + seed),
        "conditions": IDEAL,
        "protocol": "flood",
        "adversary": FIRST_SPY_20,
        "workload": {"broadcasts": broadcasts},
        "seeds": {"base_seed": 21 + seed, "repetitions": 1},
        "engine": "sharded",
        "shards": min(2, nproc()),
    }]


def _lossy_wan(seed: int, scale: str) -> List[Dict[str, Any]]:
    nodes, broadcasts = {"full": (10_000, 2), "tiny": (200, 2)}[scale]
    return [{
        "name": "lossy_wan",
        "topology": _regular(nodes, 3100 + seed),
        "conditions": {
            "kind": "internet_like", "low": 0.05, "high": 0.3,
            "loss_probability": 0.05, "jitter": 0.02,
        },
        "protocol": "flood",
        "adversary": {
            "fraction": 0.2, "estimator": "first_spy", "model": "adaptive",
            "model_params": {},
        },
        "workload": {"broadcasts": broadcasts, "sender_pool": 5},
        "seeds": {"base_seed": 31 + seed, "repetitions": 1},
        "privacy": {"enabled": True, "intersection": True},
        "engine": "batched",
    }]


def _snapshot_rumor(seed: int, scale: str) -> List[Dict[str, Any]]:
    nodes, broadcasts = {"full": (400, 2), "tiny": (60, 1)}[scale]
    return [{
        "name": "snapshot_rumor",
        "topology": _regular(nodes, 4100 + seed),
        "conditions": IDEAL,
        "protocol": "flood",
        "adversary": {"fraction": 0.2, "estimator": "rumor_centrality"},
        "workload": {"broadcasts": broadcasts},
        "seeds": {"base_seed": 41 + seed, "repetitions": 1},
        "engine": "event",
    }]


def _preset_sweep(seed: int, scale: str) -> List[Dict[str, Any]]:
    """The preset catalogue as snapshotted in ``presets.json``, re-seeded."""
    specs = []
    for preset in json.loads(PRESETS_FILE.read_text()):
        spec = copy.deepcopy(preset)
        params = spec["topology"]["params"]
        if scale == "tiny":
            if params.get("num_nodes", 0) > 300:
                continue
            workload = spec["workload"]
            workload["broadcasts"] = min(workload["broadcasts"], 2)
        if "seed" in params:
            params["seed"] += seed
        spec["seeds"]["base_seed"] += seed
        spec["seeds"]["repetitions"] = 3 if scale == "full" else 1
        specs.append(spec)
    return specs


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` takes.
        why: one line on what the workload shows that the others do not.
        make: ``(seed, scale) -> spec dictionaries``.
        lossless: declared lossless and churn-free — a repetition whose
            ``mean_reach`` is below 1.0 counts as a failed operation.
        parallel: whether the timed run uses ``P = min(2, nproc)`` processes
            (every other workload runs ``P = 1``).
    """

    name: str
    why: str
    make: Callable[[int, str], List[Dict[str, Any]]]
    lossless: bool
    parallel: bool = False

    def processes(self) -> int:
        return min(2, nproc()) if self.parallel else 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_three_phase",
            "three_phase k=5 d=3 on 10,000 peers, 2 broadcasts, engine=batched "
            "(falls back to event): group assignment and the per-event loop "
            "do the work, so ROADMAP items 1(c) and 2 move setup_s and wall_s "
            "here.",
            _paper_three_phase,
            lossless=True,
        ),
        Workload(
            "flood_scale",
            "flood on 100,000 peers, 1 broadcast, engine=sharded, 2 shards: the "
            "fast path engages, so populate, the store read path behind "
            "first-spy and fork/pipe cost dominate, not delivery.",
            _flood_scale,
            lossless=True,
        ),
        Workload(
            "lossy_wan",
            "flood on 10,000 peers, per-edge delay + 5% loss + jitter, adaptive "
            "adversary, sender pool 5, 2 broadcasts, engine=batched: cohorts "
            "are singletons and every send draws, the kernel's irregular "
            "case.",
            _lossy_wan,
            lossless=False,
        ),
        Workload(
            "snapshot_rumor",
            "flood on 400 peers against the rumor_centrality snapshot "
            "estimator, 2 broadcasts, engine=event: the adversary layer is "
            "nearly all of wall_s; bypasses every engine/store optimisation.",
            _snapshot_rumor,
            lossless=True,
        ),
        Workload(
            "preset_sweep",
            "the 25 registered presets x 3 repetitions at P=min(2,nproc): "
            "16-2,000 peers, all protocols, churn, faults, every adversary "
            "model; compile, fork-pool fan-out and small-network constant "
            "costs dominate.",
            _preset_sweep,
            lossless=False,
            parallel=True,
        ),
    )
}


def check_parallelism(
    specs: List[Dict[str, Any]], processes: int, cpus: int
) -> None:
    """Refuse to start when ``P`` or a spec's ``shards`` exceeds ``cpus``.

    Oversubscribed workers time-share a core, which measures the scheduler.
    """
    wanted = max([processes] + [spec.get("shards") or 1 for spec in specs])
    if wanted > cpus:
        raise SystemExit(
            f"e2e benchmark: refusing to start — the workload asks for "
            f"{wanted} parallel workers but only {cpus} CPU(s) are available"
        )


def reduced_for_verification(spec: Dict[str, Any]) -> Dict[str, Any]:
    """``spec`` at a size the event engine finishes in about a second."""
    small = copy.deepcopy(spec)
    params = small["topology"]["params"]
    params["num_nodes"] = min(params["num_nodes"], 2000)
    small["workload"]["broadcasts"] = min(small["workload"]["broadcasts"], 2)
    return small


def write_specs(name: str, seed: int, scale: str = "full") -> List[str]:
    """Generate the workload's spec files; returns their paths in run order."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    specs = WORKLOADS[name].make(seed, scale)
    suffix = "" if scale == "full" else f"-{scale}"
    directory = SPEC_DIR / f"{name}-seed{seed}{suffix}"
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, spec in enumerate(specs):
        path = directory / f"{index:02d}_{spec['name']}.json"
        path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    return paths


def sizes(scale: str = "full") -> Dict[str, Any]:
    """The final workload sizes, for the ``meta`` block of a result file."""
    out: Dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        specs = workload.make(0, scale)
        out[name] = {
            "specs": len(specs),
            "peers_max": max(
                spec["topology"]["params"].get("num_nodes", 0)
                for spec in specs
            ),
            "broadcasts": sum(
                spec["workload"]["broadcasts"]
                * spec["seeds"]["repetitions"]
                for spec in specs
            ),
            "operations": sum(
                spec["seeds"]["repetitions"] for spec in specs
            ),
            "processes": workload.processes(),
        }
    return out
