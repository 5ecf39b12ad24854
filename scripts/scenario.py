#!/usr/bin/env python3
"""The single entry point for declarative scenarios.

Every experiment this repository can express — the paper's E1–E12
evaluation settings and the stress scenarios beyond them — is a registered,
JSON-serializable :class:`~repro.scenarios.spec.ScenarioSpec`.  This CLI
enumerates, inspects and executes them:

    # what exists
    python scripts/scenario.py list
    python scripts/scenario.py list --tag stress

    # the full serialized spec of one scenario
    python scripts/scenario.py describe stress_node_churn

    # run one scenario (repetitions fan out over worker processes) and
    # persist the structured result, including the run digest
    python scripts/scenario.py run stress_node_churn --json-out churn.json

    # run an ad-hoc spec edited offline
    python scripts/scenario.py run --spec-file my_scenario.json

    # sweep-friendly overrides, no committed spec edits needed
    python scripts/scenario.py run stress_mixed_senders \
        --repetitions 5 --seed 99 --estimator rumor_centrality

    # swap in an active adversary model (see docs/ADVERSARIES.md)
    python scripts/scenario.py run stress_mixed_senders \
        --adversary-model adaptive

    # record runtime telemetry (docs/OBSERVABILITY.md): counters, phase
    # spans, per-shard stats, plus a Chrome-loadable trace file
    python scripts/scenario.py run e11_scale --engine sharded \
        --telemetry telemetry.json

Every run reports the anonymity metrics of the privacy subsystem
(``docs/PRIVACY.md``) next to the detection numbers; ``--no-privacy``
turns them off.

No dependencies beyond what ``repro`` itself needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.scenarios import (  # noqa: E402
    PrivacySpec,
    ScenarioRunner,
    ScenarioSpec,
    SpecRefused,
    available_scenarios,
    scenario,
)
from repro.telemetry import chrome_trace, write_json  # noqa: E402
from repro.threat import ADVERSARY_MODELS, ESTIMATORS  # noqa: E402


def _cmd_list(args: argparse.Namespace) -> int:
    names = available_scenarios(tag=args.tag or "")
    if not names:
        print(f"no scenarios registered with tag {args.tag!r}")
        return 1
    rows = []
    for name in names:
        spec = scenario(name)
        topology = (
            f"{spec.topology.family}"
            f"({spec.topology.params.get('num_nodes', '?')})"
        )
        extras = []
        if spec.churn is not None:
            extras.append("churn")
        if spec.adversary.model != "static":
            extras.append(f"model={spec.adversary.model}")
        for fault in spec.faults:
            extras.append(f"fault={fault.model}")
        if spec.conditions.loss_probability > 0:
            extras.append(f"loss {spec.conditions.loss_probability:.0%}")
        if spec.workload.sender_pool:
            extras.append(f"{spec.workload.sender_pool} senders")
        rows.append([
            name,
            spec.protocol,
            topology,
            f"{spec.adversary.fraction:.0%}",
            ",".join(spec.tags),
            spec.description + (f" [{', '.join(extras)}]" if extras else ""),
        ])
    print(format_table(
        ["scenario", "protocol", "topology", "adversary", "tags",
         "description"],
        rows,
        title=f"{len(names)} registered scenarios",
    ))
    return 0


def _input_error(error: Exception) -> int:
    """Report a bad name or spec as one ``error:`` line, not a traceback."""
    print(f"error: {error.args[0]}", file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        spec = scenario(args.name)
    except ValueError as error:
        return _input_error(error)
    print(spec.to_json(indent=2))
    return 0


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec_file:
        try:
            text = Path(args.spec_file).read_text()
        except OSError as error:
            raise ValueError(
                f"cannot read spec file '{args.spec_file}': {error.strerror}"
            ) from error
        return ScenarioSpec.from_json(text)
    if not args.name:
        raise SystemExit("run: give a scenario name or --spec-file")
    return scenario(args.name)


def _cmd_run(args: argparse.Namespace) -> int:
    # Spec construction validates every registry name (estimator, adversary
    # model, fault model) and raises ValueError listing the registered
    # alternatives (TypeError for a malformed spec file, and a spec file
    # that cannot be read names itself); surface that as a clean CLI error,
    # not a traceback.
    try:
        spec = _load_spec(args)
        if args.seed is not None:
            spec = spec.derive(
                seeds=dataclasses.replace(spec.seeds, base_seed=args.seed)
            )
        if args.estimator is not None:
            spec = spec.derive(
                adversary=dataclasses.replace(
                    spec.adversary, estimator=args.estimator
                )
            )
        if args.adversary_model is not None:
            spec = spec.derive(
                adversary=dataclasses.replace(
                    spec.adversary, model=args.adversary_model
                )
            )
        if args.engine is not None:
            spec = spec.derive(engine=args.engine)
        if args.shards is not None:
            spec = spec.derive(shards=args.shards)
    except (ValueError, TypeError) as error:
        return _input_error(error)
    if args.no_privacy:
        spec = spec.derive(privacy=PrivacySpec(enabled=False))
    runner = ScenarioRunner(
        processes=args.processes, telemetry=bool(args.telemetry)
    )
    # A generator or protocol may still refuse the spec's values once it
    # is compiled, in whichever process runs a repetition.
    try:
        result = runner.run(spec, repetitions=args.repetitions)
    except SpecRefused as error:
        return _input_error(error)

    print(f"# scenario: {spec.name}  ({spec.description})")
    print(f"# protocol={spec.protocol} topology={spec.topology.family} "
          f"adversary={spec.adversary.fraction:.0%} "
          f"broadcasts={spec.workload.broadcasts} "
          f"repetitions={len(result.runs)}")
    metric_names = sorted(result.runs[0])
    rows = [
        [f"rep {rep} (seed {seed})"]
        + [run[metric] for metric in metric_names]
        for rep, (seed, run) in enumerate(zip(result.seeds, result.runs))
    ]
    rows.append(
        ["mean"] + [result.aggregate[metric] for metric in metric_names]
    )
    print(format_table(["run"] + metric_names, rows))
    print(f"# digest: {result.digest}")
    print(f"# engine: requested={spec.engine} "
          f"effective={result.aggregate['engine_effective']}")

    if args.telemetry:
        telemetry_path = Path(args.telemetry)
        write_json(telemetry_path, result.telemetry)
        trace_path = telemetry_path.with_suffix(".trace.json")
        write_json(trace_path, chrome_trace(result.telemetry))
        for reason, count in sorted(result.telemetry["fallbacks"].items()):
            print(f"# fallback ({count} runs): {reason}")
        print(f"# wrote telemetry {telemetry_path} + trace {trace_path}")

    if args.json_out:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {path}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="enumerate registered scenarios"
    )
    list_parser.add_argument(
        "--tag", default=None,
        help="only scenarios carrying this tag (e.g. 'paper', 'stress')",
    )
    list_parser.set_defaults(func=_cmd_list)

    describe_parser = commands.add_parser(
        "describe", help="print one scenario's full JSON spec"
    )
    describe_parser.add_argument("name")
    describe_parser.set_defaults(func=_cmd_describe)

    run_parser = commands.add_parser(
        "run", help="execute a scenario and print/persist its result"
    )
    run_parser.add_argument("name", nargs="?", default=None)
    run_parser.add_argument(
        "--spec-file", default=None,
        help="run a ScenarioSpec JSON file instead of a registered name",
    )
    run_parser.add_argument(
        "--json-out", default=None,
        help="write the structured result (spec, runs, digest) here",
    )
    run_parser.add_argument(
        "--repetitions", type=_positive_int, default=None,
        help="override the spec's repetition count",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's base seed",
    )
    run_parser.add_argument(
        "--estimator", default=None,
        help="override the spec's source estimator "
             f"({', '.join(ESTIMATORS)})",
    )
    run_parser.add_argument(
        "--adversary-model", default=None,
        help="override the spec's adversary behaviour model "
             f"({', '.join(ADVERSARY_MODELS)})",
    )
    run_parser.add_argument(
        "--engine", default=None,
        help="override the spec's simulator engine ('event', 'batched' or "
             "'sharded'; all are seed-for-seed identical, 'batched' is "
             "faster at scale and 'sharded' spreads eligible runs over "
             "worker processes)",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None,
        help="worker-process count for --engine sharded "
             "(default: the engine's own default)",
    )
    run_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="record runtime telemetry (counters, phase spans, per-shard "
             "stats) and write the scenario-level JSON document here, plus "
             "a Chrome trace-event file next to it (PATH with a "
             "'.trace.json' suffix; load via chrome://tracing or Perfetto)",
    )
    run_parser.add_argument(
        "--no-privacy", action="store_true",
        help="skip the anonymity metrics (detection metrics only)",
    )
    run_parser.add_argument(
        "--processes", type=_positive_int, default=None,
        help="worker processes for the repetition fan-out (1 = serial)",
    )
    run_parser.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
