"""Self-tests of the end-to-end benchmark (collected by the tier-1 run).

The workloads run at the ``tiny`` scale (<= 300 peers, 1-2 broadcasts) and
in this process — ``child.dispatch`` stands in for the fresh subprocess — so
the whole file stays well under 20 s.  One test goes through a real
subprocess to cover ``launch`` itself.
"""

import json
import pathlib
import time

import pytest

from e2ebench import child, cli, compare, tracing, workloads
from e2ebench.catalogue import (
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    summarise,
)

HERE = pathlib.Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload measured once at the tiny scale, traced and verified."""
    out = tmp_path_factory.mktemp("traces")
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        run = cli.WorkloadRun(
            workload, seed=0, scale="tiny", launcher=child.dispatch
        )
        run.setup_once()
        run.timed_once()
        run.verify_engines()
        run.traced(out / f"{name}.trace.json", seconds=0)
        runs[name] = run
    return runs


def test_every_workload_reports_every_named_metric(tiny_runs):
    for name, run in tiny_runs.items():
        assert run.ops_failed == 0, (name, run.failures)
        assert run.ops_attempted >= 2 * run.ops_per_run
        table = run.end_to_end()
        assert list(table) == [metric.name for metric in END_TO_END]
        for metric in END_TO_END:
            assert table[metric.name]["unit"] == metric.unit
        for metric in DRIVER_END_TO_END:
            assert table[metric.name]["median"] > 0, (name, metric.name)
        assert list(run.layer) == list(PER_LAYER)
        document = run.document()
        assert set(document["per_layer"]) == set(PER_LAYER)
        assert document["strings"]["engine.effective"]
        assert all(len(digest) == 64 for digest in document["digests"].values())


def test_tiny_workloads_stay_tiny():
    for name, workload in workloads.WORKLOADS.items():
        for spec in workload.make(0, "tiny"):
            assert spec["topology"]["params"].get("num_nodes", 0) <= 300
            assert spec["workload"]["broadcasts"] <= 2


def test_layers_show_the_shape_each_workload_was_chosen_for(tiny_runs):
    assert tiny_runs["paper_three_phase"].layer["engine.fast_path_share"] == 0
    assert tiny_runs["paper_three_phase"].layer["groups.count"] > 0
    assert tiny_runs["flood_scale"].layer["groups.count"] == 0
    assert tiny_runs["flood_scale"].layer["sharded.runs"] == 1
    assert tiny_runs["lossy_wan"].layer["batched.cohort_size_mean"] < 1.5
    assert tiny_runs["lossy_wan"].layer["conditions.loss_draws"] > 0
    assert tiny_runs["snapshot_rumor"].layer["conditions.loss_draws"] == 0
    assert tiny_runs["snapshot_rumor"].layer["adversary.share_of_wall"] > 0.5
    for run in tiny_runs.values():
        covered = float(run.strings["trace.covered_share"])
        assert covered > 0.9, (run.workload.name, covered)


@pytest.mark.parametrize("name", ["paper_three_phase", "flood_scale"])
def test_wrapped_run_digest_equals_plain_digest(name, tmp_path):
    """One shared-session and one per-broadcast protocol."""
    paths = workloads.write_specs(name, 3, "tiny")
    plain = child.run_specs(paths, 1)
    wrapped = child.dispatch(
        "trace", {"paths": paths, "trace_out": str(tmp_path / "t.json")}
    )
    assert [spec["digest"] for spec in wrapped["specs"]] == [
        spec["digest"] for spec in plain["specs"]
    ]
    document = json.loads((tmp_path / "t.json").read_text())
    names = {event["name"] for event in document["traceEvents"]}
    assert {"protocols.build", "engine.broadcast", "adversary.guess",
            "topology.build", "probe.store.materialize"} <= names
    assert document["selfTime"]["engine.broadcast"]["calls"] >= 1


def test_probes_cover_every_session_of_a_repetition(tmp_path):
    """A flood builds one session per broadcast; each gets its probes."""
    paths = workloads.write_specs("lossy_wan", 0, "tiny")
    result = child.dispatch(
        "trace", {"paths": paths, "trace_out": str(tmp_path / "t.json")}
    )
    builds = result["layer"]["protocols.build_calls"]
    assert builds == 2
    table = json.loads((tmp_path / "t.json").read_text())["selfTime"]
    for probe in ("protocols.populate", "store.materialize", "store.query",
                  "scenarios.obs_digest"):
        assert table[f"probe.{probe}"]["calls"] == builds, probe


def test_seed_changes_the_specs_but_no_names():
    for name, workload in workloads.WORKLOADS.items():
        first, second = workload.make(0, "full"), workload.make(5, "full")
        assert first != second
        assert [s["name"] for s in first] == [s["name"] for s in second]
        assert workload.make(5, "full") == second
    assert workloads.sizes("full") == workloads.sizes("full")
    assert len(workloads.WORKLOADS["preset_sweep"].make(0, "full")) == 25


def test_benchmark_json_matches_the_catalogue():
    document = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert document["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in document["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.driver_bound) for m in DRIVER_END_TO_END]
    assert [
        (m["name"], (m["unit"], m["better"])) for m in document["per_layer"]
    ] == list(PER_LAYER.items())
    assert max(m.driver_bound for m in DRIVER_END_TO_END) == next(
        m.driver_bound for m in END_TO_END if m.name == "setup_s"
    )


def test_refuses_more_workers_than_cpus():
    specs = workloads.WORKLOADS["flood_scale"].make(0, "tiny")
    specs[0]["shards"] = 2
    workloads.check_parallelism(specs, 1, cpus=2)
    with pytest.raises(SystemExit, match="refusing to start"):
        workloads.check_parallelism(specs, 1, cpus=1)
    with pytest.raises(SystemExit, match="refusing to start"):
        workloads.check_parallelism([], 4, cpus=2)


def test_launch_runs_a_fresh_subprocess():
    paths = workloads.write_specs("snapshot_rumor", 0, "tiny")
    result = cli.launch("setup", {"paths": paths})
    assert result["setup_s"] > 0
    with pytest.raises(cli.ChildFailed, match="exit code"):
        cli.launch("setup", {"paths": ["/nonexistent/spec.json"]})


def test_contract_form_prints_the_result_object_last(monkeypatch, capsys):
    monkeypatch.setattr(cli, "launch", child.dispatch)
    code = cli.run_contract("lossy_wan", 2, 0.0, trace=False, scale="tiny")
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m.name for m in DRIVER_END_TO_END
    )
    assert result["metrics"]["setup_s"]["unit"] == "s"
    # Every metric is the median of the invocation's rounds.
    table = json.loads((cli.OUT_DIR / "lossy_wan-seed2.json").read_text())
    assert table["wall_s"]["n"] == table["setup_s"]["n"] == cli.MIN_ROUNDS
    for name, metric in result["metrics"].items():
        assert metric["value"] == table[name]["median"]


def test_window_left_after_the_rounds_goes_to_setup_repeats():
    """Rounds of 105 ms that stop fitting leave room for 5 ms set-ups."""
    def launcher(mode, arguments):
        time.sleep(0.005 if mode == "setup" else 0.1)
        if mode == "setup":
            return {"setup_s": 0.004}
        repetition = {"messages_per_broadcast": 10.0, "broadcasts": 1,
                      "mean_reach": 1.0}
        return {"wall_s": 0.05, "cpu_s": 0.05, "peak_rss_mib": 1.0,
                "specs": [{"name": "s", "digest": "0" * 64,
                           "runs": [repetition]}]}

    run = cli.WorkloadRun(
        workloads.WORKLOADS["snapshot_rumor"], seed=0, scale="tiny",
        launcher=launcher,
    )
    run.measure(0.3)
    assert run.ops_failed == 0
    assert len(run.runs) == cli.MIN_ROUNDS
    assert len(run.setup_samples) > len(run.runs)
    assert run.end_to_end()["setup_s"]["n"] == len(run.setup_samples)


def test_command_line_offers_no_scale_and_no_subset():
    for argv in (["--workload", "lossy_wan", "--scale", "tiny"],
                 ["all", "--only", "lossy_wan"], ["all", "--scale", "tiny"]):
        with pytest.raises(SystemExit):
            cli.main(argv)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _metric(name):
    return next(metric for metric in END_TO_END if metric.name == name)


def _summary(*samples):
    return summarise(samples)


def test_compare_verdicts_on_synthetic_summaries():
    wall = _metric("wall_s")
    base = _summary(10.0, 10.1, 9.9, 10.0, 10.05)
    assert compare.verdict(wall, base, _summary(10.2, 10.3, 10.1, 10.2, 10.2)) \
        == "unchanged"
    assert compare.verdict(wall, base, _summary(13.2, 13.3, 13.1, 13.2, 13.2)) \
        == "regressed"
    assert compare.verdict(wall, base, _summary(7.2, 7.3, 7.1, 7.2, 7.2)) \
        == "improved"
    rate = _metric("events_per_s")
    assert compare.verdict(rate, _summary(100.0, 101, 99), _summary(150.0, 151, 149)) \
        == "improved"


def test_compare_setup_floor_and_unresolved_and_exact():
    setup = _metric("setup_s")
    # +150 % but only +0.03 s: under the 0.05 s absolute floor.
    assert compare.verdict(
        setup, _summary(0.020, 0.021, 0.019), _summary(0.050, 0.051, 0.049)
    ) == "unchanged"
    assert compare.verdict(
        setup, _summary(1.00, 1.01, 0.99), _summary(1.40, 1.41, 1.39)
    ) == "regressed"
    wall = _metric("wall_s")
    noisy_base = _summary(10.0, 14.0, 8.0, 12.0, 9.0)
    noisy_change = _summary(11.0, 15.0, 8.5, 13.0, 9.5)
    assert compare.verdict(wall, noisy_base, noisy_change) == "unresolved"
    # Wide spread, yet every run of the change beats every run of the base.
    assert compare.verdict(
        wall, noisy_base, _summary(5.0, 7.0, 4.0, 6.0, 4.5)
    ) == "improved"
    messages = _metric("messages_per_broadcast")
    assert compare.verdict(messages, _summary(7001.0), _summary(7001.0)) \
        == "unchanged"
    assert compare.verdict(messages, _summary(7001.0), _summary(7002.0)) \
        == "regressed"


def test_compare_files(tmp_path, capsys):
    def document(wall):
        table = {
            metric.name: {"unit": metric.unit, **_summary(1.0, 1.0, 1.0)}
            for metric in END_TO_END
        }
        table["wall_s"] = {"unit": "s", **_summary(*wall)}
        return {"workloads": {"w": {
            "end_to_end": table, "ops_attempted": 5, "ops_failed": 0,
        }}}

    base, change = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(document([2.0, 2.02, 1.98])))
    change.write_text(json.dumps(document([2.6, 2.62, 2.58])))
    assert compare.main(str(base), str(base)) == 0
    assert compare.main(str(base), str(change)) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "ratio 1.3000" in out


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    def span(name, parent, start, end):
        return {"name": name, "parent": parent, "run": None, "attrs": {},
                "start": start, "end": end}

    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("b", 0, 3.0, 6.0),      # overlaps "a": covered once
        span("a", 0, 8.0, 12.0),     # clipped to the root's end
        span("leaf", 1, 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    table = tracing.span_table(spans)
    assert table["a"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert tracing.durations(spans, "a") == [3.0, 4.0]
    events = tracing.chrome_trace(spans)["traceEvents"]
    assert events[4]["args"]["parent"] == 1
    assert events[1]["ts"] == pytest.approx(1e6)
    assert events[1]["dur"] == pytest.approx(3e6)


def test_recorder_nests_and_tags_runs():
    recorder = tracing.SpanRecorder()
    recorder.run_id = "spec#1"
    with recorder.span("outer"):
        with recorder.span("inner", k=1):
            pass
    outer, inner = recorder.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert inner["run"] == "spec#1" and inner["attrs"] == {"k": 1}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
