"""scripts/scenario.py: the CLI surface over the scenario registry."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "scenario.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestCli:
    def test_list_names_every_preset(self):
        proc = _run("list")
        assert proc.returncode == 0
        for name in ("e4_broadcast_deanonymization", "stress_node_churn"):
            assert name in proc.stdout

    def test_list_filters_by_tag(self):
        proc = _run("list", "--tag", "stress")
        assert proc.returncode == 0
        assert "stress_lossy_wan" in proc.stdout
        assert "e4_broadcast_deanonymization" not in proc.stdout

    def test_describe_emits_valid_spec_json(self):
        proc = _run("describe", "stress_node_churn")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["name"] == "stress_node_churn"
        assert data["churn"]["leave_fraction"] == 0.2

    def test_run_writes_structured_json(self, tmp_path):
        out = tmp_path / "result.json"
        proc = _run(
            "run", "e4_broadcast_deanonymization",
            "--repetitions", "1", "--json-out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(out.read_text())
        assert document["spec"]["name"] == "e4_broadcast_deanonymization"
        assert document["runs"][0]["mean_reach"] == 1.0
        assert document["digest"] in proc.stdout
        # Privacy metrics ride along in every run by default.
        assert document["runs"][0]["privacy_entropy"] > 0.0
        assert "privacy_intersection_entropy" in document["runs"][0]

    def test_run_seed_override(self, tmp_path):
        # Same scenario, two seeds: the override must change the run (and
        # its digest) without editing the committed spec.
        outs = []
        for seed in ("10", "99"):
            out = tmp_path / f"seed{seed}.json"
            proc = _run(
                "run", "e4_broadcast_deanonymization",
                "--repetitions", "1", "--seed", seed,
                "--json-out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(out.read_text()))
        assert outs[0]["spec"]["seeds"]["base_seed"] == 10
        assert outs[1]["spec"]["seeds"]["base_seed"] == 99
        assert outs[0]["digest"] != outs[1]["digest"]

    def test_run_estimator_override(self, tmp_path):
        out = tmp_path / "estimator.json"
        proc = _run(
            "run", "e4_broadcast_deanonymization",
            "--repetitions", "1", "--estimator", "rumor_centrality",
            "--json-out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(out.read_text())
        assert document["spec"]["adversary"]["estimator"] == "rumor_centrality"

    def test_run_no_privacy(self, tmp_path):
        out = tmp_path / "noprivacy.json"
        proc = _run(
            "run", "e4_broadcast_deanonymization",
            "--repetitions", "1", "--no-privacy", "--json-out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(out.read_text())
        assert document["spec"]["privacy"]["enabled"] is False
        assert not any(
            key.startswith("privacy") for key in document["runs"][0]
        )

    def test_run_spec_file(self, tmp_path):
        # describe → edit → run: the offline spec workflow.
        spec = json.loads(_run("describe", "e4_broadcast_deanonymization").stdout)
        spec["name"] = "adhoc_variant"
        spec["workload"]["broadcasts"] = 2
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = _run("run", "--spec-file", str(spec_path), "--repetitions", "1")
        assert proc.returncode == 0, proc.stderr
        assert "adhoc_variant" in proc.stdout

    @pytest.mark.parametrize(
        "name,reason",
        [("missing.json", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unreadable_spec_file_is_one_error_line(self, tmp_path, name, reason):
        path = tmp_path / name
        proc = _run("run", "--spec-file", str(path))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: cannot read spec file '{path}': {reason}\n"
        )
        assert proc.stdout == ""

    def test_unknown_scenario_fails(self):
        proc = _run("run", "does_not_exist")
        assert proc.returncode != 0

    def test_describe_unknown_scenario_is_one_error_line(self):
        proc = _run("describe", "does_not_exist")
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--repetitions", "--processes"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_non_positive_counts_are_refused(self, flag, value):
        proc = _run("run", "e1_message_overhead", flag, value)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert f"argument {flag}: expected a positive integer" in proc.stderr
        assert proc.stdout == ""

    def test_run_adversary_model_override(self, tmp_path):
        out = tmp_path / "adaptive.json"
        proc = _run(
            "run", "stress_mixed_senders",
            "--repetitions", "1", "--adversary-model", "adaptive",
            "--json-out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(out.read_text())
        assert document["spec"]["adversary"]["model"] == "adaptive"
        assert "adversary_adaptive_enabled" in document["runs"][0]

    def test_list_shows_model_and_fault_extras(self):
        proc = _run("list", "--tag", "adversary")
        assert proc.returncode == 0
        assert "model=adaptive" in proc.stdout
        proc = _run("list", "--tag", "fault")
        assert proc.returncode == 0
        assert "fault=regional_outage" in proc.stdout

    def test_unknown_adversary_model_lists_registered_names(self):
        proc = _run(
            "run", "e4_broadcast_deanonymization",
            "--adversary-model", "quantum",
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "quantum" in proc.stderr
        for name in ("static", "adaptive", "eclipse", "byzantine_dcnet"):
            assert name in proc.stderr

    def test_unknown_estimator_in_spec_file_lists_registered_names(
        self, tmp_path
    ):
        spec = json.loads(
            _run("describe", "e4_broadcast_deanonymization").stdout
        )
        spec["adversary"]["estimator"] = "crystal_ball"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = _run("run", "--spec-file", str(spec_path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "crystal_ball" in proc.stderr
        assert "first_spy" in proc.stderr

    @pytest.mark.parametrize(
        "family,params,protocol,processes,message",
        [
            ("random_regular", {"num_nodes": "abc", "degree": 4}, "flood", "2",
             "topology parameter 'num_nodes' must be int, not 'abc'"),
            ("random_regular", {"num_nodes": 4, "degree": 4}, "flood", "2",
             "topology 'random_regular' refuses its parameters: "
             "need more nodes than the degree"),
            ("random_regular", {"num_nodes": 4, "degree": 4}, "flood", "1",
             "topology 'random_regular' refuses its parameters: "
             "need more nodes than the degree"),
            ("line", {"num_nodes": 1}, "flood", "2",
             "topology 'line' refuses its parameters: need at least two nodes"),
            ("random_regular", {"num_nodes": 4, "degree": 2}, "three_phase", "2",
             "protocol 'three_phase' needs at least 5 peers "
             "(its anonymity floor), the overlay has 4"),
            ("complete", {"num_nodes": 3}, "three_phase", "2",
             "protocol 'three_phase' needs at least 5 peers "
             "(its anonymity floor), the overlay has 3"),
            ("erdos_renyi", {"num_nodes": 60, "avg_degree": 0.5}, "flood", "2",
             "topology 'erdos_renyi' refuses its parameters: failed to sample "
             "a connected Erdos-Renyi graph; increase avg_degree"),
            ("watts_strogatz", {"num_nodes": 10, "neighbours": 12}, "flood", "1",
             "topology 'watts_strogatz' refuses its parameters: "
             "neighbours (12) must not exceed num_nodes (10)"),
            ("small_world", {"num_nodes": 10, "neighbours": 12}, "flood", "2",
             "topology 'small_world' refuses its parameters: "
             "neighbours (12) must not exceed num_nodes (10)"),
        ],
        ids=["type", "degree", "degree-serial", "line", "three_phase-small",
             "three_phase-complete", "erdos_renyi-sparse", "watts_strogatz-k>n",
             "small_world-k>n"],
    )
    def test_spec_values_a_generator_or_protocol_refuses_are_one_error_line(
        self, tmp_path, family, params, protocol, processes, message
    ):
        # A wrong type is refused at load; a value only when a repetition
        # compiles the spec, in a worker process with --processes 2.
        spec = json.loads(
            _run("describe", "e4_broadcast_deanonymization").stdout
        )
        spec["topology"] = {"family": family, "params": params}
        spec["protocol"] = protocol
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = _run(
            "run", "--spec-file", str(spec_path),
            "--repetitions", "2", "--processes", processes,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""
