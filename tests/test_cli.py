"""Command-line interface: exit codes, report contents, byte determinism."""

import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from crowdpolicy import (
    demo_scenario_path,
    evaluate_cost,
    generate_random_scenario,
    load_policy,
    load_scenario,
    save_scenario,
    synthesize,
)
from crowdpolicy.cli import main

DEMO = str(demo_scenario_path())


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def comparable_files(directory):
    """Deterministic outputs: everything except the timing sidecar."""
    return sorted(
        p for p in directory.rglob("*") if p.is_file() and p.name != "timing.json"
    )


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_demo(capsys):
    assert main(["validate", "--scenario", DEMO]) == 0
    out = capsys.readouterr().out
    assert "scenario OK: six-node-road-network" in out
    assert "express, southern" in out


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_validate_bad_probabilities(tmp_path, capsys):
    doc = read_json(demo_scenario_path())
    doc["target"]["initial"] = [0.5, 0, 0, 0, 0, 0]
    bad = tmp_path / "half.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "sums to 0.5" in capsys.readouterr().err


def test_renormalize_flag(tmp_path):
    doc = read_json(demo_scenario_path())
    doc["target"]["initial"] = [0.5, 0, 0, 0, 0, 0]
    sloppy = tmp_path / "sloppy.json"
    sloppy.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(sloppy)]) == 2
    assert main(["validate", "--renormalize", "--scenario", str(sloppy)]) == 0


def test_conflicting_tolerance_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["validate", "--strict", "--renormalize", "--scenario", DEMO])
    assert err.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_outputs_and_report(tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--out", str(out)]
    )
    assert rc == 0
    for name in ("report.json", "timing.json", "policy.json", "selection.csv",
                 "marginals.csv", "agent_kernel_k1.csv", "agent_kernel_k4.csv"):
        assert (out / name).exists(), name

    report = read_json(out / "report.json")
    assert report["command"] == "synthesize"
    assert report["reward_profile"] == "favor-node-2"
    assert "out" not in report["flags"]
    assert report["filter"]["retained"] == ["express", "southern"]
    assert report["filter"]["excluded"] == []
    assert report["bound_value"] == pytest.approx(report["exact_cost"]["total"], abs=1e-9)
    assert report["pure_contributor_costs"]["express"] == pytest.approx(
        report["exact_cost"]["total"], abs=1e-9
    )

    # the emitted policy file reproduces the library's synthesized agent
    scenario = load_scenario(DEMO)
    policy = synthesize(scenario.target, scenario.contributors, scenario.rewards["favor-node-2"])
    assert load_policy(out / "policy.json", scenario.space) == policy.agent

    selection = (out / "selection.csv").read_text().splitlines()
    assert selection[0] == "k,1,2,3,4,5,6"
    assert selection[1].startswith("1,express")

    marginals = (out / "marginals.csv").read_text().splitlines()
    assert marginals[0] == "k,1,2,3,4,5,6"
    assert marginals[1] == "0,1.0,0.0,0.0,0.0,0.0,0.0"


def test_synthesize_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(
            ["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-3",
             "--out", str(out)]
        ) == 0
    names_a = [p.relative_to(a) for p in comparable_files(a)]
    names_b = [p.relative_to(b) for p in comparable_files(b)]
    assert names_a == names_b
    for rel in names_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_synthesize_infeasible_exits_3(tmp_path, capsys):
    doc = read_json(demo_scenario_path())
    for entry in doc["contributors"]:
        entry["kernels"][5] = [0.5, 0, 0, 0, 0, 0.5]  # node 6 must self-loop
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(doc))
    rc = main(
        ["synthesize", "--scenario", str(bad), "--reward-profile", "favor-node-2",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_synthesize_reward_overflow_exits_2(tmp_path, capsys):
    doc = read_json(demo_scenario_path())
    doc["rewards"]["favor-node-2"] = [[-1.7e308] * 6] * 4
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    rc = main(
        ["synthesize", "--scenario", str(bad), "--reward-profile", "favor-node-2",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "value-to-go at k=" in capsys.readouterr().err


def test_unknown_reward_profile_exits_2(tmp_path, capsys):
    rc = main(
        ["synthesize", "--scenario", DEMO, "--reward-profile", "nope",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "unknown reward profile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_prints_cost_json(tmp_path, capsys):
    out = tmp_path / "syn"
    main(["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(
        ["evaluate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--policy", str(out / "policy.json")]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    scenario = load_scenario(DEMO)
    policy = synthesize(scenario.target, scenario.contributors, scenario.rewards["favor-node-2"])
    exact = evaluate_cost(policy.agent, scenario.target, scenario.rewards["favor-node-2"])
    assert doc["cost"]["total"] == pytest.approx(exact.total, abs=1e-12)
    assert doc["cost"]["kl_part"] == pytest.approx(exact.kl_part, abs=1e-12)


def test_evaluate_rejects_policy_from_other_space(tmp_path, capsys):
    other = generate_random_scenario(seed=1, d=3, horizon=4, contributors=1)
    from crowdpolicy import save_policy

    foreign = tmp_path / "foreign.json"
    save_policy(other.target, foreign)
    rc = main(["evaluate", "--scenario", DEMO, "--policy", str(foreign),
               "--reward-profile", "favor-node-2"])
    assert rc == 2
    assert "do not match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_gap_is_zero_on_demo(capsys):
    rc = main(["oracle", "--scenario", DEMO, "--reward-profile", "favor-node-3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["mode"] == "per-time-state"
    assert abs(doc["gap_oracle_minus_bound"]) <= 1e-9
    assert doc["oracle"]["contributor_ids"] == ["express", "southern"]


def test_oracle_per_time_with_grid(tmp_path, capsys):
    scenario = generate_random_scenario(seed=42, d=3, horizon=3, contributors=2)
    path = tmp_path / "small.json"
    save_scenario(scenario, path)
    rc = main(
        ["oracle", "--scenario", str(path), "--mode", "per-time",
         "--grid-resolution", "3", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["mode"] == "per-time"
    assert len(doc["oracle"]["schedule"]) == 3
    assert doc["grid"]["resolution"] == 3
    # a finer grid can only do at least as well as the vertex-only search
    assert doc["grid"]["cost"] <= doc["oracle"]["cost"] + 1e-12
    assert (tmp_path / "o" / "report.json").exists()


def test_oracle_guard_exits_4(tmp_path, capsys):
    scenario = generate_random_scenario(seed=2, d=3, horizon=14, contributors=3)
    path = tmp_path / "big.json"
    save_scenario(scenario, path)
    rc = main(["oracle", "--scenario", str(path), "--mode", "per-time"])
    assert rc == 4
    assert "oracle refused" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_outputs(tmp_path, capsys):
    syn = tmp_path / "syn"
    main(["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
          "--out", str(syn)])
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--policy", str(syn / "policy.json"), "--count", "500", "--seed", "7",
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert len(lines) == 501
    assert lines[0] == "trajectory,x_0,x_1,x_2,x_3,x_4,log_prob_policy,log_prob_target"
    report = read_json(out / "report.json")
    assert report["monte_carlo"]["count"] == 500
    assert report["monte_carlo"]["seed"] == 7
    assert abs(
        report["monte_carlo"]["estimate"] - report["exact_cost"]["total"]
    ) <= 6 * report["monte_carlo"]["stderr"]
    # pinned from the row-by-row sampler that the gathered log-probability
    # table replaced: the batch and the estimate must not move by a bit
    digest = hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()
    assert digest == "162c68511562fcf65bdc894d20e8abc75f2da7759d9b16c8e59260adcd707f66"
    assert report["monte_carlo"] == {
        "count": 500,
        "estimate": -25.23089661903004,
        "seed": 7,
        "stderr": 0.09585743040817828,
    }

    # identical invocation, identical bytes
    again = tmp_path / "sim2"
    main(
        ["simulate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--policy", str(syn / "policy.json"), "--count", "500", "--seed", "7",
         "--out", str(again)]
    )
    assert (out / "trajectories.csv").read_bytes() == (again / "trajectories.csv").read_bytes()
    assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()


def test_simulate_off_support_policy_exits_3(tmp_path, capsys):
    # hand-build a policy that walks where the target forbids
    doc = read_json(demo_scenario_path())
    row_to_1 = [1.0, 0, 0, 0, 0, 0]
    policy_doc = {
        "policy_version": 1,
        "states": doc["states"],
        "initial": doc["target"]["initial"],
        "kernels": [[row_to_1] * 6] * 4,
    }
    path = tmp_path / "rogue.json"
    path.write_text(json.dumps(policy_doc))
    rc = main(
        ["simulate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--policy", str(path), "--count", "10", "--seed", "1",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 3
    assert "target probability 0" in capsys.readouterr().err


def test_bad_seed_and_count_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", DEMO, "--policy", "p.json",
              "--count", "0", "--seed", "1", "--out", "x"])
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", DEMO, "--policy", "p.json",
              "--count", "5", "--seed", "-1", "--out", "x"])


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def test_demo_command_routes_and_layout(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1 -> 2 -> 4 -> 6 -> 6" in printed
    assert "1 -> 3 -> 5 -> 6 -> 6" in printed

    route2 = read_json(out / "favor-node-2" / "route.json")
    assert route2["most_likely"] == [1, 2, 4, 6, 6]
    route3 = read_json(out / "favor-node-3" / "route.json")
    assert route3["most_likely"] == [1, 3, 5, 6, 6]

    report = read_json(out / "report.json")
    for profile in ("favor-node-2", "favor-node-3"):
        block = report["profiles"][profile]
        agent = block["exact_cost"]["total"]
        assert agent <= min(block["pure_contributor_costs"].values()) + 1e-9
        assert (out / profile / "policy.json").exists()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_console_script_runs():
    exe = shutil.which("crowdpolicy")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run(
        [exe, "validate", "--scenario", DEMO],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "scenario OK" in proc.stdout
