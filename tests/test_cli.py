"""Command-line interface: exit codes, report contents, byte determinism."""

import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from crowdpolicy import (
    REWARD_LIMIT,
    demo_scenario_path,
    evaluate_cost,
    generate_random_scenario,
    load_policy,
    load_scenario,
    save_scenario,
    synthesize,
)
from crowdpolicy import cli
from crowdpolicy.cli import main

DEMO = str(demo_scenario_path())

#: sha256 of ``trajectories.csv`` from ``simulate`` on the demo's favor-node-2 agent,
#: ``--count 500 --seed 7``. CI runs this suite on the installed package on every leg, so a
#: NumPy release that moved the one-call uniform stream fails there too.
TRAJECTORIES_SHA256 = "162c68511562fcf65bdc894d20e8abc75f2da7759d9b16c8e59260adcd707f66"

#: Finite rewards for the demo whose largest magnitudes, summed forward, reach the limit at k=2.
PAST_THE_LIMIT = [[5e307] * 6, [5e307] * 6, [-5e307] * 6, [0.0] * 6]


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


def test_validate_rejects_a_horizon_longer_than_its_rewards(tmp_path, capsys):
    doc = {
        "scenario_version": 1, "name": "huge", "states": ["a", "b"], "horizon": 10**15,
        "target": {"initial": [1.0, 0.0], "kernels": [[0.5, 0.5], [0.5, 0.5]]},
        "contributors": [{"id": "c", "kernels": [[0.9, 0.1], [0.2, 0.8]]}],
        "rewards": {"r": [[0.0, 1.0]]},
    }
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "reward profile 'r' must be a 1000000000000000x2 array" in capsys.readouterr().err


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


def test_renormalize_rejects_an_overflowing_row(tmp_path, capsys):
    # finite entries whose sum overflows: once accepted as a row of zeros
    doc = read_json(demo_scenario_path())
    doc["contributors"][1]["kernels"][2] = [1e308, 1e308, 0, 0, 0, 0]
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    coordinates = "contributor 'southern' kernel at k=1: row for state 3: "
    assert main(["validate", "--renormalize", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert coordinates + "kernel row sums to inf, cannot renormalize" in err
    rc = main(
        ["synthesize", "--renormalize", "--scenario", str(bad),
         "--reward-profile", "favor-node-2", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "sums to inf, cannot renormalize" in capsys.readouterr().err


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


def test_csv_outputs_quote_ids_and_labels_that_need_it(tmp_path):
    doc = read_json(demo_scenario_path())
    odd_id = 'express, "fast"'
    doc["contributors"][0]["id"] = odd_id
    doc["states"] = [f'node {label}, "n{label}"\nend' for label in doc["states"]]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["synthesize", "--scenario", str(path), "--reward-profile", "favor-node-2",
                 "--out", str(out)]) == 0
    for name in ("selection.csv", "marginals.csv", "agent_kernel_k1.csv"):
        with open(out / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 1 and {len(row) for row in rows} == {len(doc["states"]) + 1}, name
        assert rows[0][1:] == doc["states"], name
    with open(out / "selection.csv", newline="", encoding="utf-8") as handle:
        selection = list(csv.reader(handle))
    assert selection[1][1] == odd_id


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


def test_synthesize_reward_past_the_limit_exits_2(tmp_path, capsys):
    doc = read_json(demo_scenario_path())
    doc["rewards"]["favor-node-2"] = [[-1.7e308] * 6] * 4
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    rc = main(
        ["synthesize", "--scenario", str(bad), "--reward-profile", "favor-node-2",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "reward profile 'favor-node-2': rewards' largest" in capsys.readouterr().err


def _seek_and_avoid(reward):
    """Two steps: the agent avoids state b; the contributor seeking it collects ``reward`` twice."""
    return {
        "scenario_version": 1, "name": "tiny", "states": ["a", "b"], "horizon": 2,
        "target": {"initial": [1.0, 0.0], "kernels": [[0.5, 0.5], [0.5, 0.5]]},
        "contributors": [{"id": "avoid", "kernels": [[1.0, 0.0], [1.0, 0.0]]},
                         {"id": "seek", "kernels": [[0.0, 1.0], [0.0, 1.0]]}],
        "rewards": {"default": [[0.0, reward], [0.0, reward]]},
    }


def test_synthesize_refuses_a_profile_past_the_limit_and_writes_nothing(tmp_path, capsys):
    # -1e308 twice: the load refuses the profile at k=1, before any route runs
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_seek_and_avoid(-1e308)))
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 2
    assert "reward profile 'default'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # just below the limit, the contributor that seeks b costs a number like any other
    path.write_text(json.dumps(_seek_and_avoid(-0.49 * REWARD_LIMIT)))
    assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
    costs = json.loads((out / "report.json").read_text())["pure_contributor_costs"]
    assert costs["seek"] == 0.98 * REWARD_LIMIT
    assert isinstance(costs["avoid"], float) and math.isfinite(costs["avoid"])


def test_every_command_answers_exactly_at_three_tenths_of_the_limit(tmp_path, capsys):
    # one state, rewards down, down, up: the backward and forward sums both
    # stay finite; 50 paths' plain float sum would overflow, yet the estimate
    # is exact with zero spread
    a = 0.3 * REWARD_LIMIT
    near = tmp_path / "near.json"
    near.write_text(json.dumps({
        "scenario_version": 1, "name": "near", "states": ["s"], "horizon": 3,
        "target": {"initial": [1.0], "kernels": [[1.0]]},
        "contributors": [{"id": "c", "kernels": [[1.0]]}],
        "rewards": {"near": [[-a], [-a], [a]]},
    }))
    syn, sim = tmp_path / "syn", tmp_path / "sim"
    scenario, policy = ["--scenario", str(near)], ["--policy", str(syn / "policy.json")]
    assert main(["synthesize", *scenario, "--out", str(syn)]) == 0
    assert main(["evaluate", *scenario, *policy]) == 0
    assert main(["oracle", *scenario, "--out", str(tmp_path / "orc")]) == 0
    assert read_json(tmp_path / "orc" / "report.json")["gap_oracle_minus_bound"] == 0.0
    assert main(["simulate", *scenario, *policy, "--count", "50", "--seed", "1",
                 "--out", str(sim)]) == 0
    report = read_json(sim / "report.json")
    assert report["monte_carlo"]["estimate"] == report["exact_cost"]["total"]
    assert report["monte_carlo"]["stderr"] == 0.0


def test_synthesize_and_demo_outputs_are_pinned(tmp_path, monkeypatch):
    # recorded before the per-(k, state) selection loop gave way to one KL
    # table and an array argmin: reports, policies and selections must not
    # move by a byte
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO, "demo.json")  # the report records the scenario path as given
    assert main(["synthesize", "--scenario", "demo.json", "--reward-profile",
                 "favor-node-3", "--out", "syn"]) == 0
    assert main(["demo", "--seed", "0", "--out", "demo"]) == 0
    pinned = {
        "syn/report.json": "d7d172154f88a72161668147c6d74bbe702683e699e4fa192f3c1e1c7af07c69",
        "demo/report.json": "ba1d06c8dd40e0e8c900b84525976b5cd57562c720240d4feab11e6156811bb1",
        "demo/favor-node-2/policy.json":
            "994cfb97d4b014b2629d1636f8753f0a84186a482e47f6171de789997458084e",
        "demo/favor-node-2/selection.csv":
            "6bd856461ab106395de3ab2ccf062db72f782e1994e77de84f4511d4c23e634e",
        "demo/favor-node-3/policy.json":
            "4024b77d5b9cf6147148bfa48a76a5e3717717f15e181bc730ad719cda7c0cb8",
        "demo/favor-node-3/selection.csv":
            "e8683e2a975d7a67017fdd5a014bbf30dc8cd5440c4724d25f3d9bc75fffedf2",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_other_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # recorded before the subcommands shared one input-and-report path:
    # stdout and files of validate, evaluate, oracle, simulate and the demo's
    # per-profile files must not move by a byte
    monkeypatch.chdir(tmp_path)
    shutil.copy(DEMO, "demo.json")
    save_scenario(generate_random_scenario(seed=42, d=3, horizon=3, contributors=2), "small.json")
    assert main(["synthesize", "--scenario", "demo.json", "--reward-profile",
                 "favor-node-2", "--out", "syn"]) == 0
    runs = {
        "validate": ["validate", "--scenario", "demo.json"],
        "evaluate": ["evaluate", "--scenario", "demo.json", "--reward-profile",
                     "favor-node-2", "--policy", "syn/policy.json", "--out", "ev"],
        "oracle-state": ["oracle", "--scenario", "demo.json", "--reward-profile",
                         "favor-node-3", "--out", "or1"],
        "oracle-grid": ["oracle", "--scenario", "small.json", "--mode", "per-time",
                        "--grid-resolution", "3", "--out", "or2"],
        "simulate": ["simulate", "--scenario", "demo.json", "--reward-profile",
                     "favor-node-2", "--policy", "syn/policy.json", "--count", "50",
                     "--seed", "3", "--out", "sim"],
        "demo": ["demo", "--seed", "0", "--out", "demo"],
    }
    stdout = {}
    capsys.readouterr()
    for name, argv in runs.items():
        assert main(argv) == 0, name
        stdout[name] = capsys.readouterr().out
    pinned_stdout = {
        "validate": "804ffefc0a4594230ee14410d0a509b7bcf6425b786eac8014d688c671082026",
        "evaluate": "9d35c8ba52fddb6dc6ea9b39e6a48601cb5d74d4cafddfc47279c4e2c935985f",
        "oracle-state": "1f3d2887213f49632e6eb18c55a960061c7515b8113d55bec185a0ab22ea7ab8",
        "oracle-grid": "193eb588129fd7964b4fff1dbdbc149f9c2a580a42861734b76e7cde44f0fabe",
        "simulate": "cbf6d711412e0fcc19fc2f3d97716abd938c472d126626fe1f5a639b5240d41e",
        "demo": "5014467f8e7050f86b192029d5a84242d2fc20d7db4809e4a8a8d2b2bd2932a8",
    }
    for name, digest in pinned_stdout.items():
        assert hashlib.sha256(stdout[name].encode()).hexdigest() == digest, name
    pinned = {
        "ev/report.json": "9d35c8ba52fddb6dc6ea9b39e6a48601cb5d74d4cafddfc47279c4e2c935985f",
        "or1/report.json": "1f3d2887213f49632e6eb18c55a960061c7515b8113d55bec185a0ab22ea7ab8",
        "or2/report.json": "193eb588129fd7964b4fff1dbdbc149f9c2a580a42861734b76e7cde44f0fabe",
        "sim/report.json": "60886c9908863b276a4c2839b91c293546ff03618071562c12856d8e18fd5a32",
        "demo/favor-node-2/route.json":
            "a0b38f74fbea6ce8ba1abf49250bbca059269529186b0d28147d9865a26a04b5",
        "demo/favor-node-2/marginals.csv":
            "0b27c9fabd52b7f1659fb937620861ee2c71b9a170eeff20f992c6268d24dfae",
        "demo/favor-node-2/agent_kernel_k1.csv":
            "0fc70b17946d4a2fb1e93cccf572ba2678f6e24e3e22c3ddf70009b131cc5b68",
        "demo/favor-node-3/route.json":
            "49a89f8e0666cc6d7628875f8fda9073f8a64a00f43803274748037363ecb196",
        "demo/favor-node-3/marginals.csv":
            "a5abf4f261c1db7d134eb6924c9ba4eb343d7ccbd812f08c1facd50c0ed8caba",
        "demo/favor-node-3/agent_kernel_k1.csv":
            "e8600ef4f8e49dde2e629cee6dee757c93475517f35fff88f28969952ae7ea72",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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


@pytest.mark.parametrize("command", ["evaluate", "simulate", "validate"])
def test_a_profile_past_the_limit_exits_2_naming_the_step(tmp_path, capsys, command):
    # each reward is finite, but their largest magnitudes reach the limit at k=2
    syn = tmp_path / "syn"
    main(["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
          "--out", str(syn)])
    doc = read_json(demo_scenario_path())
    doc["rewards"]["huge"] = PAST_THE_LIMIT
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    capsys.readouterr()
    args = [command, "--scenario", str(huge)]
    if command != "validate":  # validate checks every profile of the scenario
        args += ["--reward-profile", "huge", "--policy", str(syn / "policy.json")]
    if command == "simulate":
        args += ["--count", "20", "--seed", "1", "--out", str(tmp_path / "sim")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "reward profile 'huge': rewards' largest magnitudes" in err and "at k=2;" in err


def test_evaluate_rejects_policy_from_other_space(tmp_path, capsys):
    other = generate_random_scenario(seed=1, d=3, horizon=4, contributors=1)
    from crowdpolicy import save_policy

    foreign = tmp_path / "foreign.json"
    save_policy(other.target, foreign)
    rc = main(["evaluate", "--scenario", DEMO, "--policy", str(foreign),
               "--reward-profile", "favor-node-2"])
    assert rc == 2
    assert "do not match" in capsys.readouterr().err


def test_evaluate_rejects_policy_with_list_state_labels(tmp_path, capsys):
    syn = tmp_path / "syn"
    main(["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
          "--out", str(syn)])
    doc = read_json(syn / "policy.json")
    doc["states"] = [[label] for label in doc["states"]]
    bad = tmp_path / "listed.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["evaluate", "--scenario", DEMO, "--policy", str(bad),
               "--reward-profile", "favor-node-2"])
    assert rc == 2
    assert f"{bad}: state label [1] must be an integer or a string" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_gap_is_zero_on_demo(capsys):
    for profile in ("favor-node-2", "favor-node-3"):
        rc = main(["oracle", "--scenario", DEMO, "--reward-profile", profile])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["mode"] == "per-time-state"
        assert doc["gap_oracle_minus_bound"] == 0.0
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


#: The smallest pool that breaks the target's support only in a state without mass.
UNREACHABLE = {
    "scenario_version": 1, "name": "unreachable-violation", "states": ["a", "b"], "horizon": 1,
    "target": {"initial": [1.0, 0.0], "kernels": [[[1.0, 0.0], [0.0, 1.0]]]},
    "contributors": [{"id": "c", "kernels": [[[1.0, 0.0], [0.72, 0.28]]]}],
    "rewards": {"p": [[-0.1033, 0.2329]]},
}


def test_synthesize_and_oracle_score_the_whole_pool(tmp_path, capsys):
    # the filter report excludes the only contributor, yet its row out of 'a'
    # is the answer: synthesize exits 0 and the oracle, on the same pool, agrees
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps(UNREACHABLE))
    assert main(["synthesize", "--scenario", str(path), "--out", str(tmp_path / "s")]) == 0
    report = read_json(tmp_path / "s" / "report.json")
    assert report["filter"] == {"retained": [], "excluded": [{"id": "c", "k": 1, "state": "b"}]}
    assert report["bound_value"] == report["exact_cost"]["total"] == 0.1033
    capsys.readouterr()
    assert main(["oracle", "--scenario", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["contributor_ids"] == ["c"]
    assert doc["oracle"]["cost"] == doc["bound_value"] == 0.1033
    assert doc["gap_oracle_minus_bound"] == 0.0


def test_the_grid_oracle_refuses_a_pool_of_four_with_an_excluded_contributor(tmp_path, capsys):
    # the filter would leave three contributors, but the oracles take the whole pool
    doc = json.loads(json.dumps(UNREACHABLE))
    doc["contributors"] += [
        {"id": f"stay{i}", "kernels": [[[1.0, 0.0], [0.0, 1.0]]]} for i in range(3)
    ]
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    rc = main(["oracle", "--scenario", str(path), "--mode", "per-time", "--grid-resolution", "1"])
    assert rc == 4
    assert "S=4" in capsys.readouterr().err


def test_oracle_guard_exits_4(tmp_path, capsys):
    scenario = generate_random_scenario(seed=2, d=3, horizon=14, contributors=3)
    path = tmp_path / "big.json"
    save_scenario(scenario, path)
    rc = main(["oracle", "--scenario", str(path), "--mode", "per-time"])
    assert rc == 4
    assert "oracle refused" in capsys.readouterr().err
    # the grid takes N <= 3; the demo has N=4
    rc = main(["oracle", "--scenario", DEMO, "--reward-profile", "favor-node-2",
               "--mode", "per-time", "--grid-resolution", "2"])
    assert rc == 4
    assert "refusing grid search on S=2, N=4, d=6" in capsys.readouterr().err


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
    assert digest == TRAJECTORIES_SHA256
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


def test_simulate_off_support_policy_builds_no_trajectory(tmp_path, capsys, monkeypatch):
    # the estimate runs before the trajectories, so the dead path exits 3
    # before any `Trajectory` is built
    import crowdpolicy.simulate as simulate

    built = []
    monkeypatch.setattr(simulate, "Trajectory", lambda *args: built.append(args))
    test_simulate_off_support_policy_exits_3(tmp_path, capsys)
    assert built == []


def test_simulate_draws_its_paths_once(tmp_path, monkeypatch):
    import crowdpolicy.simulate as simulate

    draws = []
    sample_paths = simulate._sample_paths
    monkeypatch.setattr(
        simulate, "_sample_paths", lambda *args: draws.append(args) or sample_paths(*args)
    )
    syn = tmp_path / "syn"
    main(["synthesize", "--scenario", DEMO, "--reward-profile", "favor-node-2",
          "--out", str(syn)])
    rc = main(
        ["simulate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
         "--policy", str(syn / "policy.json"), "--count", "20", "--seed", "7",
         "--out", str(tmp_path / "sim")]
    )
    assert rc == 0
    assert len(draws) == 1


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


def test_the_demo_writes_the_same_bytes_twice(tmp_path, capsys):
    # every file but timing.json, the agent kernels and marginals.csv included
    for out in ("a", "b"):
        assert main(["demo", "--out", str(tmp_path / out)]) == 0
    first, second = (comparable_files(tmp_path / out) for out in ("a", "b"))
    assert [p.relative_to(tmp_path / "a") for p in first] == [
        p.relative_to(tmp_path / "b") for p in second
    ]
    assert len(first) > 10
    for mine, theirs in zip(first, second):
        assert mine.read_bytes() == theirs.read_bytes(), mine


# ---------------------------------------------------------------------------
# one run path: inputs, handler, then report.json and timing.json
# ---------------------------------------------------------------------------


def _run_path_inputs():
    """In the current directory: the demo and its synthesized favor-node-2 policy."""
    shutil.copy(DEMO, "demo.json")
    assert main(["synthesize", "--scenario", "demo.json", "--reward-profile",
                 "favor-node-2", "--out", "syn"]) == 0


RUN_PATH_COMMANDS = {
    "synthesize": ["synthesize", "--scenario", "demo.json", "--reward-profile", "favor-node-3"],
    "simulate": ["simulate", "--scenario", "demo.json", "--reward-profile", "favor-node-2",
                 "--policy", "syn/policy.json", "--count", "5", "--seed", "1"],
    "demo": ["demo"],
    "evaluate": ["evaluate", "--scenario", "demo.json", "--reward-profile", "favor-node-2",
                 "--policy", "syn/policy.json"],
    "oracle": ["oracle", "--scenario", "demo.json", "--reward-profile", "favor-node-2"],
}


@pytest.mark.parametrize("command", sorted(RUN_PATH_COMMANDS))
def test_every_command_with_out_writes_report_and_one_timing_float(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.chdir(tmp_path)
    _run_path_inputs()
    assert main(RUN_PATH_COMMANDS[command] + ["--out", "run"]) == 0
    assert read_json(tmp_path / "run" / "report.json")["command"] == command
    timing = read_json(tmp_path / "run" / "timing.json")
    assert list(timing) == ["seconds"]
    assert isinstance(timing["seconds"], float) and timing["seconds"] >= 0.0


@pytest.mark.parametrize("command", ["evaluate", "oracle", "validate"])
def test_a_command_without_out_writes_no_files(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _run_path_inputs()
    argv = RUN_PATH_COMMANDS.get(command, ["validate", "--scenario", "demo.json"])
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 0
    assert sorted(tmp_path.rglob("*")) == before


def _no_self_loop_at_node_6(doc):
    for entry in doc["contributors"]:
        entry["kernels"][5] = [0.5, 0, 0, 0, 0, 0.5]


def _rewards(values):
    return lambda doc: doc["rewards"].update({"favor-node-2": values})


def _half_initial(doc):
    doc["target"]["initial"] = [0.5, 0, 0, 0, 0, 0]


# command, edit of the demo, exit code: a validation failure, rewards past the limit, an
# infeasible pool
FAILING_RUNS = {
    "synthesize-invalid": ("synthesize", _half_initial, 2),
    "simulate-invalid": ("simulate", _half_initial, 2),
    "synthesize-past-limit": ("synthesize", _rewards([[-1.7e308] * 6] * 4), 2),
    "evaluate-past-limit": ("evaluate", _rewards(PAST_THE_LIMIT), 2),
    "simulate-past-limit": ("simulate", _rewards(PAST_THE_LIMIT), 2),
    "synthesize-infeasible": ("synthesize", _no_self_loop_at_node_6, 3),
    "oracle-infeasible": ("oracle", _no_self_loop_at_node_6, 3),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_a_failing_run_leaves_out_without_report_or_timing(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    _run_path_inputs()
    command, edit, code = FAILING_RUNS[case]
    doc = read_json(demo_scenario_path())
    edit(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    argv = [a if a != "demo.json" else "bad.json" for a in RUN_PATH_COMMANDS[command]]
    argv = [a if a != "favor-node-3" else "favor-node-2" for a in argv]
    assert main(argv + ["--out", "run"]) == code
    assert not (tmp_path / "run" / "report.json").exists()
    assert not (tmp_path / "run" / "timing.json").exists()


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


def test_entry_exits_with_the_code_main_returns(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["crowdpolicy", "validate", "--scenario", DEMO])
    with pytest.raises(SystemExit) as err:
        cli.entry()
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("scenario OK")


def test_an_unexpected_error_prints_its_traceback_and_exits_1(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "cmd_validate", broken)  # the parser is built on each call
    assert main(["validate", "--scenario", DEMO]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: handler broke\n")


# ---------------------------------------------------------------------------
# evaluate: infinite costs and a policy of another horizon
# ---------------------------------------------------------------------------


def test_evaluate_writes_an_infinite_cost_as_a_string(tmp_path, capsys):
    # every row jumps to node 1, which the target cannot do from every reachable node
    doc = read_json(demo_scenario_path())
    rogue = tmp_path / "rogue.json"
    rogue.write_text(json.dumps({
        "policy_version": 1,
        "states": doc["states"],
        "initial": doc["target"]["initial"],
        "kernels": [[[1.0, 0, 0, 0, 0, 0]] * 6] * 4,
    }))
    out = tmp_path / "eval"
    rc = main(["evaluate", "--scenario", DEMO, "--reward-profile", "favor-node-2",
               "--policy", str(rogue), "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    report = read_json(out / "report.json")
    assert printed == report
    assert report["cost"]["kl_part"] == "inf" and report["cost"]["total"] == "inf"
    assert math.isfinite(report["cost"]["reward_part"])
    assert '"kl_part": "inf"' in (out / "report.json").read_text()


def test_evaluate_rejects_a_policy_of_another_horizon(tmp_path, capsys):
    scenario = generate_random_scenario(seed=3, d=2, horizon=1, contributors=1)
    path = tmp_path / "short.json"
    save_scenario(scenario, path)
    from crowdpolicy import save_policy

    longer = tmp_path / "longer.json"
    save_policy(generate_random_scenario(seed=3, d=2, horizon=2, contributors=1).target, longer)
    rc = main(["evaluate", "--scenario", str(path), "--policy", str(longer)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "validation error: policy horizon 2 != scenario horizon 1\n"
    )
