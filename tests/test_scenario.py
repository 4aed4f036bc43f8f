"""Scenario and policy file round trips, validation diagnostics, generation."""

import json

import numpy as np
import pytest

from crowdpolicy.errors import ValidationError
from crowdpolicy.scenario import (
    POLICY_VERSION,
    SCENARIO_VERSION,
    generate_random_scenario,
    load_policy,
    load_scenario,
    save_policy,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def minimal_doc():
    return {
        "scenario_version": SCENARIO_VERSION,
        "name": "tiny",
        "states": ["a", "b"],
        "horizon": 2,
        "target": {
            "initial": [1.0, 0.0],
            "kernels": [[0.5, 0.5], [0.5, 0.5]],
        },
        "contributors": [
            {"id": "only", "kernels": [[0.9, 0.1], [0.2, 0.8]]},
        ],
        "rewards": {"default": [[0.0, 1.0], [1.0, 0.0]]},
    }


# ---------------------------------------------------------------------------
# demo file
# ---------------------------------------------------------------------------


def test_demo_scenario_contents(demo):
    assert demo.name == "six-node-road-network"
    assert demo.space.labels == (1, 2, 3, 4, 5, 6)
    assert demo.horizon == 4
    assert demo.contributors.ids == ("express", "southern")
    assert set(demo.rewards) == {"favor-node-2", "favor-node-3"}
    # point-mass start at node 1
    assert demo.target.initial.prob(1) == 1.0


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_scenario_round_trip_is_exact(tmp_path):
    scenario = generate_random_scenario(seed=31, d=4, horizon=3, contributors=3, sparsity=0.2)
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded == scenario  # bitwise equality on every array
    # and a second save produces the same bytes
    path2 = tmp_path / "s2.json"
    save_scenario(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_shorthand_kernels_expand_across_horizon():
    doc = minimal_doc()
    scenario = scenario_from_dict(doc)
    assert scenario.horizon == 2
    k1 = scenario.contributors.kernel(0, 1)
    k2 = scenario.contributors.kernel(0, 2)
    assert k1 == k2
    # explicit per-step form parses to the same scenario
    doc2 = minimal_doc()
    doc2["target"]["kernels"] = [doc["target"]["kernels"]] * 2
    doc2["contributors"][0]["kernels"] = [doc["contributors"][0]["kernels"]] * 2
    assert scenario_from_dict(doc2) == scenario


def test_to_dict_writes_expanded_kernels():
    scenario = scenario_from_dict(minimal_doc())
    doc = scenario_to_dict(scenario)
    arr = np.asarray(doc["target"]["kernels"])
    assert arr.shape == (2, 2, 2)
    assert scenario_from_dict(doc) == scenario


def test_policy_round_trip(tmp_path):
    scenario = generate_random_scenario(seed=8, d=3, horizon=2, contributors=1)
    behavior = scenario.target
    path = tmp_path / "p.json"
    save_policy(behavior, path)
    loaded = load_policy(path, scenario.space)
    assert loaded == behavior


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": ')
    with pytest.raises(ValidationError, match=r"line 1 column 1[01]"):
        load_scenario(path)


def test_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read scenario file"):
        load_scenario(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(scenario_version=2), "scenario_version must be 1"),
        (lambda d: d.update(extra=1), "unknown top-level keys"),
        (lambda d: d.update(name=""), "name must be a non-empty string"),
        (lambda d: d.update(states=[]), "states must be a non-empty list"),
        (lambda d: d.update(states=["a", True]), "state label True"),
        (lambda d: d.update(states=["a", "a"]), "unique"),
        (lambda d: d.update(horizon=0), "horizon must be an integer >= 1"),
        (lambda d: d.update(horizon=True), "horizon must be an integer >= 1"),
        (lambda d: d["target"].pop("initial"), "keys 'initial' and 'kernels'"),
        (lambda d: d["target"].update(comment="x"), "keys 'initial' and 'kernels'"),
        (lambda d: d["contributors"][0].pop("id"), "keys 'id' and 'kernels'"),
        (lambda d: d["contributors"][0].update(id=""), "id must be a non-empty string"),
        (lambda d: d.update(contributors=[]), "contributors must be a non-empty list"),
        (lambda d: d.update(rewards={}), "at least one named profile"),
        (lambda d: d.update(metadata=[1]), "metadata must be an object"),
    ],
)
def test_schema_violations(mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(doc)


def test_kernel_row_error_carries_coordinates():
    doc = minimal_doc()
    doc["contributors"][0]["kernels"] = [
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.9, 0.1], [0.7, 0.7]],  # row 'b' at k=2 sums to 1.4
    ]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    text = str(err.value)
    assert "contributor 'only' kernel at k=2" in text
    assert "row for state 'b'" in text


def test_load_scenario_names_a_late_bad_row_in_full(tmp_path):
    doc = minimal_doc()
    doc["horizon"] = 3
    doc["rewards"] = {"default": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]}
    doc["contributors"][0]["kernels"] = [
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.9, 0.1], [0.7, 0.7]],  # row 'b' at k=3 sums to 1.4
    ]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert str(err.value) == (
        f"{path}: contributor 'only' kernel at k=3: row for state 'b': "
        "kernel row sums to 1.4, outside 1 +/- 1e-09"
    )


def test_load_policy_names_a_late_bad_row_in_full(tmp_path):
    scenario = generate_random_scenario(seed=8, d=3, horizon=3, contributors=1)
    path = tmp_path / "p.json"
    save_policy(scenario.target, path)
    doc = json.loads(path.read_text())
    doc["kernels"][1][2] = [0.5, 0.75, -0.25]  # state 2 at k=2
    path.write_text(json.dumps(doc))
    for mode in ("strict", "renormalize"):
        with pytest.raises(ValidationError) as err:
            load_policy(path, scenario.space, mode)
        assert str(err.value) == (
            f"{path}: policy kernel at k=2: row for state 2: kernel row contains negative entries"
        )


def test_kernel_count_mismatch():
    doc = minimal_doc()
    doc["target"]["kernels"] = [[[0.5, 0.5], [0.5, 0.5]]] * 3  # horizon is 2
    with pytest.raises(ValidationError, match="expected 2 matrices, got 3"):
        scenario_from_dict(doc)


def test_reward_shape_and_finiteness():
    doc = minimal_doc()
    doc["rewards"] = {"default": [[0.0, 1.0]]}
    with pytest.raises(ValidationError, match="must be a 2x2 array"):
        scenario_from_dict(doc)
    doc = minimal_doc()
    doc["rewards"] = {"default": [[0.0, float("inf")], [0.0, 0.0]]}
    with pytest.raises(ValidationError, match="finite"):
        scenario_from_dict(doc)


def test_renormalize_mode_rescues_sloppy_rows(tmp_path):
    doc = minimal_doc()
    doc["target"]["kernels"] = [[0.49, 0.49], [0.5, 0.48]]  # sums 0.98
    path = tmp_path / "sloppy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="sums to"):
        load_scenario(path)
    scenario = load_scenario(path, mode="renormalize")
    for k in (1, 2):
        assert np.allclose(scenario.target.kernels[k - 1].matrix.sum(axis=1), 1.0)
    assert scenario.target.kernels[0].matrix[0, 0] == pytest.approx(0.5)


def test_reward_profile_lookup():
    scenario = scenario_from_dict(minimal_doc())
    assert scenario.reward_profile() is scenario.rewards["default"]
    assert scenario.reward_profile("default") is scenario.rewards["default"]
    with pytest.raises(ValueError, match="unknown reward profile"):
        scenario.reward_profile("other")
    doc = minimal_doc()
    doc["rewards"]["second"] = doc["rewards"]["default"]
    two = scenario_from_dict(doc)
    with pytest.raises(ValueError, match="name one of"):
        two.reward_profile()


# ---------------------------------------------------------------------------
# policy file validation
# ---------------------------------------------------------------------------


def test_policy_file_rejections(tmp_path):
    scenario = generate_random_scenario(seed=8, d=3, horizon=2, contributors=1)
    path = tmp_path / "p.json"
    save_policy(scenario.target, path)

    doc = json.loads(path.read_text())
    doc["extra"] = 1
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="exactly the keys"):
        load_policy(bad)

    doc = json.loads(path.read_text())
    doc["policy_version"] = POLICY_VERSION + 1
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="policy_version must be"):
        load_policy(bad)

    doc = json.loads(path.read_text())
    doc["kernels"] = doc["kernels"][0]  # 2-D: shorthand is not allowed here
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"\[k\]\[from\]\[to\]"):
        load_policy(bad)

    other = generate_random_scenario(seed=9, d=2, horizon=2, contributors=1)
    with pytest.raises(ValidationError, match="do not match"):
        load_policy(path, other.space)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_random_scenario(seed=123, d=4, horizon=3, contributors=2, sparsity=0.4)
    b = generate_random_scenario(seed=123, d=4, horizon=3, contributors=2, sparsity=0.4)
    assert a == b
    c = generate_random_scenario(seed=124, d=4, horizon=3, contributors=2, sparsity=0.4)
    assert not np.array_equal(
        a.target.initial.probs, c.target.initial.probs
    )


def test_generator_invariants():
    scenario = generate_random_scenario(seed=55, d=5, horizon=4, contributors=3, sparsity=0.5)
    # the target never has zeros, so every contributor is admissible
    assert np.all(scenario.target.initial.probs > 0)
    for kernel in scenario.target.kernels:
        assert np.all(kernel.matrix > 0)
    zero_seen = False
    for i in range(3):
        for k in range(1, 5):
            matrix = scenario.contributors.kernel(i, k).matrix
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
            zero_seen = zero_seen or bool(np.any(matrix == 0.0))
    assert zero_seen  # sparsity=0.5 must actually produce zeros
    meta = scenario.metadata["generator"]
    assert meta["algorithm"] == "philox4x64"
    assert meta["seed"] == 55
    assert scenario.contributors.ids == ("c1", "c2", "c3")


def test_generator_argument_validation():
    with pytest.raises(ValueError, match=">= 1"):
        generate_random_scenario(seed=1, d=0, horizon=1, contributors=1)
    with pytest.raises(ValueError, match="sparsity"):
        generate_random_scenario(seed=1, d=2, horizon=1, contributors=1, sparsity=1.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        generate_random_scenario(
            seed=1, d=2, horizon=1, contributors=1, reward_range=(2.0, -2.0)
        )
