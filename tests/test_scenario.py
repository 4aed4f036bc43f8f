"""Scenario and policy file round trips, validation diagnostics, generation."""

import hashlib
import json
import os
import stat
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpolicy.errors import ValidationError
from crowdpolicy.model import Behavior, RewardSchedule, StatePMF, StateSpace, TransitionKernel
from crowdpolicy.synthesis import ContributorSet, synthesize
from crowdpolicy.scenario import (
    POLICY_VERSION,
    SCENARIO_VERSION,
    Scenario,
    _atomic_write_text,
    _json_text,
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


def test_failed_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    behavior = generate_random_scenario(seed=8, d=3, horizon=2, contributors=1).target
    taken = tmp_path / "taken.json"
    taken.mkdir()  # the rename over a directory fails
    with pytest.raises(IsADirectoryError):
        save_policy(behavior, taken)
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"old bytes\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("crowdpolicy.scenario.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_policy(behavior, kept)
    assert kept.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "taken.json"]


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


def test_rewards_bound_the_horizon_before_a_shorthand_kernel_is_repeated():
    # the shorthand kernels would fill 28.4 PiB at this horizon; the profile cannot be that long
    doc = minimal_doc()
    doc["horizon"] = 10**15
    doc["rewards"] = {"r": [[0.0, 1.0]]}
    with pytest.raises(ValidationError, match=r"reward profile 'r' must be a 1000000000000000x2 "):
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


@pytest.mark.parametrize(
    "initial, message",
    [([1.5, -0.5], "negative"), ([1.0, 0.0, 0.0], "3 entries"), (["x", 1.0], "could not convert")],
    ids=["negative", "wrong-length", "non-numeric"],
)
def test_the_behavior_reader_names_its_owner_in_initial_pmf_errors(tmp_path, initial, message):
    doc = minimal_doc()
    doc["target"]["initial"] = initial
    with pytest.raises(ValidationError, match=f"tiny.json: target initial pmf: .*{message}"):
        scenario_from_dict(doc, source="tiny.json")
    path = tmp_path / "p.json"
    save_policy(scenario_from_dict(minimal_doc()).target, path)
    policy = json.loads(path.read_text())
    policy["initial"] = initial
    path.write_text(json.dumps(policy))
    with pytest.raises(ValidationError, match=f"p.json: policy initial pmf: .*{message}"):
        load_policy(path)
    policy["initial"] = [1.0, 0.0]
    policy["kernels"] = policy["kernels"][0]  # the scenario's 2-D shorthand is not a policy
    path.write_text(json.dumps(policy))
    with pytest.raises(ValidationError, match=r"policy kernels must be a \[k\]\[from\]\[to\]"):
        load_policy(path)


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


def test_duplicate_contributor_ids_are_named_in_full(tmp_path):
    doc = minimal_doc()
    doc["contributors"].append(dict(doc["contributors"][0]))
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "scenario: contributor ids must be unique"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert str(err.value) == f"{path}: contributor ids must be unique"


@pytest.mark.parametrize(
    "states, message",
    [
        ([[1], [2], [3]], "state label [1] must be an integer or a string"),
        ([1.5, True, 3], "state label 1.5 must be an integer or a string"),
        ([1, True, 3], "state label True must be an integer or a string"),
        ([], "states must be a non-empty list of labels"),
        ([1, 1, 2], "state labels must be unique"),
    ],
)
def test_policy_state_labels_are_checked_like_scenario_labels(tmp_path, states, message):
    scenario = generate_random_scenario(seed=8, d=3, horizon=2, contributors=1)
    path = tmp_path / "p.json"
    save_policy(scenario.target, path)
    doc = json.loads(path.read_text())
    doc["states"] = states
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_policy(path)
    assert str(err.value) == f"{path}: {message}"
    scenario_doc = minimal_doc()
    scenario_doc["states"] = states
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(scenario_doc)
    assert str(err.value) == f"scenario: {message}"


# ---------------------------------------------------------------------------
# one kernel array per behavior and per pool, against the per-kernel code it replaced
# ---------------------------------------------------------------------------


def _reference_parse_kernels(node, space, horizon, mode, owner, fail):
    """The former kernel parser: one validated ``TransitionKernel`` per step."""
    try:
        arr = np.asarray(node, dtype=float)
    except (ValueError, TypeError):
        raise fail(f"{owner} kernels must be a numeric array") from None
    if horizon is None:
        if arr.ndim != 3:
            raise fail(f"{owner} kernels must be a [k][from][to] array")
        horizon = arr.shape[0]
    if arr.ndim == 2:
        arr = np.broadcast_to(arr, (horizon, *arr.shape))
    elif arr.ndim != 3:
        raise fail(f"{owner} kernels must be a [from][to] matrix or a [k][from][to] array")
    elif arr.shape[0] != horizon:
        raise fail(f"{owner} kernels: expected {horizon} matrices, got {arr.shape[0]}")
    kernels = []
    for k, matrix in enumerate(arr, start=1):
        try:
            kernels.append(TransitionKernel(space, matrix, mode))
        except ValueError as exc:
            raise fail(f"{owner} kernel at k={k}: {exc}") from None
    return tuple(kernels)


def _reference_kernel_bytes(doc, mode, source, policy):
    """Kernel bytes the former loader kept for ``doc``, whose other fields are valid."""

    def fail(message):
        return ValidationError(f"{source}: {message}")

    space = StateSpace(tuple(doc["states"]))
    if policy:
        parsed = [_reference_parse_kernels(doc["kernels"], space, None, mode, "policy", fail)]
    else:
        horizon = doc["horizon"]
        parsed = [_reference_parse_kernels(doc["target"]["kernels"], space, horizon, mode,
                                           "target", fail)]
        parsed += [
            _reference_parse_kernels(entry["kernels"], space, horizon, mode,
                                     f"contributor {entry['id']!r}", fail)
            for entry in doc["contributors"]
        ]
    return b"".join(kernel.matrix.tobytes() for kernels in parsed for kernel in kernels)


def _assert_one_locked_store(behavior_or_pool):
    """Every kernel handed out is a read-only view of the one read-only ``matrices``."""
    matrices = behavior_or_pool.matrices
    assert not matrices.flags.writeable
    if isinstance(behavior_or_pool, ContributorSet):
        flat = [kernel for per_k in behavior_or_pool.kernels for kernel in per_k]
    else:
        flat = list(behavior_or_pool.kernels)
    assert len(flat) * matrices.shape[-1] ** 2 == matrices.size
    for kernel, matrix in zip(flat, matrices.reshape(-1, *matrices.shape[-2:])):
        assert np.shares_memory(kernel.matrix, matrices)
        assert not kernel.matrix.flags.writeable
        assert np.array_equal(kernel.matrix, matrix)


#: Entry faults injected at a random (owner, k, state, column).
_VALUE_FAULTS = ("nan", "+inf", "-inf", "negative", "just off")

#: Shape faults, at most one per document, injected after the entry faults.
_SHAPE_FAULTS = ("ragged row", "wide rows", "missing step", "flat")


def _inject_kernel_fault(kernels, k, x, col, fault):
    """Return ``kernels`` (nested lists, [k][from][to] or [from][to]) with ``fault`` at (k, x, col)."""
    full = isinstance(kernels[0][0], list)
    matrix = kernels[k] if full else kernels
    if fault == "ragged row":
        matrix[x].append(0.0)
    elif fault == "wide rows":
        for row in matrix:
            row.append(0.0)
    elif fault == "missing step":
        return kernels[:-1] if full else kernels[0]
    elif fault == "flat":
        return [value for row in matrix for value in row]
    else:
        matrix[x][col] = {
            "nan": float("nan"), "+inf": float("inf"), "-inf": float("-inf"),
            "negative": -matrix[x][col] - 0.25, "just off": matrix[x][col] + 1.5e-9,
        }[fault]
    return kernels


@st.composite
def _kernel_documents(draw):
    """A scenario or policy document whose kernels are full or shorthand, faulty or not."""
    d, horizon, size = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    policy = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unnormalised = draw(st.booleans())  # for the renormalize mode

    def kernels():
        shape = (d, d) if not policy and draw(st.booleans()) else (horizon, d, d)
        arr = rng.dirichlet(np.ones(d), size=shape[:-1])
        if unnormalised:
            arr = arr * rng.uniform(0.1, 10.0, size=(*shape[:-1], 1))
        return arr.tolist()

    states = list(range(d)) if draw(st.booleans()) else [f"s{i}" for i in range(d)]
    initial = rng.dirichlet(np.ones(d)).tolist()
    owners = [kernels() for _ in range(1 if policy else size + 1)]
    faults = [draw(st.sampled_from(_VALUE_FAULTS)) for _ in range(draw(st.integers(0, 3)))]
    faults += [draw(st.sampled_from(_SHAPE_FAULTS))] * draw(st.integers(0, 1))
    for fault in faults:
        owner = draw(st.integers(0, len(owners) - 1))
        full = isinstance(owners[owner][0][0], list)
        owners[owner] = _inject_kernel_fault(
            owners[owner], draw(st.integers(0, horizon - 1)) if full else 0,
            draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), fault,
        )
    mode = draw(st.sampled_from(["strict", "renormalize"]))
    if policy:
        doc = {"policy_version": POLICY_VERSION, "states": states, "initial": initial,
               "kernels": owners[0]}
    else:
        doc = {
            "scenario_version": SCENARIO_VERSION, "name": "net", "states": states,
            "horizon": horizon, "target": {"initial": initial, "kernels": owners[0]},
            "contributors": [{"id": f"c{i}", "kernels": kernels}
                             for i, kernels in enumerate(owners[1:], start=1)],
            "rewards": {"default": np.zeros((horizon, d)).tolist()},
        }
    return doc, mode, policy


def _kernel_outcome(build):
    try:
        return ("accepted", build())
    except Exception as exc:  # the type is part of what is compared
        return ("raised", type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_kernel_documents())
def test_kernel_stacks_match_the_per_kernel_reference(case):
    doc, mode, policy = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        source = str(path)
        if policy:
            loaded = _kernel_outcome(lambda: load_policy(path, mode=mode))
            new = loaded if loaded[0] == "raised" else ("accepted", loaded[1].matrices.tobytes())
        else:
            loaded = _kernel_outcome(lambda: load_scenario(path, mode))
            new = loaded if loaded[0] == "raised" else (
                "accepted",
                loaded[1].target.matrices.tobytes() + loaded[1].contributors.matrices.tobytes(),
            )
        with np.errstate(all="ignore"):
            old = _kernel_outcome(lambda: _reference_kernel_bytes(doc, mode, source, policy))
    assert new == old
    if loaded[0] == "accepted":
        for store in (loaded[1],) if policy else (loaded[1].target, loaded[1].contributors):
            _assert_one_locked_store(store)


def _reference_generate(seed, d, horizon, contributors, sparsity):
    """The former generator's draws: one ``TransitionKernel`` per (contributor, step)."""
    rng = np.random.Generator(np.random.Philox(seed))

    def positive_pmf():
        v = rng.dirichlet(np.ones(d)) + 1e-6
        return v / v.sum()

    space = StateSpace(tuple(range(d)))
    initial = StatePMF(space, positive_pmf())
    target = [TransitionKernel(space, np.stack([positive_pmf() for _ in range(d)]))
              for _ in range(horizon)]
    pool = []
    for _ in range(contributors):
        for _ in range(horizon):
            rows = np.empty((d, d))
            for x in range(d):
                row = positive_pmf()
                if sparsity > 0.0:
                    drop = rng.random(d) < sparsity
                    if drop.all():
                        drop[int(np.argmax(row))] = False
                    row = np.where(drop, 0.0, row)
                    row = row / row.sum()
                rows[x] = row
            pool.append(TransitionKernel(space, rows))
    rewards = rng.uniform(-1.0, 1.0, size=(horizon, d))
    return (initial.probs.tobytes(), b"".join(k.matrix.tobytes() for k in target),
            b"".join(k.matrix.tobytes() for k in pool), rewards.tobytes())


@pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.6, 0.9])
def test_generator_bytes_match_the_per_kernel_reference(sparsity):
    sizes = np.random.default_rng(int(sparsity * 10))
    for seed in range(25):
        d, horizon, size = (int(v) for v in sizes.integers((1, 1, 1), (17, 6, 7)))
        scenario = generate_random_scenario(seed, d, horizon, size, sparsity=sparsity)
        assert (
            scenario.target.initial.probs.tobytes(),
            scenario.target.matrices.tobytes(),
            scenario.contributors.matrices.tobytes(),
            scenario.rewards["default"].values.tobytes(),
        ) == _reference_generate(seed, d, horizon, size, sparsity)
        assert scenario.target.matrices.shape == (horizon, d, d)
        assert scenario.contributors.matrices.shape == (size, horizon, d, d)
        _assert_one_locked_store(scenario.target)
        _assert_one_locked_store(scenario.contributors)


def _reference_generate_random_scenario(
    seed, d, horizon, contributors, sparsity=0.0, reward_range=(-1.0, 1.0), name=None
):
    """The row-by-row generator: one ``rng.dirichlet`` call, and one ``rng.random`` call, a row."""
    lo, hi = float(reward_range[0]), float(reward_range[1])
    rng = np.random.Generator(np.random.Philox(seed))

    def positive_pmf():
        v = rng.dirichlet(np.ones(d)) + 1e-6
        return v / v.sum()

    space = StateSpace(tuple(range(d)))
    initial = StatePMF(space, positive_pmf())
    target = np.empty((horizon, d, d))
    for row in target.reshape(-1, d):
        row[:] = positive_pmf()
    pool = np.empty((contributors, horizon, d, d))
    for row in pool.reshape(-1, d):
        row[:] = positive_pmf()
        if sparsity > 0.0:
            drop = rng.random(d) < sparsity
            if drop.all():
                drop[int(np.argmax(row))] = False
            row[drop] = 0.0
            row /= row.sum()
    rewards = RewardSchedule(space, rng.uniform(lo, hi, size=(horizon, d)))
    metadata = {"generator": {
        "algorithm": "philox4x64", "seed": int(seed), "d": d, "horizon": horizon,
        "contributors": contributors, "sparsity": sparsity, "reward_range": [lo, hi],
    }}
    ids = tuple(f"c{i + 1}" for i in range(contributors))
    return Scenario(name or f"random-{seed}", space, Behavior._of(initial, target),
                    ContributorSet._of(space, pool, ids), {"default": rewards}, metadata)


def _generated(scenario):
    """Everything a generated scenario holds: name, metadata and the bytes of every array."""
    arrays = (scenario.target.initial.probs, scenario.target.matrices,
              scenario.contributors.matrices, scenario.rewards["default"].values)
    return (scenario.name, json.dumps(scenario.metadata), scenario.contributors.ids,
            *((a.shape, a.tobytes()) for a in arrays))


_rewards_ranges = st.lists(
    st.floats(-1e300, 1e300, allow_subnormal=True), min_size=2, max_size=2
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from([0, 2**63 - 1]) | st.integers(0, 2**63 - 1),
    d=st.integers(1, 70),
    horizon=st.integers(1, 4),
    contributors=st.integers(1, 3),
    sparsity=st.sampled_from([0.0, -0.0, 1e-9, 0.3, 0.999]),
    reward_range=_rewards_ranges,
)
def test_the_batched_generator_writes_the_row_by_row_bytes(
    seed, d, horizon, contributors, sparsity, reward_range
):
    args = seed, d, horizon, contributors, sparsity, tuple(reward_range)
    assert _generated(generate_random_scenario(*args)) == _generated(
        _reference_generate_random_scenario(*args)
    )


@pytest.mark.parametrize(
    "seed, d, horizon, contributors",
    [(5, 64, 16, 12), (2**63 - 1, 64, 16, 12), (5, 20, 20, 8), (2**63 - 1, 20, 20, 8)],
)
@pytest.mark.parametrize("sparsity", [0.0, 0.3])
def test_the_benchmark_shapes_are_generated_with_the_row_by_row_bytes(
    seed, d, horizon, contributors, sparsity
):
    # the shared-pool (d=64, N=16, S=12) and monte-carlo (d=20, N=20, S=8)
    # pools, at the benchmark's sparsity and dense: each spans many 256-row blocks
    args = seed, d, horizon, contributors, sparsity
    scenario = generate_random_scenario(*args, name="shape")
    assert _generated(scenario) == _generated(
        _reference_generate_random_scenario(*args, name="shape")
    )
    _assert_one_locked_store(scenario.target)
    _assert_one_locked_store(scenario.contributors)


def test_every_kernel_is_a_view_of_one_locked_array(tmp_path):
    scenario = generate_random_scenario(seed=3, d=4, horizon=3, contributors=3, sparsity=0.3)
    save_scenario(scenario, tmp_path / "s.json")
    loaded = load_scenario(tmp_path / "s.json")
    agent = synthesize(loaded.target, loaded.contributors, loaded.reward_profile()).agent
    save_policy(agent, tmp_path / "p.json")
    behaviors = [loaded.target, agent, load_policy(tmp_path / "p.json"),
                 Behavior(loaded.target.initial, loaded.contributors.kernels[1])]
    pools = [loaded.contributors, loaded.contributors.subset([2, 0]),
             ContributorSet(loaded.space, loaded.contributors.kernels, ("x", "y", "z"))]
    for store in behaviors + pools:
        _assert_one_locked_store(store)
    assert loaded.contributors.subset([2, 0]).matrices.tobytes() == (
        loaded.contributors.matrices[[2, 0]].tobytes()
    )


def test_constructors_and_loader_copy_the_callers_arrays_once():
    space = StateSpace(("a", "b"))
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    probs = np.array([1.0, 0.0])
    kernel = TransitionKernel(space, rows)
    pmf = StatePMF(space, probs)
    stores = [Behavior(pmf, (kernel,)), Behavior(pmf, (kernel, kernel)),
              ContributorSet(space, ((kernel,),), ("x",)),
              ContributorSet(space, ((kernel,), (kernel,)), ("x", "y"))]
    assert rows.flags.writeable and probs.flags.writeable
    assert not np.shares_memory(kernel.matrix, rows)
    for store in stores:
        assert not np.shares_memory(store.matrices, rows)
        assert not np.shares_memory(store.matrices, kernel.matrix)
    assert not np.shares_memory(pmf.probs, probs)

    full = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]])
    shorthand = np.array([[0.5, 0.5], [0.5, 0.5]])
    initial = np.array([1.0, 0.0])
    rewards = np.zeros((2, 2))
    doc = minimal_doc()
    doc["target"] = {"initial": initial, "kernels": shorthand}
    doc["contributors"] = [{"id": "only", "kernels": full}]
    doc["rewards"] = {"default": rewards}
    scenario = scenario_from_dict(doc)
    callers = (full, shorthand, initial, rewards)
    stored = (scenario.target.matrices, scenario.contributors.matrices,
              scenario.target.initial.probs, scenario.rewards["default"].values)
    for array in callers:
        assert array.flags.writeable
        assert not any(np.shares_memory(array, kept) for kept in stored)
    full[0, 0] = [0.0, 1.0]
    assert scenario.contributors.matrices[0, 0, 0].tolist() == [0.9, 0.1]


# ---------------------------------------------------------------------------
# the direct JSON writer: json.dumps(indent=2) bytes, json's errors, a temporary file per write
# ---------------------------------------------------------------------------

#: sha256 of both files, recorded while they were still written by ``json.dumps`` itself. CI
#: runs this suite on the installed package on every leg, so a NumPy release that moved the
#: generator's stream fails there too.
SAVED_SHA256 = {
    "scenario": "0064f7865b865113937ca482faa4da3c0d88b0d44321b5864651c5bee08aedec",
    "policy": "2105c0ee5bdc39ae86416164783111f17d3226520419e78c71cf21a4b8ea5379",
}


def test_saved_scenario_and_policy_bytes_are_pinned(tmp_path):
    scenario = generate_random_scenario(seed=5, d=7, horizon=4, contributors=3, sparsity=0.3)
    save_scenario(scenario, tmp_path / "scenario")
    agent = synthesize(scenario.target, scenario.contributors, scenario.reward_profile()).agent
    save_policy(agent, tmp_path / "policy")
    for name, digest in SAVED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 0.1, 1e16)
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_texts = st.sampled_from(["é\n\"", "a\\b", "\u2028", "\x00", "😀"]) | st.text(max_size=5)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)


def _arrays(*shape):
    size = int(np.prod(shape))
    return st.lists(_floats, min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=float).reshape(shape)
    )


@st.composite
def _documents(draw):
    """A scenario-shaped document with NumPy arrays where the library puts its arrays."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {
        "scenario_version": SCENARIO_VERSION,
        "name": draw(_texts),
        "states": draw(st.lists(_texts | st.integers(), min_size=d, max_size=d)),
        "horizon": n,
        "target": {"initial": draw(_arrays(d)), "kernels": draw(_arrays(n, d, d))},
        "contributors": draw(
            st.lists(st.fixed_dictionaries({"id": _texts, "kernels": _arrays(n, d, d)}),
                     min_size=1, max_size=2)
        ),
        "rewards": draw(st.dictionaries(_texts | st.integers(), _arrays(n, d), min_size=1,
                                        max_size=2)),
        "metadata": draw(st.dictionaries(_texts, _json_values, max_size=3)),
    }


def _plain(node):
    """``node`` with every array replaced by its ``tolist()``."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_plain(item) for item in node]
    return node


@pytest.mark.parametrize(
    "doc",
    [
        {"kernels": np.array([[[1.0]]]), "initial": np.array([1.0]), "states": ["é\n\""],
         "metadata": {}},
        {"row": np.array(_EDGE_FLOATS), "metadata": {"a": [], "b": {}, "c": [[], {"d": []}]},
         3: None, "x": ()},
        np.array([]),
        np.zeros((2, 0)),
        {},
        [],
    ],
    ids=["d1-n1", "edge-floats-nested-empties", "empty-array", "empty-rows", "empty-dict",
         "empty-list"],
)
def test_json_text_writes_json_dumps_bytes_on_edge_cases(doc):
    assert _json_text(doc) == json.dumps(_plain(doc), indent=2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_json_text_writes_json_dumps_bytes(doc):
    assert _json_text(doc) == json.dumps(_plain(doc), indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "items",
    [
        [1, -2, 0, 2**70],
        ["a", "é\n\"", "", "\u2028"],
        [True, False],
        [None],
        [0.1, -0.0, 1e300, 5e-324, 2.0],
        [(), (1, "x"), (None, (2.5, True))],
        [1, "two", None, 3.0, False, (4,)],
        [],
        [[], [[]], [1, [2, ["three"]]], [{}], [{"a": [1, 2]}]],
    ],
    ids=["ints", "strs", "bools", "none", "floats", "tuples", "mixed", "empty", "nested"],
)
def test_json_text_writes_a_list_of_scalars_as_json_dumps_does(items):
    for doc in (items, {"k": items, "deeper": {"k": items}}, [items, items]):
        assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


def test_save_policy_makes_as_many_json_dumps_calls_at_any_state_count(tmp_path, monkeypatch):
    # the state labels go to json.dumps as one list, not one call a label
    targets = [generate_random_scenario(seed=d, d=d, horizon=3, contributors=1).target
               for d in (2, 16)]
    dumps, calls, counts = json.dumps, [], []
    monkeypatch.setattr(json, "dumps", lambda *args, **kw: calls.append(1) or dumps(*args, **kw))
    for target in targets:
        calls.clear()
        save_policy(target, tmp_path / f"{target.space.size}.json")
        counts.append(len(calls))
    monkeypatch.undo()
    assert counts[0] == counts[1]
    expected = {
        "policy_version": POLICY_VERSION,
        "states": list(targets[1].space.labels),
        "initial": targets[1].initial.probs.tolist(),
        "kernels": targets[1].matrices.tolist(),
    }
    text = json.dumps(expected, indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "16.json").read_text(encoding="utf-8") == text


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(1, 4),
    n=st.integers(1, 3),
    data=st.data(),
)
def test_saved_files_are_json_dumps_bytes(seed, d, n, data):
    doc = scenario_to_dict(generate_random_scenario(seed, d, n, contributors=2, sparsity=0.3))
    labels = st.lists(_texts | st.integers(), min_size=d, max_size=d, unique=True)
    names = _texts.filter(bool)
    ids = data.draw(st.lists(names, min_size=2, max_size=2, unique=True))
    doc.update(
        name=data.draw(names),
        states=data.draw(labels),
        contributors=[dict(entry, id=cid) for entry, cid in zip(doc["contributors"], ids)],
        rewards={data.draw(names): doc["rewards"]["default"]},
        metadata=data.draw(st.dictionaries(_texts, _json_values, max_size=3)),
    )
    scenario = scenario_from_dict(doc)
    policy = {
        "policy_version": POLICY_VERSION,
        "states": doc["states"],
        "initial": doc["target"]["initial"],
        "kernels": doc["target"]["kernels"],
    }
    with tempfile.TemporaryDirectory() as folder:
        save_scenario(scenario, Path(folder) / "s.json")
        save_policy(scenario.target, Path(folder) / "p.json")
        for name, expected in (("s.json", scenario_to_dict(scenario)), ("p.json", policy)):
            text = json.dumps(expected, indent=2, allow_nan=False) + "\n"
            assert (Path(folder) / name).read_bytes() == text.encode("utf-8")


def _rejected_saves():
    """(case, save, error): each save breaks one of json's rules."""
    base = generate_random_scenario(seed=2, d=3, horizon=2, contributors=2, sparsity=0.3)

    def with_pool_entry(value):
        pool = base.contributors.matrices.copy()
        pool[1, 0, 2, 1] = value
        contributors = ContributorSet._of(base.space, pool, base.contributors.ids)
        return Scenario(base.name, base.space, base.target, contributors, base.rewards)

    def with_target_entry(value):
        kernels = base.target.matrices.copy()
        kernels[1, 2, 0] = value
        return Behavior._of(base.target.initial, kernels)

    def with_metadata(metadata):
        return Scenario(base.name, base.space, base.target, base.contributors, base.rewards,
                        metadata)

    cases = []
    for label, value in (("nan", float("nan")), ("inf", float("inf"))):
        cases.append((f"scenario-{label}-array", save_scenario, with_pool_entry(value),
                      ValueError))
        cases.append((f"policy-{label}-array", save_policy, with_target_entry(value),
                      ValueError))
    cases.append(("nan-metadata", save_scenario,
                  with_metadata({"notes": [{"x": float("nan")}]}), ValueError))
    cases.append(("array-metadata", save_scenario,
                  with_metadata({"notes": {"x": np.ones(2)}}), TypeError))
    return cases


@pytest.mark.parametrize("case, save, value, error", _rejected_saves(),
                         ids=[case[0] for case in _rejected_saves()])
def test_rejected_saves_raise_jsons_errors_and_leave_the_file(tmp_path, case, save, value, error):
    path = tmp_path / "kept.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error):
        save(value, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]


def test_a_concurrent_writers_temporary_file_is_neither_overwritten_nor_renamed(tmp_path):
    behavior = generate_random_scenario(seed=8, d=3, horizon=2, contributors=1).target
    path, theirs = tmp_path / "p.json", tmp_path / "p.json.tmp"  # the name every write once used
    theirs.write_bytes(b"another writer's half-written file")
    save_policy(behavior, path)
    save_policy(behavior, tmp_path / "alone.json")
    assert theirs.read_bytes() == b"another writer's half-written file"
    assert path.read_bytes() == (tmp_path / "alone.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alone.json", "p.json", "p.json.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask  # as for any new file


def _fixed_temporary_name(monkeypatch, path):
    """Make `_atomic_write_text` pick one known temporary name for ``path``; return it."""
    monkeypatch.setattr("crowdpolicy.scenario.os.urandom", lambda size: bytes(size))
    return path.with_name(f"{path.name}.{bytes(8).hex()}.tmp")


def test_a_temporary_name_that_exists_fails_and_is_left_alone(tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    path.write_bytes(b"old bytes\n")
    theirs = _fixed_temporary_name(monkeypatch, path)
    theirs.write_bytes(b"another writer's file")
    with pytest.raises(FileExistsError):
        _atomic_write_text(path, "new text\n")
    assert path.read_bytes() == b"old bytes\n"
    assert theirs.read_bytes() == b"another writer's file"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, theirs.name])


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
def test_a_written_file_has_mode_0o666_less_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        _atomic_write_text(tmp_path / "fresh.json", "text\n")
        (tmp_path / "kept.json").write_bytes(b"old")
        _atomic_write_text(tmp_path / "kept.json", "text\n")  # a replaced file is new too
    finally:
        os.umask(old)
    for name in ("fresh.json", "kept.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask
        assert (tmp_path / name).read_bytes() == b"text\n"


def test_a_failed_write_leaves_no_temporary_behind(tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    path.write_bytes(b"old bytes\n")
    tmp = _fixed_temporary_name(monkeypatch, path)
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails once the temporary exists
        _atomic_write_text(path, "valid text, then \ud800")
    assert path.read_bytes() == b"old bytes\n"
    assert not tmp.exists()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_concurrent_writers_never_expose_a_partial_file(tmp_path):
    path = tmp_path / "shared.json"
    texts = [f"{i}" * 200_000 + "\n" for i in range(4)]
    path.write_text(texts[0])
    failures, seen, done = [], set(), threading.Event()

    def write(text):
        try:
            for _ in range(25):
                _atomic_write_text(path, text)
        except Exception as exc:  # reported below; a lost write must fail the test
            failures.append(exc)

    def read():
        while not done.is_set():
            seen.add(path.read_text())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write, args=(text,)) for text in texts]
        reader = threading.Thread(target=read)
        for thread in (*writers, reader):
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (*writers, reader))
    assert failures == []
    assert seen <= set(texts)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.json"]


def test_a_scenario_or_policy_file_whose_top_level_is_no_object_is_rejected(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ValidationError) as err:
        load_scenario(listed)
    assert str(err.value) == f"{listed}: top level must be a JSON object"
    with pytest.raises(ValidationError) as err:
        load_policy(listed)
    assert str(err.value) == f"{listed}: top level must be a JSON object"


def test_an_empty_reward_profile_name_is_rejected():
    doc = minimal_doc()
    doc["rewards"][""] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "scenario: reward profile names must be non-empty"


@pytest.mark.parametrize(
    "kernels", [[0.5, 0.5], [[[[0.5, 0.5], [0.5, 0.5]]]] * 2], ids=["1-D", "4-D"]
)
@pytest.mark.parametrize("owner", ["target", "contributor"])
def test_kernels_of_neither_two_nor_three_axes_are_rejected(kernels, owner):
    doc = minimal_doc()
    if owner == "target":
        doc["target"]["kernels"] = kernels
        name = "target"
    else:
        doc["contributors"][0]["kernels"] = kernels
        name = "contributor 'only'"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == (
        f"scenario: {name} kernels must be a [from][to] matrix or a [k][from][to] array"
    )


_AC = StateSpace(("a", "c"))


def _half(space, steps=2):
    """A contributor set of one contributor moving uniformly over ``space`` for ``steps`` steps."""
    return ContributorSet(space, ((TransitionKernel(space, np.full((2, 2), 0.5)),) * steps,), ("x",))


_SCENARIO_CHECKS = {
    "name": (lambda parts: parts.update(name=""), "scenario name must be non-empty"),
    "target space": (
        lambda parts: parts.update(space=_AC), "target state space does not match scenario states"
    ),
    "pool space": (
        lambda parts: parts.update(contributors=_half(_AC)),
        "contributors and target use different state spaces",
    ),
    "pool horizon": (
        lambda parts: parts.update(contributors=_half(parts["space"], 1)),
        "contributor horizon 1 != target horizon 2",
    ),
    "no rewards": (
        lambda parts: parts.update(rewards={}), "scenario must define at least one reward profile"
    ),
    "reward horizon": (
        lambda parts: parts["rewards"].update(short=RewardSchedule(parts["space"], np.zeros((1, 2)))),
        "reward profile 'short' horizon 1 != target horizon 2",
    ),
    "reward space": (
        lambda parts: parts["rewards"].update(other=RewardSchedule(_AC, np.zeros((2, 2)))),
        "reward profile 'other' and target use different state spaces",
    ),
}


@pytest.mark.parametrize("check", sorted(_SCENARIO_CHECKS))
def test_each_check_of_the_public_scenario_constructor(check):
    scenario = scenario_from_dict(minimal_doc())
    parts = {
        "name": scenario.name,
        "space": scenario.space,
        "target": scenario.target,
        "contributors": scenario.contributors,
        "rewards": dict(scenario.rewards),
    }
    change, message = _SCENARIO_CHECKS[check]
    change(parts)
    with pytest.raises(ValueError) as err:
        Scenario(**parts)
    assert str(err.value) == message
