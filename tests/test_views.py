"""Kernel holders store their stack alone; the library never builds their `kernels` views."""

import copy
import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from crowdpolicy import cli, model
from crowdpolicy.cli import main
from crowdpolicy.model import Behavior, TransitionKernel
from crowdpolicy.scenario import (
    demo_scenario_path,
    generate_random_scenario,
    load_policy,
    load_scenario,
    save_policy,
    scenario_from_dict,
    scenario_to_dict,
)
from crowdpolicy.synthesis import ContributorSet, filter_contributors, synthesize

DEMO = str(demo_scenario_path())


def _unviewed(*holders):
    return ["_kernels" not in vars(holder) for holder in holders]  # the `model._held` entry


def _scenarios(tmp_path):
    """The demo through every loader, and a generated scenario."""
    path = tmp_path / "again.json"
    path.write_text(demo_scenario_path().read_text())
    loaded = load_scenario(path)
    return {
        "load_scenario": loaded,
        "scenario_from_dict": scenario_from_dict(scenario_to_dict(loaded)),
        "generate_random_scenario": generate_random_scenario(3, 4, 3, 5, sparsity=0.4),
    }


def test_loaders_and_the_generator_build_no_views(tmp_path):
    for name, scenario in _scenarios(tmp_path).items():
        assert _unviewed(scenario.target, scenario.contributors) == [True, True], name
    demo = load_scenario(DEMO)
    save_policy(demo.target, tmp_path / "policy.json")
    assert _unviewed(load_policy(tmp_path / "policy.json", demo.space)) == [True]


def test_synthesis_filtering_and_subsets_build_no_views():
    scenario = generate_random_scenario(11, 5, 4, 6, sparsity=0.5)
    target, pool, rewards = scenario.target, scenario.contributors, scenario.reward_profile()
    policy = synthesize(target, pool, rewards)
    retained, _ = filter_contributors(target, pool)
    subset = pool.subset([2, 0])
    assert _unviewed(policy.agent, retained, subset, target, pool) == [True] * 5


def test_pure_contributor_costs_build_no_views(monkeypatch):
    scenario = load_scenario(DEMO)
    costed, evaluate = [], cli.evaluate_cost

    def recording(policy, target, rewards):
        costed.append(policy)
        return evaluate(policy, target, rewards)

    monkeypatch.setattr(cli, "evaluate_cost", recording)
    costs = cli._pure_costs(scenario, scenario.reward_profile("favor-node-2"))
    assert list(costs) == list(scenario.contributors.ids)
    assert len(costed) == scenario.contributors.size
    assert _unviewed(*costed, scenario.target, scenario.contributors) == [True] * (len(costed) + 2)


@pytest.mark.parametrize(
    "duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_copy_starts_without_views_even_when_its_original_has_them(duplicate):
    scenario = generate_random_scenario(5, 3, 2, 4)
    for holder in (scenario.target, scenario.contributors):
        assert _unviewed(duplicate(holder)) == [True]
        holder.kernels  # the original is viewed now
        again = duplicate(holder)
        assert _unviewed(again) == [True]
        assert again == holder and repr(again) == repr(holder)


def _points_into(view: np.ndarray, matrix: np.ndarray) -> bool:
    """``view`` is a read-only view whose first byte is ``matrix``'s own."""
    address = view.__array_interface__["data"][0]
    return not view.flags.writeable and address == matrix.__array_interface__["data"][0]


def test_a_first_read_views_the_stack_and_matches_a_public_twin(tmp_path):
    for scenario in _scenarios(tmp_path).values():
        target, pool = scenario.target, scenario.contributors
        twin = Behavior(target.initial, target.kernels)
        assert _unviewed(target, twin) == [False, True]
        assert all(kernel.matrix.base is target.matrices for kernel in target.kernels)
        assert repr(twin) == repr(target) and twin == target
        assert [type(kernel) for kernel in twin.kernels] == [TransitionKernel] * target.horizon

        assert _unviewed(pool) == [True]
        pool_twin = ContributorSet(pool.space, pool.kernels, pool.ids)
        assert repr(pool_twin) == repr(pool) and pool_twin == pool
        assert [len(per_k) for per_k in pool.kernels] == [pool.horizon] * pool.size
        assert _unviewed(pool) == [False]
        assert all(
            _points_into(pool.kernels[i][idx].matrix, pool.matrices[i, idx])
            and pool.kernel(i, idx + 1) is pool.kernels[i][idx]
            for i in range(pool.size)
            for idx in range(pool.horizon)
        )
        assert all(
            kernel.matrix.base is pool_twin.matrices
            for per_k in pool_twin.kernels
            for kernel in per_k
        )


def test_public_constructors_drop_the_callers_kernels():
    scenario = generate_random_scenario(2, 3, 2, 2)
    given = scenario.contributors.kernels
    pool = ContributorSet(scenario.space, given, scenario.contributors.ids)
    assert _unviewed(pool) == [True]
    assert pool.kernels[0][0] is not given[0][0] and pool.kernels[0][0] == given[0][0]
    behavior = Behavior(scenario.target.initial, given[1])
    assert _unviewed(behavior) == [True]
    assert all(view.matrix.base is behavior.matrices for view in behavior.kernels)


def test_the_public_surface_of_the_holders_is_unchanged():
    scenario = generate_random_scenario(4, 3, 2, 2)
    target, pool = scenario.target, scenario.contributors
    assert [(f.name, f.init, f.compare) for f in dataclasses.fields(target)] == [
        ("initial", True, True), ("kernels", True, False), ("matrices", False, True),
    ]
    assert [(f.name, f.init, f.compare) for f in dataclasses.fields(pool)] == [
        ("space", True, True), ("kernels", True, False), ("ids", True, True),
        ("matrices", False, True),
    ]
    assert not hasattr(Behavior, "kernels") and not hasattr(ContributorSet, "kernels")
    replaced = dataclasses.replace(pool, ids=("x", "y"))
    assert replaced.ids == ("x", "y") and np.array_equal(replaced.matrices, pool.matrices)
    assert dataclasses.replace(target) == target


def test_threads_reading_kernels_first_get_equal_tuples():
    # more readers than cores and a short switch interval, so first reads interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            scenario = generate_random_scenario(seed, 4, 3, 3)
            for holder in (scenario.target, scenario.contributors):
                start, seen = threading.Barrier(8), []

                def read(holder=holder, start=start, seen=seen):
                    start.wait(timeout=10)
                    seen.append(holder.kernels)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8 and all(views == seen[0] for views in seen)
                assert holder.kernels == seen[0]
    finally:
        sys.setswitchinterval(interval)


def test_any_other_missing_attribute_raises_the_standard_error():
    scenario = generate_random_scenario(1, 2, 1, 1)
    for holder, name in ((scenario.target, "Behavior"), (scenario.contributors, "ContributorSet")):
        with pytest.raises(AttributeError) as err:
            holder.no_such_name
        assert str(err.value) == f"'{name}' object has no attribute 'no_such_name'"
        assert not hasattr(holder, "no_such_name") and _unviewed(holder) == [True]


def test_no_command_builds_a_kernel_view_or_a_kernel(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel view was built")

    monkeypatch.setattr(model, "_kernel_views", refuse)
    monkeypatch.setattr(TransitionKernel, "__post_init__", refuse)
    common = ["--scenario", DEMO, "--reward-profile", "favor-node-2"]
    policy = str(tmp_path / "syn" / "policy.json")
    runs = [
        ["demo", "--out", str(tmp_path / "demo")],
        ["synthesize", *common, "--out", str(tmp_path / "syn")],
        ["evaluate", *common, "--policy", policy],
        ["oracle", *common],
        ["simulate", *common, "--policy", policy, "--count", "20", "--seed", "3",
         "--out", str(tmp_path / "sim")],
    ]
    for argv in runs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
