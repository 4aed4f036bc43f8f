"""The frozen array holders as values: equality by field, read-only arrays through every copy."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from crowdpolicy.evaluation import pure_schedule_oracle, simplex_grid_oracle
from crowdpolicy.model import WeightVector
from crowdpolicy.scenario import generate_random_scenario
from crowdpolicy.synthesis import synthesize

SCENARIO = generate_random_scenario(7, 3, 2, 3, sparsity=0.3)
REWARDS = SCENARIO.reward_profile()
PROBLEM = (SCENARIO.target, SCENARIO.contributors, REWARDS)

#: One value of each frozen array holder, built fresh on every call.
VALUES = {
    "StatePMF": lambda: SCENARIO.target.initial,
    "TransitionKernel": lambda: SCENARIO.target.kernels[0],
    "Behavior": lambda: SCENARIO.target,
    "RewardSchedule": lambda: REWARDS,
    "WeightVector": lambda: WeightVector(np.array([0.25, 0.75])),
    "ContributorSet": lambda: SCENARIO.contributors,
    "SynthesizedPolicy": lambda: synthesize(*PROBLEM),
    "Scenario": lambda: SCENARIO,
    "ScheduleResult": lambda: pure_schedule_oracle(*PROBLEM),
    "GridSearchResult": lambda: simplex_grid_oracle(*PROBLEM, 2),
}

DUPLICATES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _arrays(value):
    """Every array reachable from ``value`` through fields, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("how", sorted(DUPLICATES))
@pytest.mark.parametrize("kind", sorted(VALUES))
def test_a_copy_equals_its_original_and_every_array_stays_read_only(kind, how):
    original = VALUES[kind]()
    assert type(original).__name__ == kind
    duplicate = DUPLICATES[how](original)
    assert type(duplicate) is type(original)
    assert duplicate == original and not duplicate != original
    arrays = list(_arrays(duplicate))
    assert arrays
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)


def test_a_copied_behavior_locks_its_initial_pmf_and_a_copied_scenario_its_rewards():
    behavior = pickle.loads(pickle.dumps(SCENARIO.target))
    assert not behavior.initial.probs.flags.writeable
    scenario = copy.deepcopy(SCENARIO)
    assert [s.values.flags.writeable for s in scenario.rewards.values()] == [False]


@pytest.mark.parametrize("mode", ["per-time", "per-time-and-state"])
def test_equal_schedule_results_compare_equal_and_one_changed_field_does_not(mode):
    first, second = pure_schedule_oracle(*PROBLEM, mode), pure_schedule_oracle(*PROBLEM, mode)
    assert first is not second and first == second
    changed = np.array(first.schedule)
    changed[0] = (changed[0] + 1) % SCENARIO.contributors.size
    schedule = tuple(changed.tolist()) if mode == "per-time" else changed
    other_mode = "per-time" if mode == "per-time-and-state" else "per-time-and-state"
    for field, value in (("mode", other_mode), ("schedule", schedule), ("cost", first.cost + 1)):
        assert first != dataclasses.replace(first, **{field: value}), field
    assert first != (first.mode, first.schedule, first.cost)


def test_equal_grid_results_compare_equal_and_one_changed_field_does_not():
    first, second = simplex_grid_oracle(*PROBLEM, 2), simplex_grid_oracle(*PROBLEM, 2)
    assert first is not second and first == second
    assert first != dataclasses.replace(first, weights=first.weights + 1)
    assert first != dataclasses.replace(first, cost=first.cost + 1)


def test_synthesized_policies_compare_by_value():
    first = VALUES["SynthesizedPolicy"]()
    second = VALUES["SynthesizedPolicy"]()
    assert first is not second and first == second
    assert first != dataclasses.replace(first, r_hat=first.r_hat + 1)
    assert first != dataclasses.replace(first, contributor_ids=first.contributor_ids[::-1])


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_no_frozen_array_holder_is_hashable(kind):
    with pytest.raises(TypeError, match="unhashable"):
        hash(VALUES[kind]())
