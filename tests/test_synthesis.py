"""Tests for the backward-recursion policy synthesizer.

The worked examples here are computed by hand from the definitions: score of
contributor i at (k, x) is KL(row_i || target row) minus the row's expected
reward-to-go, the winner is the lowest-scoring contributor, and the negated
winning score is carried back one step as a bonus on arrival states.
"""

import math

import numpy as np
import pytest

from crowdpolicy.errors import InfeasibleError, ValidationError
from crowdpolicy.evaluation import evaluate_cost, simplex_grid_oracle
from crowdpolicy.model import (
    Behavior,
    RewardSchedule,
    StatePMF,
    StateSpace,
    TransitionKernel,
)
from crowdpolicy.scenario import generate_random_scenario
from crowdpolicy.synthesis import (
    ContributorSet,
    bound_value,
    filter_contributors,
    synthesize,
)

LN2 = math.log(2.0)
AB = StateSpace(("a", "b"))


def homogeneous(space, row_per_state, horizon):
    kernel = TransitionKernel(space, np.asarray(row_per_state, dtype=float))
    return tuple(kernel for _ in range(horizon))


def uniform_target(horizon):
    return Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[0.5, 0.5], [0.5, 0.5]], horizon),
    )


def pool(horizon, *row_sets, ids=None):
    kernels = tuple(homogeneous(AB, rows, horizon) for rows in row_sets)
    ids = ids or tuple(f"c{i}" for i in range(len(row_sets)))
    return ContributorSet(AB, kernels, ids)


def test_one_step_scores_match_hand_computation():
    # KL([.9,.1] || [.5,.5]) = 0.3680642071684971; expected rewards 9 and 5
    target = uniform_target(1)
    contributors = pool(1, [[0.9, 0.1], [0.9, 0.1]], [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.array([[10.0, 0.0]]))
    policy = synthesize(target, contributors, rewards)
    for x in range(2):
        assert policy.scores[0, x, 0] == pytest.approx(-8.631935792831502, abs=1e-12)
        assert policy.scores[0, x, 1] == pytest.approx(-5.0, abs=1e-15)
        assert policy.selected[0, x] == 0
    # the reward advantage outweighs the divergence penalty, so the skewed
    # contributor wins even though the bland one matches the target exactly
    assert policy.selection_table() == [["c0", "c0"]]


def test_two_step_recursion_hand_values():
    # contributors jump deterministically left or right; only the k=2 reward
    # distinguishes them, and its value-to-go must propagate into step 1
    target = uniform_target(2)
    contributors = pool(2, [[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]])
    rewards = RewardSchedule(AB, np.array([[0.0, 0.0], [2.0, 0.0]]))
    policy = synthesize(target, contributors, rewards)

    # k=2: a_left = ln2 - 2, a_right = ln2; left wins both states
    assert np.allclose(policy.scores[1, :, 0], LN2 - 2.0, atol=1e-15)
    assert np.allclose(policy.scores[1, :, 1], LN2, atol=1e-15)
    assert np.array_equal(policy.selected[1], [0, 0])
    assert np.allclose(policy.r_hat[1], 0.0)

    # bonus for any arrival state of step 1 is 2 - ln2, so both contributors
    # tie at 2 ln2 - 2 and the tie goes to the lower index
    assert np.allclose(policy.r_hat[0], 2.0 - LN2, atol=1e-15)
    assert np.allclose(policy.r_bar[0], 2.0 - LN2, atol=1e-15)
    assert np.allclose(policy.scores[0], 2.0 * LN2 - 2.0, atol=1e-15)
    assert np.array_equal(policy.selected[0], [0, 0])

    # the agent deterministically walks a -> a -> a, collecting 2 at k=2
    bound = bound_value(policy, target)
    assert bound == pytest.approx(2.0 * LN2 - 2.0, abs=1e-15)
    exact = evaluate_cost(policy.agent, target, rewards)
    assert exact.total == pytest.approx(bound, abs=1e-12)
    assert exact.kl_part == pytest.approx(2.0 * LN2, abs=1e-15)
    assert exact.reward_part == pytest.approx(2.0, abs=1e-15)


def test_ties_always_go_to_the_lowest_index():
    target = uniform_target(3)
    same = [[0.7, 0.3], [0.2, 0.8]]
    contributors = pool(3, same, same, same)
    rewards = RewardSchedule(AB, np.zeros((3, 2)))
    policy = synthesize(target, contributors, rewards)
    assert np.all(policy.selected == 0)
    assert all(
        policy.weight_vector(k, x).is_vertex
        for k in range(1, 4)
        for x in range(2)
    )


def test_agent_rows_are_verbatim_copies():
    # sparse contributor rows must land in the agent kernel bit for bit,
    # with no renormalization or smoothing
    target = uniform_target(2)
    rows = [[1.0, 0.0], [0.3, 0.7]]
    contributors = pool(2, rows, [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.array([[5.0, 0.0], [5.0, 0.0]]))
    policy = synthesize(target, contributors, rewards)
    source = contributors.kernel(0, 1).matrix
    for idx in range(2):
        for x in range(2):
            chosen = policy.selected[idx, x]
            if chosen == 0:
                assert np.array_equal(policy.agent.kernels[idx].matrix[x], source[x])
    assert np.any(policy.selected == 0)


def test_filter_reports_first_violation():
    space = AB
    target = Behavior(
        StatePMF(space, np.array([1.0, 0.0])),
        homogeneous(space, [[1.0, 0.0], [1.0, 0.0]], 2),
    )
    good = [[1.0, 0.0], [1.0, 0.0]]
    bad = [[1.0, 0.0], [0.5, 0.5]]  # puts mass on 'b' where the target has none
    contributors = pool(2, good, bad, ids=("good", "bad"))
    retained, report = filter_contributors(target, contributors)
    assert retained.ids == ("good",)
    assert report.retained_ids == ("good",)
    assert len(report.exclusions) == 1
    exclusion = report.exclusions[0]
    assert exclusion.contributor_id == "bad"
    assert exclusion.k == 1
    assert exclusion.state == "b"


def test_filter_infeasible_when_nothing_survives():
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[1.0, 0.0], [1.0, 0.0]], 1),
    )
    contributors = pool(1, [[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(InfeasibleError, match="no admissible contributor"):
        filter_contributors(target, contributors)


def test_prefilter_false_keeps_violators_but_avoids_them():
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[1.0, 0.0], [1.0, 0.0]], 2),
    )
    good = [[1.0, 0.0], [1.0, 0.0]]
    bad = [[0.5, 0.5], [0.5, 0.5]]
    contributors = pool(2, bad, good, ids=("bad", "good"))
    rewards = RewardSchedule(AB, np.zeros((2, 2)))
    policy = synthesize(target, contributors, rewards, prefilter=False)
    assert policy.filter_report is None
    assert policy.contributor_ids == ("bad", "good")
    assert np.all(np.isinf(policy.scores[:, :, 0]))
    assert np.all(policy.selected == 1)

    only_bad = pool(2, bad, ids=("bad",))
    with pytest.raises(InfeasibleError, match="k=2"):
        synthesize(target, only_bad, rewards, prefilter=False)


def test_subnormal_target_mass_keeps_contributor_admissible():
    row = [1.0, 5e-324]
    target = Behavior(StatePMF(AB, np.array([1.0, 0.0])), homogeneous(AB, [row, row], 1))
    contributors = pool(1, [[0.5, 0.5], [0.5, 0.5]])
    policy = synthesize(target, contributors, RewardSchedule(AB, np.zeros((1, 2))))
    assert policy.filter_report.exclusions == ()
    assert np.all(np.isfinite(policy.scores))


@pytest.mark.parametrize("reward", [-1.7e308, 1.7e308])
def test_reward_overflow_is_a_validation_error_naming_the_step(reward):
    contributors = pool(2, [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.full((2, 2), reward))
    with pytest.raises(ValidationError, match="value-to-go at k=1"):
        synthesize(uniform_target(2), contributors, rewards)


def test_bound_value_overflow_is_a_validation_error_naming_the_step():
    # the backward recursion sums 1e308 + (1e308 - 1e308) without overflow,
    # but the bound adds the same step costs forward and passes -1.8e308 at k=2
    single = StateSpace(("x",))
    point = Behavior(StatePMF(single, np.array([1.0])), homogeneous(single, [[1.0]], 3))
    contributors = ContributorSet(single, (homogeneous(single, [[1.0]], 3),), ("c",))
    rewards = RewardSchedule(single, np.array([[1e308], [1e308], [-1e308]]))
    policy = synthesize(point, contributors, rewards)
    with pytest.raises(ValidationError, match="bound value at k=2"):
        bound_value(policy, point)


def test_bound_equals_exact_cost_on_random_instances():
    for seed in range(40):
        scenario = generate_random_scenario(
            seed=seed,
            d=2 + seed % 3,
            horizon=1 + seed % 4,
            contributors=1 + seed % 3,
            sparsity=0.3 if seed % 4 == 0 else 0.0,
            reward_range=(-2.0, 2.0),
        )
        rewards = scenario.reward_profile()
        policy = synthesize(scenario.target, scenario.contributors, rewards)
        bound = bound_value(policy, scenario.target)
        exact = evaluate_cost(policy.agent, scenario.target, rewards)
        assert bound == pytest.approx(exact.total, abs=1e-9), f"seed={seed}"


def test_interior_mixture_can_beat_every_vertex():
    """Switching is optimal among pure selections, not among all mixtures.

    With symmetric contributors [.9,.1] and [.1,.9] against a uniform target
    and no rewards, each vertex costs KL = 0.368..., while the 50/50 mixture
    reproduces the target exactly at zero cost. The synthesizer is scoped to
    vertices by design; this pins the gap so the limitation stays visible.
    """
    target = uniform_target(1)
    contributors = pool(1, [[0.9, 0.1], [0.9, 0.1]], [[0.1, 0.9], [0.1, 0.9]])
    rewards = RewardSchedule(AB, np.zeros((1, 2)))
    policy = synthesize(target, contributors, rewards)
    vertex_cost = bound_value(policy, target)
    assert vertex_cost == pytest.approx(0.3680642071684971, abs=1e-12)
    grid = simplex_grid_oracle(target, contributors, rewards, grid_resolution=2)
    assert grid.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grid.weights, [[0.5, 0.5]])


def test_contributor_set_validation():
    kernel = TransitionKernel(AB, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="must not be empty"):
        ContributorSet(AB, (), ())
    with pytest.raises(ValueError, match="horizon"):
        ContributorSet(AB, ((kernel,), (kernel, kernel)), ("x", "y"))
    with pytest.raises(ValueError, match="unique"):
        ContributorSet(AB, ((kernel,), (kernel,)), ("x", "x"))
    with pytest.raises(ValueError, match="one id per contributor"):
        ContributorSet(AB, ((kernel,),), ("x", "y"))
    full = ContributorSet(AB, ((kernel,), (kernel,)), ("x", "y"))
    assert full.subset([1]).ids == ("y",)


def test_dimension_mismatches_raise():
    target = uniform_target(2)
    contributors = pool(1, [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="horizon"):
        synthesize(target, contributors, rewards)
    other_space = StateSpace((1, 2, 3))
    other_rewards = RewardSchedule(other_space, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="state space"):
        synthesize(target, pool(2, [[0.5, 0.5], [0.5, 0.5]]), other_rewards)


def test_bound_value_mismatch_checks():
    target = uniform_target(1)
    contributors = pool(1, [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.zeros((1, 2)))
    policy = synthesize(target, contributors, rewards)
    with pytest.raises(ValueError, match="horizons differ"):
        bound_value(policy, uniform_target(2))
