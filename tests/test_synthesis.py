"""Tests for the backward-recursion policy synthesizer.

The worked examples here are computed by hand from the definitions: score of
contributor i at (k, x) is KL(row_i || target row) minus the row's expected
reward-to-go, the winner is the lowest-scoring contributor, and the negated
winning score is carried back one step as a bonus on arrival states.
"""

import copy
import math
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpolicy import evaluation, synthesis
from crowdpolicy.errors import InfeasibleError
from crowdpolicy.evaluation import (
    evaluate_cost,
    pure_schedule_oracle,
    simplex_grid_oracle,
    trajectory_enumeration_cost,
)
from crowdpolicy.model import (
    REWARD_LIMIT,
    Behavior,
    RewardSchedule,
    StatePMF,
    StateSpace,
    TransitionKernel,
    _check_compatible,
    _held,
    kl_rows,
    simplex_argmin,
)
from crowdpolicy.scenario import generate_random_scenario, load_policy, save_policy
from crowdpolicy.simulate import monte_carlo_cost, sample_trajectories
from crowdpolicy.synthesis import (
    ContributorSet,
    Exclusion,
    FilterReport,
    SynthesizedPolicy,
    _filter,
    _scored,
    bound_value,
    filter_contributors,
    synthesize,
)

LN2 = math.log(2.0)
AB = StateSpace(("a", "b"))


def _kl_table(target, contributors):
    """The pool's held KL table against ``target``: the first part of its `_scored` entry."""
    return _scored(target, contributors)[0]


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


def test_violators_stay_in_the_pool_but_are_avoided():
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[1.0, 0.0], [1.0, 0.0]], 2),
    )
    good = [[1.0, 0.0], [1.0, 0.0]]
    bad = [[0.5, 0.5], [0.5, 0.5]]
    contributors = pool(2, bad, good, ids=("bad", "good"))
    rewards = RewardSchedule(AB, np.zeros((2, 2)))
    policy = synthesize(target, contributors, rewards)
    assert policy.filter_report == FilterReport(("good",), (Exclusion("bad", 1, "a"),))
    assert policy.contributor_ids == ("bad", "good")
    assert np.all(np.isinf(policy.scores[:, :, 0]))
    assert np.all(policy.selected == 1)

    # the initial pmf is on 'a', where the only contributor leaves the target's support
    only_bad = pool(2, bad, ids=("bad",))
    with pytest.raises(InfeasibleError) as err:
        synthesize(target, only_bad, rewards)
    assert str(err.value) == "every contributor score is +inf at k=1, state='a'"


def test_subnormal_target_mass_keeps_contributor_admissible():
    row = [1.0, 5e-324]
    target = Behavior(StatePMF(AB, np.array([1.0, 0.0])), homogeneous(AB, [row, row], 1))
    contributors = pool(1, [[0.5, 0.5], [0.5, 0.5]])
    policy = synthesize(target, contributors, RewardSchedule(AB, np.zeros((1, 2))))
    assert policy.filter_report.exclusions == ()
    assert np.all(np.isfinite(policy.scores))


@pytest.mark.parametrize("reward", [-1.7e308, 1.7e308])
def test_a_reward_past_the_limit_is_refused_before_synthesize_runs(reward):
    with pytest.raises(ValueError, match="at k=1; keep the sum below it"):
        RewardSchedule(AB, np.full((2, 2), reward))


@pytest.mark.parametrize("reward", [-0.49 * REWARD_LIMIT, 0.49 * REWARD_LIMIT])
@pytest.mark.parametrize("size", [1, 2])
def test_rewards_just_below_the_limit_synthesize_what_the_oracle_selects(reward, size):
    # with more than one contributor an overflow once ended in a wrong
    # InfeasibleError; two steps of these rewards now stay finite throughout
    contributors = pool(2, *([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.2, 0.8]])[:size])
    rewards = RewardSchedule(AB, np.full((2, 2), reward))
    policy = synthesize(uniform_target(2), contributors, rewards)
    assert np.isfinite(policy.scores).all() and np.isfinite(policy.r_hat).all()
    best = pure_schedule_oracle(uniform_target(2), contributors, rewards)
    assert np.array_equal(policy.selected, best.schedule)


def test_bound_value_sums_forward_what_the_backward_pass_sums_from_the_end():
    # the backward recursion sums a + (a - a), the bound a + a - a: both stay
    # finite below the limit and give the same cost
    a = 0.3 * REWARD_LIMIT
    single = StateSpace(("x",))
    point = Behavior(StatePMF(single, np.array([1.0])), homogeneous(single, [[1.0]], 3))
    contributors = ContributorSet(single, (homogeneous(single, [[1.0]], 3),), ("c",))
    rewards = RewardSchedule(single, np.array([[a], [a], [-a]]))
    policy = synthesize(point, contributors, rewards)
    assert policy.scores[0, 0, 0] == bound_value(policy, point) == -a


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
    with pytest.raises(ValueError, match="must not be empty"):
        full.subset([])


def _grid_oracle(target, contributors, rewards):
    return simplex_grid_oracle(target, contributors, rewards, grid_resolution=1)


_MISMATCHES = {
    "pool horizon": "contributor horizon 1 != target horizon 2",
    "pool space": "contributors and target use different state spaces",
    "reward horizon": "reward horizon 1 != target horizon 2",
    "reward space": "rewards and target use different state spaces",
    "policy horizon": "policy horizon 1 != target horizon 2",
    "policy space": "policy and target use different state spaces",
}

#: Every public route that takes a target, called on (target, pool, rewards, synthesized
#: policy), with the parts of `_MISMATCHES` it takes.
_ROUTES = {
    "synthesize": (lambda t, c, r, p: synthesize(t, c, r), ("pool", "reward")),
    "filter_contributors": (lambda t, c, r, p: filter_contributors(t, c), ("pool",)),
    "pure_schedule_oracle": (lambda t, c, r, p: pure_schedule_oracle(t, c, r), ("pool", "reward")),
    "_grid_oracle": (lambda t, c, r, p: _grid_oracle(t, c, r), ("pool", "reward")),
    "evaluate_cost": (lambda t, c, r, p: evaluate_cost(p.agent, t, r), ("policy", "reward")),
    "trajectory_enumeration_cost": (
        lambda t, c, r, p: trajectory_enumeration_cost(p.agent, t, r), ("policy", "reward")
    ),
    "monte_carlo_cost": (
        lambda t, c, r, p: monte_carlo_cost(p.agent, t, r, count=5, seed=0), ("policy", "reward")
    ),
    "bound_value": (lambda t, c, r, p: bound_value(p, t), ("policy",)),
    "sample_trajectories": (
        lambda t, c, r, p: sample_trajectories(p.agent, 5, seed=0, target=t), ("policy",)
    ),
}


@pytest.mark.parametrize(
    "route, mismatch",
    [(route, mismatch)
     for route, (_, parts) in _ROUTES.items()
     for mismatch in _MISMATCHES
     if mismatch.split()[0] in parts],
)
def test_entry_points_share_one_compatibility_check(route, mismatch):
    target = uniform_target(2)
    contributors = pool(2, [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(AB, np.zeros((2, 2)))
    policy = synthesize(target, contributors, rewards)
    other = StateSpace(("a", "c"))
    kernel = TransitionKernel(other, np.full((2, 2), 0.5))
    foreign_pool = ContributorSet(other, ((kernel, kernel),), ("x",))
    if mismatch == "pool horizon":
        contributors = pool(1, [[0.5, 0.5], [0.5, 0.5]])
    elif mismatch == "pool space":
        contributors = foreign_pool
    elif mismatch == "reward horizon":
        rewards = RewardSchedule(AB, np.zeros((1, 2)))
    elif mismatch == "reward space":
        rewards = RewardSchedule(other, np.zeros((2, 2)))
    elif mismatch == "policy horizon":
        short = RewardSchedule(AB, np.zeros((1, 2)))
        policy = synthesize(uniform_target(1), pool(1, [[0.5, 0.5], [0.5, 0.5]]), short)
    else:
        foreign = Behavior(StatePMF(other, np.array([1.0, 0.0])), (kernel, kernel))
        policy = synthesize(foreign, foreign_pool, RewardSchedule(other, np.zeros((2, 2))))
    call, _ = _ROUTES[route]
    with pytest.raises(ValueError) as err:
        call(target, contributors, rewards, policy)
    assert str(err.value) == _MISMATCHES[mismatch]


# ---------------------------------------------------------------------------
# differential checks against the per-contributor, per-state reference
# ---------------------------------------------------------------------------


def _reference_first_violation(target, contributors, i):
    """Reference: first (k, state) where contributor i's KL is +inf, one kernel at a time."""
    for k in range(1, target.horizon + 1):
        rows = contributors.kernel(i, k).matrix
        kls = kl_rows(rows, target.kernels[k - 1].matrix)
        bad = np.flatnonzero(np.isinf(kls))
        if bad.size:
            return k, int(bad[0])
    return None


def _reference_filter(target, contributors):
    """Reference: the contributor-by-contributor loop `filter_contributors` used to run."""
    retained, exclusions = [], []
    for i in range(contributors.size):
        violation = _reference_first_violation(target, contributors, i)
        if violation is None:
            retained.append(i)
        else:
            k, x = violation
            exclusions.append(Exclusion(contributors.ids[i], k, target.space.label(x)))
    if not retained:
        raise InfeasibleError(
            "no admissible contributor: every contributor places mass where the target has none"
        )
    report = FilterReport(tuple(contributors.ids[i] for i in retained), tuple(exclusions))
    return contributors.subset(retained), report


def _reference_synthesize(target, contributors, rewards):
    """Reference: a second KL pass and one `simplex_argmin` per (k, state).

    Kept as `synthesize` ran before its scores came from one KL table. It
    knows no dead states, so it stands for `synthesize` only on pools the
    filter leaves whole.
    """
    _, report = _reference_filter(target, contributors)
    n, d, s = target.horizon, target.space.size, contributors.size
    scores = np.empty((n, d, s))
    selected = np.empty((n, d), dtype=int)
    weights = np.zeros((n, d, s))
    r_hat = np.empty((n, d))
    r_bar = np.empty((n, d))
    agent_rows = np.empty((n, d, d))
    value_to_go = np.zeros(d)
    for k in range(n, 0, -1):
        idx = k - 1
        r_hat[idx] = value_to_go
        r_bar[idx] = rewards.values[idx] + value_to_go
        target_rows = target.kernels[idx].matrix
        for i in range(s):
            rows = contributors.kernel(i, k).matrix
            scores[idx, :, i] = kl_rows(rows, target_rows) - rows @ r_bar[idx]
        for x in range(d):
            choice = simplex_argmin(scores[idx, x])
            selected[idx, x] = choice.index
            weights[idx, x] = choice.weights.weights
            agent_rows[idx, x] = contributors.kernel(choice.index, k).matrix[x]
        value_to_go = -scores[idx].min(axis=1)
    agent = Behavior(
        target.initial,
        tuple(TransitionKernel(target.space, agent_rows[idx]) for idx in range(n)),
    )
    return SynthesizedPolicy(
        target.space, contributors.ids, scores, selected, weights, agent, r_hat, r_bar, report
    )


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (InfeasibleError, ValueError) as exc:
        return type(exc), str(exc)


def _bits(arr):
    """Bit pattern of an array: equal only when dtype, shape and every bit (-0.0 too) agree."""
    return arr.dtype.str, arr.shape, arr.tobytes()


def assert_matches_reference(target, contributors, rewards, oracle=True):
    """Bit identity with the reference, on a pool the filter leaves whole."""
    assert filter_contributors(target, contributors)[1].exclusions == ()
    got = _outcome(synthesize, target, contributors, rewards)
    want = _outcome(_reference_synthesize, target, contributors, rewards)
    assert isinstance(got, tuple) == isinstance(want, tuple), (got, want)
    if isinstance(want, tuple):
        assert got == want  # same error type and text
        return
    assert got.space == want.space
    assert got.contributor_ids == want.contributor_ids
    for name in ("scores", "selected", "weights", "r_hat", "r_bar"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert not getattr(got, name).flags.writeable, name
    assert [_bits(kernel.matrix) for kernel in got.agent.kernels] == [
        _bits(kernel.matrix) for kernel in want.agent.kernels
    ]
    assert got.agent == want.agent
    assert repr(got.filter_report) == repr(want.filter_report)
    assert _outcome(bound_value, got, target) == _outcome(bound_value, want, target)
    assert repr(_outcome(filter_contributors, target, contributors)) == repr(
        _outcome(_reference_filter, target, contributors)
    )
    if oracle:
        assert_matches_the_oracle(target, contributors, rewards)


_INFEASIBLE = re.compile(r"every contributor score is \+inf at k=1, state=(.*)")


def _from_state(target, x):
    """The target with its initial pmf moved onto state index ``x``."""
    return Behavior(StatePMF(target.space, np.eye(target.space.size)[x]), target.kernels)


def assert_matches_the_oracle(target, contributors, rewards):
    """`synthesize` raises exactly where the oracle finds no finite cost, else finds its schedule.

    An infeasible pool's error names a state the initial pmf puts mass on,
    from which the oracle finds no finite cost either. A feasible pool's
    selections are the oracle's schedule, and the bound, the exact cost and
    the enumerated cost of the agent are the oracle's cost.
    """
    best = pure_schedule_oracle(target, contributors, rewards)
    got = _outcome(synthesize, target, contributors, rewards)
    if math.isinf(best.cost):
        assert isinstance(got, tuple) and got[0] is InfeasibleError, got
        label = _INFEASIBLE.fullmatch(got[1])[1]
        state = [repr(target.space.label(x)) for x in range(target.space.size)].index(label)
        assert target.initial.probs[state] > 0
        start = _from_state(target, state)
        assert math.isinf(pure_schedule_oracle(start, contributors, rewards).cost)
        return
    assert not isinstance(got, tuple), (got, best.cost)
    assert got.contributor_ids == contributors.ids
    assert np.array_equal(got.selected, best.schedule)
    assert bound_value(got, target) == pytest.approx(best.cost, abs=1e-9)
    assert evaluate_cost(got.agent, target, rewards).total == pytest.approx(best.cost, abs=1e-9)
    enumerated = trajectory_enumeration_cost(got.agent, target, rewards).total
    assert enumerated == pytest.approx(best.cost, abs=1e-9)


def _random_rows(rng, shape, zero_share):
    """Random pmf rows; each row keeps its largest entry, others may be zeroed."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    drop = rng.random(rows.shape) < zero_share
    np.put_along_axis(drop, rows.argmax(axis=-1)[..., None], False, axis=-1)
    rows = np.where(drop, 0.0, rows)
    return rows / rows.sum(axis=-1, keepdims=True)


def _kernels(space, stack, mode="strict"):
    return tuple(TransitionKernel(space, matrix, mode) for matrix in stack)


#: The largest reward scale whose four steps stay below the limit.
NEAR = REWARD_LIMIT / 4.01


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 6),
    horizon=st.integers(1, 4),
    size=st.integers(1, 4),
    distinct=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    initial_zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    reward_scale=st.sampled_from([0.0, 1.0, 50.0, NEAR]),
    renormalize=st.booleans(),
)
def test_synthesize_equals_the_reference(
    d, horizon, size, distinct, seed, initial_zero_share, reward_scale, renormalize
):
    # the target has no zero entry, so the filter leaves every pool whole; a
    # sparse initial pmf leaves states unreachable, repeated kernels and zero
    # rewards make exact ties
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    rng = np.random.default_rng(seed)
    target = Behavior(
        StatePMF(space, _random_rows(rng, (d,), initial_zero_share)),
        _kernels(space, _random_rows(rng, (horizon, d, d), 0.0)),
    )
    mode = "renormalize" if renormalize else "strict"
    stacks = [_random_rows(rng, (horizon, d, d), 0.3) for _ in range(min(distinct, size))]
    if renormalize:  # off by up to 5%, rescaled on construction
        stacks = [stack * rng.uniform(0.95, 1.05, (horizon, d, 1)) for stack in stacks]
    contributors = ContributorSet(
        space,
        tuple(_kernels(space, stacks[i % len(stacks)], mode) for i in range(size)),
        tuple(f"c{i}" for i in range(size)),
    )
    rewards = RewardSchedule(space, rng.uniform(-1.0, 1.0, (horizon, d)) * reward_scale)
    assert_matches_reference(target, contributors, rewards, reward_scale < 1e300)


def _reached(target):
    """reached[k-1, x]: whether the target's support reaches state x before step k."""
    reached = np.empty((target.horizon, target.space.size), dtype=bool)
    now = target.initial.probs > 0
    for idx, matrix in enumerate(target.matrices):
        reached[idx] = now
        now = now @ (matrix > 0)
    return reached


#: Kinds of contributor in the oracle net: random rows, the target's rows reweighted on
#: its support, and those rows replaced by random ones wherever the target never goes.
KINDS = ("random", "admissible", "leaky")


def _oracle_instance(seed, d, horizon, size, kinds, target_zero_share, reward_scale):
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    rng = np.random.default_rng(seed)
    target = Behavior(
        StatePMF(space, _random_rows(rng, (d,), target_zero_share)),
        _kernels(space, _random_rows(rng, (horizon, d, d), target_zero_share)),
    )
    unreached = ~_reached(target)[..., None]
    stacks = []
    for kind in kinds:
        stack = _random_rows(rng, (horizon, d, d), 0.3)
        if kind != "random":
            rows = target.matrices * rng.uniform(0.5, 1.5, target.matrices.shape)
            rows /= rows.sum(axis=-1, keepdims=True)
            stack = np.where(unreached, stack, rows) if kind == "leaky" else rows
        stacks.append(stack)
    contributors = ContributorSet(
        space,
        tuple(_kernels(space, stacks[i % len(stacks)]) for i in range(size)),
        tuple(f"c{i}" for i in range(size)),
    )
    rewards = RewardSchedule(space, rng.uniform(-1.0, 1.0, (horizon, d)) * reward_scale)
    return target, contributors, rewards


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 4),
    horizon=st.integers(1, 4),
    size=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    target_zero_share=st.sampled_from([0.0, 0.3, 0.6]),
    reward_scale=st.sampled_from([0.0, 1.0, 50.0]),
)
def test_synthesize_equals_the_oracle(
    d, horizon, size, kinds, seed, target_zero_share, reward_scale
):
    # zeros in the target and in the contributors, support violations where
    # the target never goes, and exact ties from repeated kinds and zero rewards
    target, contributors, rewards = _oracle_instance(
        seed, d, horizon, size, kinds, target_zero_share, reward_scale
    )
    assert_matches_the_oracle(target, contributors, rewards)
    if not np.isinf(_kl_table(target, contributors)).any():  # the filter leaves the pool whole
        assert_matches_reference(target, contributors, rewards, oracle=False)


def test_a_violation_in_a_state_without_mass_costs_what_the_oracle_finds():
    # the smallest case: one step, identity target, initial pmf on 'a'; the only
    # contributor breaks the target's support out of 'b' alone, where no mass is
    target = Behavior(StatePMF(AB, np.array([1.0, 0.0])), homogeneous(AB, np.eye(2), 1))
    contributors = pool(1, [[1.0, 0.0], [0.72, 0.28]])
    rewards = RewardSchedule(AB, np.array([[-0.1033, 0.2329]]))
    policy = synthesize(target, contributors, rewards)
    assert policy.filter_report == FilterReport((), (Exclusion("c0", 1, "b"),))
    assert policy.selection_table() == [["c0", "c0"]]
    assert policy.scores[0, 0, 0] == 0.1033 and policy.scores[0, 1, 0] == math.inf
    assert bound_value(policy, target) == 0.1033
    assert pure_schedule_oracle(target, contributors, rewards).cost == 0.1033
    assert_matches_the_oracle(target, contributors, rewards)
    with pytest.raises(InfeasibleError, match="no admissible contributor"):
        filter_contributors(target, contributors)


ONE = StateSpace(("only",))


def test_single_state_step_and_contributor_equal_the_reference():
    point = Behavior(StatePMF(ONE, np.array([1.0])), homogeneous(ONE, [[1.0]], 1))
    contributors = ContributorSet(ONE, (homogeneous(ONE, [[1.0]], 1),), ("c",))
    for reward in (0.0, -3.5, float(np.nextafter(REWARD_LIMIT, 0.0))):
        rewards = RewardSchedule(ONE, np.array([[reward]]))
        assert_matches_reference(point, contributors, rewards, abs(reward) < 1e3)


def test_all_tie_scores_equal_the_reference():
    same = [[0.7, 0.3], [0.2, 0.8]]
    contributors = pool(3, same, same, same)
    rewards = RewardSchedule(AB, np.zeros((3, 2)))
    assert_matches_reference(uniform_target(3), contributors, rewards)


def test_unreachable_support_violations_cost_what_the_oracle_finds():
    # state 'b' is never reached from the initial 'a'; 'leaky' breaks the
    # target's support only there, so it may be selected anywhere
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[1.0, 0.0], [1.0, 0.0]], 2),
    )
    leaky = [[1.0, 0.0], [0.5, 0.5]]
    good = [[1.0, 0.0], [1.0, 0.0]]
    rewards = RewardSchedule(AB, np.array([[1.0, 0.0], [0.0, 2.0]]))
    both = pool(2, leaky, good, ids=("leaky", "good"))
    assert_matches_the_oracle(target, both, rewards)
    policy = synthesize(target, both, rewards)
    assert policy.filter_report.exclusions == (Exclusion("leaky", 1, "b"),)
    assert policy.selection_table() == [["leaky", "good"], ["leaky", "good"]]
    # alone, 'leaky' is the only policy there is; its exact cost is -1.0
    alone = pool(2, leaky, ids=("leaky",))
    assert_matches_the_oracle(target, alone, rewards)
    policy = synthesize(target, alone, rewards)
    assert policy.selection_table() == [["leaky", "leaky"], ["leaky", "leaky"]]
    assert bound_value(policy, target) == evaluate_cost(policy.agent, target, rewards).total == -1.0


def test_signed_zero_ties_equal_the_reference():
    # every contributor equals the target, so every KL is +0.0; with rewards of
    # +0.0 and -0.0 every score is a zero tie, the lowest index wins, and the
    # bonus and reward-plus-bonus keep the reference's sign bits
    rows = [[0.6, 0.4], [0.1, 0.9]]
    target = Behavior(StatePMF(AB, np.array([0.5, 0.5])), homogeneous(AB, rows, 3))
    contributors = pool(3, rows, rows, rows)
    for signs in ([[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]], [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]):
        rewards = RewardSchedule(AB, np.array(signs))
        assert_matches_reference(target, contributors, rewards)
        policy = synthesize(target, contributors, rewards)
        assert (policy.scores == 0.0).all() and (policy.selected == 0).all()
    assert np.signbit(policy.r_hat[:-1]).all() and not np.signbit(policy.r_hat[-1]).any()


def _steps(*matrices):
    return tuple(TransitionKernel(AB, np.asarray(m, dtype=float)) for m in matrices)


def test_agent_rows_are_gathered_from_the_whole_pool_around_support_violations():
    # the target has no mass on 'b' out of 'a' at k=1, where the leaky
    # contributors put some; they stay in the pool at indices 0 and 2, are
    # avoided at (k=1, 'a') and may be selected elsewhere, and every agent row
    # is read from the selected pool index
    target = Behavior(
        StatePMF(AB, np.array([0.5, 0.5])),
        _steps([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]),
    )
    leaky = _steps([[0.5, 0.5], [0.9, 0.1]], [[0.9, 0.1], [0.9, 0.1]])
    good0 = _steps([[1.0, 0.0], [0.2, 0.8]], [[0.3, 0.7], [0.3, 0.7]])
    good1 = _steps([[1.0, 0.0], [0.8, 0.2]], [[0.7, 0.3], [0.7, 0.3]])
    contributors = ContributorSet(
        AB, (leaky, good0, leaky, good1), ("leaky0", "good0", "leaky1", "good1")
    )
    rewards = RewardSchedule(AB, np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert_matches_the_oracle(target, contributors, rewards)
    policy = synthesize(target, contributors, rewards)
    assert policy.contributor_ids == contributors.ids
    assert policy.filter_report.retained_ids == ("good0", "good1")
    assert policy.selection_table() == [["good0", "leaky0"], ["good0", "good0"]]
    for k in (1, 2):
        for x in (0, 1):
            source = contributors.kernel(int(policy.selected[k - 1, x]), k)
            assert _bits(policy.agent.kernels[k - 1].matrix[x]) == _bits(source.matrix[x])


# ---------------------------------------------------------------------------
# failures: a dead initial state, before any reward is read
# ---------------------------------------------------------------------------

#: A reward near the limit: four steps of it stay below it.
BIG = 0.24 * REWARD_LIMIT


def _dead_initial_state(target, contributors):
    """Reference: the first state with initial mass from which the zero-reward oracle is +inf."""
    zero = RewardSchedule(target.space, np.zeros((target.horizon, target.space.size)))
    for x in np.flatnonzero(target.initial.probs > 0):
        if math.isinf(pure_schedule_oracle(_from_state(target, x), contributors, zero).cost):
            return target.space.label(int(x))
    return None


def _reference_failure(target, contributors):
    """Reference: an infeasible pool, whatever the rewards; None when the pool is feasible."""
    state = _dead_initial_state(target, contributors)
    if state is not None:
        raise InfeasibleError(f"every contributor score is +inf at k=1, state={state!r}")
    return None


def assert_fails_as_the_reference(target, contributors, rewards, error, message):
    want = _outcome(_reference_failure, target, contributors)
    assert want == (error, message)
    assert _outcome(synthesize, target, contributors, rewards) == want


SPREAD = [[0.5, 0.5], [0.5, 0.5]]
ONLY_A = [[1.0, 0.0], [1.0, 0.0]]
DEAD_FROM_A = "every contributor score is +inf at k=1, state='a'"


@pytest.mark.parametrize(
    "steps, values",
    [
        # k=3 has no contributor for either state, so neither has k=2 or k=1;
        # k=1's rewards are near the limit
        ((SPREAD, SPREAD, ONLY_A), [[BIG, BIG], [0.0, 0.0], [1.0, 1.0]]),
        # k=1 has no contributor for 'a'; k=2's value-to-go is near the limit
        ((ONLY_A, SPREAD, SPREAD), [[0.0, 0.0], [BIG, BIG], [BIG, BIG]]),
        # k=2 has no contributor for either state, and its value-to-go is near the limit
        ((SPREAD, ONLY_A, SPREAD), [[0.0, 0.0], [-BIG, -BIG], [-BIG, -BIG]]),
    ],
    ids=["dead-at-k3", "dead-at-k1", "dead-at-k2"],
)
def test_an_infeasible_pool_is_reported_before_any_reward_is_read(steps, values):
    target = Behavior(StatePMF(AB, np.array([1.0, 0.0])), _steps(*steps))
    contributors = ContributorSet(AB, (_steps(SPREAD, SPREAD, SPREAD),) * 2, ("c0", "c1"))
    for rewards in (np.array(values), np.zeros((3, 2))):
        assert_fails_as_the_reference(
            target, contributors, RewardSchedule(AB, rewards), InfeasibleError, DEAD_FROM_A
        )


def test_a_dead_state_without_mass_costs_what_the_oracle_finds_near_the_limit():
    # 'b' is dead at k=2 but the target never goes there from 'a'; the rewards
    # at k=1 and k=2 sum to 0.98 of the limit in k=1's value-to-go
    target = Behavior(StatePMF(AB, np.array([1.0, 0.0])), _steps(ONLY_A, ONLY_A))
    contributors = pool(2, [[1.0, 0.0], [0.5, 0.5]])
    assert _outcome(_reference_failure, target, contributors) is None
    for big in (0.49 * REWARD_LIMIT, 1.0):
        rewards = RewardSchedule(AB, np.array([[big, 0.0], [big, 1.0]]))
        assert_matches_the_oracle(target, contributors, rewards)
        assert bound_value(synthesize(target, contributors, rewards), target) == -2 * big


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    horizon=st.integers(1, 4),
    size=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    target_zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    big=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([BIG, -BIG])), max_size=4),
)
def test_failures_name_the_dead_initial_state_whatever_the_rewards(
    d, horizon, size, seed, target_zero_share, big
):
    # zeroed target entries leave +inf scores and dead states; rewards near
    # the limit at up to four steps are never read before the dead state is named
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    rng = np.random.default_rng(seed)
    target = Behavior(
        StatePMF(space, _random_rows(rng, (d,), target_zero_share)),
        _kernels(space, _random_rows(rng, (horizon, d, d), target_zero_share)),
    )
    contributors = ContributorSet(
        space,
        tuple(_kernels(space, _random_rows(rng, (horizon, d, d), 0.3)) for _ in range(size)),
        tuple(f"c{i}" for i in range(size)),
    )
    values = rng.uniform(-1.0, 1.0, (horizon, d))
    for step, reward in big:
        values[step % horizon] = reward
    rewards = RewardSchedule(space, values)
    want = _outcome(_reference_failure, target, contributors)
    if want is not None:
        assert _outcome(synthesize, target, contributors, rewards) == want
    elif not np.isinf(_kl_table(target, contributors)).any():  # no exclusions: bit identity
        assert_matches_reference(target, contributors, rewards, oracle=not big)
    elif big:  # the oracle's sums of huge rewards round apart from the backward pass's
        assert isinstance(synthesize(target, contributors, rewards), SynthesizedPolicy)
    else:
        assert_matches_the_oracle(target, contributors, rewards)


# ---------------------------------------------------------------------------
# dead states found inside the one backward sweep, against a separate pass
# ---------------------------------------------------------------------------


def _two_pass_synthesize(target, contributors, rewards):
    """Reference: `synthesize` as it ran with a dead-state pass before the score sweep.

    The pass marks +inf, on a copy of the KL table, every row with mass on a
    state dead at the next step, by a boolean product with the ``(N + 1, d)``
    alive table, and names a dead initial state before any reward is read;
    the sweep then scores the marked copy.
    """
    _check_compatible(target, contributors=contributors, rewards=rewards)
    kl = _kl_table(target, contributors)
    report = _filter(contributors, kl)
    n, d, s = target.horizon, target.space.size, contributors.size
    scored, alive = kl, (True,) * n  # a pool with no +inf KL has no dead state
    if report.exclusions:  # the dead states, before any reward is read
        scored, alive = kl.copy(), np.ones((n + 1, d), dtype=bool)  # alive[N]: past k = N
        for idx in range(n - 1, -1, -1):
            scored[:, idx][(contributors.matrices[:, idx] > 0) @ ~alive[idx + 1]] = np.inf
            alive[idx] = (scored[:, idx] < np.inf).any(axis=0)
        stuck = (target.initial.probs > 0) & ~alive[0]
        if stuck.any():  # the agent starts there; a dead state it never reaches costs nothing
            state = target.space.label(int(stuck.argmax()))
            raise InfeasibleError(f"every contributor score is +inf at k=1, state={state!r}")

    to_go = np.zeros((n + 1, d))  # to_go[idx + 1] is the bonus r_hat[idx]; zero past k = N
    r_bar = np.empty((n, d))
    work = np.empty((n, s, d))  # scored - rows @ r_bar: the scores, contributor-major like `kl`
    for idx in range(n - 1, -1, -1):
        np.add(rewards.values[idx], to_go[idx + 1], out=r_bar[idx])
        np.matmul(contributors.matrices[:, idx], r_bar[idx], out=work[idx])
        np.subtract(scored[:, idx], work[idx], out=work[idx])
        np.negative(work[idx].min(axis=0), out=to_go[idx], where=alive[idx])  # dead: stays 0

    scores = np.ascontiguousarray(work.transpose(0, 2, 1))
    selected = scores.argmin(axis=2)  # first minimizer: ties, and dead states, to the lowest index
    agent_rows = contributors.matrices[selected, np.arange(n)[:, None], np.arange(d)]
    weights = np.eye(s)[selected]  # one-hot: the minimum of a linear score is at a vertex
    agent = Behavior._of(target.initial, agent_rows)
    _held(agent, "_kl", (target,), lambda: np.take_along_axis(kl, selected[None], axis=0)[0])
    for arr in (scores, selected, weights, to_go, r_bar):
        arr.setflags(write=False)
    return SynthesizedPolicy(
        space=target.space,
        contributor_ids=contributors.ids,
        scores=scores,
        selected=selected,
        weights=weights,
        agent=agent,
        r_hat=to_go[1:],
        r_bar=r_bar,
        filter_report=report,
    )


def assert_matches_two_passes(target, contributors, rewards):
    """Bit identity with `_two_pass_synthesize`: every output, held KL rows too, or the error."""
    got = _outcome(synthesize, target, contributors, rewards)
    want = _outcome(_two_pass_synthesize, target, _cold(contributors), rewards)
    assert_bit_identical(got, want)
    if not isinstance(want, tuple):
        assert _bits(vars(got.agent)["_kl"][1]) == _bits(vars(want.agent)["_kl"][1])
    return got


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 6),
    horizon=st.integers(1, 4),
    size=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    target_zero_share=st.sampled_from([0.3, 0.7]),
    big=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([BIG, -BIG])), max_size=4),
)
def test_synthesize_equals_the_two_pass_reference(
    d, horizon, size, kinds, seed, target_zero_share, big
):
    # zeroed target entries make +inf KL and dead states: random contributors
    # make dead initial states, and leaky ones dead states the agent never
    # reaches; rewards near the limit at up to four steps make the sums large
    target, contributors, rewards = _oracle_instance(
        seed, d, horizon, size, kinds, target_zero_share, 1.0
    )
    values = np.array(rewards.values)
    for step, reward in big:
        values[step % horizon] = reward
    assert_matches_two_passes(target, contributors, RewardSchedule(target.space, values))


def _one_zeroed_entry():
    """A generated pool and its target with the k=4 entry (0, 6) zeroed and its row renormalised."""
    scenario = generate_random_scenario(5, 64, 16, 12, sparsity=0.3)
    matrices = np.array(scenario.target.matrices)
    matrices[3, 0, 6] = 0.0
    matrices[3, 0] /= matrices[3, 0].sum()
    target = Behavior._of(scenario.target.initial, matrices)
    return target, scenario.contributors, scenario.reward_profile()


def test_a_pool_with_one_zeroed_target_entry_equals_the_two_pass_reference():
    # the shared-pool shape; 9 of the 12 contributors put mass where the target has none
    target, contributors, rewards = _one_zeroed_entry()
    for _ in range(2):  # cold, then warm
        policy = assert_matches_two_passes(target, contributors, rewards)
        assert len(policy.filter_report.exclusions) == 9
    for big in (BIG, -BIG):
        values = np.array(rewards.values)
        values[0] = big
        assert_matches_two_passes(target, contributors, RewardSchedule(target.space, values))


# ---------------------------------------------------------------------------
# the KL table a pool holds for the last target it was scored against
# ---------------------------------------------------------------------------


def _cold(contributors):
    """A distinct pool with the same kernels and nothing held, through the public constructor."""
    return ContributorSet(contributors.space, contributors.kernels, contributors.ids)


def assert_bit_identical(got, want):
    assert isinstance(got, tuple) == isinstance(want, tuple), (got, want)
    if isinstance(want, tuple):
        assert got == want  # same error type and text
        return
    assert got.contributor_ids == want.contributor_ids
    for name in ("scores", "selected", "weights", "r_hat", "r_bar"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _bits(got.agent.matrices) == _bits(want.agent.matrices)
    assert _bits(got.agent.initial.probs) == _bits(want.agent.initial.probs)
    assert repr(got.filter_report) == repr(want.filter_report)


def assert_warm_equals_cold(target, contributors, rewards):
    """`synthesize` on ``contributors`` (warm or not) equals it on a cold copy, bit for bit."""
    got = _outcome(synthesize, target, contributors, rewards)
    want = _outcome(synthesize, target, _cold(contributors), rewards)
    assert_bit_identical(got, want)
    return got


def _sparse_scenario(seed, d, horizon, size, zero_share):
    """A target with zeroed entries and a pool alternating random and admissible contributors.

    Even-indexed contributors are random rows, which a sparse target may
    exclude; odd-indexed ones reweight the target's rows on its support, so
    they are always admissible.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    rng = np.random.default_rng(seed)
    target = Behavior(
        StatePMF(space, _random_rows(rng, (d,), zero_share)),
        _kernels(space, _random_rows(rng, (horizon, d, d), zero_share)),
    )
    stacks = []
    for i in range(size):
        if i % 2 == 0:
            stacks.append(_random_rows(rng, (horizon, d, d), 0.3))
        else:
            rows = target.matrices * rng.uniform(0.5, 1.5, target.matrices.shape)
            stacks.append(rows / rows.sum(axis=-1, keepdims=True))
    contributors = ContributorSet(
        space,
        tuple(_kernels(space, stack) for stack in stacks),
        tuple(f"c{i}" for i in range(size)),
    )
    return target, contributors, rng


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 5),
    horizon=st.integers(1, 4),
    size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
    scales=st.lists(st.sampled_from([0.0, 1.0, 50.0]), min_size=1, max_size=5),
)
def test_a_warm_pool_equals_a_cold_copy(d, horizon, size, seed, zero_share, scales):
    target, contributors, rng = _sparse_scenario(seed, d, horizon, size, zero_share)
    for scale in scales:
        rewards = RewardSchedule(target.space, rng.uniform(-1.0, 1.0, (horizon, d)) * scale)
        assert_warm_equals_cold(target, contributors, rewards)
        assert repr(_outcome(filter_contributors, target, contributors)) == repr(
            _outcome(filter_contributors, target, _cold(contributors))
        )


def _three_state(seed, size=3, zero_share=0.3):
    target, contributors, rng = _sparse_scenario(seed, 3, 3, size, zero_share)
    return target, contributors, RewardSchedule(target.space, rng.uniform(-1.0, 1.0, (3, 3)))


def test_a_second_target_gets_its_own_table():
    first, contributors, rewards = _three_state(1, zero_share=0.0)
    second, _, _ = _three_state(2, zero_share=0.0)
    assert first != second
    for target in (first, second, first, second):
        assert_warm_equals_cold(target, contributors, rewards)
    assert _kl_table(first, contributors) is not _kl_table(second, contributors)


def test_an_equal_but_distinct_target_rebuilds_the_table():
    target, contributors, rewards = _three_state(3)
    twin = Behavior(target.initial, target.kernels)
    assert twin == target and twin is not target
    held = _kl_table(target, contributors)
    assert _kl_table(target, contributors) is held
    rebuilt = _kl_table(twin, contributors)
    assert rebuilt is not held
    assert _bits(rebuilt) == _bits(held)
    assert_warm_equals_cold(twin, contributors, rewards)


def test_a_second_pool_with_the_same_target_gets_its_own_table():
    target, first, rewards = _three_state(4, zero_share=0.0)
    _, second, _ = _three_state(5, zero_share=0.0)
    assert first != second
    for contributors in (first, second, first, second):
        assert_warm_equals_cold(target, contributors, rewards)
    held = _kl_table(target, first)
    assert _kl_table(target, second) is not held
    assert _kl_table(target, first) is held


def test_a_subset_of_a_warm_pool_starts_cold():
    target, contributors, rewards = _three_state(6, size=4, zero_share=0.0)
    assert_warm_equals_cold(target, contributors, rewards)
    part = contributors.subset([2, 0])
    assert "_scored" not in vars(part)
    assert_warm_equals_cold(target, part, rewards)
    assert_warm_equals_cold(target, part, rewards)
    assert _kl_table(target, part) is not _kl_table(target, contributors)


def test_the_whole_pool_in_order_shares_its_stack_and_any_other_subset_copies():
    # the untimed oracle check and a filter that excludes nothing select every contributor in
    # order: that subset shares the pool's read-only stack, but not its held KL table
    target, contributors, rewards = _three_state(6, size=4, zero_share=0.0)
    assert_warm_equals_cold(target, contributors, rewards)  # the pool now holds a table
    retained, report = filter_contributors(target, contributors)
    assert report.exclusions == ()
    for whole in (contributors.subset([0, 1, 2, 3]), contributors.subset(np.arange(4)), retained):
        assert whole.matrices is contributors.matrices
        with pytest.raises(ValueError, match="read-only"):
            whole.matrices[0, 0, 0, 0] = 0.5
        assert "_scored" not in vars(whole) and "kernels" not in vars(whole)
        assert whole == contributors and whole.ids == contributors.ids
        assert_warm_equals_cold(target, whole, rewards)
        assert _kl_table(target, whole) is not _kl_table(target, contributors)
    for indices in ([2, 0], [0, 1, 2], [1, 2, 3], [3, 2, 1, 0]):
        part = contributors.subset(indices)
        assert not np.shares_memory(part.matrices, contributors.matrices)
        assert part.matrices.tobytes() == contributors.matrices[indices].tobytes()


def test_repeated_calls_on_a_pool_with_a_violator_equal_cold_calls():
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[1.0, 0.0], [0.5, 0.5]], 2),
    )
    contributors = pool(2, [[0.9, 0.1], [0.5, 0.5]], [[1.0, 0.0], [0.2, 0.8]], ids=("leaky", "ok"))
    rewards = RewardSchedule(AB, np.array([[0.0, 5.0], [1.0, 0.0]]))
    for _ in range(4):
        policy = assert_warm_equals_cold(target, contributors, rewards)
        assert policy.contributor_ids == ("leaky", "ok")
        assert policy.filter_report.exclusions == (Exclusion("leaky", 1, "a"),)


def test_a_pool_with_excluded_contributors_reports_them_on_every_call():
    target, contributors, rewards = _three_state(7, size=4, zero_share=0.5)
    cold_pool, report = filter_contributors(target, _cold(contributors))
    assert report.exclusions  # the seed leaves some contributor out
    for _ in range(2):
        policy = assert_warm_equals_cold(target, contributors, rewards)
        assert policy.filter_report == report
        assert filter_contributors(target, contributors) == (cold_pool, report)


def test_an_infeasible_pool_raises_on_every_call():
    target = Behavior(
        StatePMF(AB, np.array([1.0, 0.0])),
        homogeneous(AB, [[0.0, 1.0], [1.0, 0.0]], 2),
    )
    contributors = pool(2, [[1.0, 0.0], [0.0, 1.0]])
    rewards = RewardSchedule(AB, np.zeros((2, 2)))
    for _ in range(2):
        with pytest.raises(InfeasibleError, match="every contributor score is \\+inf at k=1"):
            synthesize(target, contributors, rewards)
        with pytest.raises(InfeasibleError, match="no admissible contributor"):
            filter_contributors(target, contributors)


def test_filter_after_synthesize_equals_a_cold_call():
    target, contributors, rewards = _three_state(8, size=4, zero_share=0.5)
    synthesize(target, contributors, rewards)
    got = _outcome(filter_contributors, target, contributors)
    want = _outcome(filter_contributors, target, _cold(contributors))
    assert repr(got) == repr(want)
    assert got == want


def test_the_held_table_is_read_only():
    target, contributors, rewards = _three_state(9)
    synthesize(target, contributors, rewards)
    table = _kl_table(target, contributors)
    assert vars(contributors)["_scored"][1][0] is table  # the `model._held` entry
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 0.0


def test_the_filter_report_is_scanned_once_per_target_and_pool(monkeypatch):
    target, contributors, rewards = _three_state(7, size=4, zero_share=0.5)
    scans = []
    monkeypatch.setattr(synthesis, "_filter", lambda *args: scans.append(1) or _filter(*args))
    policies = [synthesize(target, contributors, rewards) for _ in range(3)]
    _, report = filter_contributors(target, contributors)
    assert len(scans) == 1
    assert all(policy.filter_report is report for policy in policies)
    assert report.exclusions  # the seed leaves some contributor out
    assert report == _filter(contributors, _kl_table(target, contributors))  # a fresh scan
    synthesize(copy.copy(target), contributors, rewards)  # an equal copy is another target
    assert len(scans) == 2
    cold = (
        pickle.loads(pickle.dumps(contributors)),
        copy.copy(contributors),
        copy.deepcopy(contributors),
        contributors.subset(range(contributors.size)),
    )
    for pool in cold:
        assert "_scored" not in vars(pool)
        assert synthesize(target, pool, rewards).filter_report == report
    assert len(scans) == 2 + len(cold)


def test_threads_sharing_one_pool_get_cold_answers():
    # more threads than cores and a short switch interval, so the entry is
    # replaced while other threads read it; a table paired with the wrong
    # target would change some thread's answer
    targets = [_three_state(seed, zero_share=0.0)[0] for seed in (10, 11, 12)]
    _, contributors, rewards = _three_state(13, zero_share=0.0)
    want = [synthesize(target, _cold(contributors), rewards) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as threads:
            # runs of eight calls with one target: one thread builds its
            # table while the others may find it held
            futures = [
                threads.submit(synthesize, targets[i // 8 % 3], contributors, rewards)
                for i in range(480)
            ]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 480
    for i, policy in enumerate(got):
        assert_bit_identical(policy, want[i // 8 % 3])


@pytest.mark.parametrize("duplicate", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy])
def test_a_warm_pool_pickles_and_deep_copies_cold(duplicate):
    target, contributors, rewards = _three_state(13, size=4, zero_share=0.5)
    warm = synthesize(target, contributors, rewards)
    assert "_scored" in vars(contributors)
    twin = duplicate(contributors)
    assert "_scored" not in vars(twin)
    assert twin == contributors and twin is not contributors
    assert not twin.matrices.flags.writeable
    assert all(kernel.matrix.base is twin.matrices for per_k in twin.kernels for kernel in per_k)
    assert_bit_identical(synthesize(target, twin, rewards), warm)
    copied_target = duplicate(target)
    assert copied_target == target and not copied_target.matrices.flags.writeable
    assert_bit_identical(synthesize(copied_target, twin, rewards), warm)


# ---------------------------------------------------------------------------
# the agent's held KL rows: its rows of the table it was selected with
# ---------------------------------------------------------------------------


def test_the_agents_held_kl_rows_are_its_rows_of_the_table_and_read_only():
    target, contributors, rewards = _three_state(21, size=4, zero_share=0.5)
    policy = synthesize(target, contributors, rewards)
    (key,), rows = vars(policy.agent)["_kl"]  # the `model._held` entry
    assert key() is target
    assert _bits(rows) == _bits(kl_rows(policy.agent.matrices, target.matrices))
    assert not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0.0


def test_the_held_kl_rows_are_no_field_and_change_neither_equality_nor_repr():
    target, contributors, rewards = _three_state(22)
    agent = synthesize(target, contributors, rewards).agent
    bare = Behavior(agent.initial, agent.kernels)
    assert "_kl" in vars(agent) and "_kl" not in vars(bare)
    assert "_kl" not in {f.name for f in fields(Behavior)}
    assert agent == bare and bare == agent
    assert repr(agent) == repr(bare)


def _policy_file_round_trip(agent, directory):
    save_policy(agent, directory / "policy.json")
    return load_policy(directory / "policy.json", agent.space)


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda agent, _: pickle.loads(pickle.dumps(agent)),
        lambda agent, _: copy.copy(agent),
        lambda agent, _: copy.deepcopy(agent),
        _policy_file_round_trip,
    ],
    ids=["pickle", "copy", "deepcopy", "policy-file"],
)
def test_a_pickled_copied_or_loaded_agent_starts_without_held_kl_rows(duplicate, tmp_path):
    target, contributors, rewards = _three_state(23)
    agent = synthesize(target, contributors, rewards).agent
    twin = duplicate(agent, tmp_path)
    assert "_kl" in vars(agent)
    assert "_kl" not in vars(twin)
    assert twin == agent
    assert repr(evaluate_cost(twin, target, rewards)) == repr(evaluate_cost(agent, target, rewards))


def test_another_target_object_an_equal_copy_included_recomputes_the_same_bytes(monkeypatch):
    target, contributors, rewards = _three_state(24)
    agent = synthesize(target, contributors, rewards).agent
    calls = []
    monkeypatch.setattr(evaluation, "kl_rows", lambda *args: calls.append(1) or kl_rows(*args))
    want = repr(evaluate_cost(agent, target, rewards))
    assert calls == []  # the held rows: no KL computed
    equal = (
        copy.copy(target), pickle.loads(pickle.dumps(target)), Behavior(target.initial, target.kernels)
    )
    for other in equal:
        assert other == target and other is not target
        assert repr(evaluate_cost(agent, other, rewards)) == want
    assert len(calls) == len(equal)


@pytest.mark.parametrize("k", [0, -1, 5])
def test_the_one_based_step_accessors_reject_steps_outside_the_horizon(demo, k):
    # the demo's horizon is 4: k = 0 and -1 once read step N, and k = 5 raised bare errors
    rewards = demo.reward_profile("favor-node-2")
    policy = synthesize(demo.target, demo.contributors, rewards)
    accessors = {
        "kernel": lambda: demo.contributors.kernel(0, k),
        "step": lambda: rewards.step(k),
        "weight_vector": lambda: policy.weight_vector(k, 0),
        "selected_id": lambda: policy.selected_id(k, 0),
    }
    for name, read in accessors.items():
        with pytest.raises(IndexError) as err:
            read()
        assert str(err.value) == f"step k={k} is outside 1..4", name


def test_the_one_based_step_accessors_read_their_first_and_last_steps(demo):
    rewards = demo.reward_profile("favor-node-2")
    policy = synthesize(demo.target, demo.contributors, rewards)
    pool = demo.contributors
    for k in (1, 4):
        assert np.array_equal(pool.kernel(1, k).matrix, pool.matrices[1, k - 1])
        assert np.array_equal(rewards.step(k), rewards.values[k - 1])
        assert np.array_equal(policy.weight_vector(k, 2).weights, policy.weights[k - 1, 2])
        assert policy.selected_id(k, 2) == policy.contributor_ids[policy.selected[k - 1, 2]]


@pytest.mark.parametrize("index", [-1, 2])
def test_a_pool_rejects_a_contributor_index_outside_it(demo, index):
    # the demo has two contributors: -1 once read the last one, 2 raised a bare tuple error
    with pytest.raises(IndexError) as err:
        demo.contributors.kernel(index, 1)
    assert str(err.value) == f"contributor={index} is outside 0..1"
    for i in (0, 1):
        assert demo.contributors.kernel(i, 1).matrix is demo.contributors.kernels[i][0].matrix


@pytest.mark.parametrize("state", [-1, 6])
@pytest.mark.parametrize("accessor", ["weight_vector", "selected_id"])
def test_the_policy_accessors_reject_a_state_index_outside_the_space(demo, accessor, state):
    # the demo has six states: -1 once read the last one, 6 raised a bare NumPy error
    policy = synthesize(demo.target, demo.contributors, demo.reward_profile("favor-node-2"))
    read = getattr(policy, accessor)
    with pytest.raises(IndexError) as err:
        read(1, state)
    assert str(err.value) == f"state={state} is outside 0..5"
    assert policy.selected_id(1, 5) == policy.contributor_ids[policy.selected[0, 5]]
    assert np.array_equal(policy.weight_vector(1, 0).weights, policy.weights[0, 0])


def test_a_pool_rejects_zero_step_kernels_and_a_kernel_on_another_space():
    with pytest.raises(ValueError) as err:
        ContributorSet(AB, ((),), ("empty",))
    assert str(err.value) == "contributors must cover at least one step"
    other = TransitionKernel(StateSpace(("a", "c")), np.full((2, 2), 0.5))
    own = TransitionKernel(AB, np.full((2, 2), 0.5))
    with pytest.raises(ValueError) as err:
        ContributorSet(AB, ((own, own), (own, other)), ("fine", "foreign"))
    assert str(err.value) == "contributor 1 uses a different state space"


@pytest.mark.parametrize("indices", [[-1], [99], [0, -2], [1, 2]])
def test_a_subset_rejects_a_contributor_index_outside_the_pool(demo, indices):
    # the demo has two contributors: -1 once picked the last one, and 99 raised NumPy's bare
    # "index 99 is out of bounds"
    with pytest.raises(IndexError) as err:
        demo.contributors.subset(indices)
    assert str(err.value) == f"contributor={indices[-1]} is outside 0..1"


def test_a_subset_of_every_index_in_order_still_shares_the_stack(demo):
    pool = demo.contributors
    for whole in (pool.subset(range(pool.size)), pool.subset(np.arange(pool.size))):
        assert whole.matrices is pool.matrices and whole.ids == pool.ids
    assert pool.subset([1, 0]).ids == tuple(reversed(pool.ids))


# ---------------------------------------------------------------------------
# the pool's KL table, built in blocks of whole steps
# ---------------------------------------------------------------------------


def _per_step_table(target, contributors):
    """Reference: the pool's KL table with one `kl_rows` call a step."""
    kl = np.empty((contributors.size, target.horizon, target.space.size))
    for idx, target_rows in enumerate(target.matrices):
        rows = contributors.matrices[:, idx]
        kl[:, idx] = kl_rows(rows, np.broadcast_to(target_rows, rows.shape))
    return kl


def _with_odd_entries(scenario):
    """The scenario's target with, in each row, a subnormal entry (d >= 2) and a zero (d >= 3)."""
    matrices = np.array(scenario.target.matrices)
    d = matrices.shape[-1]
    if d >= 2:  # a subnormal q, where p / q overflows: `kl_rows` takes the log difference
        matrices[..., 0] += matrices[..., -1] - 5e-320
        matrices[..., -1] = 5e-320
    if d >= 3:  # a zero q, where a contributor with mass scores +inf
        matrices[..., 0] += matrices[..., 1]
        matrices[..., 1] = 0.0
    return Behavior._of(scenario.target.initial, matrices)


@pytest.mark.parametrize(
    "d, horizon, size",
    [
        (1, 1, 1),  # one entry
        (8, 6, 4),  # 1,536 entries: one call below the 2**16 budget
        (16, 16, 16),  # 65,536 entries: one call, exactly at the budget
        (16, 100, 4),  # 1,024 a step: calls of 64 and 36 steps
        (64, 3, 16),  # 65,536 a step: one step a call, at the budget
        (64, 4, 20),  # 81,920 a step: one step a call, above the budget
    ],
)
def test_the_kl_table_in_blocks_of_steps_equals_one_call_a_step(d, horizon, size):
    scenario = generate_random_scenario(d + horizon + size, d, horizon, size, sparsity=0.3)
    for target in (scenario.target, _with_odd_entries(scenario)):
        kl, report = _scored(target, scenario.contributors)
        want = _per_step_table(target, scenario.contributors)
        assert _bits(kl) == _bits(want)
        assert report == _filter(scenario.contributors, want)
    if d >= 3:  # the random pool puts mass on the zeroed entries, and 5e-320 overflows p / q
        assert np.isinf(kl).any() and report.exclusions


@pytest.mark.parametrize(
    "d, horizon, size, calls",
    [
        (16, 12, 8, 1),  # the largest `fresh-small` pool: 24,576 entries
        (20, 20, 8, 1),  # `monte-carlo`'s pool: 64,000 entries
        (64, 16, 12, 16),  # `shared-pool`'s: 49,152 entries a step
        (16, 100, 4, 2),
    ],
)
def test_the_kl_table_takes_one_kl_rows_call_a_block_of_steps(monkeypatch, d, horizon, size, calls):
    scenario = generate_random_scenario(0, d, horizon, size, sparsity=0.3)
    made = []
    monkeypatch.setattr(synthesis, "kl_rows", lambda *args: made.append(1) or kl_rows(*args))
    _scored(scenario.target, scenario.contributors)
    assert len(made) == calls
    synthesize(scenario.target, scenario.contributors, scenario.reward_profile())  # warm
    assert len(made) == calls


@pytest.mark.parametrize("shape", [(1, 1, 1), (6, 4, 3), (64, 16, 12)])
def test_the_agents_held_kl_rows_equal_the_table_gathered_along_contributors(shape):
    scenario = generate_random_scenario(3, *shape, sparsity=0.3)
    pool, odd = scenario.contributors, _with_odd_entries(scenario)
    # the odd target's own kernels join the pool: it excludes others, yet no state dies
    stack = np.concatenate([pool.matrices, odd.matrices[None]])
    joined = ContributorSet._of(scenario.space, stack, pool.ids + ("own",))
    for target, contributors in ((scenario.target, pool), (odd, joined)):
        policy = synthesize(target, contributors, scenario.reward_profile())
        kl = _kl_table(target, contributors)
        want = np.take_along_axis(kl, policy.selected[None], axis=0)[0]
        (key,), rows = vars(policy.agent)["_kl"]
        assert key() is target and _bits(rows) == _bits(want)
        assert not np.shares_memory(rows, kl)  # a copy, not a view into the pool's table
    assert shape[0] < 3 or policy.filter_report.exclusions
