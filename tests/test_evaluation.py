"""Tests for exact cost evaluation and the independent oracles."""

import copy
import decimal
import itertools
import math
import pickle
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpolicy.cli import _pure_costs, _solve
from crowdpolicy.errors import InfeasibleError, OracleGuardError
from crowdpolicy.evaluation import (
    ORACLE_LIMIT,
    CostBreakdown,
    _step_cost_table,
    evaluate_cost,
    logsum_bound_check,
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
    WeightVector,
    _marginals,
    _mu,
    kl_rows,
)
from crowdpolicy.scenario import (
    Scenario,
    _csv_text,
    demo_scenario_path,
    generate_random_scenario,
    load_policy,
    load_scenario,
    save_policy,
)
from crowdpolicy.simulate import monte_carlo_cost
from crowdpolicy.synthesis import ContributorSet, bound_value, synthesize

LN2 = math.log(2.0)


def chain(space, *rows_per_step, initial=None):
    d = space.size
    init = StatePMF(space, np.asarray(initial if initial is not None else [1.0] + [0.0] * (d - 1)))
    kernels = tuple(TransitionKernel(space, np.asarray(r, dtype=float)) for r in rows_per_step)
    return Behavior(init, kernels)


def pure_behavior(scenario, contributor):
    return Behavior(scenario.target.initial, scenario.contributors.kernels[contributor])


# ---------------------------------------------------------------------------
# evaluate_cost
# ---------------------------------------------------------------------------


def test_point_mass_chain_costs():
    space = StateSpace(("a", "b", "c"))
    step = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    policy = chain(space, step, step)
    rewards = RewardSchedule(space, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    cost = evaluate_cost(policy, policy, rewards)
    assert cost.kl_part == 0.0
    assert cost.reward_part == pytest.approx(3.0)
    assert cost.total == pytest.approx(-3.0)
    assert cost.per_step == ((0.0, 1.0), (0.0, 2.0))


def test_breakdown_identity_total_is_kl_minus_reward():
    for seed in range(20):
        scenario = generate_random_scenario(
            seed=seed, d=3, horizon=3, contributors=2, reward_range=(-1.0, 3.0)
        )
        rewards = scenario.reward_profile()
        cost = evaluate_cost(pure_behavior(scenario, 0), scenario.target, rewards)
        assert cost.total == pytest.approx(cost.kl_part - cost.reward_part, abs=1e-12)
        assert cost.kl_part == pytest.approx(sum(kl for kl, _ in cost.per_step), abs=1e-12)
        assert cost.reward_part == pytest.approx(sum(r for _, r in cost.per_step), abs=1e-12)


def test_exact_cost_matches_trajectory_enumeration():
    for seed in range(60):
        scenario = generate_random_scenario(
            seed=100 + seed,
            d=2 + seed % 2,
            horizon=1 + seed % 4,
            contributors=1 + seed % 3,
            sparsity=0.35 if seed % 3 == 0 else 0.0,
            reward_range=(-2.0, 2.0),
        )
        rewards = scenario.reward_profile()
        policy = synthesize(scenario.target, scenario.contributors, rewards)
        fast = evaluate_cost(policy.agent, scenario.target, rewards)
        slow = trajectory_enumeration_cost(policy.agent, scenario.target, rewards)
        assert fast.total == pytest.approx(slow.total, abs=1e-9), f"seed={seed}"
        assert fast.kl_part == pytest.approx(slow.kl_part, abs=1e-9)
        assert fast.reward_part == pytest.approx(slow.reward_part, abs=1e-9)
        for k in range(scenario.horizon):
            assert fast.per_step[k][0] == pytest.approx(slow.per_step[k][0], abs=1e-9)
            assert fast.per_step[k][1] == pytest.approx(slow.per_step[k][1], abs=1e-9)


def test_broken_support_is_infinite_in_both_evaluators():
    space = StateSpace((0, 1))
    target = chain(space, [[1.0, 0.0], [1.0, 0.0]])
    policy = chain(space, [[0.5, 0.5], [1.0, 0.0]])
    rewards = RewardSchedule(space, np.array([[1.0, 1.0]]))
    fast = evaluate_cost(policy, target, rewards)
    slow = trajectory_enumeration_cost(policy, target, rewards)
    assert fast.kl_part == math.inf and fast.total == math.inf
    assert slow.kl_part == math.inf and slow.total == math.inf
    # rewards are still collected on the trajectories that do occur
    assert fast.reward_part == pytest.approx(1.0)
    assert slow.reward_part == pytest.approx(1.0)


def test_unreachable_violation_costs_nothing():
    # the policy's row at state 1 breaks absolute continuity, but no mass
    # ever reaches state 1, so the cost stays finite
    space = StateSpace((0, 1))
    target = chain(space, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    policy = chain(space, [[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]])
    rewards = RewardSchedule(space, np.zeros((2, 2)))
    fast = evaluate_cost(policy, target, rewards)
    slow = trajectory_enumeration_cost(policy, target, rewards)
    assert fast.total == 0.0
    assert slow.total == 0.0


def test_enumeration_weighs_a_step_by_its_prefix_as_the_marginals_do():
    # the second row is off 1 by 9e-10, inside PROB_TOL: step 1's reward is
    # weighed by P(x_0, x_1) = 1, not by the whole path's 1 + 9e-10, as
    # evaluate_cost weighs it by the marginal of x_0
    single = StateSpace(("x",))
    policy = chain(single, [[1.0]], [[1.0 + 9e-10]])
    rewards = RewardSchedule(single, np.array([[1.0], [0.0]]))
    walked = trajectory_enumeration_cost(policy, policy, rewards)
    assert walked.reward_part == 1.0
    assert walked == evaluate_cost(policy, policy, rewards)


@pytest.mark.parametrize("horizon", [1, 2])
def test_enumeration_meets_no_zero_times_inf_where_a_prefix_underflows(horizon):
    # x_0 = a has probability 5e-324, so each prefix (a, x_1) underflows to 0.
    # With one step the target cannot go a -> b: the positive 5e-324 meets that
    # step's +inf term, and the divergence is +inf as evaluate_cost has it.
    # With two steps the +inf is a second-step factor out of a, which only
    # the underflowed prefix (a, a) reaches; it is not extended, and the
    # marginal of a at step 1 is 0 in evaluate_cost too
    space = StateSpace(("a", "b"))
    initial = [5e-324, 1.0 - 5e-324]
    half, breaks = [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]
    stay = [[0.5, 0.5], [0.0, 1.0]]  # b never goes back to a
    policy_rows, target_rows = ([half], [breaks]) if horizon == 1 else ([stay, half], [stay, breaks])
    policy = chain(space, *policy_rows, initial=initial)
    target = chain(space, *target_rows, initial=initial)
    rewards = RewardSchedule(space, np.zeros((horizon, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walked = trajectory_enumeration_cost(policy, target, rewards)
        exact = evaluate_cost(policy, target, rewards)
    assert walked == exact
    assert walked.kl_part == (math.inf if horizon == 1 else 0.0)


# ---------------------------------------------------------------------------
# the reward domain: one bound, checked when the schedule is built
# ---------------------------------------------------------------------------

MAX = np.finfo(float).max
A = 0.3 * REWARD_LIMIT  # three steps of it sum to 0.9 of the limit
B = 0.4 * REWARD_LIMIT  # three steps of it pass the limit
JUST_BELOW = float(np.nextafter(REWARD_LIMIT, 0.0))
EXCESS_1 = [1.0 + 5e-10]  # inside PROB_TOL, so strict mode keeps it as given
EXCESS_2 = [0.5 + 4e-10, 0.5]


def _synthesized_value(target, pool, rewards):
    """The backward pass's own value: the initial pmf's mean of each state's best k=1 score."""
    scores, mu = synthesize(target, pool, rewards).scores[0], target.initial.probs
    return float(mu[mu > 0] @ scores[mu > 0].min(axis=1))


# route -> the cost it gives a (target, pool, rewards) instance whose pool is the target alone
ROUTES = {
    "synthesize": _synthesized_value,
    "bound_value": lambda t, pool, r: bound_value(synthesize(t, pool, r), t),
    "evaluate_cost": lambda t, pool, r: evaluate_cost(t, t, r).total,
    "enumeration": lambda t, pool, r: trajectory_enumeration_cost(t, t, r).total,
    "per-time": lambda t, pool, r: pure_schedule_oracle(t, pool, r, mode="per-time").cost,
    "per-time-and-state": (
        lambda t, pool, r: pure_schedule_oracle(t, pool, r, mode="per-time-and-state").cost
    ),
    "grid": lambda t, pool, r: simplex_grid_oracle(t, pool, r, 1).cost,
    "monte_carlo": lambda t, pool, r: monte_carlo_cost(t, t, r, 2, 0).estimate,  # sums 2 paths
}
#: The routes that cost a row's expected reward, not a sampled path's rewards.
EXACT_ROUTES = sorted(set(ROUTES) - {"monte_carlo"})

#: Sign orders whose forward partial sums reach 2A where the backward ones cancel, or the reverse.
SIGNS = {"down-down-up": [-1.0, -1.0, 1.0], "up-down-down": [1.0, -1.0, -1.0]}


def _point_instance(row, values):
    """A target that repeats ``row`` at every state and step, its one-contributor pool, rewards."""
    space = StateSpace(tuple(range(len(row))))
    point = chain(space, *[[row] * len(row)] * len(values))
    pool = ContributorSet(space, (point.kernels,), ("only",))
    return point, pool, RewardSchedule(space, np.array(values, dtype=float))


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("profile", sorted(SIGNS))
def test_every_route_gives_one_finite_cost_at_three_tenths_of_the_limit(profile, route):
    # the backward pass sums these rewards from k=3, the other routes from
    # k=1; both orders stay finite, and every route costs exactly A
    point, pool, rewards = _point_instance([1.0], [[sign * A] for sign in SIGNS[profile]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ROUTES[route](point, pool, rewards) == A


@pytest.mark.parametrize("profile", sorted(SIGNS))
def test_four_tenths_of_the_limit_is_refused_when_the_schedule_is_built(profile):
    values = [[sign * B] for sign in SIGNS[profile]]
    with pytest.raises(ValueError, match=r"reach 8\.988465674311579e\+307 at k=3; keep the sum"):
        RewardSchedule(StateSpace(("s",)), values)


@pytest.mark.parametrize(
    "values, k",
    [
        ([[1e308]] * 3, 1),
        ([[-1e308]] * 3, 1),
        ([[0.0], [MAX]], 2),
        ([[0.0], [-MAX]], 2),
        ([[0.0, 0.0], [REWARD_LIMIT, 0.0]], 2),  # reaching the limit is refused
        ([[0.3 * REWARD_LIMIT] * 2, [0.8 * REWARD_LIMIT] * 2, [MAX] * 2], 2),
        ([[B, -B], [0.0, 0.0], [-B, 1.0], [B, B]], 4),
    ],
    ids=["up-up-up", "down-down-down", "one-step-up", "one-step-down", "at-the-limit",
         "earliest-step", "largest-magnitude"],
)
def test_a_schedule_is_refused_at_the_first_step_its_running_sum_reaches_the_limit(values, k):
    space = StateSpace(tuple(range(len(values[0]))))
    with pytest.raises(ValueError, match=f"at k={k}; keep the sum below it"):
        RewardSchedule(space, values)


@pytest.mark.parametrize("route", EXACT_ROUTES)
@pytest.mark.parametrize(
    "row, values",
    [
        (EXCESS_1, [[0.0], [JUST_BELOW]]),
        (EXCESS_1, [[0.0], [-JUST_BELOW]]),
        (EXCESS_2, [[0.0, 0.0], [JUST_BELOW, JUST_BELOW]]),
        (EXCESS_2, [[0.0, 0.0], [-JUST_BELOW, -JUST_BELOW]]),
    ],
    ids=["one-step-up", "one-step-down", "one-step-up-d2", "one-step-down-d2"],
)
def test_row_slack_just_below_the_limit_leaves_every_exact_route_one_finite_cost(
    route, row, values
):
    # a row summing to a hair above 1 scales the expected reward of a step
    # just below the limit past it, twice over as the marginal gains the
    # same slack; the limit's factor 2 leaves room, and the routes agree
    point, pool, rewards = _point_instance(row, values)
    want = evaluate_cost(point, point, rewards).total
    assert math.isfinite(want) and abs(want) > JUST_BELOW
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ROUTES[route](point, pool, rewards) == want


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_an_unreachable_row_with_slack_just_below_the_limit_costs_nothing(route):
    # state b is never reached, and its row sums to a hair above 1: its
    # expected reward stays finite, so every route costs the path a -> a alone
    space = StateSpace(("a", "b"))
    point = chain(space, [[1.0, 0.0], EXCESS_2])
    pool = ContributorSet(space, (point.kernels,), ("only",))
    rewards = RewardSchedule(space, np.array([[JUST_BELOW, JUST_BELOW]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ROUTES[route](point, pool, rewards) == -JUST_BELOW


def _domain_instance(rng, d, n, s, share):
    """Target, pool, and rewards whose per-step largest magnitudes sum to ``share`` of the limit.

    Every target row has full support, some of it subnormal, so no route
    is infeasible and a KL term may reach 745 nats; each row of either side
    is scaled by up to 9e-10 off a sum of 1, inside ``PROB_TOL``.
    """
    space = StateSpace(tuple(range(d)))

    def rows(shape, floor):
        out = np.maximum(rng.dirichlet(np.ones(d), size=shape), floor)
        thin = (rng.random(out.shape) < 0.2) & (out < out.max(axis=-1, keepdims=True))
        out[thin] = floor  # subnormal on the target, zero in the pool; each row keeps its largest
        out /= out.sum(axis=-1, keepdims=True)
        return out * (1.0 + rng.uniform(-9e-10, 9e-10, out.shape[:-1] + (1,)))

    target = Behavior(
        StatePMF(space, rows((), TINY)),
        tuple(TransitionKernel(space, m) for m in rows((n, d), TINY)),
    )
    stacks = tuple(tuple(TransitionKernel(space, m) for m in rows((n, d), 0.0)) for _ in range(s))
    pool = ContributorSet(space, stacks, tuple(f"c{i}" for i in range(s)))
    signs = rng.choice([-1.0, 1.0], (n, d))
    values = rng.uniform(0.0, 1.0, (n, d))
    values[np.arange(n), rng.integers(0, d, n)] = 1.0  # each step's largest magnitude is 1
    values *= signs * (share * REWARD_LIMIT * rng.dirichlet(np.ones(n)))[:, None]
    return target, pool, values


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    s=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([0.5, 0.999, 1.0 - 2.0**-50, 1.0, 1.0 + 2.0**-50, 1.001, 2.0]),
)
def test_every_route_holds_the_one_reward_domain(d, n, s, seed, share):
    # near and above the limit: a schedule is refused at the first step its
    # running sum reaches it, or every route, the sampled one too, answers,
    # finite and warning-free
    target, pool, values = _domain_instance(np.random.default_rng(seed), d, n, s, share)
    running, refused = 0.0, None
    for k, step in enumerate(values, start=1):
        running += float(np.abs(step).max())
        if refused is None and running >= REWARD_LIMIT:
            refused = k
    if refused is not None:
        with pytest.raises(ValueError, match=f"at k={refused}; keep the sum below it"):
            RewardSchedule(target.space, values)
        return
    rewards = RewardSchedule(target.space, values)
    close = {"rel_tol": 1e-8, "abs_tol": 1e-8 * REWARD_LIMIT}  # routes weigh the row slack apart
    # the enumeration weighs each step as evaluate_cost does, so only rounding
    # parts them: at most 3.3e-16 of the reward scale on 3,000 _domain_instance
    # draws, against 1.4e-9 when it weighed each step by the whole path
    walk = {"rel_tol": 1e-12, "abs_tol": 1e-14 * REWARD_LIMIT}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = synthesize(target, pool, rewards)
        exact = evaluate_cost(policy.agent, target, rewards).total
        walked = trajectory_enumeration_cost(policy.agent, target, rewards).total
        value = _synthesized_value(target, pool, rewards)
        dp = pure_schedule_oracle(target, pool, rewards).cost
        per_time = pure_schedule_oracle(target, pool, rewards, mode="per-time").cost
        grid = simplex_grid_oracle(target, pool, rewards, 1).cost
        costs = (bound_value(policy, target), exact, walked, value, dp, per_time, grid)
        assert all(math.isfinite(cost) for cost in costs)
        assert math.isclose(costs[0], exact, **close) and math.isclose(walked, exact, **walk)
        assert math.isclose(value, dp, **close) and math.isclose(grid, per_time, **close)
        sampled = monte_carlo_cost(policy.agent, target, rewards, 50, seed)
        assert math.isfinite(sampled.estimate) and math.isfinite(sampled.stderr)


def test_enumeration_guard():
    scenario = generate_random_scenario(seed=5, d=4, horizon=10, contributors=1)
    rewards = scenario.reward_profile()
    assert 4**10 > ORACLE_LIMIT
    with pytest.raises(OracleGuardError, match="refusing enumeration"):
        trajectory_enumeration_cost(pure_behavior(scenario, 0), scenario.target, rewards)


def _reference_evaluate_cost(policy, target, rewards):
    """The per-step loop `evaluate_cost` replaced: one masked dot and one forward sum a step."""
    kl = kl_rows(policy.matrices, target.matrices)
    mu = policy.initial.probs
    per_step = []
    kl_part = reward_part = 0.0
    for idx, rows in enumerate(policy.matrices):
        kl_k = _reference_masked_dot(mu, kl[idx])
        reward_k = float(mu @ (rows @ rewards.values[idx]))
        per_step.append((kl_k, reward_k))
        kl_part += kl_k
        reward_part += reward_k
        mu = mu @ rows
    return CostBreakdown(kl_part - reward_part, kl_part, reward_part, tuple(per_step))


def _reference_bound_value(policy, target):
    """The per-step loop `bound_value` replaced, from the target's initial pmf."""
    sel = np.take_along_axis(policy.scores, policy.selected[..., None], axis=2)[..., 0]
    mu = target.initial.probs
    total = 0.0
    for idx, kernel in enumerate(policy.agent.matrices):
        total += float(mu @ (sel[idx] + kernel @ policy.r_hat[idx]))
        mu = mu @ kernel
    return total


def _forward_instance(rng, d, start, scale, horizon=3):
    """Policy, target (same initial pmf), rewards, and whether every marginal has full support.

    ``start`` is "full" (dense initial pmf and rows), "sparse" or "point"
    (sparse rows). At every (step, state) the policy leaves with no mass, the
    target row is a point mass the policy row misses, so the unmasked KL
    there is +inf. Rewards are ``scale`` times uniform in [-1, 1]; at
    ``scale == NEAR`` they are all above 0.6 * NEAR, so their sum nears the limit.
    """
    space = StateSpace(tuple(range(d)))
    mask = rng.random((horizon, d, d)) >= (0.0 if start == "full" else 0.8)
    mask[:, np.arange(d), rng.integers(0, d, d)] = True  # every row keeps one entry
    rows = rng.uniform(0.1, 1.0, (horizon, d, d)) * mask
    rows /= rows.sum(axis=-1, keepdims=True)
    if start == "point":
        init = np.eye(d)[rng.integers(0, d)]
    else:
        init = rng.uniform(0.1, 1.0, d) * (rng.random(d) < (1.0 if start == "full" else 0.3))
        init[rng.integers(0, d)] = 1.0
        init /= init.sum()
    target_rows = rng.uniform(0.1, 1.0, (horizon, d, d))
    target_rows /= target_rows.sum(axis=-1, keepdims=True)
    mu, full = init, True
    for idx in range(horizon):
        for x in np.flatnonzero(mu == 0):
            target_rows[idx, x] = np.eye(d)[np.argmin(rows[idx, x])]
        full &= bool((mu > 0).all())
        mu = mu @ rows[idx]
    low = 0.6 if scale == NEAR else -1.0
    policy, target = (
        Behavior(StatePMF(space, init), tuple(TransitionKernel(space, m) for m in stack))
        for stack in (rows, target_rows)
    )
    return policy, target, RewardSchedule(space, scale * rng.uniform(low, 1.0, (horizon, d))), full


def _ulps(a, b):
    """Distance in units of the last place between two floats of one sign; 0 when equal."""
    bits = np.array([a, b], dtype=float).view(np.int64)
    return abs(int(bits[0]) - int(bits[1]))


NEAR = REWARD_LIMIT / 3.01  # three steps of it stay below the limit
FORWARD_SCALES = [1.0, 1e-300, 1e305, NEAR]


@pytest.mark.parametrize("start", ["full", "sparse", "point"])
@pytest.mark.parametrize("d", [1, 2, 6, 15, 16, 17, 64])
def test_evaluate_cost_matches_its_per_step_loop(d, start):
    # full-support marginals, and every reward part, equal the loop exactly;
    # a KL part over marginals with zero mass somewhere is a full-row dot
    # where the loop summed over the support alone, so it may round up to 4
    # ulps away
    rng = np.random.default_rng(d * 10 + len(start))
    for scale in FORWARD_SCALES:
        for _ in range(4):
            policy, target, rewards, full = _forward_instance(rng, d, start, scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = evaluate_cost(policy, target, rewards)
            want = _reference_evaluate_cost(policy, target, rewards)
            if full:
                assert got == want
                continue
            assert [r for _, r in got.per_step] == [r for _, r in want.per_step]
            assert got.reward_part == want.reward_part
            pairs = [*zip(got.per_step, want.per_step), ((got.kl_part,), (want.kl_part,))]
            assert max(_ulps(mine[0], theirs[0]) for mine, theirs in pairs) <= 4
            assert got.total == got.kl_part - got.reward_part


@pytest.mark.parametrize("start", ["full", "sparse", "point"])
@pytest.mark.parametrize("d", [1, 2, 6, 16, 64])
def test_bound_value_matches_its_per_step_loop(d, start):
    # the bound dots full rows in both forms, so it is equal on every support;
    # a uniform target keeps every score finite, and the agent starts from
    # the instance's initial pmf
    rng = np.random.default_rng(d * 10 + len(start))
    for scale in FORWARD_SCALES:
        policy, _, rewards, _ = _forward_instance(rng, d, start, scale)
        pool = ContributorSet(policy.space, (policy.kernels, policy.kernels[::-1]), ("p", "q"))
        uniform = TransitionKernel(policy.space, np.full((d, d), 1.0 / d))
        target = Behavior(policy.initial, (uniform,) * policy.horizon)
        synthesized = synthesize(target, pool, rewards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bound_value(synthesized, target)
        assert got == _reference_bound_value(synthesized, target)


def _decimal_cost(agent, target, rewards, r_hat, clamp=True):
    """The agent's exact cost at 60 digits, the sum of its terms' sizes, and the carried sizes.

    Every float the routes read is taken exactly by `Decimal`, whose `ln` is
    correctly rounded, so only the 60-digit sums round. Each positive agent
    entry p at (step, state) x -> y, weighed by the state's exact marginal m,
    has size ``m * p * (1 + |ln p| + |ln q| + |r|)``, q the target entry and
    r the reward: a log of a rounded ratio errs by a rounding of 1 nat, not of
    the log. ``carried`` sums ``m * p * |r_hat|``, the value-to-go that
    `bound_value` subtracts in the scores and adds back. A row's KL is clamped
    at 0 as `kl_rows` clamps it, which matters only for rows off 1; ``clamp=False``
    keeps its sign, as the trajectory enumeration does.
    """
    with decimal.localcontext() as context:
        context.prec = 60
        agent_rows, target_rows = (
            [[[Decimal(p) for p in row] for row in step] for step in m.tolist()]
            for m in (agent.matrices, target.matrices)
        )
        values, to_go = (
            [[Decimal(v) for v in step] for step in m.tolist()] for m in (rewards.values, r_hat)
        )
        mu = [Decimal(m) for m in agent.initial.probs.tolist()]
        cost = size = carried = Decimal(0)
        for k, (rows, targets) in enumerate(zip(agent_rows, target_rows)):
            following = [Decimal(0)] * len(mu)
            for x, m in enumerate(mu):
                if m == 0:  # unreachable states cost nothing
                    continue
                kl = Decimal(0)
                for y, (p, q) in enumerate(zip(rows[x], targets[x])):
                    if p == 0:
                        continue
                    assert q > 0, (k, x, y)  # a synthesized agent keeps the target's support
                    log_p, log_q, r = p.ln(), q.ln(), values[k][y]
                    kl += p * (log_p - log_q)
                    cost -= m * p * r
                    size += m * p * (1 + abs(log_p) + abs(log_q) + abs(r))
                    carried += m * p * abs(to_go[k][y])
                    following[y] += m * p
                cost += m * (max(kl, Decimal(0)) if clamp else kl)
            mu = following
        return cost, size, carried


def _decimal_ulp(x):
    """One ulp of the double nearest ``x`` > 0 as a Decimal; ``x`` may pass the largest float."""
    _, exponent = math.frexp(float(x / 4))
    return Decimal(2) ** (exponent + 2 - 53)


def _exact_cost_cases():
    """(name, target, pool, rewards): the demo, random instances, and the reward domain's edges."""
    demo = load_scenario(demo_scenario_path())
    for profile in ("favor-node-2", "favor-node-3"):
        yield f"demo {profile}", demo.target, demo.contributors, demo.rewards[profile]
    for seed in range(200):
        scenario = generate_random_scenario(seed, d=4, horizon=5, contributors=3)
        rewards = scenario.reward_profile()
        yield f"random seed={seed}", scenario.target, scenario.contributors, rewards
    # subnormal target entries, rows off 1 within PROB_TOL, rewards near the limit, d=N=S=1
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for d in (1, 2, 3):
            for share in (0.5, 0.999, 1.0 - 2.0**-50):
                target, pool, values = _domain_instance(rng, d, d, d, share)
                rewards = RewardSchedule(target.space, values)
                yield f"edge seed={seed} d=N=S={d} share={share}", target, pool, rewards


def test_evaluate_cost_and_bound_value_are_within_their_rounding_bound_of_a_60_digit_sum():
    # Bound, in ulps of the size A (u * A <= ulp(A), u = 2**-53). Marginals are
    # sums of non-negative products, so step k's err by at most k * d * u
    # relative; a row's KL and reward parts add d + 2 roundings, the dot with
    # the marginals d, the forward sum over steps N, and kl_part - reward_part
    # one: N * d + 2 * d + N + 3. The bound rounds r + r_hat once, dots its
    # rows with r_hat again (d) and adds the two: N * d + 3 * d + N + 5 in
    # ulps of A + 2 * carried. Both are at most (N + 3) * (d + 2).
    for name, target, pool, rewards in _exact_cost_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = synthesize(target, pool, rewards)
            got = {
                "evaluate_cost": evaluate_cost(policy.agent, target, rewards).total,
                "bound_value": bound_value(policy, target),
            }
        cost, size, carried = _decimal_cost(policy.agent, target, rewards, policy.r_hat)
        scales = {"evaluate_cost": size, "bound_value": size + 2 * carried}
        bound = (target.horizon + 3) * (target.space.size + 2)
        for route, value in got.items():
            error = float(abs(Decimal(value) - cost) / _decimal_ulp(scales[route]))
            assert error <= bound, (name, route, value, cost)


def test_trajectory_enumeration_is_within_its_rounding_bound_of_a_60_digit_sum():
    # Bound, in ulps of the size A (u * A <= ulp(A), u = 2**-53). Summed over
    # the paths through it, a (step, state, next) entry's terms weigh the
    # state's marginal, so the enumeration's terms have the absolute sum A
    # too. A prefix probability at step k is a product of k floats (k - 1
    # roundings); a log ratio errs by 3 roundings of |ln p| + |ln q| (each
    # log within an ulp, then the difference), and p times it and the prefix
    # times that add 2: at most N + 4 per term. Step k's running sum adds its
    # M_k <= d ** (k + 1) terms one at a time, at most M_k - 1 roundings of A;
    # the steps' sums, N - 1 each, and kl_part - reward_part, one. In all at
    # most d ** (N + 1) + 2 * N + 4.
    for name, target, pool, rewards in _exact_cost_cases():
        policy = synthesize(target, pool, rewards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trajectory_enumeration_cost(policy.agent, target, rewards).total
        cost, size, _ = _decimal_cost(policy.agent, target, rewards, policy.r_hat, clamp=False)
        n, d = target.horizon, target.space.size
        error = float(abs(Decimal(got) - cost) / _decimal_ulp(size))
        assert error <= d ** (n + 1) + 2 * n + 4, (name, got, cost)


def _decimal_scores(target, pool, rewards):
    """The per-(step, state) backward DP at 60 digits: scores, value-to-go, sizes, row sums.

    ``scores[k][x][i]`` is contributor i's row-x KL at step k + 1 (clamped at
    0 as `kl_rows` clamps it) minus its dot with the reward plus ``r_hat[k]``,
    which is zero past the horizon and otherwise the negated least score of
    the next step. ``sizes[k][x][i]`` sums ``p * (1 + |ln p| + |ln q| + |r| + |r_hat|)``
    over the row's positive entries p, q the target entry, r the reward. The
    target has full support, so every score is finite.
    """
    n, d = target.horizon, target.space.size
    with decimal.localcontext() as context:
        context.prec = 60
        pool_rows = [
            [[[Decimal(p) for p in row] for row in step] for step in stack]
            for stack in pool.matrices.tolist()
        ]
        log_q = [
            [[Decimal(q).ln() for q in row] for row in step] for step in target.matrices.tolist()
        ]
        values = [[Decimal(v) for v in step] for step in rewards.values.tolist()]
        scores, r_hat, sizes, sums = [None] * n, [None] * n, [None] * n, [None] * n
        to_go = [Decimal(0)] * d
        for k in range(n - 1, -1, -1):
            r_hat[k] = to_go
            scores[k], sizes[k], sums[k] = [], [], []
            for x in range(d):
                row_scores, row_sizes, row_sums = [], [], []
                for stack in pool_rows:
                    kl = reward = size = total = Decimal(0)
                    for p, q, v, g in zip(stack[k][x], log_q[k][x], values[k], to_go):
                        if p == 0:
                            continue
                        log_p = p.ln()
                        kl += p * (log_p - q)
                        reward += p * (v + g)
                        size += p * (1 + abs(log_p) + abs(q) + abs(v) + abs(g))
                        total += p
                    row_scores.append(max(kl, Decimal(0)) - reward)
                    row_sizes.append(size)
                    row_sums.append(total)
                scores[k].append(row_scores)
                sizes[k].append(row_sizes)
                sums[k].append(row_sums)
            to_go = [-min(row) for row in scores[k]]
        return scores, r_hat, sizes, sums


def _near_tie_cases():
    """(name, target, pool, rewards): three contributors a few ulps apart in every entry.

    Their scores differ in the last few bits, so the float argmin is not
    always the exact one; each row stays within ``PROB_TOL`` of a sum of 1.
    """
    space = StateSpace(tuple(range(3)))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        target = Behavior(
            StatePMF(space, rng.dirichlet(np.ones(3))),
            tuple(TransitionKernel(space, m) for m in rng.dirichlet(np.ones(3), size=(3, 3))),
        )
        base = rng.dirichlet(np.ones(3), size=(3, 3))
        stacks = []
        for _ in range(3):
            nudged = base + rng.integers(-4, 5, base.shape) * np.spacing(base)
            stacks.append(tuple(TransitionKernel(space, m) for m in nudged))
        pool = ContributorSet(space, tuple(stacks), ("c0", "c1", "c2"))
        rewards = RewardSchedule(space, rng.uniform(-1.0, 1.0, (3, 3)))
        yield f"near-tie seed={seed}", target, pool, rewards


def test_synthesize_r_hat_and_scores_are_within_their_rounding_bound_of_a_60_digit_dp():
    # Bound, per score, in ulps of its size A (u * A <= ulp(A), u = 2**-53).
    # A KL row rounds each ratio (1 nat of u), log and product, and its d - 1
    # sums: d + 2 roundings of its part of A. Reward plus bonus rounds once,
    # the dot with the row d times, and the subtraction once: d + 4 in all,
    # fresh at each step. The bonus carries the next step's error: a score's
    # row dots it, so it adds the row's exact sum times the largest error of
    # r_hat over the arrival states, and r_hat errs by at most the largest
    # error of the next step's scores from that state, since a least element
    # moves no more than its inputs. A float argmin that is not the Decimal
    # argmin must pick a score within the two scores' bounds of the least,
    # and the agent's exact cost then exceeds the 60-digit optimum by at most
    # those gaps, weighed by its marginals.
    with decimal.localcontext() as context:
        context.prec = 60  # the checks' own sums round no coarser than the DP's
        cases = itertools.chain(_exact_cost_cases(), _near_tie_cases())
        for name, target, pool, rewards in cases:
            n, d, s = target.horizon, target.space.size, pool.size
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                policy = synthesize(target, pool, rewards)
            exact, r_hat, sizes, sums = _decimal_scores(target, pool, rewards)
            carried = [Decimal(0)] * d  # r_hat's bound, per arrival state; zero past the horizon
            gaps = Decimal(0)
            for k in range(n - 1, -1, -1):
                for y in range(d):
                    error = abs(Decimal(float(policy.r_hat[k, y])) - r_hat[k][y])
                    assert error <= carried[y], (name, k, y, error, carried[y])
                bounds = [
                    [(d + 4) * _decimal_ulp(size) + total * max(carried) for size, total in row]
                    for row in (zip(sizes[k][x], sums[k][x]) for x in range(d))
                ]
                worst = Decimal(0)
                for x in range(d):
                    for i in range(s):
                        got, want = policy.scores[k, x, i], exact[k][x][i]
                        assert abs(Decimal(got) - want) <= bounds[x][i], (name, k, x, i, got, want)
                    chosen = int(policy.selected[k, x])
                    best = exact[k][x].index(min(exact[k][x]))
                    if chosen != best:  # a near-tie: the two exact scores lie within the two bounds
                        gap = exact[k][x][chosen] - exact[k][x][best]
                        assert gap <= bounds[x][chosen] + bounds[x][best], (name, k, x, gap)
                        worst = max(worst, gap)
                gaps += worst
                carried = [max(row) for row in bounds]
            cost, size, _ = _decimal_cost(policy.agent, target, rewards, policy.r_hat)
            mu = target.initial.probs.tolist()
            optimum = sum(Decimal(m) * min(exact[0][x]) for x, m in enumerate(mu) if m > 0)
            slack = size * Decimal(10) ** -50  # the 60-digit sums' own rounding
            excess = cost - optimum  # the marginals' mass is within 1e-6 of 1
            assert -slack <= excess <= gaps * (1 + Decimal(10) ** -6) + slack, (name, cost, optimum)


# ---------------------------------------------------------------------------
# log-sum inequality
# ---------------------------------------------------------------------------


def test_logsum_frozen_example():
    space = StateSpace((0, 1))
    components = [
        StatePMF(space, np.array([1.0, 0.0])),
        StatePMF(space, np.array([0.0, 1.0])),
    ]
    target = StatePMF(space, np.array([0.5, 0.5]))
    lhs, rhs = logsum_bound_check(WeightVector(np.array([0.5, 0.5])), components, target)
    # the mixture reconstructs the target exactly; each component costs ln 2
    assert lhs == 0.0
    assert rhs == pytest.approx(LN2, abs=1e-15)


def test_logsum_zero_weight_component_is_ignored():
    space = StateSpace((0, 1))
    good = StatePMF(space, np.array([0.25, 0.75]))
    violating = StatePMF(space, np.array([1.0, 0.0]))
    target = StatePMF(space, np.array([0.0, 1.0]))
    lhs, rhs = logsum_bound_check(WeightVector(np.array([1.0, 0.0])), [good, violating], target)
    assert math.isinf(lhs)  # the mixture itself still violates support
    assert math.isinf(rhs)
    # swap: all weight on the admissible component
    target2 = StatePMF(space, np.array([0.5, 0.5]))
    lhs2, rhs2 = logsum_bound_check(
        WeightVector(np.array([1.0, 0.0])), [good, violating], target2
    )
    assert math.isfinite(lhs2) and math.isfinite(rhs2)
    assert lhs2 == pytest.approx(rhs2, abs=1e-15)


def test_logsum_bound_check_returns_two_plain_floats():
    # the weighted sum was NumPy's float64 when finite and math.inf when a part is infinite
    space = StateSpace((0, 1))
    components = [StatePMF(space, np.array([1.0, 0.0])), StatePMF(space, np.array([0.0, 1.0]))]
    half = WeightVector(np.array([0.5, 0.5]))
    for target, finite in ((np.array([0.5, 0.5]), True), (np.array([1.0, 0.0]), False)):
        lhs, rhs = logsum_bound_check(half, components, StatePMF(space, target))
        assert type(lhs) is float and type(rhs) is float
        assert math.isfinite(rhs) is finite
    assert (lhs, rhs) == (math.inf, math.inf)


def test_logsum_inequality_random_sweep():
    rng = np.random.Generator(np.random.Philox(2024))
    sparse_seen = 0
    for trial in range(300):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, 6))
        space = StateSpace(tuple(range(d)))
        target = StatePMF(space, rng.dirichlet(np.ones(d)) + 1e-9, "renormalize")
        comps = []
        for _ in range(s):
            row = rng.dirichlet(np.ones(d))
            if trial % 3 == 0 and d > 2:
                row[rng.integers(0, d)] = 0.0
                row = row / row.sum()
                sparse_seen += 1
            comps.append(StatePMF(space, row, "renormalize"))
        w = WeightVector(rng.dirichlet(np.ones(s)))
        lhs, rhs = logsum_bound_check(w, comps, target)
        assert lhs <= rhs + 1e-12, f"trial={trial}"
    assert sparse_seen >= 50


def test_logsum_validation():
    space = StateSpace((0, 1))
    comp = StatePMF(space, np.array([0.5, 0.5]))
    target = StatePMF(space, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="one weight per component"):
        logsum_bound_check(WeightVector(np.array([1.0])), [comp, comp], target)
    other = StatePMF(StateSpace((7, 8)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="share one state space"):
        logsum_bound_check(WeightVector(np.array([1.0])), [other], target)


# ---------------------------------------------------------------------------
# schedule oracles
# ---------------------------------------------------------------------------


def test_per_time_oracle_matches_inline_enumeration():
    # independent check: compose each schedule into a behavior and cost it
    # with evaluate_cost, then take the minimum by brute force
    scenario = generate_random_scenario(seed=77, d=3, horizon=3, contributors=2)
    rewards = scenario.reward_profile()
    result = pure_schedule_oracle(
        scenario.target, scenario.contributors, rewards, mode="per-time"
    )
    best_cost = math.inf
    best_schedule = None
    for schedule in itertools.product(range(2), repeat=3):
        behavior = Behavior(
            scenario.target.initial,
            tuple(
                scenario.contributors.kernel(i, k + 1) for k, i in enumerate(schedule)
            ),
        )
        cost = evaluate_cost(behavior, scenario.target, rewards).total
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    assert result.cost == pytest.approx(best_cost, abs=1e-12)
    assert tuple(result.schedule) == best_schedule


def _reference_step_cost_table(target, contributors, rewards):
    """The per-(contributor, step) loop the array routine replaced, kept as its reference."""
    s, n, d = contributors.size, target.horizon, target.space.size
    costs = np.empty((s, n, d))
    for i in range(s):
        for idx in range(n):
            rows = contributors.matrices[i, idx]
            costs[i, idx] = kl_rows(rows, target.matrices[idx]) - rows @ rewards.values[idx]
    return costs


@pytest.mark.parametrize(
    "d, horizon, size", [(1, 1, 1), (1, 3, 2), (2, 1, 1), (3, 2, 4), (5, 4, 3), (16, 5, 6)]
)
@pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("target_is_a_contributor", [False, True])
def test_step_cost_table_equals_the_loop_byte_for_byte(
    d, horizon, size, sparsity, target_is_a_contributor
):
    scenario = generate_random_scenario(
        seed=100 * d + 10 * horizon + size, d=d, horizon=horizon, contributors=size,
        sparsity=sparsity,
    )
    # a sparse contributor as the target has zeros where the others have mass: +inf KL
    target = pure_behavior(scenario, 0) if target_is_a_contributor else scenario.target
    args = (target, scenario.contributors, scenario.reward_profile())
    got, want = _step_cost_table(*args), _reference_step_cost_table(*args)
    assert got.shape == want.shape == (size, horizon, d)
    assert got.tobytes() == want.tobytes()


def test_step_cost_table_is_infinite_where_the_target_has_no_mass():
    space = StateSpace(("a", "b"))
    target = chain(space, [[1.0, 0.0], [0.5, 0.5]])
    rows = ([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]])
    pool = ContributorSet(
        space, tuple((TransitionKernel(space, np.array(r)),) for r in rows), ("x", "y")
    )
    args = (target, pool, RewardSchedule(space, np.array([[1.0, -2.0]])))
    got = _step_cost_table(*args)
    assert got.tobytes() == _reference_step_cost_table(*args).tobytes()
    assert got[0, 0, 0] == math.inf and np.isfinite(got[0, 0, 1])
    assert got[1].tolist() == [[-1.0, 2.0 + LN2]]


def _reference_masked_dot(mu, values):
    """Expectation with 0 * inf = 0, over the support of ``mu`` alone."""
    active = mu > 0
    return math.inf if np.isinf(values[active]).any() else float(mu[active] @ values[active])


def _reference_state_dp(target, contributors, rewards):
    """The per-(contributor, state) loop the DP's row-wise product replaced.

    Returns the schedule and the value-to-go from each state at k = 0.
    """
    costs = _step_cost_table(target, contributors, rewards)
    n, d = target.horizon, target.space.size
    to_go = np.zeros(d)
    schedule = np.empty((n, d), dtype=int)
    for idx in range(n - 1, -1, -1):
        pool = contributors.matrices[:, idx]
        carried = np.array([[_reference_masked_dot(row, to_go) for row in rows] for rows in pool])
        cand = costs[:, idx] + carried
        schedule[idx] = np.argmin(cand, axis=0)
        to_go = cand.min(axis=0)
    return schedule, to_go


def _random_unfiltered_instance(rng, d, horizon, size, sparsity):
    """A sparse target and an unfiltered pool built from it.

    Each contributor reweights the target's rows, keeping their support, but
    swaps some of them for dense rows, which put mass where the target has
    none. Every contributor swaps the row of one trap state per step, so
    some states can be served at a step and some cannot. A duplicated
    contributor makes exact ties.
    """
    space = StateSpace(tuple(range(d)))

    def normalized(rows):
        return rows / rows.sum(axis=-1, keepdims=True)

    mask = rng.random((horizon, d, d)) >= sparsity
    mask[:, np.arange(d), rng.integers(0, d, d)] = True  # every row keeps one entry
    target_rows = normalized(rng.random((horizon, d, d)) * mask)
    traps = rng.integers(0, d, horizon)
    pool = []
    for _ in range(size):
        rows = normalized(target_rows * rng.uniform(0.5, 1.5, target_rows.shape))
        swapped = rng.random((horizon, d)) < 0.3
        swapped[np.arange(horizon), traps] = True
        rows[swapped] = normalized(rng.uniform(0.1, 1.0, (int(swapped.sum()), d)))
        pool.append(tuple(TransitionKernel(space, m) for m in rows))
    if rng.random() < 0.5:
        pool.append(pool[int(rng.integers(0, size))])
    target = Behavior(
        StatePMF(space, np.eye(d)[0]), tuple(TransitionKernel(space, m) for m in target_rows)
    )
    contributors = ContributorSet(space, tuple(pool), tuple(f"c{i}" for i in range(len(pool))))
    rewards = RewardSchedule(space, rng.uniform(-2.0, 2.0, (horizon, d)))
    return target, contributors, rewards


@pytest.mark.parametrize("d", [*range(1, 21), 64])
def test_state_dp_matches_its_loop_form(d):
    # the oracle costs each state as a point-mass start, so its value-to-go
    # at k = 0 is compared state by state: same schedules, same +inf states,
    # finite values within 1e-12 relative (BLAS may sum a long row in another
    # order than its compacted support)
    rng = np.random.Generator(np.random.Philox(4000 + d))
    dead_seen = 0
    for trial in range(10):
        horizon, size = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        sparsity = [0.0, 0.3, 0.6, 0.9][trial % 4]  # no zeros at 0.0: every state is served
        target, pool, rewards = _random_unfiltered_instance(rng, d, horizon, size, sparsity)
        schedule, to_go = _reference_state_dp(target, pool, rewards)
        values = []
        for x in range(d):
            start = Behavior(StatePMF(target.space, np.eye(d)[x]), target.kernels)
            result = pure_schedule_oracle(start, pool, rewards)
            assert np.array_equal(result.schedule, schedule), (trial, x)
            values.append(result.cost)
        values = np.array(values)
        assert np.array_equal(np.isposinf(values), np.isposinf(to_go)), trial
        finite = np.isfinite(to_go)
        np.testing.assert_allclose(values[finite], to_go[finite], rtol=1e-12, atol=0)
        dead_seen += int(np.isinf(to_go).any() and finite.any())
    if d > 1:
        assert dead_seen > 0, "no instance mixes served and unservable states"


def test_an_infeasible_row_stays_infeasible_when_its_carry_nears_the_limit():
    # contributor a's first row has mass where the target has none, and a
    # hair above 1 in total, against a value-to-go just below -REWARD_LIMIT:
    # its +inf cost plus that carry stays +inf and never wins the argmin
    space = StateSpace(("a", "b"))
    target = chain(space, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    excess = chain(space, [EXCESS_2, [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    pool = ContributorSet(space, (excess.kernels, target.kernels), ("a", "t"))
    rewards = RewardSchedule(space, np.array([[0.0, 0.0], [JUST_BELOW, JUST_BELOW]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pure_schedule_oracle(target, pool, rewards)
    assert result.cost == -JUST_BELOW
    assert result.schedule.tolist() == [[1, 0], [0, 0]]


def test_dp_oracle_never_loses_to_per_time():
    for seed in range(30):
        scenario = generate_random_scenario(
            seed=200 + seed,
            d=2 + seed % 3,
            horizon=1 + seed % 4,
            contributors=2 + seed % 2,
            sparsity=0.25 if seed % 5 == 0 else 0.0,
        )
        rewards = scenario.reward_profile()
        dp = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time-and-state"
        )
        pt = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time"
        )
        assert dp.cost <= pt.cost + 1e-12, f"seed={seed}"


def test_dp_oracle_agrees_with_synthesized_bound():
    for seed in range(30):
        scenario = generate_random_scenario(
            seed=300 + seed,
            d=2 + seed % 4,
            horizon=1 + seed % 5,
            contributors=1 + seed % 4,
            sparsity=0.3 if seed % 4 == 0 else 0.0,
            reward_range=(-3.0, 3.0),
        )
        rewards = scenario.reward_profile()
        policy = synthesize(scenario.target, scenario.contributors, rewards)
        bound = bound_value(policy, scenario.target)
        dp = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time-and-state"
        )
        assert dp.cost == pytest.approx(bound, abs=1e-9), f"seed={seed}"
        assert np.array_equal(dp.schedule, policy.selected)


def test_identical_contributors_yield_all_zero_schedules():
    scenario = generate_random_scenario(seed=9, d=2, horizon=2, contributors=1)
    twin = scenario.contributors.kernels[0]
    from crowdpolicy.synthesis import ContributorSet

    doubled = ContributorSet(scenario.space, (twin, twin), ("first", "second"))
    rewards = scenario.reward_profile()
    pt = pure_schedule_oracle(scenario.target, doubled, rewards, mode="per-time")
    dp = pure_schedule_oracle(scenario.target, doubled, rewards, mode="per-time-and-state")
    assert tuple(pt.schedule) == (0, 0)
    assert np.all(np.asarray(dp.schedule) == 0)


def test_per_time_guard_and_mode_validation():
    scenario = generate_random_scenario(seed=6, d=2, horizon=14, contributors=3)
    rewards = scenario.reward_profile()
    with pytest.raises(OracleGuardError, match="refusing schedule search"):
        pure_schedule_oracle(scenario.target, scenario.contributors, rewards, mode="per-time")
    with pytest.raises(ValueError, match="unknown mode"):
        pure_schedule_oracle(scenario.target, scenario.contributors, rewards, mode="global")


# ---------------------------------------------------------------------------
# simplex grid oracle
# ---------------------------------------------------------------------------


def test_grid_resolution_one_reduces_to_per_time():
    for seed in range(10):
        scenario = generate_random_scenario(
            seed=400 + seed, d=2 + seed % 3, horizon=1 + seed % 3, contributors=2 + seed % 2
        )
        rewards = scenario.reward_profile()
        grid = simplex_grid_oracle(scenario.target, scenario.contributors, rewards, 1)
        pt = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time"
        )
        assert grid.cost == pytest.approx(pt.cost, abs=1e-12), f"seed={seed}"
        assert all(WeightVector(w).is_vertex for w in grid.weights)


def test_oracles_pick_the_first_assignment_when_every_cost_is_infinite():
    # an unfiltered pool whose every row puts mass where the target has none
    space = StateSpace((0, 1))
    target = chain(space, [[1.0, 0.0], [1.0, 0.0]])
    rows = ([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]])
    pool = ContributorSet(
        space, tuple((TransitionKernel(space, np.array(r)),) for r in rows), ("a", "b")
    )
    rewards = RewardSchedule(space, np.zeros((1, 2)))
    pt = pure_schedule_oracle(target, pool, rewards, mode="per-time")
    grid = simplex_grid_oracle(target, pool, rewards, 1)
    assert pt.cost == math.inf and pt.schedule == (0,)
    assert grid.cost == math.inf
    assert grid.weights.tolist() == [[0.0, 1.0]]


def test_grid_guards():
    big = generate_random_scenario(seed=1, d=5, horizon=2, contributors=2)
    rewards = big.reward_profile()
    with pytest.raises(OracleGuardError, match="d<=4"):
        simplex_grid_oracle(big.target, big.contributors, rewards, 2)
    wide = generate_random_scenario(seed=1, d=3, horizon=2, contributors=4)
    with pytest.raises(OracleGuardError, match="S<=3"):
        simplex_grid_oracle(wide.target, wide.contributors, wide.reward_profile(), 2)
    small = generate_random_scenario(seed=1, d=3, horizon=3, contributors=3)
    with pytest.raises(OracleGuardError, match="positive integer"):
        simplex_grid_oracle(small.target, small.contributors, small.reward_profile(), 0)
    with pytest.raises(OracleGuardError, match="assignments exceed"):
        simplex_grid_oracle(small.target, small.contributors, small.reward_profile(), 150)


# ---------------------------------------------------------------------------
# the KL rows a synthesized agent holds: the held route against the recompute
# ---------------------------------------------------------------------------

#: The smallest positive subnormal double.
TINY = 5e-324


def _pmf_rows(rng, shape, zero_share, subnormal_share):
    """Random pmf rows with zeroed and positive subnormal entries; each row keeps its largest."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    largest = np.zeros(rows.shape, dtype=bool)
    np.put_along_axis(largest, rows.argmax(axis=-1)[..., None], True, axis=-1)
    draw = rng.random(rows.shape)
    rows = np.where(~largest & (draw < zero_share), 0.0, rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    tiny = ~largest & (draw >= zero_share) & (draw < zero_share + subnormal_share)
    rows = np.where(tiny, TINY * rng.integers(1, 2**20, rows.shape), rows)
    return rows / rows.sum(axis=-1, keepdims=True)  # the subnormals stay subnormal


def _held_instance(rng, d, horizon, size, zero_share, subnormal_share, scale):
    """A sparse target with subnormal entries and a pool the filter may thin below its best.

    Even-indexed contributors are random rows, which the target's zeros may
    exclude; odd-indexed ones reweight the target's rows on their support,
    so they stay admissible, and a selection among them sits above an
    excluded index.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    target_rows = _pmf_rows(rng, (horizon, d, d), zero_share, subnormal_share)
    target = Behavior(
        StatePMF(space, _pmf_rows(rng, (d,), zero_share, subnormal_share)),
        tuple(TransitionKernel(space, m) for m in target_rows),
    )
    stacks = []
    for i in range(size):
        if i % 2 == 0:
            rows = _pmf_rows(rng, (horizon, d, d), 0.3, subnormal_share)
        else:
            rows = target_rows * rng.uniform(0.5, 1.5, target_rows.shape)
            rows /= rows.sum(axis=-1, keepdims=True)
        stacks.append(tuple(TransitionKernel(space, m) for m in rows))
    pool = ContributorSet(space, tuple(stacks), tuple(f"c{i}" for i in range(size)))
    rewards = RewardSchedule(space, scale * rng.uniform(-1.0, 1.0, (horizon, d)))
    return target, pool, rewards


def _cost(policy, target, rewards):
    """`evaluate_cost`'s result by `repr`: -0.0 and nan differ."""
    return repr(evaluate_cost(policy, target, rewards))


def _recomputed_pure_costs(target, pool, rewards):
    """`cli._pure_costs` as it was: each contributor's behaviour costed from its kernels alone."""
    return {
        cid: evaluate_cost(Behavior(target.initial, kernels), target, rewards).total
        for cid, kernels in zip(pool.ids, pool.kernels)
    }


def assert_held_route_equals_the_recompute(target, pool, rewards):
    try:
        policy = synthesize(target, pool, rewards)
    except InfeasibleError:
        return False
    agent = policy.agent
    (key,), rows = vars(agent)["_kl"]  # the `model._held` entry: (key parts, KL rows)
    assert key() is target
    assert rows.tobytes() == kl_rows(agent.matrices, target.matrices).tobytes()
    cold = copy.copy(agent)
    assert "_kl" not in vars(cold)
    got = _cost(agent, target, rewards)
    assert got == _cost(cold, target, rewards)
    # an equal copy of the target, and another target, recompute
    twin = copy.copy(target)
    assert _cost(agent, twin, rewards) == got
    other = Behavior(target.initial, target.kernels[::-1])
    assert _cost(agent, other, rewards) == _cost(cold, other, rewards)
    # the independent leg: the bound the recursion carried equals the held route
    exact = evaluate_cost(agent, target, rewards).total
    assert bound_value(policy, target) == pytest.approx(exact, rel=1e-9, abs=1e-9)
    scenario = Scenario("held", target.space, target, pool, {"p": rewards})
    want = repr(_recomputed_pure_costs(target, pool, rewards))
    assert repr(_pure_costs(scenario, rewards)) == want
    return True


@settings(max_examples=200, deadline=None)
@given(
    d=st.one_of(st.integers(1, 6), st.sampled_from([9, 16, 17, 64])),  # pairwise sums past 8
    horizon=st.integers(1, 4),
    size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
    subnormal_share=st.sampled_from([0.0, 0.3]),
    scale=st.sampled_from([0.0, 1.0, 50.0, 1e305]),
)
def test_a_synthesized_agent_costs_the_same_with_or_without_its_held_rows(
    d, horizon, size, seed, zero_share, subnormal_share, scale
):
    rng = np.random.default_rng(seed)
    target, pool, rewards = _held_instance(
        rng, d, horizon, size, zero_share, subnormal_share, scale
    )
    assert_held_route_equals_the_recompute(target, pool, rewards)


def test_held_rows_come_from_the_pool_table_when_a_lower_index_breaks_the_support():
    # c0 and c2 break the target's support at (k=1, 'a') and are avoided
    # there; the agent selects c1 and, at (k=1, 'b'), c0, whose held KL rows
    # are read from the pool's table at those indices
    space = StateSpace(("a", "b"))
    target = chain(
        space, [[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], initial=[0.5, 0.5]
    )
    leaky = chain(space, [[0.5, 0.5], [0.9, 0.1]], [[0.9, 0.1], [0.9, 0.1]]).kernels
    good0 = chain(space, [[1.0, 0.0], [0.2, 0.8]], [[0.3, 0.7], [0.3, 0.7]]).kernels
    good1 = chain(space, [[1.0, 0.0], [0.8, 0.2]], [[0.7, 0.3], [0.7, 0.3]]).kernels
    pool = ContributorSet(space, (leaky, good0, leaky, good1), ("c0", "c1", "c2", "c3"))
    rewards = RewardSchedule(space, np.array([[2.0, 0.0], [0.0, 1.0]]))
    policy = synthesize(target, pool, rewards)
    assert policy.filter_report.retained_ids == ("c1", "c3")
    assert policy.selection_table() == [["c1", "c0"], ["c1", "c1"]]
    assert assert_held_route_equals_the_recompute(target, pool, rewards)
    assert math.isfinite(evaluate_cost(policy.agent, target, rewards).kl_part)


# ---------------------------------------------------------------------------
# the marginals a behaviour holds: the held route against `_marginals`
# ---------------------------------------------------------------------------


def _marginals_route_cost(policy, target, rewards):
    """`evaluate_cost` with the forward pass recomputed by `_marginals` on every call."""
    mu = _marginals(policy.initial.probs, policy.matrices)[:-1]
    held = vars(policy).get("_kl")  # the `model._held` entry: (key parts, KL rows)
    kl = held[1] if held and held[0][0]() is target else kl_rows(policy.matrices, target.matrices)
    kl_steps = np.vecdot(mu, np.where(mu > 0, kl, 0.0))
    reward_steps = np.vecdot(mu, np.matmul(policy.matrices, rewards.values[..., None])[..., 0])
    kl_part, reward_part = float(np.cumsum(kl_steps)[-1]), float(np.cumsum(reward_steps)[-1])
    per_step = tuple(zip(kl_steps.tolist(), reward_steps.tolist()))
    return CostBreakdown(kl_part - reward_part, kl_part, reward_part, per_step)


def _marginals_route_bound(policy, target):
    """`bound_value` with the forward pass recomputed from the target's initial pmf."""
    sel = np.take_along_axis(policy.scores, policy.selected[..., None], axis=2)[..., 0]
    matrices = policy.agent.matrices
    mu = _marginals(target.initial.probs, matrices)[:-1]
    steps = sel + np.matmul(matrices, policy.r_hat[..., None])[..., 0]
    return float(np.cumsum(np.vecdot(mu, np.where(mu > 0, steps, 0.0)))[-1])


def _marginal_instances():
    """(name, target, pool, rewards): random instances, d = N = S = 1 among them."""
    for d, horizon, size in ((1, 1, 1), (1, 3, 2), (2, 1, 1), (3, 4, 3), (6, 3, 4)):
        for seed in range(6):
            scenario = generate_random_scenario(seed, d, horizon, size, sparsity=0.3)
            target, pool, rewards = scenario.target, scenario.contributors, scenario.reward_profile()
            yield f"d={d} N={horizon} S={size} seed={seed}", target, pool, rewards
    rng = np.random.default_rng(7)
    for d in (1, 2, 5):
        target, pool, rewards = _held_instance(rng, d, 3, 3, 0.3, 0.3, 1.0)
        yield f"sparse d={d}", target, pool, rewards


def test_the_held_marginals_give_the_bits_of_the_marginals_route(tmp_path):
    for name, target, pool, rewards in _marginal_instances():
        try:
            policy = synthesize(target, pool, rewards)
        except InfeasibleError:
            continue
        agent = policy.agent
        assert "_mu" not in vars(agent), name  # built on first read, not by synthesize
        want = _marginals(agent.initial.probs, agent.matrices)
        equal_pmf = StatePMF(target.space, target.initial.probs.copy())
        other_pmf = StatePMF(target.space, np.full(target.space.size, 1.0 / target.space.size))
        targets = {
            "target": target,
            "equal initial pmf": Behavior._of(equal_pmf, target.matrices),
            "another initial pmf": Behavior._of(other_pmf, target.matrices),
        }
        for which, other in targets.items():
            got = bound_value(policy, other)
            assert repr(got) == repr(_marginals_route_bound(policy, other)), (name, which)
            got = evaluate_cost(agent, other, rewards)
            assert repr(got) == repr(_marginals_route_cost(agent, other, rewards)), (name, which)
        assert _mu(agent).tobytes() == want.tobytes() and _mu(agent).shape == want.shape
        scenario = Scenario("held", target.space, target, pool, {"p": rewards})
        _solve(scenario, rewards, tmp_path)
        labels = target.space.labels
        text = _csv_text(["k", *labels], [[k, *mu] for k, mu in enumerate(want.tolist())])
        assert (tmp_path / "marginals.csv").read_text(encoding="utf-8") == text, name


def test_the_held_marginals_are_read_only_and_held_once():
    scenario = generate_random_scenario(3, 4, 3, 2, sparsity=0.3)
    policy = synthesize(scenario.target, scenario.contributors, scenario.reward_profile())
    mu = _mu(policy.agent)
    assert mu.shape == (4, 4) and mu.nbytes == (3 + 1) * 4 * 8
    assert _mu(policy.agent) is mu
    assert not mu.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mu[0, 0] = 0.5
    evaluate_cost(policy.agent, scenario.target, scenario.reward_profile())
    bound_value(policy, scenario.target)
    assert _mu(policy.agent) is mu


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda agent, _: pickle.loads(pickle.dumps(agent)),
        lambda agent, _: copy.copy(agent),
        lambda agent, _: copy.deepcopy(agent),
        lambda agent, directory: (
            save_policy(agent, directory / "policy.json")
            or load_policy(directory / "policy.json", agent.space)
        ),
    ],
    ids=["pickle", "copy", "deepcopy", "policy-file"],
)
def test_a_pickled_copied_or_loaded_agent_starts_without_held_marginals(duplicate, tmp_path):
    scenario = generate_random_scenario(4, 3, 3, 2, sparsity=0.3)
    target, rewards = scenario.target, scenario.reward_profile()
    policy = synthesize(target, scenario.contributors, rewards)
    want = _cost(policy.agent, target, rewards)
    assert "_mu" in vars(policy.agent)
    twin = duplicate(policy.agent, tmp_path)
    assert "_mu" not in vars(twin)
    assert twin == policy.agent and repr(twin) == repr(policy.agent)
    assert _cost(twin, target, rewards) == want
    assert _mu(twin).tobytes() == _mu(policy.agent).tobytes()
