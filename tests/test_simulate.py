"""Sampling, most-likely routes, and Monte Carlo estimation."""

import copy
import dataclasses
import functools
import math
import operator
import pickle
import sys
import threading
import weakref
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdpolicy.simulate as simulate
from crowdpolicy.evaluation import evaluate_cost
from crowdpolicy.model import (
    REWARD_LIMIT,
    Behavior,
    RewardSchedule,
    StatePMF,
    StateSpace,
    TransitionKernel,
    log_pmf,
)
from crowdpolicy.scenario import generate_random_scenario
from crowdpolicy.simulate import (
    MonteCarloEstimate,
    Trajectory,
    _sample_paths,
    _sum_in_path_order,
    monte_carlo_cost,
    most_likely_trajectory,
    sample_trajectories,
    write_trajectories_csv,
)
from crowdpolicy.synthesis import synthesize


def behavior(space, initial, *rows_per_step):
    return Behavior(
        StatePMF(space, np.asarray(initial, dtype=float)),
        tuple(TransitionKernel(space, np.asarray(r, dtype=float)) for r in rows_per_step),
    )


def test_same_seed_same_batch():
    scenario = generate_random_scenario(seed=3, d=4, horizon=3, contributors=2)
    first = sample_trajectories(scenario.target, 50, seed=99)
    second = sample_trajectories(scenario.target, 50, seed=99)
    assert [t.states for t in first] == [t.states for t in second]
    third = sample_trajectories(scenario.target, 50, seed=100)
    assert [t.states for t in first] != [t.states for t in third]


def test_sampled_frequencies_track_the_kernel():
    space = StateSpace(("s", "t"))
    chain = behavior(space, [1.0, 0.0], [[0.25, 0.75], [0.25, 0.75]])
    batch = sample_trajectories(chain, 20000, seed=11)
    hits = sum(1 for t in batch if t.states[1] == "s")
    freq = hits / 20000
    # 4 sigma around 0.25 at n = 20000 is roughly +/- 0.0122
    assert abs(freq - 0.25) < 0.0125


def test_trajectory_log_probs():
    space = StateSpace(("s", "t"))
    chain = behavior(space, [0.5, 0.5], [[0.8, 0.2], [0.8, 0.2]])
    batch = sample_trajectories(chain, 10, seed=1)
    for traj in batch:
        expected = math.log(0.5) + math.log(
            0.8 if traj.states[1] == "s" else 0.2
        )
        assert traj.log_prob_policy == pytest.approx(expected, abs=1e-12)
        assert traj.log_prob_target is None


def test_target_log_prob_is_minus_inf_off_support():
    space = StateSpace(("s", "t"))
    policy = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    target = behavior(space, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    batch = sample_trajectories(policy, 200, seed=4, target=target)
    offs = [t for t in batch if t.states[1] == "t"]
    ons = [t for t in batch if t.states[1] == "s"]
    assert offs and ons  # both branches sampled
    assert all(t.log_prob_target == -math.inf for t in offs)
    assert all(t.log_prob_target == pytest.approx(0.0) for t in ons)


def test_zero_probability_states_are_never_sampled():
    # a trailing zero-probability state must not be reachable through
    # inverse-CDF rounding, even when the row sum is a hair under 1
    space = StateSpace((0, 1, 2))
    row = [0.7, 0.3 - 4e-10, 0.0]
    chain = behavior(space, [1.0, 0.0, 0.0], [row, row, row])
    batch = sample_trajectories(chain, 50000, seed=21)
    assert all(t.states[1] != 2 for t in batch)


def test_count_validation():
    scenario = generate_random_scenario(seed=3, d=2, horizon=1, contributors=1)
    with pytest.raises(ValueError, match="count"):
        sample_trajectories(scenario.target, 0, seed=1)
    with pytest.raises(ValueError, match="count"):
        monte_carlo_cost(
            scenario.target, scenario.target, scenario.reward_profile(), 0, 1
        )


# ---------------------------------------------------------------------------
# most likely trajectory
# ---------------------------------------------------------------------------


def test_most_likely_demo_routes(demo):
    for profile, route in (
        ("favor-node-2", (1, 2, 4, 6, 6)),
        ("favor-node-3", (1, 3, 5, 6, 6)),
    ):
        policy = synthesize(demo.target, demo.contributors, demo.rewards[profile])
        best = most_likely_trajectory(policy.agent)
        assert best.states == route


def test_most_likely_is_lexicographically_smallest_on_ties():
    space = StateSpace((0, 1))
    uniform = behavior(space, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    best = most_likely_trajectory(uniform)
    assert best.states == (0, 0, 0)
    assert best.log_prob_policy == pytest.approx(3 * math.log(0.5))


def test_most_likely_prefers_probability_over_index():
    space = StateSpace((0, 1))
    skewed = behavior(space, [0.3, 0.7], [[0.5, 0.5], [0.1, 0.9]])
    best = most_likely_trajectory(skewed)
    # 0.7 * 0.9 beats every path through state 0
    assert best.states == (1, 1)


# ---------------------------------------------------------------------------
# Monte Carlo cost
# ---------------------------------------------------------------------------


def test_point_mass_estimate_is_exact():
    space = StateSpace(("a", "b"))
    step = [[0.0, 1.0], [0.0, 1.0]]
    policy = behavior(space, [1.0, 0.0], step, step)
    rewards = RewardSchedule(space, np.array([[0.0, 1.0], [0.0, 1.0]]))
    result = monte_carlo_cost(policy, policy, rewards, count=100, seed=0)
    assert result.estimate == -2.0
    assert result.stderr == 0.0
    assert result.count == 100


def test_single_sample_has_zero_stderr():
    space = StateSpace(("a", "b"))
    policy = behavior(space, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(space, np.zeros((1, 2)))
    result = monte_carlo_cost(policy, policy, rewards, count=1, seed=5)
    assert result.stderr == 0.0


def test_estimate_matches_exact_cost_within_four_stderr():
    for seed in (17, 18, 19):
        scenario = generate_random_scenario(
            seed=seed, d=3, horizon=3, contributors=2, reward_range=(-1.0, 1.0)
        )
        rewards = scenario.reward_profile()
        policy = synthesize(scenario.target, scenario.contributors, rewards)
        exact = evaluate_cost(policy.agent, scenario.target, rewards).total
        mc = monte_carlo_cost(policy.agent, scenario.target, rewards, 20000, seed=seed)
        assert mc.stderr > 0
        assert abs(mc.estimate - exact) <= 4 * mc.stderr, f"seed={seed}"


def test_dead_trajectory_raises_with_coordinates():
    space = StateSpace(("a", "b"))
    policy = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
    target = behavior(space, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    rewards = RewardSchedule(space, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="target probability 0 at step 1"):
        monte_carlo_cost(policy, target, rewards, count=10, seed=2)


#: The largest reward below the limit.
JUST_BELOW = float(np.nextafter(REWARD_LIMIT, 0.0))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_path_costs_near_the_limit_stay_finite_in_step_order(sign):
    # each path sums a + a - a, or its mirror, from k=1: 0.6 of the limit at
    # most, and four such costs sum to 1.2 of it, below the largest float
    a = sign * 0.3 * REWARD_LIMIT
    single = StateSpace(("x",))
    point = behavior(single, [1.0], [[1.0]], [[1.0]], [[1.0]])
    rewards = RewardSchedule(single, np.array([[a], [a], [-a]]))
    estimate = monte_carlo_cost(point, point, rewards, count=4, seed=0)
    assert estimate == MonteCarloEstimate(-a, 0.0, 4)


def _exact_estimate(policy, rewards, count, seed):
    """Exact (mean, standard error, largest |cost|) of a batch's path costs, policy as its own target.

    Its log ratios are then 0, so each cost is minus the rewards its sampled
    states collect, summed as fractions; only the results are rounded.
    """
    labels = policy.space.labels
    costs = [
        -sum(Fraction(rewards.values[k, labels.index(x)]) for k, x in enumerate(t.states[1:]))
        for t in sample_trajectories(policy, count, seed)
    ]
    mean = sum(costs) / count
    squared = sum((c - mean) ** 2 for c in costs) / (count - 1) / count if count > 1 else 0
    stderr = math.sqrt(float(squared / 2**1024)) * 2.0**512  # squared may pass the largest float
    return float(mean), stderr, float(max(map(abs, costs)))


def assert_exact_estimate(policy, rewards, count, seed):
    """The estimate and standard error equal the exact ones within rounding of the largest cost."""
    got = monte_carlo_cost(policy, policy, rewards, count, seed)
    mean, stderr, peak = _exact_estimate(policy, rewards, count, seed)
    assert got.count == count and math.isfinite(got.estimate) and math.isfinite(got.stderr)
    assert abs(got.estimate - mean) <= 1e-15 * peak and abs(got.stderr - stderr) <= 1e-15 * peak
    return got


@pytest.mark.parametrize("count", [2, 3, 7, 50, 1000])
@pytest.mark.parametrize("reward", [JUST_BELOW, -JUST_BELOW])
def test_a_mean_past_the_largest_float_unscaled_is_answered(reward, count):
    # each path's cost is finite, and so is the sum of two; the sum of three
    # or more, taken for the mean, is not, so the costs are scaled first
    single = StateSpace(("x",))
    point = behavior(single, [1.0], [[1.0]])
    rewards = RewardSchedule(single, np.array([[reward]]))
    got = assert_exact_estimate(point, rewards, count, seed=0)
    if count == 2:  # answered unscaled before; scaling by a power of two keeps these bits
        assert got == MonteCarloEstimate(-reward, 0.0, 2)


def test_a_spread_whose_squares_pass_the_largest_float_is_answered():
    # path costs 0 and -1e160: their squared deviations, about 1e320, are not
    # floats, so the standard error is taken on scaled costs
    space = StateSpace(("a", "b"))
    uniform = behavior(space, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    rewards = RewardSchedule(space, np.array([[0.0, 1e160]]))
    got = assert_exact_estimate(uniform, rewards, 10, seed=0)
    assert got.stderr > 1e159


def test_costs_the_scale_flushes_are_added_back():
    # the paths end in a, b and c: costs -2**500, 2**500 and -1e-300; once
    # scaled by 2**-544 the last is zero and the two others cancel exactly, so
    # the estimate is the mean of the remainders the scale flushed
    space = StateSpace(("a", "b", "c"))
    third = [1 / 3] * 3
    uniform = behavior(space, third, [third] * 3)
    rewards = RewardSchedule(space, np.array([[2.0**500, -(2.0**500), 1e-300]]))
    assert [t.states[1] for t in sample_trajectories(uniform, 3, 32)] == ["a", "b", "c"]
    got = monte_carlo_cost(uniform, uniform, rewards, 3, 32)
    assert got == MonteCarloEstimate(-3.3333333333333334e-301, 1.8898929486316305e150, 3)
    assert got.estimate == _exact_estimate(uniform, rewards, 3, 32)[0]


def test_dead_trajectories_name_the_earliest_step_before_the_lowest_path():
    # a -> b dies at step 1 and a -> a -> b at step 2; at seed 17 paths 0-2
    # die at step 2 and path 3 at step 1, so path 3 is named
    space = StateSpace(("a", "b"))
    policy = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]])
    target = behavior(space, [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    rewards = RewardSchedule(space, np.zeros((2, 2)))
    drawn = [t.states for t in sample_trajectories(policy, 4, seed=17)]
    assert drawn == [("a", "a", "b")] * 3 + [("a", "b", "b")]
    with pytest.raises(ValueError) as err:
        monte_carlo_cost(policy, target, rewards, count=4, seed=17)
    assert str(err.value) == (
        "sampled trajectory ('a', 'b', 'b') has target probability 0 at step 1; "
        "the cost is undefined for this policy/target pair"
    )


@pytest.mark.parametrize("seed, k", [(17, 2), (1, 3)])
def test_paths_near_the_limit_give_the_exact_estimate_over_all_paths(seed, k):
    # each step in b adds 0.3 of the limit to a path's cost, so every path's
    # cost stays finite from whichever step it enters b (the earliest is k - 1;
    # at seed 17 only the last path enters at step 1, at seed 1 none does);
    # the paths' mean and spread, unscaled, would overflow
    space = StateSpace(("a", "b"))
    step = [[0.5, 0.5], [0.0, 1.0]]
    policy = behavior(space, [1.0, 0.0], step, step, step)
    rewards = RewardSchedule(space, np.tile([0.0, -0.3 * REWARD_LIMIT], (3, 1)))
    entered = [t.states.index("b") for t in sample_trajectories(policy, 4, seed) if "b" in t.states]
    assert min(entered) + 1 == k
    assert seed != 17 or entered[-1] < min(entered[:-1])
    assert_exact_estimate(policy, rewards, 4, seed)


@pytest.mark.parametrize("target_zero_share, huge", [(0.0, False), (0.5, False), (0.0, True)])
def test_one_draw_equals_the_two_public_calls(target_zero_share, huge):
    # the CLI's route, the estimate and then the trajectories from the draw the
    # behavior holds, gives what each call gives on a fresh copy: the same
    # trajectories, estimate and first error (a dead path), also with rewards
    # near the limit, whose estimate is taken on scaled path costs
    space = StateSpace(tuple(f"s{i}" for i in range(5)))
    rng = np.random.default_rng(3)
    policy = _random_behavior(space, 4, rng, 0.3)
    target = _random_behavior(space, 4, rng, target_zero_share)
    big = 0.24 * REWARD_LIMIT  # four steps of it stay below the limit
    values = rng.choice([-big, big], size=(4, 5)) if huge else rng.normal(size=(4, 5))
    rewards = RewardSchedule(space, values)
    got = _outcome(monte_carlo_cost, policy, target, rewards, 300, 9)
    if not isinstance(got, str):
        got = (sample_trajectories(policy, 300, 9, target), got)
    want = _outcome(monte_carlo_cost, copy.copy(policy), target, rewards, 300, 9)
    if not isinstance(want, str):
        want = (sample_trajectories(copy.copy(policy), 300, 9, target), want)
    assert got == want


# ---------------------------------------------------------------------------
# the held draw: one draw per (behavior, seed, count), shared by both calls
# ---------------------------------------------------------------------------


def _result(call, *args):
    """What a call gives, to the byte: the repr of its value, or its error's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the error is the result under test
        return type(exc).__name__, str(exc)


def _held_draw_cases():
    """(policy, target, rewards, count, seed): a finite estimate, a dead path, a scaled estimate."""
    space = StateSpace(tuple(f"s{i}" for i in range(5)))
    rng = np.random.default_rng(3)
    policy, target = _random_behavior(space, 4, rng, 0.3), _random_behavior(space, 4, rng, 0.0)
    finite = (policy, target, RewardSchedule(space, rng.normal(size=(4, 5))), 300, 9)
    two = StateSpace(("a", "b"))
    walker = behavior(two, [1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]])
    stayer = behavior(two, [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    dead = (walker, stayer, RewardSchedule(two, np.zeros((2, 2))), 4, 17)
    step = [[0.5, 0.5], [0.0, 1.0]]
    climber = behavior(two, [1.0, 0.0], step, step, step)
    near = RewardSchedule(two, np.tile([0.0, -0.3 * REWARD_LIMIT], (3, 1)))
    scaled = (climber, climber, near, 4, 17)  # unscaled, the estimate over the paths overflows
    return {"finite": finite, "dead": dead, "scaled": scaled}


def _calls(policy, target, rewards, count, seed, order):
    """The results of the named calls, in ``order``: "sample", "estimate" or "route"."""
    calls = {
        "sample": lambda: _result(sample_trajectories, policy, count, seed, target),
        "estimate": lambda: _result(monte_carlo_cost, policy, target, rewards, count, seed),
        "route": lambda: _result(most_likely_trajectory, policy),
    }
    return [calls[name]() for name in order]


def _counting(monkeypatch, name):
    """The list each call of `simulate.<name>` appends its first argument to."""
    calls = []
    function = getattr(simulate, name)
    monkeypatch.setattr(
        simulate, name, lambda first, *rest: calls.append(first) or function(first, *rest)
    )
    return calls


@pytest.mark.parametrize("order", [("sample", "estimate"), ("estimate", "sample")])
@pytest.mark.parametrize("case", ["finite", "dead", "scaled"])
def test_warm_calls_equal_cold_ones_to_the_byte(case, order, monkeypatch):
    policy, target, rewards, count, seed = _held_draw_cases()[case]
    cold = [
        _calls(copy.copy(policy), target, rewards, count, seed, [name])[0] for name in order
    ]
    draws = _counting(monkeypatch, "_sample_paths")
    warm = _calls(policy, target, rewards, count, seed, order)
    again = _calls(policy, target, rewards, count, seed, order)
    assert warm == cold and again == cold
    assert len(draws) == 1
    estimate = cold[order.index("estimate")]
    error = {"finite": None, "dead": "ValueError", "scaled": None}[case]
    assert estimate.startswith("MonteCarloEstimate(") if error is None else estimate[0] == error


def test_another_seed_count_or_behavior_draws_again(monkeypatch):
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    fresh = copy.copy(policy)
    assert fresh == policy and fresh is not policy
    calls = [
        (policy, count, seed, 1),
        (policy, count, seed, 1),  # held
        (policy, count, seed + 1, 2),  # another seed
        (policy, count + 1, seed + 1, 3),  # another count
        (policy, count + 1, seed + 1, 3),  # held
        (fresh, count + 1, seed + 1, 4),  # another behavior with equal values
    ]
    both = ["sample", "estimate"]
    wants = [_calls(copy.copy(policy), target, rewards, n, s, both) for _, n, s, _ in calls]
    draws = _counting(monkeypatch, "_sample_paths")
    for (call_policy, call_count, call_seed, drawn), want in zip(calls, wants):
        got = _calls(call_policy, target, rewards, call_count, call_seed, both)
        assert len(draws) == drawn
        assert got == want


def test_only_plain_int_seeds_and_counts_are_held():
    # (1.0, n) == (1, n) in Python, so a draw keyed on the values alone would
    # answer seed 1.0 or count n.0, which do not draw today, with the held batch
    policy, target, rewards, count, _ = _held_draw_cases()["finite"]
    cold = copy.copy(policy)
    batch = sample_trajectories(cold, count, 1, target)
    sample_trajectories(policy, count, 1, target)
    held = policy._drawn
    assert held[0] == (1, count)
    for seed, call_count in [(1.0, count), (1, float(count))]:
        for call in (
            lambda p: sample_trajectories(p, call_count, seed, target),
            lambda p: monte_carlo_cost(p, target, rewards, call_count, seed),
        ):
            want = _result(call, copy.copy(policy))
            assert want[0] == "TypeError"
            assert _result(call, policy) == want
    for seed in (np.int64(1), True, [1]):
        assert sample_trajectories(policy, count, seed, target) == batch
        assert _result(monte_carlo_cost, policy, target, rewards, count, seed) == _result(
            monte_carlo_cost, cold, target, rewards, count, 1
        )
    assert policy._drawn is held  # nothing else was held


def test_held_arrays_are_read_only():
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    monte_carlo_cost(policy, target, rewards, count, seed)
    key, paths, flat = policy._drawn
    assert key == (seed, count)
    assert paths.shape == (policy.horizon + 1, count) and flat.shape == (policy.horizon, count)
    for arr in (paths, flat):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


def test_pickles_and_copies_start_without_the_held_draw_and_equality_is_unchanged():
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    before = copy.copy(policy)
    sample_trajectories(policy, count, seed, target)
    assert policy._drawn is not None
    assert "_drawn" not in {f.name for f in fields(Behavior)}
    for restored in (
        pickle.loads(pickle.dumps(policy)), copy.copy(policy), copy.deepcopy(policy)
    ):
        assert restored._drawn is None
        assert restored == policy == before
    assert before._drawn is None


def test_threads_sharing_a_behavior_never_mix_a_draw():
    # two threads call both functions on one behavior with alternating seeds; a
    # race may redraw, but each result equals a cold copy's
    policy, target, rewards, count, _ = _held_draw_cases()["finite"]
    count = 50
    seeds = (21, 22)
    want = {
        seed: _calls(copy.copy(policy), target, rewards, count, seed, ["sample", "estimate"])
        for seed in seeds
    }
    start, wrong = threading.Barrier(2), []

    def work(phase):
        start.wait()
        for i in range(200):
            seed = seeds[(i + phase) % 2]
            order = ["sample", "estimate"] if i % 3 else ["estimate", "sample"]
            got = _calls(policy, target, rewards, count, seed, order)
            if got != [want[seed][["sample", "estimate"].index(name)] for name in order]:
                wrong.append((phase, i, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=work, args=(phase,)) for phase in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert policy._drawn[0] in {(seed, count) for seed in seeds}


# ---------------------------------------------------------------------------
# the held sampling tables: log pmf, log kernels and guide tables, built once
# ---------------------------------------------------------------------------


def test_tables_are_built_once_per_behavior_across_all_three_calls(monkeypatch):
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    policy, target = copy.copy(policy), copy.copy(target)
    logs, guides = _counting(monkeypatch, "log_pmf"), _counting(monkeypatch, "_guide_tables")
    for call_seed in (seed, seed, seed + 1):  # held draw, then a new one
        _calls(policy, target, rewards, count, call_seed, ["sample", "estimate", "route"])
        _calls(policy, target, rewards, count, call_seed, ["route", "estimate", "sample"])
    # one log of the initial pmf and one of the stacked kernels per behavior
    assert [arr.shape for arr in logs] == [(5,), (4 * 5 * 5,)] * 2
    # guide tables for the sampled policy alone: the target is never drawn from
    assert len(guides) == 1 and guides[0] is policy
    assert len(policy._sampling) == 6 and len(target._sampling) == 2


def _assert_read_only(tables):
    for arr in tables:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def test_held_tables_are_read_only_and_hold_the_logs_and_cdfs():
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    policy = copy.copy(policy)
    most_likely_trajectory(policy)  # reads the logs alone: no guide tables before a draw
    logs = policy._sampling
    assert [arr.shape for arr in logs] == [(5,), (100,)]
    assert np.array_equal(logs[0], log_pmf(policy.initial.probs))
    assert np.array_equal(logs[1], log_pmf(policy.matrices).ravel())
    _assert_read_only(logs)
    monte_carlo_cost(policy, target, rewards, count, seed)  # the first draw adds the guide
    tables = policy._sampling
    assert tables[0] is logs[0] and tables[1] is logs[1]
    # row 0 is the initial pmf, row 1 + 5k + x step k's row from x; 16 buckets a row
    rows = np.concatenate([policy.initial.probs[None], policy.matrices.reshape(20, 5)])
    positive = rows > 0
    size = int(positive.sum())
    assert [(arr.shape, arr.dtype) for arr in tables[2:]] == [
        ((22,), np.int64), ((size,), np.uint8), ((size,), np.float64), ((21, 16), np.uint8)
    ]
    starts, states, cdfs, guide = tables[2:]
    assert starts.tolist() == [0, *np.cumsum(positive.sum(axis=1)).tolist()]
    assert states.tolist() == np.nonzero(positive)[1].tolist()
    assert cdfs.tolist() == _reference_guarded_cumulative(rows)[positive].tolist()
    want = [
        [int((cdfs[starts[r]:starts[r + 1]] <= b / 16).sum()) for b in range(16)]
        for r in range(21)
    ]
    assert guide.tolist() == want
    _assert_read_only(tables)
    sample_trajectories(policy, count, seed, target)
    sample_trajectories(policy, count, seed + 1, target)
    assert policy._sampling is tables
    assert len(target._sampling) == 2


def test_pickles_and_copies_start_without_the_held_tables():
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    policy = copy.copy(policy)
    monte_carlo_cost(policy, target, rewards, count, seed)
    assert policy._sampling is not None
    assert "_sampling" not in {f.name for f in fields(Behavior)}
    for restored in (
        pickle.loads(pickle.dumps(policy)), copy.copy(policy), copy.deepcopy(policy)
    ):
        assert restored._sampling is None
        assert restored == policy


@pytest.mark.parametrize(
    "order", [("sample", "estimate", "route"), ("route", "estimate", "sample")]
)
@pytest.mark.parametrize("case", ["finite", "dead", "scaled"])
def test_warm_tables_give_a_fresh_copys_bytes(case, order):
    # the tables are warm from another seed's draw, so only they are reused
    policy, target, rewards, count, seed = _held_draw_cases()[case]
    policy, target = copy.copy(policy), copy.copy(target)
    _calls(policy, target, rewards, count, seed + 1, order)
    tables = policy._sampling, target._sampling
    cold = [
        _calls(copy.copy(policy), copy.copy(target), rewards, count, seed, [name])[0]
        for name in order
    ]
    assert _calls(policy, target, rewards, count, seed, order) == cold
    assert policy._sampling is tables[0] and target._sampling is tables[1]


# ---------------------------------------------------------------------------
# the slotted Trajectory, built slot by slot
# ---------------------------------------------------------------------------

LABELS = {"int": (0, 1, 2, 3), "str": ("a", "b", "c", "d"), "mixed": ("a", 1, "b", 2)}


def _init_built(policy, count, seed, target=None):
    """The batch of the held draw, each trajectory built through `Trajectory.__init__`."""
    paths, flat = simulate._draw(policy, count, seed)
    sums = [
        _sum_in_path_order(simulate._path_log_terms(each, paths, flat)).tolist()
        for each in (policy, target)
        if each is not None
    ]
    log_t = sums[1] if target is not None else [None] * count
    labels = policy.space.labels
    return [
        Trajectory(tuple(labels[i] for i in column), p, t)
        for column, p, t in zip(paths.T.tolist(), sums[0], log_t)
    ]


def _field_types(traj):
    return [type(traj.log_prob_policy), type(traj.log_prob_target), *map(type, traj.states)]


@pytest.mark.parametrize("labels", sorted(LABELS))
@pytest.mark.parametrize("count", [1, 1000])
@pytest.mark.parametrize("with_target", [False, True])
def test_the_slot_by_slot_batch_equals_the_init_built_one(labels, count, with_target):
    # the builder skips __init__, which is safe only while nothing runs after it
    assert not hasattr(Trajectory, "__post_init__")
    space = StateSpace(LABELS[labels])
    rng = np.random.default_rng(count)
    policy = _random_behavior(space, 3, rng, 0.3)
    target = _random_behavior(space, 3, rng, 0.3) if with_target else None
    for seed in (0, 7, 2**40):
        batch = sample_trajectories(policy, count, seed, target)
        want = _init_built(policy, count, seed, target)
        assert len(batch) == len(want) == count
        for got, expected in zip(batch, want):
            assert type(got) is Trajectory
            assert got == expected and repr(got) == repr(expected)
            assert _field_types(got) == _field_types(expected)
        assert with_target or all(traj.log_prob_target is None for traj in batch)


def _built_and_twin(with_target):
    """A trajectory from the slot-by-slot builder, and its `__init__`-built twin."""
    policy, target, *_ = _held_draw_cases()["finite"]
    built = sample_trajectories(copy.copy(policy), 5, 3, target if with_target else None)[2]
    return built, Trajectory(built.states, built.log_prob_policy, built.log_prob_target)


@pytest.mark.parametrize("with_target", [False, True])
def test_a_built_trajectory_compares_hashes_and_prints_as_its_twin(with_target):
    built, twin = _built_and_twin(with_target)
    assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
    assert (built.log_prob_target is None) is not with_target
    assert built != Trajectory(built.states, built.log_prob_policy - 1.0, built.log_prob_target)
    assert [f.name for f in fields(Trajectory)] == list(Trajectory.__slots__)


@pytest.mark.parametrize("with_target", [False, True])
def test_a_built_trajectory_round_trips_through_pickle_copy_and_replace(with_target):
    built, twin = _built_and_twin(with_target)
    restored = [pickle.loads(pickle.dumps(built, protocol)) for protocol in range(6)]
    restored += [copy.copy(built), copy.deepcopy(built), dataclasses.replace(built)]
    for each in restored:
        assert type(each) is Trajectory
        assert each == twin and repr(each) == repr(twin) and hash(each) == hash(twin)
    as_dict = dataclasses.asdict(built)
    assert as_dict == {
        "states": twin.states,
        "log_prob_policy": twin.log_prob_policy,
        "log_prob_target": twin.log_prob_target,
    }
    assert Trajectory(**as_dict) == twin
    replaced = dataclasses.replace(built, log_prob_target=0.5)
    assert replaced == Trajectory(twin.states, twin.log_prob_policy, 0.5)


def test_a_built_trajectory_stays_frozen_and_holds_no_dict():
    built, twin = _built_and_twin(True)
    for name in ("states", "log_prob_policy", "log_prob_target"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, name)
    # a name that is no field has no slot either; the frozen check of a slotted
    # dataclass raises TypeError for it on some Python versions (3.11 among them)
    with pytest.raises((AttributeError, TypeError)):
        built.extra = None
    with pytest.raises((AttributeError, TypeError)):
        del built.extra
    assert built == twin
    # the two public differences the slots make
    assert not hasattr(built, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(built)


# ---------------------------------------------------------------------------
# the held most likely path
# ---------------------------------------------------------------------------


def test_a_warm_most_likely_path_is_the_held_object():
    policy, target, rewards, count, seed = _held_draw_cases()["finite"]
    policy = copy.copy(policy)
    best = most_likely_trajectory(policy)
    assert policy._best is best
    _calls(policy, target, rewards, count, seed, ["sample", "estimate"])
    assert most_likely_trajectory(policy) is best
    fresh = most_likely_trajectory(copy.copy(policy))
    assert fresh is not best
    assert fresh == best and repr(fresh) == repr(best)


def test_the_most_likely_path_is_computed_once_per_behavior(monkeypatch):
    policy, *_ = _held_draw_cases()["finite"]
    policy, twin = copy.copy(policy), copy.copy(policy)
    computed = _counting(monkeypatch, "_path_log_terms")
    routes = [most_likely_trajectory(each) for each in (policy, policy, twin, policy, twin)]
    assert computed == [policy, twin]
    assert routes[0] is routes[1] is routes[3] and routes[2] is routes[4]


def test_pickles_and_copies_start_without_the_held_path():
    policy, *_ = _held_draw_cases()["finite"]
    policy = copy.copy(policy)
    best = most_likely_trajectory(policy)
    assert "_best" not in {f.name for f in fields(Behavior)}
    for restored in (
        pickle.loads(pickle.dumps(policy)), copy.copy(policy), copy.deepcopy(policy)
    ):
        assert restored._best is None
        assert restored == policy
        assert most_likely_trajectory(restored) == best


@settings(max_examples=200, deadline=None)
@given(
    count=st.sampled_from([1, 2, 8, 9, 1000]),
    rows=st.integers(1, 25),
    exponent=st.integers(-300, 300),
    spread=st.booleans(),
    minus_inf_share=st.sampled_from([0.0, 0.02, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_sums_equal_a_left_fold_over_the_rows_to_the_bit(
    count, rows, exponent, spread, minus_inf_share, seed
):
    # at count 1 the column is contiguous and an axis-0 `np.sum` adds it
    # pairwise; the fold must add row 0, then row 1, ... as a scalar loop does
    rng = np.random.default_rng(seed)
    if spread:  # magnitudes from 1e-300 to 1e300 in one column
        signs = rng.choice([-1.0, 1.0], (rows, count))
        terms = signs * 10.0 ** rng.uniform(-300, 300, (rows, count))
    else:  # one scale, so that every addition rounds
        terms = rng.normal(size=(rows, count)) * 10.0**exponent
    terms[rng.random(terms.shape) < minus_inf_share] = -np.inf
    want = [functools.reduce(operator.add, column).hex() for column in terms.T.tolist()]
    assert [total.hex() for total in _sum_in_path_order(terms).tolist()] == want


def test_monte_carlo_setup_validation():
    s2 = StateSpace(("a", "b"))
    policy = behavior(s2, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    short = RewardSchedule(s2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="horizon"):
        monte_carlo_cost(policy, policy, short, count=5, seed=0)


# ---------------------------------------------------------------------------
# differential checks against the path-by-path reference
# ---------------------------------------------------------------------------


def _joint_log_prob(behavior, path):
    """Reference: one path's log-probability, one kernel log per step."""
    logs = log_pmf(behavior.initial.probs)[path[0]]
    for idx in range(behavior.horizon):
        logs += log_pmf(behavior.kernels[idx].matrix)[path[idx], path[idx + 1]]
    return float(logs)


def _reference_trajectories(policy, count, seed, target=None):
    """Reference: the per-path loop `sample_trajectories` used to run."""
    paths = _sample_paths(policy, count, np.random.Generator(np.random.Philox(seed)))
    labels = policy.space.labels
    return [
        Trajectory(
            tuple(labels[i] for i in row),
            _joint_log_prob(policy, row),
            _joint_log_prob(target, row) if target is not None else None,
        )
        for row in paths
    ]


def _reference_monte_carlo(policy, target, rewards, count, seed):
    """Reference: the per-step loop `monte_carlo_cost` used to run."""
    paths = _sample_paths(policy, count, np.random.Generator(np.random.Philox(seed)))
    z = np.zeros(count)
    for idx in range(policy.horizon):
        prev, nxt = paths[:, idx], paths[:, idx + 1]
        p_step = policy.kernels[idx].matrix[prev, nxt]
        t_step = target.kernels[idx].matrix[prev, nxt]
        dead = np.flatnonzero(t_step == 0.0)
        if dead.size:
            labels = tuple(policy.space.labels[i] for i in paths[dead[0]])
            raise ValueError(
                f"sampled trajectory {labels} has target probability 0 at step "
                f"{idx + 1}; the cost is undefined for this policy/target pair"
            )
        z += np.log(p_step) - np.log(t_step) - rewards.values[idx][nxt]
    stderr = float(z.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return MonteCarloEstimate(float(z.mean()), stderr, count)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def assert_matches_reference(policy, target, rewards, count, seed):
    assert sample_trajectories(policy, count, seed) == _reference_trajectories(
        policy, count, seed
    )
    assert sample_trajectories(policy, count, seed, target) == _reference_trajectories(
        policy, count, seed, target
    )
    assert _outcome(monte_carlo_cost, policy, target, rewards, count, seed) == _outcome(
        _reference_monte_carlo, policy, target, rewards, count, seed
    )
    best = most_likely_trajectory(policy)
    path = [policy.space.index(s) for s in best.states]
    assert best.log_prob_policy == _joint_log_prob(policy, path)


def _random_rows(rng, shape, zero_share):
    """Random pmf rows; each row keeps its largest entry, others may be zeroed."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    drop = rng.random(rows.shape) < zero_share
    np.put_along_axis(drop, rows.argmax(axis=-1)[..., None], False, axis=-1)
    rows = np.where(drop, 0.0, rows)
    return rows / rows.sum(axis=-1, keepdims=True)


def _random_behavior(space, horizon, rng, zero_share):
    d = space.size
    kernels = _random_rows(rng, (horizon, d, d), zero_share)
    return Behavior(
        StatePMF(space, _random_rows(rng, (d,), zero_share)),
        tuple(TransitionKernel(space, kernel) for kernel in kernels),
    )


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 5),
    horizon=st.integers(1, 5),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    string_labels=st.booleans(),
    target_zero_share=st.sampled_from([0.0, 0.3, 0.7]),
)
def test_sampling_and_monte_carlo_equal_the_reference(
    d, horizon, count, seed, string_labels, target_zero_share
):
    # a sparse target leaves sampled paths off its support (log_prob_target
    # = -inf, and monte_carlo_cost's dead-trajectory error)
    space = StateSpace(tuple(f"s{i}" for i in range(d)) if string_labels else tuple(range(d)))
    rng = np.random.default_rng(seed)
    policy = _random_behavior(space, horizon, rng, 0.3)
    target = _random_behavior(space, horizon, rng, target_zero_share)
    rewards = RewardSchedule(space, rng.normal(size=(horizon, d)))
    assert_matches_reference(policy, target, rewards, count, seed)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    horizon=st.integers(1, 4),
    count=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.one_of(st.integers(0, 479), st.sampled_from([470, 478, 479])),
)
def test_estimates_below_the_scaling_threshold_keep_the_unscaled_bits(
    d, horizon, count, seed, exponent
):
    # every path cost below 2**480 is not scaled: the estimate and standard
    # error are the plain z.mean() and z.std(ddof=1) / sqrt(count) of the
    # reference, to the byte, up to rewards a hair below the threshold
    space = StateSpace(tuple(range(d)))
    rng = np.random.default_rng(seed)
    policy = _random_behavior(space, horizon, rng, 0.3)
    target = _random_behavior(space, horizon, rng, 0.0)
    step = 0.99 * 2.0**exponent / horizon  # the log ratios add far less than the rest
    rewards = RewardSchedule(space, rng.uniform(-step, step, (horizon, d)))
    got = _outcome(monte_carlo_cost, policy, target, rewards, count, seed)
    assert repr(got) == repr(_outcome(_reference_monte_carlo, policy, target, rewards, count, seed))


def _reference_guarded_cumulative(rows):
    """Reference: the CDF `_sample_paths` built per kernel, one (d, d) matrix at a time."""
    rows = np.atleast_2d(rows)
    cums = np.cumsum(rows, axis=1)
    last_positive = rows.shape[1] - 1 - np.argmax((rows > 0)[:, ::-1], axis=1)
    tail = np.arange(rows.shape[1]) >= last_positive[:, None]
    return np.where(tail, 1.0, cums)


def _reference_sample_paths(policy, count, rng):
    """Reference: the sampler that built each step's CDF inside its loop."""
    d, n = policy.space.size, policy.horizon
    paths = np.empty((count, n + 1), dtype=np.int64)
    cum0 = _reference_guarded_cumulative(policy.initial.probs)[0]
    paths[:, 0] = np.minimum(
        np.searchsorted(cum0, rng.random(count), side="right"), d - 1
    )
    for idx in range(n):
        cums = _reference_guarded_cumulative(policy.kernels[idx].matrix)
        u = rng.random(count)
        picked = (u[:, None] >= cums[paths[:, idx]]).sum(axis=1)
        paths[:, idx + 1] = np.minimum(picked, d - 1)
    return paths


class _ScriptedUniforms:
    """Stands in for a Generator: ``random(count)`` deals out the given uniforms in turn, cycling."""

    def __init__(self, values):
        self.values, self.dealt = np.asarray(values, dtype=float), 0

    def random(self, count):
        picked = self.values[(self.dealt + np.arange(count)) % self.values.size]
        self.dealt += count
        return picked


def _uniform_source(seed, scripted):
    if scripted is None:
        return np.random.Generator(np.random.Philox(seed))
    return _ScriptedUniforms(scripted)


#: The largest uniform a Generator can return, just below 1.
LAST_UNIFORM = 1.0 - 2.0**-53


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 6),
    horizon=st.integers(1, 5),
    count=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.4, 0.8]),
    ulps_short=st.integers(0, 4),
    scripted=st.none()
    | st.lists(
        st.sampled_from([0.0, 0.5, LAST_UNIFORM]) | st.floats(0.0, 1.0, exclude_max=True),
        min_size=1,
        max_size=8,
    ),
)
def test_sampled_paths_equal_the_per_step_reference(
    d, horizon, count, seed, zero_share, ulps_short, scripted
):
    # rows scaled a few ulps below a sum of 1 leave CDFs short of 1; scripted
    # uniforms up to LAST_UNIFORM land in that gap, where only the pinned tail
    # keeps the draw off the zero-probability states after a row's last
    # positive entry
    space = StateSpace(tuple(range(d)))
    rng = np.random.default_rng(seed)
    short = 1.0 - ulps_short * np.finfo(float).eps
    kernels = _random_rows(rng, (horizon, d, d), zero_share) * short
    policy = Behavior(
        StatePMF(space, _random_rows(rng, (d,), zero_share) * short),
        tuple(TransitionKernel(space, kernel) for kernel in kernels),
    )
    got = _sample_paths(policy, count, _uniform_source(seed, scripted))
    want = _reference_sample_paths(policy, count, _uniform_source(seed, scripted))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert (policy.initial.probs[got[:, 0]] > 0).all()
    assert (policy.matrices[np.arange(horizon), got[:, :-1], got[:, 1:]] > 0).all()


def _awkward_rows(rng, shape):
    """Random pmf rows; every third row runs above 1.0 before its last positive entry,
    and every third, starting at the second, holds 5e-324 entries (its last zero
    included, so a denormal can be the last positive entry)."""
    rows = _random_rows(rng, shape, 0.5).reshape(-1, shape[-1])
    for row in rows[0::3]:
        row[:] = 0.0
        row[np.sort(rng.choice(row.size, 3, replace=False))] = [0.6, 0.4 + 4e-10, 1e-12]
    for row in rows[1::3]:
        row[np.flatnonzero(row == 0.0)[::-2]] = 5e-324
    return rows.reshape(shape)


@pytest.mark.parametrize("d", [16, 20, 64])
@pytest.mark.parametrize(
    "scripted",
    [None, [0.0, 0.3, 0.6, np.nextafter(0.6, 0.0), 0.9999999996, 1.0 - 1e-12, LAST_UNIFORM]],
)
def test_sampled_paths_equal_the_per_step_reference_at_workload_scale(d, scripted):
    # [0.6, 0.4 + 4e-10, 1e-12] sums within PROB_TOL of 1, but its CDF reads
    # 1.0000000004 before the pinned tail: the draws stay equal only because the
    # entries <= u still form a prefix of every row
    space = StateSpace(tuple(range(d)))
    rng = np.random.default_rng(d)
    horizon, count = 4, 2000
    policy = Behavior(
        StatePMF(space, _awkward_rows(rng, (1, d))[0]),
        tuple(TransitionKernel(space, kernel) for kernel in _awkward_rows(rng, (horizon, d, d))),
    )
    got = _sample_paths(policy, count, _uniform_source(d, scripted))
    want = _reference_sample_paths(policy, count, _uniform_source(d, scripted))
    assert got.shape == (count, horizon + 1)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert (policy.initial.probs[got[:, 0]] > 0).all()
    assert (policy.matrices[np.arange(horizon), got[:, :-1], got[:, 1:]] > 0).all()


def _buckets(d):
    """M, the guide's buckets a row at state count d: the power of two in (2d, 4d]."""
    return 2 << d.bit_length()


def _tiled(d, horizon, row):
    """A behavior whose initial pmf and every kernel row is ``row``."""
    space = StateSpace(tuple(range(d)))
    kernel = np.tile(np.asarray(row, dtype=float), (d, 1))
    return Behavior(
        StatePMF(space, np.asarray(row, dtype=float)),
        tuple(TransitionKernel(space, kernel) for _ in range(horizon)),
    )


def _crowded(d, front):
    """A row of the ``front`` entries, then one entry holding the rest, then zeros."""
    row = np.zeros(d)
    row[: len(front)] = front
    row[len(front)] = 1.0 - sum(front)
    return row


def _edges(d):
    """Each bucket's lower edge b/M at state count d, the float just below it, and LAST_UNIFORM."""
    bounds = [b / _buckets(d) for b in range(_buckets(d))]
    return bounds + [float(np.nextafter(b, 0.0)) for b in bounds] + [LAST_UNIFORM]


def _guide_cases():
    """(policy, uniforms): rows and uniforms at each edge of the guide draw."""
    rng = np.random.default_rng(26)
    tiny = _crowded(64, [1e-7] * 60)  # 60 entries in bucket 0, then the large one
    halves = _crowded(64, [0.5] + [1e-9] * 60)  # 60 entries in the bucket above 0.5
    deep = [u for k in range(62) for u in (k * 1e-7, float(np.nextafter(k * 1e-7, 0.0)))]
    beside = [0.5 + k * 1e-9 for k in range(-2, 62)] + [float(np.nextafter(0.5, 0.0))]
    one_hot = np.eye(7)[rng.permutation(7)]  # one positive entry in every row: an all-zero guide
    mixed = _random_rows(rng, (3, 7, 7), 0.5)
    mixed[:, ::2] = np.eye(7)[::2]  # every other row has one positive entry, the rest several
    space7 = StateSpace(tuple(range(7)))
    return {
        "bucket edges d=5": (_random_behavior(StateSpace(tuple(range(5))), 3, rng, 0.3), _edges(5)),
        "bucket edges d=20": (
            _random_behavior(StateSpace(tuple(range(20))), 3, rng, 0.3), _edges(20)
        ),
        "60 tiny, then one large": (_tiled(64, 3, tiny), deep + _edges(64)),
        "0.5, 60 tiny, then the rest": (_tiled(64, 3, halves), beside + _edges(64)),
        "one positive entry a row": (
            Behavior(
                StatePMF(space7, one_hot[0]),
                tuple(TransitionKernel(space7, one_hot) for _ in range(3)),
            ),
            _edges(7),
        ),
        "one-entry and many-entry rows": (
            Behavior(
                StatePMF(space7, np.eye(7)[3]),
                tuple(TransitionKernel(space7, kernel) for kernel in mixed),
            ),
            _edges(7),
        ),
        "d=1": (_tiled(1, 4, [1.0]), _edges(1)),
        "d=256": (_random_behavior(StateSpace(tuple(range(256))), 2, rng, 0.5), _edges(256)),
    }


@pytest.mark.parametrize("case", sorted(_guide_cases()))
@pytest.mark.parametrize("source", ["edges", "philox"])
def test_guide_draws_equal_the_per_step_reference(case, source):
    # each scripted uniform lands on a bucket's lower edge b/M, just below it,
    # at LAST_UNIFORM, or deep in a crowded bucket, where the draw outruns its
    # two looks and counts the whole row
    policy, uniforms = _guide_cases()[case]
    count = 3 * len(uniforms) + 1  # each step deals every uniform, to other paths each time
    scripted = uniforms if source == "edges" else None
    got = _sample_paths(policy, count, _uniform_source(26, scripted))
    want = _reference_sample_paths(policy, count, _uniform_source(26, scripted))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    horizon = policy.horizon
    assert (policy.initial.probs[got[:, 0]] > 0).all()
    assert (policy.matrices[np.arange(horizon), got[:, :-1], got[:, 1:]] > 0).all()


def test_reference_edge_cases():
    single = StateSpace(("only",))
    point = behavior(single, [1.0], [[1.0]])
    assert_matches_reference(point, point, RewardSchedule(single, [[2.5]]), 1, 0)
    assert sample_trajectories(point, 1, 0) == [Trajectory(("only", "only"), 0.0)]

    space = StateSpace(("s", "t"))
    policy = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    target = behavior(space, [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    rewards = RewardSchedule(space, np.zeros((1, 2)))
    assert_matches_reference(policy, target, rewards, 200, 4)
    with pytest.raises(ValueError) as err:
        monte_carlo_cost(policy, target, rewards, 200, 4)
    assert str(err.value) == (
        "sampled trajectory ('s', 't') has target probability 0 at step 1; "
        "the cost is undefined for this policy/target pair"
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_trajectory_csv_golden(tmp_path):
    space = StateSpace(("a", "b"))
    policy = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
    target = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    with_target = sample_trajectories(policy, 1, seed=0, target=target)
    without = sample_trajectories(policy, 1, seed=0)
    path = tmp_path / "t.csv"
    write_trajectories_csv(with_target + without, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trajectory,x_0,x_1,log_prob_policy,log_prob_target"
    assert lines[1] == f"0,a,b,0.0,{math.log(0.5)!r}"
    assert lines[2] == "1,a,b,0.0,"


def test_trajectory_csv_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_trajectories_csv([], tmp_path / "x.csv")
    space = StateSpace(("a", "b"))
    policy = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
    one = sample_trajectories(policy, 1, seed=0)
    two_steps = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    other = sample_trajectories(two_steps, 1, seed=0)
    with pytest.raises(ValueError, match="inconsistent lengths"):
        write_trajectories_csv(one + other, tmp_path / "x.csv")


def test_rejected_trajectory_batch_leaves_the_previous_file_untouched(tmp_path):
    # the batch is checked before the file is opened, and written by rename
    space = StateSpace(("a", "b"))
    policy = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
    two_steps = behavior(space, [1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    path = tmp_path / "t.csv"
    write_trajectories_csv(sample_trajectories(policy, 3, seed=1), path)
    before = path.read_bytes()
    mixed = sample_trajectories(policy, 1, seed=0) + sample_trajectories(two_steps, 1, seed=0)
    with pytest.raises(ValueError, match="inconsistent lengths"):
        write_trajectories_csv(mixed, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
