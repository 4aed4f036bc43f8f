"""Sampling, most-likely routes, and Monte Carlo estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpolicy.errors import ValidationError
from crowdpolicy.evaluation import evaluate_cost
from crowdpolicy.model import (
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


def test_target_must_share_the_policy_space_and_horizon():
    space = StateSpace(("s", "t"))
    policy = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    other_space = behavior(StateSpace(("s", "u")), [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    longer = behavior(space, [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    for target in (other_space, longer):
        with pytest.raises(ValueError) as err:
            sample_trajectories(policy, 5, seed=0, target=target)
        assert str(err.value) == "target must share the policy's state space and horizon"


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


def test_reward_overflow_is_a_validation_error_naming_the_step():
    # every reward is finite, but each path's running sum passes 1.8e308 at k=2
    single = StateSpace(("x",))
    point = behavior(single, [1.0], [[1.0]], [[1.0]], [[1.0]])
    rewards = RewardSchedule(single, np.array([[1e308], [1e308], [-1e308]]))
    with pytest.raises(ValidationError, match="sampled cost at k=2"):
        monte_carlo_cost(point, point, rewards, count=3, seed=0)


@pytest.mark.parametrize("reward", [1e308, -1e308])
def test_overflowing_mean_of_finite_path_costs_is_a_validation_error(reward):
    # each path's cost is finite; their sum, taken for the mean, is not
    single = StateSpace(("x",))
    point = behavior(single, [1.0], [[1.0]])
    rewards = RewardSchedule(single, np.array([[reward]]))
    with pytest.raises(ValidationError) as err:
        monte_carlo_cost(point, point, rewards, count=2, seed=0)
    assert str(err.value) == (
        "rewards overflow the estimate over 2 sampled paths; keep their sum below 1.8e308"
    )


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
