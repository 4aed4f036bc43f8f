"""Trajectory sampling, most-likely routes, and Monte Carlo cost estimates.

All randomness flows from NumPy's Philox4x64 counter-based generator seeded
with the caller's integer seed, the same contract `generate_random_scenario`
uses, so identical seeds reproduce identical batches on any platform. Batches
are sampled with one uniform draw per trajectory per step via inverse CDF:
each draw takes the first entry of its guarded CDF row above the uniform.

A batch is held step-major, one (N + 1, count) index array, with one flat
index (N, count) of every path's step in a raveled (N, d, d) kernel stack.
A behavior holds its log and guarded-CDF tables, built on first use, and its
last draw for a plain-int (seed, count), both read-only: `sample_trajectories`
and `monte_carlo_cost` with that seed and count share one draw. Log factors
are one `take` of the held logs through the flat index, summed row by row in
path order, so each total equals the scalar chain-rule sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import _reward_overflow
from .model import Behavior, Label, RewardSchedule, _check_compatible, _set, log_pmf
from .scenario import _atomic_write_text, _csv_text


@dataclass(frozen=True)
class Trajectory:
    """One sampled (or extremal) state sequence x_0..x_N with its log-probabilities.

    ``log_prob_policy`` is the full joint log-probability under the sampling
    behavior, initial factor included. ``log_prob_target`` is the same under
    the target when one was supplied (``-inf`` if the target cannot produce
    the sequence), else None.
    """

    states: tuple[Label, ...]
    log_prob_policy: float
    log_prob_target: float | None = None


def _guarded_cumulative(rows: np.ndarray) -> np.ndarray:
    """CDF along the last axis, with the tail pinned to 1 at each row's last positive entry.

    Pinning keeps inverse-CDF lookups from ever landing on a zero-probability
    state when floating-point row sums fall a hair short of 1.
    """
    cums = np.cumsum(rows, axis=-1)
    last_positive = rows.shape[-1] - 1 - np.argmax((rows > 0)[..., ::-1], axis=-1)
    cums[np.arange(rows.shape[-1]) >= last_positive[..., None]] = 1.0
    return cums


def _tables(behavior: Behavior) -> tuple[np.ndarray, ...]:
    """The behavior's held (log pmf, raveled log kernels, pmf CDF, kernel CDFs); built once."""
    if behavior._sampling is None:  # one assignment: threads racing here build equal tables
        pmf, kernels = behavior.initial.probs, behavior.matrices
        logs = log_pmf(pmf), log_pmf(kernels.ravel())
        _set(behavior, _sampling=(*logs, _guarded_cumulative(pmf), _guarded_cumulative(kernels)))
    return behavior._sampling


def _sample_paths(policy: Behavior, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` i.i.d. index paths of shape (count, N+1).

    The paths are filled step-major, one contiguous (N + 1, count) array read
    back through its transpose. Each draw picks the first entry of its guarded
    CDF row above the uniform: the entries ``<= u`` form a prefix, since a row
    never decreases before its last positive entry (even where rounding takes
    it above 1) and is pinned to 1.0 > u from there on.
    """
    n = policy.horizon
    paths = np.empty((n + 1, count), dtype=np.int64)
    cum0, cums = _tables(policy)[2:]
    paths[0] = np.searchsorted(cum0, rng.random(count), side="right")
    for idx in range(n):
        u = rng.random(count)
        paths[idx + 1] = (np.take(cums[idx], paths[idx], axis=0) > u[:, None]).argmax(axis=1)
    return paths.T


def _draw(policy: Behavior, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One seed's step-major paths, (N + 1, count), and `_flat_steps` index; held read-only."""
    if count < 1:
        raise ValueError("count must be >= 1")
    key = (seed, count) if type(seed) is int and type(count) is int else None
    held = policy._drawn
    if held is not None and held[0] == key:
        return held[1], held[2]
    paths = _sample_paths(policy, count, np.random.Generator(np.random.Philox(seed))).T
    flat = _flat_steps(paths, policy.space.size)
    if key is not None:
        _set(policy, _drawn=(key, paths, flat))  # one assignment: safe across threads
    return paths, flat


def _flat_steps(paths: np.ndarray, d: int) -> np.ndarray:
    """(N, count): ``(k*d + x_k)*d + x_{k+1}``, path i's step k in a raveled (N, d, d) stack."""
    steps = np.arange(paths.shape[0] - 1)[:, None]
    return (steps * d + paths[:-1]) * d + paths[1:]


def _path_log_terms(behavior: Behavior, paths: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Log factors of step-major paths, (N + 1, count): initial, then per step; -inf: impossible."""
    log_initial, log_steps = _tables(behavior)[:2]
    terms = np.empty(paths.shape)
    terms[0] = log_initial.take(paths[0])
    log_steps.take(flat, out=terms[1:], mode="clip")  # unbuffered; flat is always in range
    return terms


def _sum_in_path_order(terms: np.ndarray) -> np.ndarray:
    """Column sums, one row added at a time from the top (`np.sum` adds pairwise, moving bits)."""
    return functools.reduce(np.add, terms)


def sample_trajectories(
    policy: Behavior,
    count: int,
    seed: int,
    target: Behavior | None = None,
) -> list[Trajectory]:
    """Draw i.i.d. trajectories from a behavior.

    Args:
        policy: behavior to sample.
        count: number of trajectories, >= 1.
        seed: Philox seed; same seed, same batch.
        target: optional reference behavior; when given, each trajectory also
            carries its log-probability under it.

    Returns:
        Trajectories in draw order.
    """
    if target is not None:
        _check_compatible(target, policy=policy)
    paths, flat = _draw(policy, count, seed)
    behaviors = (policy,) if target is None else (policy, target)
    sums = (_sum_in_path_order(_path_log_terms(each, paths, flat)).tolist() for each in behaviors)
    states = zip(*np.array(policy.space.labels, dtype=object)[paths].tolist())  # one tuple per path
    return list(map(Trajectory, states, *sums))  # log_prob_target: None without a target


def most_likely_trajectory(policy: Behavior) -> Trajectory:
    """Highest-probability trajectory of a behavior.

    Max-product dynamic programming in log space: a backward pass computes
    the best achievable log-probability-to-go from every state, then a
    forward greedy walk picks, at each step, the smallest state index that
    attains the optimum. Among all maximum-probability trajectories this
    returns the lexicographically smallest in state-index order.
    """
    d, n = policy.space.size, policy.horizon
    log_initial, log_steps = _tables(policy)[:2]
    log_kernels = log_steps.reshape(n, d, d)
    best = np.zeros((n + 1, d))  # best[k, x]: optimal log-prob of steps k+1..N from state x
    for idx in range(n - 1, -1, -1):
        best[idx] = (log_kernels[idx] + best[idx + 1]).max(axis=1)

    path = np.empty(n + 1, dtype=np.int64)
    path[0] = np.argmax(log_initial + best[0])
    for idx in range(n):
        path[idx + 1] = np.argmax(log_kernels[idx][path[idx]] + best[idx + 1])
    states = tuple(policy.space.labels[i] for i in path)
    column = path[:, None]
    log_prob = _sum_in_path_order(_path_log_terms(policy, column, _flat_steps(column, d)))[0]
    return Trajectory(states, float(log_prob))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean cost estimate with its standard error."""

    estimate: float
    stderr: float
    count: int


@np.errstate(over="ignore", invalid="ignore")  # an overflowed cost is reported below
def monte_carlo_cost(
    policy: Behavior,
    target: Behavior,
    rewards: RewardSchedule,
    count: int,
    seed: int,
) -> MonteCarloEstimate:
    """Estimate the tracking cost by sampling trajectories from the policy.

    Each sampled trajectory contributes the sum over steps of the log ratio
    of policy to target transition probabilities minus the rewards collected;
    the initial factor is excluded, matching `evaluate_cost`. The estimate is
    the sample mean; the standard error uses the unbiased sample variance.

    Raises:
        ValueError: if a sampled trajectory has target probability zero (the
            cost integrand is undefined there); the offending trajectory is
            named.
        ValidationError: if a sampled trajectory's rewards, summed over the
            steps, overflow (the first such step is named), or if the sampled
            costs overflow their mean or standard error; the path count is named.
    """
    _check_compatible(target, policy=policy, rewards=rewards)
    paths, flat = _draw(policy, count, seed)
    log_p, log_t = (_path_log_terms(each, paths, flat)[1:] for each in (policy, target))
    count = paths.shape[1]
    dead = np.isneginf(log_t)
    if dead.any():
        idx = int(np.argmax(dead.any(axis=1)))  # earliest step, then lowest path
        labels = tuple(rewards.space.labels[i] for i in paths[:, np.argmax(dead[idx])])
        raise ValueError(
            f"sampled trajectory {labels} has target probability 0 at step "
            f"{idx + 1}; the cost is undefined for this policy/target pair"
        )
    collected = rewards.values[np.arange(rewards.horizon)[:, None], paths[1:]]
    costs = np.subtract(log_p, log_t, out=log_p)  # in place: the terms are this call's own
    costs -= collected
    z = _sum_in_path_order(costs)
    estimate = float(z.mean())
    stderr = float(z.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    if not (math.isfinite(estimate) and math.isfinite(stderr)):  # a cost or their sum overflowed
        steps = ~np.isfinite(np.cumsum(costs, axis=0)).all(axis=1)  # non-finite once overflowed
        k = int(np.argmax(steps)) + 1
        where = f"sampled cost at k={k}" if steps.any() else f"estimate over {count} sampled paths"
        raise _reward_overflow(where)
    return MonteCarloEstimate(estimate, stderr, count)


#: Column layout of `write_trajectories_csv`.
TRAJECTORY_CSV_COLUMNS = ("trajectory", "x_k...", "log_prob_policy", "log_prob_target")


def write_trajectories_csv(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    """Write trajectories as CSV: index, one state column per step, log-probs.

    Columns: ``trajectory`` (0-based draw index), ``x_0`` .. ``x_N`` (state
    labels), ``log_prob_policy``, ``log_prob_target`` (blank when unknown).
    Floats use shortest round-trip formatting. The whole batch is checked
    and rendered before ``path`` is touched, then written atomically, so a
    rejected batch leaves an existing file as it was.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("nothing to write: empty trajectory list")
    n = len(trajectories[0].states) - 1
    if any(len(traj.states) != n + 1 for traj in trajectories):
        raise ValueError("trajectories have inconsistent lengths")
    header = ["trajectory", *(f"x_{k}" for k in range(n + 1)),
              "log_prob_policy", "log_prob_target"]
    rows = (
        [
            i,
            *(str(s) for s in traj.states),
            repr(traj.log_prob_policy),
            "" if traj.log_prob_target is None else repr(traj.log_prob_target),
        ]
        for i, traj in enumerate(trajectories)
    )
    _atomic_write_text(path, _csv_text(header, rows))


__all__ = [
    "Trajectory",
    "MonteCarloEstimate",
    "TRAJECTORY_CSV_COLUMNS",
    "sample_trajectories",
    "most_likely_trajectory",
    "monte_carlo_cost",
    "write_trajectories_csv",
]
