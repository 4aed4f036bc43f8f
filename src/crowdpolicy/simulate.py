"""Trajectory sampling, most-likely routes, and Monte Carlo cost estimates.

All randomness flows from NumPy's Philox4x64 counter-based generator seeded
with the caller's integer seed, the same contract `generate_random_scenario`
uses, so identical seeds reproduce identical batches on any platform. Batches
are sampled with one uniform draw per trajectory per step via inverse CDF.

Log-probabilities come from one gathered (count, N + 1) table of log factors
(`log_pmf` runs once per behavior, on its kernel array), summed step by
step in path order, so each total equals the scalar chain-rule sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .evaluation import _check_setup
from .model import Behavior, Label, RewardSchedule, log_pmf
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


def _sample_paths(policy: Behavior, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` i.i.d. index paths of shape (count, N+1)."""
    d, n = policy.space.size, policy.horizon
    paths = np.empty((count, n + 1), dtype=np.int64)
    cum0 = _guarded_cumulative(policy.initial.probs)
    cums = _guarded_cumulative(policy.matrices)
    paths[:, 0] = np.minimum(
        np.searchsorted(cum0, rng.random(count), side="right"), d - 1
    )
    for idx in range(n):
        u = rng.random(count)
        picked = (u[:, None] >= cums[idx, paths[:, idx]]).sum(axis=1)
        paths[:, idx + 1] = np.minimum(picked, d - 1)
    return paths


def _path_log_terms(behavior: Behavior, paths: np.ndarray) -> np.ndarray:
    """Log factors of each path, (count, N + 1): initial, then one per step (-inf: impossible)."""
    log_kernels = log_pmf(behavior.matrices)
    steps = np.arange(behavior.horizon)
    initial = log_pmf(behavior.initial.probs)[paths[:, :1]]
    return np.hstack([initial, log_kernels[steps, paths[:, :-1], paths[:, 1:]]])


def _sum_in_path_order(terms: np.ndarray) -> np.ndarray:
    """Row sums added left to right (`np.sum` adds pairwise, which moves the last bits)."""
    return np.cumsum(terms, axis=1)[:, -1]


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
    if count < 1:
        raise ValueError("count must be >= 1")
    if target is not None and (
        target.space != policy.space or target.horizon != policy.horizon
    ):
        raise ValueError("target must share the policy's state space and horizon")
    rng = np.random.Generator(np.random.Philox(seed))
    paths = _sample_paths(policy, count, rng)
    log_policy = _sum_in_path_order(_path_log_terms(policy, paths)).tolist()
    log_target = [None] * count
    if target is not None:
        log_target = _sum_in_path_order(_path_log_terms(target, paths)).tolist()
    labels = policy.space.labels
    # a path holds at least two states, so itemgetter returns a tuple
    return [
        Trajectory(itemgetter(*row)(labels), lp, lt)
        for row, lp, lt in zip(paths.tolist(), log_policy, log_target)
    ]


def most_likely_trajectory(policy: Behavior) -> Trajectory:
    """Highest-probability trajectory of a behavior.

    Max-product dynamic programming in log space: a backward pass computes
    the best achievable log-probability-to-go from every state, then a
    forward greedy walk picks, at each step, the smallest state index that
    attains the optimum. Among all maximum-probability trajectories this
    returns the lexicographically smallest in state-index order.
    """
    d, n = policy.space.size, policy.horizon
    log_kernels = log_pmf(policy.matrices)
    best = np.zeros((n + 1, d))  # best[k, x]: optimal log-prob of steps k+1..N from state x
    for idx in range(n - 1, -1, -1):
        best[idx] = (log_kernels[idx] + best[idx + 1]).max(axis=1)

    path = np.empty(n + 1, dtype=np.int64)
    start_scores = log_pmf(policy.initial.probs) + best[0]
    path[0] = int(np.argmax(start_scores))
    for idx in range(n):
        step_scores = log_kernels[idx][path[idx]] + best[idx + 1]
        path[idx + 1] = int(np.argmax(step_scores))
    states = tuple(policy.space.labels[i] for i in path)
    log_prob = _sum_in_path_order(_path_log_terms(policy, path[None, :]))[0]
    return Trajectory(states, float(log_prob))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean cost estimate with its standard error."""

    estimate: float
    stderr: float
    count: int


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
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_setup(policy, target, rewards)
    rng = np.random.Generator(np.random.Philox(seed))
    paths = _sample_paths(policy, count, rng)
    log_p = _path_log_terms(policy, paths)[:, 1:]
    log_t = _path_log_terms(target, paths)[:, 1:]
    dead = np.isneginf(log_t)
    if dead.any():
        idx = int(np.argmax(dead.any(axis=0)))  # earliest step, then lowest path
        labels = tuple(policy.space.labels[i] for i in paths[np.argmax(dead[:, idx])])
        raise ValueError(
            f"sampled trajectory {labels} has target probability 0 at step "
            f"{idx + 1}; the cost is undefined for this policy/target pair"
        )
    collected = rewards.values[np.arange(policy.horizon), paths[:, 1:]]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        running = np.cumsum(log_p - log_t - collected, axis=1)  # as _sum_in_path_order
        z = running[:, -1]
        estimate = float(z.mean())
        stderr = float(z.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    if not (math.isfinite(estimate) and math.isfinite(stderr)):  # a cost or their sum overflowed
        steps = ~np.isfinite(running).all(axis=0)  # sums stay non-finite once they overflow
        k = int(np.argmax(steps)) + 1
        where = f"sampled cost at k={k}" if steps.any() else f"estimate over {count} sampled paths"
        raise ValidationError(f"rewards overflow the {where}; keep their sum below 1.8e308")
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
