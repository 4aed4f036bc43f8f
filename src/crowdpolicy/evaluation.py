"""Exact cost evaluation and independent oracles.

`evaluate_cost` computes the tracking cost of any agent behavior against a
target by forward marginal propagation. The remaining functions are
deliberately separate evidence routes used to check the synthesizer:
brute-force trajectory enumeration, exhaustive or dynamic-programming search
over pure contributor schedules, and a grid search over per-step mixture
weights. The oracles refuse oversized instances instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OracleGuardError, ValidationError
from .model import (
    Behavior,
    RewardSchedule,
    StatePMF,
    WeightVector,
    kl_rows,
    log_pmf,
)
from .synthesis import ContributorSet, _check_compatible

#: An agent policy is structurally just a behavior.
AgentPolicy = Behavior

#: Largest trajectory/schedule count the exhaustive oracles accept.
ORACLE_LIMIT = 10**6


@dataclass(frozen=True)
class CostBreakdown:
    """Tracking cost split into divergence and reward parts.

    ``total = kl_part - reward_part`` by construction; ``per_step`` holds one
    (kl, reward) pair per step k = 1..N.
    """

    total: float
    kl_part: float
    reward_part: float
    per_step: tuple[tuple[float, float], ...]


def _masked_dot(mu: np.ndarray, values: np.ndarray) -> float:
    """Expectation that treats 0 * inf as 0: unreachable states cost nothing."""
    active = mu > 0
    if np.any(np.isinf(values[active])):
        return math.inf
    return float(mu[active] @ values[active])


def _check_setup(policy: Behavior, target: Behavior, rewards: RewardSchedule) -> None:
    if policy.space != target.space or rewards.space != target.space:
        raise ValueError("policy, target, and rewards must share one state space")
    if policy.horizon != target.horizon or rewards.horizon != target.horizon:
        raise ValueError("policy, target, and rewards must share one horizon")


def evaluate_cost(
    policy: AgentPolicy, target: Behavior, rewards: RewardSchedule
) -> CostBreakdown:
    """Exact tracking cost of a policy: step-wise KL to the target minus reward.

    Args:
        policy: the behavior to evaluate; its own initial pmf seeds the
            forward marginals (transition factors alone enter the divergence,
            so a policy sharing the target's initial pmf is costed over
            exactly the controllable part).
        target: the reference behavior.
        rewards: per-step reward vectors.

    Returns:
        CostBreakdown whose kl_part may be ``+inf`` when a reachable row
        breaks absolute continuity.

    Raises:
        ValidationError: if the expected rewards, summed over the steps,
            overflow; the first such step is named.
    """
    _check_setup(policy, target, rewards)
    kl = kl_rows(policy.matrices, target.matrices)
    mu = policy.initial.probs
    per_step: list[tuple[float, float]] = []
    kl_part = 0.0
    reward_part = 0.0
    for idx, rows in enumerate(policy.matrices):
        kl_k = _masked_dot(mu, kl[idx])
        reward_k = float(mu @ (rows @ rewards.values[idx]))
        per_step.append((kl_k, reward_k))
        kl_part += kl_k
        reward_part += reward_k
        if not math.isfinite(reward_part):  # the steps' rewards, summed forward, overflowed
            raise ValidationError(
                f"rewards overflow the expected reward at k={idx + 1}; "
                "keep their sum below 1.8e308"
            )
        mu = mu @ rows
    return CostBreakdown(kl_part - reward_part, kl_part, reward_part, tuple(per_step))


def trajectory_enumeration_cost(
    policy: AgentPolicy, target: Behavior, rewards: RewardSchedule
) -> CostBreakdown:
    """Brute-force cost by summing over every trajectory the policy can produce.

    Walks all state sequences x_0..x_N with positive policy probability and
    accumulates, per step, probability times log transition ratio and
    probability times reward. The initial factor is shared between policy and
    target by convention and never enters the divergence. Kept free of
    marginal propagation on purpose so it can serve as an independent check
    of `evaluate_cost`.

    Raises:
        OracleGuardError: when d**N exceeds ``ORACLE_LIMIT``.
    """
    _check_setup(policy, target, rewards)
    d, n = policy.space.size, policy.horizon
    if d**n > ORACLE_LIMIT:
        raise OracleGuardError(
            f"refusing enumeration: {d}**{n} trajectories exceed {ORACLE_LIMIT}"
        )
    pol_logs = log_pmf(policy.matrices)
    tgt_logs = log_pmf(target.matrices)
    kl_steps = np.zeros(n)
    reward_steps = np.zeros(n)

    def visit(idx: int, prev: int, prob: float, ratios: list[float], rews: list[float]) -> None:
        if idx == n:
            for k in range(n):
                kl_steps[k] += prob * ratios[k]
                reward_steps[k] += prob * rews[k]
            return
        row = policy.matrices[idx, prev]
        for nxt in range(d):
            if row[nxt] == 0.0:
                continue
            # a target-zero factor makes this step's divergence +inf but the
            # trajectory still happens and still collects reward
            ratios.append(pol_logs[idx, prev, nxt] - tgt_logs[idx, prev, nxt])
            rews.append(rewards.values[idx, nxt])
            visit(idx + 1, nxt, prob * row[nxt], ratios, rews)
            ratios.pop()
            rews.pop()

    for x0 in range(d):
        p0 = policy.initial.probs[x0]
        if p0 > 0:
            visit(0, x0, float(p0), [], [])

    per_step = tuple(
        (float(kl_steps[k]), float(reward_steps[k])) for k in range(n)
    )
    kl_part = float(kl_steps.sum())
    reward_part = float(reward_steps.sum())
    return CostBreakdown(kl_part - reward_part, kl_part, reward_part, per_step)


def logsum_bound_check(
    weights: WeightVector,
    components: Sequence[StatePMF],
    target_row: StatePMF,
) -> tuple[float, float]:
    """Return (KL of the mixture, weighted sum of component KLs).

    The first value never exceeds the second; both are returned unasserted so
    callers and tests can inspect the gap.
    """
    if len(components) != weights.weights.size:
        raise ValueError("one weight per component required")
    space = target_row.space
    for comp in components:
        if comp.space != space:
            raise ValueError("components and target row must share one state space")
    mix = np.zeros(space.size)
    rhs = 0.0
    for w, comp in zip(weights.weights, components):
        mix = mix + w * comp.probs
        if w > 0:
            part = float(kl_rows(comp.probs, target_row.probs))
            rhs = rhs + w * part if math.isfinite(part) else math.inf
    lhs = float(kl_rows(mix, target_row.probs))
    return lhs, rhs


def _step_cost_table(
    target: Behavior, contributors: ContributorSet, rewards: RewardSchedule
) -> np.ndarray:
    """costs[i, k-1, x] = KL(contributor row || target row) - expected reward."""
    s, n, d = contributors.size, target.horizon, target.space.size
    costs = np.empty((s, n, d))
    for i in range(s):
        for idx in range(n):
            rows = contributors.matrices[i, idx]
            costs[i, idx] = kl_rows(rows, target.matrices[idx]) - rows @ rewards.values[idx]
    return costs


@dataclass(frozen=True)
class ScheduleResult:
    """Best pure contributor schedule found and its exact cost.

    ``schedule`` is a tuple of contributor indices per step in per-time mode,
    or an (N, d) integer array indexed by (step, conditioning state) in
    per-time-and-state mode.
    """

    mode: str
    schedule: tuple[int, ...] | np.ndarray
    cost: float


def pure_schedule_oracle(
    target: Behavior,
    contributors: ContributorSet,
    rewards: RewardSchedule,
    mode: str = "per-time-and-state",
) -> ScheduleResult:
    """Optimal cost over schedules that commit to one contributor at a time.

    Modes:
        "per-time": one contributor per step, shared by all states; all S**N
            schedules are costed exactly and exhaustively (guarded by
            ``ORACLE_LIMIT``). Ties go to the lexicographically smallest
            schedule.
        "per-time-and-state": one contributor per (step, conditioning state).
            Selections decouple, so an exact min-cost-to-go dynamic program
            over (k, state) finds the optimum without enumeration; ties go to
            the lowest contributor index.
    """
    _check_compatible(target, contributors, rewards)
    s, n, d = contributors.size, target.horizon, target.space.size
    if mode == "per-time":
        if s**n > ORACLE_LIMIT:
            raise OracleGuardError(
                f"refusing schedule search: {s}**{n} schedules exceed {ORACLE_LIMIT}"
            )
        costs = _step_cost_table(target, contributors, rewards)
        mu0 = target.initial.probs
        best: tuple[int, ...] | None = None
        best_cost = math.inf
        for schedule in itertools.product(range(s), repeat=n):
            mu = mu0
            cost = 0.0
            for idx, i in enumerate(schedule):
                cost += _masked_dot(mu, costs[i, idx])
                if cost == math.inf:
                    break
                mu = mu @ contributors.matrices[i, idx]
            if cost < best_cost:
                best_cost = cost
                best = schedule
        if best is None:  # every schedule infinite
            best = tuple(0 for _ in range(n))
        return ScheduleResult("per-time", best, best_cost)
    if mode == "per-time-and-state":
        costs = _step_cost_table(target, contributors, rewards)
        to_go = np.zeros(d)
        schedule = np.empty((n, d), dtype=int)
        for idx in range(n - 1, -1, -1):
            cand = np.empty((s, d))
            for i in range(s):
                rows = contributors.matrices[i, idx]
                carried = np.array([_masked_dot(rows[x], to_go) for x in range(d)])
                cand[i] = costs[i, idx] + carried
            schedule[idx] = np.argmin(cand, axis=0)  # first minimizer wins ties
            to_go = cand.min(axis=0)
        value = _masked_dot(target.initial.probs, to_go)
        schedule.setflags(write=False)
        return ScheduleResult("per-time-and-state", schedule, value)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class GridSearchResult:
    """Best per-step mixture weights found on the simplex grid and their cost."""

    weights: np.ndarray  # shape (N, S)
    cost: float


def _simplex_grid(size: int, resolution: int) -> list[np.ndarray]:
    """All weight vectors with entries that are multiples of 1/resolution."""
    points: list[np.ndarray] = []
    for counts in itertools.product(range(resolution + 1), repeat=size - 1):
        rest = resolution - sum(counts)
        if rest >= 0:
            points.append(np.array(counts + (rest,), dtype=float) / resolution)
    return points


def simplex_grid_oracle(
    target: Behavior,
    contributors: ContributorSet,
    rewards: RewardSchedule,
    grid_resolution: int,
) -> GridSearchResult:
    """Exhaustive search over per-step, state-independent mixture weights.

    Each step k is assigned one weight vector from the simplex grid with the
    given resolution; all states share it, and the agent's kernel at k is the
    weighted mixture of contributor kernels. Every assignment is costed
    exactly with `evaluate_cost` semantics. At resolution 1 the grid contains
    only vertices, so the search space coincides with the per-time pure
    schedule oracle. Intended for gap analysis on tiny instances; no
    relationship to the synthesized cost is asserted.

    Raises:
        OracleGuardError: unless S <= 3, N <= 3, d <= 4, resolution >= 1, and
            the total number of grid assignments stays within ``ORACLE_LIMIT``.
    """
    _check_compatible(target, contributors, rewards)
    s, n, d = contributors.size, target.horizon, target.space.size
    if grid_resolution < 1:
        raise OracleGuardError("grid resolution must be a positive integer")
    if s > 3 or n > 3 or d > 4:
        raise OracleGuardError(
            f"refusing grid search on S={s}, N={n}, d={d}; limits are S<=3, N<=3, d<=4"
        )
    points = _simplex_grid(s, grid_resolution)
    if len(points) ** n > ORACLE_LIMIT:
        raise OracleGuardError(
            f"refusing grid search: {len(points)}**{n} assignments exceed {ORACLE_LIMIT}"
        )
    mu0 = target.initial.probs
    best_cost = math.inf
    best: tuple[np.ndarray, ...] | None = None
    for assignment in itertools.product(points, repeat=n):
        mu = mu0
        cost = 0.0
        for idx, w in enumerate(assignment):
            mixed = np.tensordot(w, contributors.matrices[:, idx], axes=1)
            step = kl_rows(mixed, target.matrices[idx]) - mixed @ rewards.values[idx]
            cost += _masked_dot(mu, step)
            if cost == math.inf:
                break
            mu = mu @ mixed
        if cost < best_cost:
            best_cost = cost
            best = assignment
    assert best is not None
    weights = np.stack(best)
    weights.setflags(write=False)
    return GridSearchResult(weights, best_cost)


__all__ = [
    "AgentPolicy",
    "ORACLE_LIMIT",
    "CostBreakdown",
    "ScheduleResult",
    "GridSearchResult",
    "evaluate_cost",
    "trajectory_enumeration_cost",
    "logsum_bound_check",
    "pure_schedule_oracle",
    "simplex_grid_oracle",
]
