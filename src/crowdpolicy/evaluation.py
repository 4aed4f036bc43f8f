"""Exact cost evaluation and independent oracles.

`evaluate_cost` computes the tracking cost of any agent behavior against a target
from one forward pass over the state marginals `model._mu` holds, which `bound_value`
and the CLI's ``marginals.csv`` read too: each step's KL and reward part is one
row-wise product over them, the KL rows `_held` for that target. The remaining
functions are deliberately separate evidence routes used to check the synthesizer:
brute-force trajectory enumeration, exhaustive or dynamic-programming search over pure
contributor schedules, and a grid search over per-step mixture weights. The oracles
refuse oversized instances instead of grinding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OracleGuardError
from .model import (
    Behavior,
    RewardSchedule,
    StatePMF,
    WeightVector,
    _check_compatible,
    _FrozenValue,
    _held,
    _mu,
    kl_rows,
    log_pmf,
)
from .synthesis import ContributorSet

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


def evaluate_cost(
    policy: AgentPolicy, target: Behavior, rewards: RewardSchedule
) -> CostBreakdown:
    """Exact tracking cost of a policy: step-wise KL to the target minus reward.

    Args:
        policy: the behavior to evaluate; its own initial pmf seeds the
            forward marginals (transition factors alone enter the divergence,
            so a policy sharing the target's initial pmf is costed over
            exactly the controllable part). Its KL rows are held for the very
            target object given, not a copy; a synthesized agent brings them.
        target: the reference behavior.
        rewards: per-step reward vectors.

    Returns:
        CostBreakdown whose kl_part may be ``+inf`` when a reachable row
        breaks absolute continuity.
    """
    _check_compatible(target, policy=policy, rewards=rewards)
    mu = _mu(policy)[:-1]  # the pmf each step leaves, held on the policy
    kl = _held(policy, "_kl", (target,), lambda: kl_rows(policy.matrices, target.matrices))
    kl_steps = np.vecdot(mu, np.where(mu > 0, kl, 0.0))  # unreachable states cost nothing
    reward_steps = np.vecdot(mu, np.matmul(policy.matrices, rewards.values[..., None])[..., 0])
    kl_part, reward_part = float(np.cumsum(kl_steps)[-1]), float(np.cumsum(reward_steps)[-1])
    per_step = tuple(zip(kl_steps.tolist(), reward_steps.tolist()))
    return CostBreakdown(kl_part - reward_part, kl_part, reward_part, per_step)


def trajectory_enumeration_cost(
    policy: AgentPolicy, target: Behavior, rewards: RewardSchedule
) -> CostBreakdown:
    """Brute-force cost by summing over every trajectory the policy can produce.

    Walks all state sequences x_0..x_N with positive policy probability and
    accumulates step k's log transition ratio and reward as it reaches x_k,
    each weighed by the probability of the prefix x_0..x_k, as the marginals
    of `evaluate_cost` weigh it. The initial factor is shared between policy
    and target by convention and never enters the divergence. Kept free of
    marginal propagation on purpose so it can serve as an independent check
    of `evaluate_cost`.

    Raises:
        OracleGuardError: when d**N exceeds ``ORACLE_LIMIT``.
    """
    _check_compatible(target, policy=policy, rewards=rewards)
    d, n = policy.space.size, policy.horizon
    if d**n > ORACLE_LIMIT:
        raise OracleGuardError(
            f"refusing enumeration: {d}**{n} trajectories exceed {ORACLE_LIMIT}"
        )
    pol_logs = log_pmf(policy.matrices)
    tgt_logs = log_pmf(target.matrices)
    kl_steps = np.zeros(n)
    reward_steps = np.zeros(n)

    def visit(idx: int, prev: int, prob: float) -> None:
        row = policy.matrices[idx, prev]
        for nxt in np.flatnonzero(row):
            # a target-zero factor makes this step's divergence +inf but the
            # trajectory still happens and still collects reward; the positive
            # prefix times the factor's own term never makes 0 * inf
            ratio = pol_logs[idx, prev, nxt] - tgt_logs[idx, prev, nxt]
            kl_steps[idx] += prob * (row[nxt] * ratio)
            reward_steps[idx] += prob * (row[nxt] * rewards.values[idx, nxt])
            if idx + 1 < n and prob * row[nxt] > 0.0:  # an underflowed prefix is not extended
                visit(idx + 1, nxt, prob * row[nxt])

    for x0 in np.flatnonzero(policy.initial.probs):
        visit(0, x0, float(policy.initial.probs[x0]))

    per_step = tuple(zip(kl_steps.tolist(), reward_steps.tolist()))
    kl_part = float(kl_steps.sum())
    reward_part = float(np.cumsum(reward_steps)[-1])  # summed forward, as evaluate_cost does
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
    if any(comp.space != space for comp in components):
        raise ValueError("components and target row must share one state space")
    mix = np.zeros(space.size)
    rhs = 0.0
    for w, comp in zip(weights.weights.tolist(), components):  # plain floats: a float rhs
        mix = mix + w * comp.probs
        if w > 0:
            part = float(kl_rows(comp.probs, target_row.probs))
            rhs = rhs + w * part if math.isfinite(part) else math.inf
    lhs = float(kl_rows(mix, target_row.probs))
    return lhs, rhs


def _step_costs(rows: np.ndarray, target_rows: np.ndarray, step_rewards: np.ndarray) -> np.ndarray:
    """KL(row || target row) - expected reward, per row of one step."""
    return kl_rows(rows, np.broadcast_to(target_rows, rows.shape)) - rows @ step_rewards


def _step_cost_table(
    target: Behavior, contributors: ContributorSet, rewards: RewardSchedule
) -> np.ndarray:
    """costs[i, k-1, x] = KL(contributor row || target row) - expected reward.

    Computed here from the kernels, never read from the pool's held KL table,
    so the oracles stay independent of the synthesizer. One ``(S, d, d)``
    step at a time: a whole-pool ``kl_rows`` call would hold temporaries the
    size of the pool.
    """
    steps = zip(contributors.matrices.swapaxes(0, 1), target.matrices, rewards.values)
    return np.stack([_step_costs(*step) for step in steps], axis=1)


def _cheapest(target: Behavior, choices: Sequence, step: Callable) -> tuple[tuple, float]:
    """Cheapest assignment of one choice per step, each costed exactly and forward.

    ``step(idx, choice)`` returns the choice's kernel and per-state cost at step
    ``idx + 1``. Ties, and a search where every cost is ``+inf``, go to the
    earliest assignment.
    """
    best: tuple = ()
    best_cost = math.inf
    for assignment in itertools.product(choices, repeat=target.horizon):
        mu = target.initial.probs
        cost = 0.0
        for idx, choice in enumerate(assignment):
            kernel, step_cost = step(idx, choice)
            cost += _masked_dot(mu, step_cost)
            if cost == math.inf:  # a reachable row the target cannot produce
                break
            mu = mu @ kernel
        if not best or cost < best_cost:  # the first assignment, then each strict minimum
            best, best_cost = assignment, cost
    return best, best_cost


@dataclass(frozen=True, eq=False)
class ScheduleResult(_FrozenValue):
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
    _check_compatible(target, contributors=contributors, rewards=rewards)
    s, n, d = contributors.size, target.horizon, target.space.size
    if mode not in ("per-time", "per-time-and-state"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "per-time" and s**n > ORACLE_LIMIT:
        raise OracleGuardError(
            f"refusing schedule search: {s}**{n} schedules exceed {ORACLE_LIMIT}"
        )
    costs = _step_cost_table(target, contributors, rewards)
    if mode == "per-time":
        best, best_cost = _cheapest(
            target, range(s), lambda idx, i: (contributors.matrices[i, idx], costs[i, idx])
        )
        return ScheduleResult("per-time", best, best_cost)
    to_go = np.zeros(d)
    schedule = np.empty((n, d), dtype=int)
    for idx in range(n - 1, -1, -1):
        pool = contributors.matrices[:, idx]  # (s, d, d)
        dead = np.isinf(to_go)  # states from which no schedule is feasible
        cand = costs[:, idx] + np.vecdot(pool, np.where(dead, 0.0, to_go))
        cand[np.isinf(costs[:, idx]) | (pool > 0) @ dead] = np.inf  # infeasible rows, dead ends
        schedule[idx] = np.argmin(cand, axis=0)  # first minimizer wins ties
        to_go = cand.min(axis=0)
    value = _masked_dot(target.initial.probs, to_go)
    schedule.setflags(write=False)
    return ScheduleResult("per-time-and-state", schedule, value)


@dataclass(frozen=True, eq=False)
class GridSearchResult(_FrozenValue):
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
    _check_compatible(target, contributors=contributors, rewards=rewards)
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

    def step(idx: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mixed = np.tensordot(w, contributors.matrices[:, idx], axes=1)
        return mixed, _step_costs(mixed, target.matrices[idx], rewards.values[idx])

    best, best_cost = _cheapest(target, points, step)
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
