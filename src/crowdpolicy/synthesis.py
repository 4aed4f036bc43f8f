"""Policy synthesis by divergence-guided contributor switching.

Given a target Markov behavior, a pool of contributor transition kernels, and
a reward schedule, `synthesize` builds the agent behavior that minimizes a
tight upper bound on

    KL(agent trajectory law || target trajectory law)  -  expected reward.

The construction works backward in time. At the final step each contributor
is scored, per conditioning state, by its row's KL divergence from the target
row minus the expected reward its row collects. Minimizing a linear score
over simplex weights always lands on a vertex, so the best single contributor
is selected outright. The negated selected score is then carried one step
back as a value-to-go bonus added to the raw reward, and the procedure
repeats. The result is a per-(step, state) switch between contributors; the
agent's row is the selected contributor's row verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ValidationError
from .model import (
    Behavior,
    RewardSchedule,
    StateSpace,
    TransitionKernel,
    WeightVector,
    kl_rows,
    simplex_argmin,
)


@dataclass(frozen=True, eq=False)
class ContributorSet:
    """A pool of contributor kernels sharing one state space and horizon.

    Contributors supply transition kernels only; the initial pmf always comes
    from the target behavior.
    """

    space: StateSpace
    kernels: tuple[tuple[TransitionKernel, ...], ...]
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        kernels = tuple(tuple(per_k) for per_k in self.kernels)
        if len(kernels) == 0:
            raise ValueError("contributor set must not be empty")
        horizon = len(kernels[0])
        if horizon == 0:
            raise ValueError("contributors must cover at least one step")
        for i, per_k in enumerate(kernels):
            if len(per_k) != horizon:
                raise ValueError(f"contributor {i} has horizon {len(per_k)}, expected {horizon}")
            for kernel in per_k:
                if kernel.space != self.space:
                    raise ValueError(f"contributor {i} uses a different state space")
        ids = tuple(self.ids)
        if len(ids) != len(kernels):
            raise ValueError("one id per contributor required")
        if len(set(ids)) != len(ids):
            raise ValueError("contributor ids must be unique")
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "ids", ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContributorSet):
            return NotImplemented
        return (
            self.space == other.space
            and self.ids == other.ids
            and self.kernels == other.kernels
        )

    @property
    def size(self) -> int:
        return len(self.kernels)

    @property
    def horizon(self) -> int:
        return len(self.kernels[0])

    def kernel(self, contributor: int, k: int) -> TransitionKernel:
        """Kernel of a contributor at step k (1-based)."""
        return self.kernels[contributor][k - 1]

    def subset(self, indices: list[int]) -> "ContributorSet":
        return ContributorSet(
            self.space,
            tuple(self.kernels[i] for i in indices),
            tuple(self.ids[i] for i in indices),
        )


@dataclass(frozen=True)
class Exclusion:
    """First (k, state) at which a contributor's row has infinite KL to the target."""

    contributor_id: str
    k: int
    state: object


@dataclass(frozen=True)
class FilterReport:
    retained_ids: tuple[str, ...]
    exclusions: tuple[Exclusion, ...]


def filter_contributors(
    target: Behavior, contributors: ContributorSet
) -> tuple[ContributorSet, FilterReport]:
    """Drop contributors whose kernels are not absolutely continuous w.r.t. the target.

    A contributor is admissible only if every one of its rows, at every step
    and conditioning state, has finite KL divergence to the matching target
    row. Each excluded contributor is reported with the first violating
    (k, state) pair.

    Raises:
        InfeasibleError: if no contributor survives.
    """
    _check_compatible(target, contributors)
    retained: list[int] = []
    exclusions: list[Exclusion] = []
    for i in range(contributors.size):
        violation = _first_violation(target, contributors, i)
        if violation is None:
            retained.append(i)
        else:
            k, x = violation
            exclusions.append(
                Exclusion(contributors.ids[i], k, target.space.label(x))
            )
    if not retained:
        raise InfeasibleError(
            "no admissible contributor: every contributor places mass where the target has none"
        )
    report = FilterReport(
        tuple(contributors.ids[i] for i in retained), tuple(exclusions)
    )
    return contributors.subset(retained), report


def _first_violation(
    target: Behavior, contributors: ContributorSet, i: int
) -> tuple[int, int] | None:
    for k in range(1, target.horizon + 1):
        rows = contributors.kernel(i, k).matrix
        kls = kl_rows(rows, target.kernels[k - 1].matrix)
        bad = np.flatnonzero(np.isinf(kls))
        if bad.size:
            return k, int(bad[0])
    return None


def _check_compatible(target: Behavior, contributors: ContributorSet) -> None:
    if contributors.space != target.space:
        raise ValueError("contributors and target use different state spaces")
    if contributors.horizon != target.horizon:
        raise ValueError(
            f"contributor horizon {contributors.horizon} != target horizon {target.horizon}"
        )


@dataclass(frozen=True, eq=False)
class SynthesizedPolicy:
    """Output of `synthesize`.

    Arrays are indexed ``[k-1, state, contributor]`` (or without the trailing
    axis where it does not apply); ``contributor`` indexes `contributor_ids`,
    the retained pool in order.

    Attributes:
        scores: per-(k, state) score of each contributor, reward-to-go folded in.
        selected: index of the chosen contributor per (k, state).
        weights: one-hot simplex weights per (k, state); always a vertex.
        agent: the synthesized behavior (target initial pmf, switched kernels).
        r_hat: value-to-go bonus per step, ``r_hat[N-1]`` identically zero.
        r_bar: reward plus bonus actually scored at each step.
        filter_report: admissibility report when filtering ran, else None.
    """

    space: StateSpace
    contributor_ids: tuple[str, ...]
    scores: np.ndarray
    selected: np.ndarray
    weights: np.ndarray
    agent: Behavior
    r_hat: np.ndarray
    r_bar: np.ndarray
    filter_report: FilterReport | None = field(default=None)

    @property
    def horizon(self) -> int:
        return int(self.scores.shape[0])

    def weight_vector(self, k: int, state: int) -> WeightVector:
        """Simplex weights at step k (1-based) for conditioning state index."""
        return WeightVector(self.weights[k - 1, state])

    def selected_id(self, k: int, state: int) -> str:
        return self.contributor_ids[int(self.selected[k - 1, state])]

    def selection_table(self) -> list[list[str]]:
        """Selected contributor id per step (rows) and conditioning state (columns)."""
        return [
            [self.contributor_ids[int(i)] for i in self.selected[k]]
            for k in range(self.horizon)
        ]


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported per step below
def synthesize(
    target: Behavior,
    contributors: ContributorSet,
    rewards: RewardSchedule,
    *,
    prefilter: bool = True,
) -> SynthesizedPolicy:
    """Build the switched agent behavior for a target, contributor pool, and rewards.

    Runs the backward recursion described in the module docstring. By default
    inadmissible contributors are filtered out first; pass ``prefilter=False``
    to score the pool as given (scores may then be +inf, and a (k, state)
    where every score is +inf raises ``InfeasibleError`` naming it).

    Args:
        target: behavior to track; also supplies the agent's initial pmf.
        contributors: pool of candidate kernels.
        rewards: one reward vector per step, same horizon as the target.

    Returns:
        A `SynthesizedPolicy` carrying the agent behavior, the full score
        table, selections, one-hot weights, and the recursion's value terms.
    """
    _check_compatible(target, contributors)
    if rewards.space != target.space:
        raise ValueError("rewards and target use different state spaces")
    if rewards.horizon != target.horizon:
        raise ValueError(
            f"reward horizon {rewards.horizon} != target horizon {target.horizon}"
        )

    report: FilterReport | None = None
    if prefilter:
        contributors, report = filter_contributors(target, contributors)

    n, d, s = target.horizon, target.space.size, contributors.size
    scores = np.empty((n, d, s))
    selected = np.empty((n, d), dtype=int)
    weights = np.zeros((n, d, s))
    r_hat = np.empty((n, d))
    r_bar = np.empty((n, d))
    agent_rows = np.empty((n, d, d))

    value_to_go = np.zeros(d)  # r_hat at the step being processed; zero at k = N
    for k in range(n, 0, -1):
        idx = k - 1
        r_hat[idx] = value_to_go
        r_bar[idx] = rewards.values[idx] + value_to_go
        target_rows = target.kernels[idx].matrix
        for i in range(s):
            rows = contributors.kernel(i, k).matrix
            scores[idx, :, i] = kl_rows(rows, target_rows) - rows @ r_bar[idx]
        if prefilter and not np.all(np.isfinite(scores[idx])):  # finite unless rewards overflow
            raise ValidationError(
                f"rewards overflow the value-to-go at k={k}; keep their sum below 1.8e308"
            )
        for x in range(d):
            state_scores = scores[idx, x]
            if np.all(np.isinf(state_scores)):
                raise InfeasibleError(
                    f"every contributor score is +inf at k={k}, "
                    f"state={target.space.label(x)!r}"
                )
            choice = simplex_argmin(state_scores)
            selected[idx, x] = choice.index
            weights[idx, x] = choice.weights.weights
            agent_rows[idx, x] = contributors.kernel(choice.index, k).matrix[x]
        value_to_go = -scores[idx].min(axis=1)

    agent = Behavior(
        target.initial,
        tuple(TransitionKernel(target.space, agent_rows[idx]) for idx in range(n)),
    )
    for arr in (scores, selected, weights, r_hat, r_bar):
        arr.setflags(write=False)
    return SynthesizedPolicy(
        space=target.space,
        contributor_ids=contributors.ids,
        scores=scores,
        selected=selected,
        weights=weights,
        agent=agent,
        r_hat=r_hat,
        r_bar=r_bar,
        filter_report=report,
    )


def bound_value(policy: SynthesizedPolicy, target: Behavior) -> float:
    """Upper bound on the agent's tracking cost, tight for vertex weights.

    Propagates the agent's state marginals forward from the target's initial
    pmf and accumulates, per step, the selected contributor's one-step score:
    the stored score with the value-to-go bonus added back, leaving KL minus
    expected raw reward. Because every stored weight vector is a vertex the
    per-row log-sum inequality is an equality and the returned value matches
    the exact cost of the synthesized behavior.
    """
    if policy.space != target.space:
        raise ValueError("policy and target use different state spaces")
    if policy.horizon != target.horizon:
        raise ValueError("policy and target horizons differ")
    mu = target.initial.probs
    total = 0.0
    for idx in range(policy.horizon):
        kernel = policy.agent.kernels[idx].matrix
        sel = np.take_along_axis(
            policy.scores[idx], policy.selected[idx][:, None], axis=1
        )[:, 0]
        one_step = sel + kernel @ policy.r_hat[idx]
        total += float(mu @ one_step)
        if not np.isfinite(total):  # the steps' costs, summed forward, overflowed
            raise ValidationError(
                f"rewards overflow the bound value at k={idx + 1}; keep their sum below 1.8e308"
            )
        mu = mu @ kernel
    return total


__all__ = [
    "ContributorSet",
    "Exclusion",
    "FilterReport",
    "SynthesizedPolicy",
    "filter_contributors",
    "synthesize",
    "bound_value",
]
