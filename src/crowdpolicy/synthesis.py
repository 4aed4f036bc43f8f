"""Policy synthesis by divergence-guided contributor switching.

Given a target Markov behavior, a pool of contributor transition kernels, and
a reward schedule, `synthesize` builds the agent behavior that minimizes a
tight upper bound on

    KL(agent trajectory law || target trajectory law)  -  expected reward.

The construction works backward in time. At the final step each contributor
is scored, per conditioning state, by its row's KL divergence from the target
row minus the expected reward its row collects. Minimizing a linear score
over simplex weights always lands on a vertex, so the best single contributor
is selected outright (one array argmin per step; ties go to the lowest
index). The negated selected score is then carried one step back as a
value-to-go bonus added to the raw reward, and the procedure repeats. The
result is a per-(step, state) switch between contributors; the agent's row
is the selected contributor's row verbatim. The KL part of the scores is
tabulated once per call, and that one table feeds both the filter and the
recursion.
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
    _kernel_views,
    _set,
    kl_rows,
)


@dataclass(frozen=True, eq=False)
class ContributorSet:
    """A pool of contributor kernels sharing one state space and horizon.

    Contributors supply transition kernels only; the initial pmf always comes
    from the target behavior. The kernels are stored once, as the read-only
    ``(S, N, d, d)`` array ``matrices``; ``kernels[i][k-1]`` is a view of
    ``matrices[i, k-1]``.
    """

    space: StateSpace
    kernels: tuple[tuple[TransitionKernel, ...], ...]
    ids: tuple[str, ...]
    matrices: np.ndarray = field(init=False, repr=False)

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
        self._hold(np.array([[kernel.matrix for kernel in per_k] for per_k in kernels]), self.ids)

    @classmethod
    def _of(cls, space: StateSpace, matrices: np.ndarray, ids: tuple[str, ...]) -> "ContributorSet":
        """A pool that takes over ``matrices``, an (S, N, d, d) stack of validated kernels."""
        return _set(object.__new__(cls), space=space)._hold(matrices, ids)

    def _hold(self, matrices: np.ndarray, ids: tuple[str, ...]) -> "ContributorSet":
        ids = tuple(ids)
        if len(ids) != len(matrices):
            raise ValueError("one id per contributor required")
        if len(set(ids)) != len(ids):
            raise ValueError("contributor ids must be unique")
        matrices.setflags(write=False)
        views = tuple(_kernel_views(self.space, per_k) for per_k in matrices)
        return _set(self, kernels=views, ids=ids, matrices=matrices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContributorSet):
            return NotImplemented
        return (
            self.space == other.space
            and self.ids == other.ids
            and np.array_equal(self.matrices, other.matrices)
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
        """The contributors at ``indices``, in that order, in a read-only stack of their own."""
        if len(indices) == 0:
            raise ValueError("contributor set must not be empty")
        matrices = np.take(self.matrices, indices, axis=0)
        return ContributorSet._of(self.space, matrices, tuple(self.ids[i] for i in indices))


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
    retained, report = _filter(contributors, _kl_table(target, contributors))
    return contributors.subset(retained), report


def _kl_table(target: Behavior, contributors: ContributorSet) -> np.ndarray:
    """kl[i, k-1, x] = KL(contributor i's row x at step k || target row), one step at a time."""
    kl = np.empty((contributors.size, target.horizon, target.space.size))
    for idx, target_rows in enumerate(target.matrices):
        rows = contributors.matrices[:, idx]
        kl[:, idx] = kl_rows(rows, np.broadcast_to(target_rows, rows.shape))
    return kl


def _filter(contributors: ContributorSet, kl: np.ndarray) -> tuple[list[int], FilterReport]:
    """Retained indices and report of `filter_contributors`, read off the KL table."""
    violations = np.isinf(kl).reshape(contributors.size, -1)  # step-then-state order
    excluded = violations.any(axis=1)
    retained = np.flatnonzero(~excluded).tolist()
    if not retained:
        raise InfeasibleError(
            "no admissible contributor: every contributor places mass where the target has none"
        )
    steps, states = np.divmod(violations.argmax(axis=1), contributors.space.size)
    exclusions = tuple(
        Exclusion(contributors.ids[i], int(steps[i]) + 1, contributors.space.label(int(states[i])))
        for i in np.flatnonzero(excluded)
    )
    return retained, FilterReport(tuple(contributors.ids[i] for i in retained), exclusions)


def _check_compatible(
    target: Behavior, contributors: ContributorSet, rewards: RewardSchedule | None = None
) -> None:
    """Raise ValueError unless the pool, and the rewards when given, match the target's shape."""
    for name, part in (("contributor", contributors), ("reward", rewards)):
        if part is None:
            continue
        if part.space != target.space:
            raise ValueError(f"{name}s and target use different state spaces")
        if part.horizon != target.horizon:
            raise ValueError(f"{name} horizon {part.horizon} != target horizon {target.horizon}")


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
    _check_compatible(target, contributors, rewards)

    kl = _kl_table(target, contributors)
    report: FilterReport | None = None
    ids, keep = contributors.ids, slice(None)  # keep: retained contributors, read step by step
    if prefilter:
        retained, report = _filter(contributors, kl)
        if len(retained) < contributors.size:
            ids, keep, kl = report.retained_ids, retained, kl[retained]

    n, d, s = target.horizon, target.space.size, len(ids)
    scores = np.empty((n, d, s))
    selected = np.empty((n, d), dtype=int)
    r_hat = np.empty((n, d))
    r_bar = np.empty((n, d))
    agent_rows = np.empty((n, d, d))

    value_to_go = np.zeros(d)  # r_hat at the step being processed; zero at k = N
    for idx in range(n - 1, -1, -1):
        r_hat[idx] = value_to_go
        r_bar[idx] = rewards.values[idx] + value_to_go
        rows = contributors.matrices[keep, idx]  # (s, d, d)
        expected = rows @ r_bar[idx]
        if not np.all(np.isfinite(expected)):  # KL is finite or +inf, so only rewards overflow
            raise ValidationError(
                f"rewards overflow the value-to-go at k={idx + 1}; keep their sum below 1.8e308"
            )
        scores[idx] = (kl[:, idx] - expected).T
        dead = np.isinf(scores[idx]).all(axis=1)
        if dead.any():
            raise InfeasibleError(
                f"every contributor score is +inf at k={idx + 1}, "
                f"state={target.space.label(int(dead.argmax()))!r}"
            )
        selected[idx] = scores[idx].argmin(axis=1)  # first minimizer: ties to the lowest index
        agent_rows[idx] = rows[selected[idx], np.arange(d)]
        value_to_go = -scores[idx].min(axis=1)

    weights = np.eye(s)[selected]  # one-hot: the minimum of a linear score is at a vertex
    agent = Behavior._of(target.initial, agent_rows)  # rows copied from validated kernels
    for arr in (scores, selected, weights, r_hat, r_bar):
        arr.setflags(write=False)
    return SynthesizedPolicy(
        space=target.space,
        contributor_ids=ids,
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
    sel = np.take_along_axis(policy.scores, policy.selected[..., None], axis=2)[..., 0]
    mu = target.initial.probs
    total = 0.0
    for idx, kernel in enumerate(policy.agent.matrices):
        one_step = sel[idx] + kernel @ policy.r_hat[idx]
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
