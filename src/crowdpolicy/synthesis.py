"""Policy synthesis by divergence-guided contributor switching.

Given a target Markov behavior, a pool of contributor transition kernels, and
a reward schedule, `synthesize` builds the agent behavior that minimizes a
tight upper bound on

    KL(agent trajectory law || target trajectory law)  -  expected reward.

The construction works backward in time. At the final step each contributor
is scored, per conditioning state, by its row's KL divergence from the target
row minus the expected reward its row collects. Minimizing a linear score
over simplex weights always lands on a vertex, so the best single contributor
is selected outright (ties go to the lowest index). The negated best score is
carried one step back as a value-to-go bonus added to the raw reward, and the
procedure repeats over the whole pool. A row scores +inf where its KL is +inf
or where it puts mass on a state dead at the next step, a (k, state) where
every row scores +inf. Dead states depend only on the KL table's +inf pattern
and the pool's support; when the filter report shows a violation, the pass
finds them step by step as it scores, whatever the rewards. Only a dead state
the initial pmf puts mass on makes the problem infeasible; the agent never
reaches the others, which keep a zero bonus and take the lowest index.

Per step, the backward pass does one product of the pool's rows with reward plus bonus,
one subtraction from the KL table, into buffers that hold every step, and one bare
`np.minimum.reduce`; the reward schedule's bound keeps them finite, and only a pool with an
exclusion masks dead states. After it, one argmin selects, and one flat row index gathers
each selected row verbatim into the agent's switched kernels, and its KL row from the table.
The KL part of the scores does not depend on the rewards, so it is tabulated, with the filter
report read off it, once per (target, pool) (`_scored`); the agent holds its rows of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError
from .model import (
    Behavior,
    RewardSchedule,
    StateSpace,
    TransitionKernel,
    WeightVector,
    _check_compatible,
    _FrozenValue,
    _held,
    _KernelStack,
    _index,
    _marginals,
    _mu,
    _set,
    kl_rows,
)


@dataclass(frozen=True, eq=False)
class ContributorSet(_KernelStack):
    """A pool of contributor kernels sharing one state space and horizon.

    Contributors supply transition kernels only; the initial pmf always comes
    from the target behavior. The kernels are stored once, as the read-only
    ``(S, N, d, d)`` array ``matrices``; ``kernels[i][k-1]`` is a view of
    ``matrices[i, k-1]``, built when ``kernels`` is first read. The KL table and filter
    report of the last target it was scored against are `_held` (`_scored`).
    """

    space: StateSpace
    kernels: tuple[tuple[TransitionKernel, ...], ...] = field(compare=False)  # views, on read
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
            if any(kernel.space != self.space for kernel in per_k):
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
        return self._stack(matrices, ids=ids)

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    def kernel(self, contributor: int, k: int) -> TransitionKernel:
        """Kernel of a contributor at step k (1-based)."""
        i = _index(contributor, self.size, "contributor")
        return self.kernels[i][_index(k, self.horizon, "step k", 1)]

    def subset(self, indices: list[int]) -> "ContributorSet":
        """The contributors at ``indices``, in that order: all, in order, share the pool's stack."""
        if len(indices) == 0:
            raise ValueError("contributor set must not be empty")
        picked = [_index(i, self.size, "contributor") for i in indices]
        whole = picked == list(range(self.size))  # any other selection copies its rows
        matrices = self.matrices if whole else np.take(self.matrices, picked, axis=0)
        return ContributorSet._of(self.space, matrices, tuple(self.ids[i] for i in picked))


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
    _check_compatible(target, contributors=contributors)
    report = _scored(target, contributors)[1]
    if not report.retained_ids:
        raise InfeasibleError(
            "no admissible contributor: every contributor places mass where the target has none"
        )
    return contributors.subset([contributors.ids.index(i) for i in report.retained_ids]), report


def _scored(target: Behavior, contributors: ContributorSet) -> tuple:
    """``(kl, report)``, `_held` for ``target``: the pool's KL table and the `_filter` report.

    ``kl[i, k-1, x]`` is KL(contributor i's row x at step k || target row), built in blocks of
    whole steps: at most 2**16 pool entries (512 KB) per `kl_rows` call, never less than a step.
    """

    def build() -> tuple:
        kl = np.empty((contributors.size, target.horizon, target.space.size))
        block = max(1, 2**16 // contributors.matrices[:, 0].size)  # steps per `kl_rows` call
        for idx in range(0, target.horizon, block):
            steps = slice(idx, idx + block)
            rows = contributors.matrices[:, steps]
            kl[:, steps] = kl_rows(rows, np.broadcast_to(target.matrices[steps], rows.shape))
        return kl, _filter(contributors, kl)

    return _held(contributors, "_scored", (target,), build)


def _filter(contributors: ContributorSet, kl: np.ndarray) -> FilterReport:
    """The report of `filter_contributors`, read off the KL table."""
    violations = np.isinf(kl).reshape(contributors.size, -1)  # step-then-state order
    excluded = violations.any(axis=1)
    steps, states = np.divmod(violations.argmax(axis=1), contributors.space.size)
    exclusions = tuple(
        Exclusion(contributors.ids[i], int(steps[i]) + 1, contributors.space.label(int(states[i])))
        for i in np.flatnonzero(excluded)
    )
    retained = tuple(cid for cid, out in zip(contributors.ids, excluded.tolist()) if not out)
    return FilterReport(retained, exclusions)


@dataclass(frozen=True, eq=False)
class SynthesizedPolicy(_FrozenValue):
    """Output of `synthesize`.

    Arrays are indexed ``[k-1, state, contributor]`` (or without the trailing
    axis where it does not apply); ``contributor`` indexes `contributor_ids`,
    the whole pool in order. A score is +inf where its row breaks the target's
    support or reaches a dead state; a dead (k, state) selects the lowest index.

    Attributes:
        scores: per-(k, state) score of each contributor, reward-to-go folded in.
        selected: index of the chosen contributor per (k, state).
        weights: one-hot simplex weights per (k, state); always a vertex.
        agent: the synthesized behavior (target initial pmf, switched kernels).
        r_hat: value-to-go bonus per step, ``r_hat[N-1]`` identically zero.
        r_bar: reward plus bonus actually scored at each step.
        filter_report: the pool's admissibility report, as `filter_contributors` gives it.
    """

    space: StateSpace
    contributor_ids: tuple[str, ...]
    scores: np.ndarray
    selected: np.ndarray
    weights: np.ndarray
    agent: Behavior
    r_hat: np.ndarray
    r_bar: np.ndarray
    filter_report: FilterReport

    @property
    def horizon(self) -> int:
        return int(self.scores.shape[0])

    def weight_vector(self, k: int, state: int) -> WeightVector:
        """Simplex weights at step k (1-based) for conditioning state index."""
        cell = _index(k, self.horizon, "step k", 1), _index(state, self.space.size, "state")
        return WeightVector(self.weights[cell])

    def selected_id(self, k: int, state: int) -> str:
        return self.contributor_ids[self.weight_vector(k, state).weights.argmax()]  # the vertex

    def selection_table(self) -> list[list[str]]:
        """Selected contributor id per step (rows) and conditioning state (columns)."""
        return [[self.contributor_ids[i] for i in row] for row in self.selected.tolist()]


def synthesize(
    target: Behavior, contributors: ContributorSet, rewards: RewardSchedule
) -> SynthesizedPolicy:
    """Build the switched agent behavior for a target, contributor pool, and rewards.

    Runs the backward recursion described in the module docstring and
    attaches the pool's `filter_contributors` report.

    Args:
        target: behavior to track; also supplies the agent's initial pmf.
        contributors: pool of candidate kernels.
        rewards: one reward vector per step, same horizon as the target.

    Returns:
        A `SynthesizedPolicy` carrying the agent behavior, the full score
        table, selections, one-hot weights, and the recursion's value terms.

    Raises:
        InfeasibleError: naming a dead state the initial pmf puts mass on.
    """
    _check_compatible(target, contributors=contributors, rewards=rewards)
    kl, report = _scored(target, contributors)
    n, d, s = target.horizon, target.space.size, contributors.size
    alive = np.ones(d, dtype=bool)  # past k = N; a pool with no +inf KL has no dead state
    mask = True  # `alive` once a state may die; an all-True array costs a masked loop
    to_go = np.zeros((n + 1, d))  # to_go[idx + 1] is the bonus r_hat[idx]; zero past k = N
    r_bar = np.empty((n, d))
    work = np.empty((n, s, d))  # kl - rows @ r_bar: the scores, contributor-major like `kl`
    for idx in range(n - 1, -1, -1):
        rows = contributors.matrices[:, idx]
        np.add(rewards.values[idx], to_go[idx + 1], out=r_bar[idx])
        np.matmul(rows, r_bar[idx], out=work[idx])
        np.subtract(kl[:, idx], work[idx], out=work[idx])
        if report.exclusions:  # +inf on rows with mass on a state dead at the next step
            work[idx][(rows[..., ~alive] > 0).any(axis=-1)] = np.inf
            alive = mask = (work[idx] < np.inf).any(axis=0)
        np.negative(np.minimum.reduce(work[idx], axis=0), out=to_go[idx], where=mask)  # dead: 0
    stuck = (target.initial.probs > 0) & ~alive
    if stuck.any():  # the agent starts there; a dead state it never reaches costs nothing
        state = target.space.label(int(stuck.argmax()))
        raise InfeasibleError(f"every contributor score is +inf at k=1, state={state!r}")

    scores = np.ascontiguousarray(work.transpose(0, 2, 1))
    selected = scores.argmin(axis=2)  # first minimizer: ties, and dead states, to the lowest index
    flat = selected * (n * d) + np.arange(n * d).reshape(n, d)  # rows of the (S*N*d, d) pool
    agent_rows = contributors.matrices.reshape(-1, d).take(flat, axis=0)
    weights = np.eye(s).take(selected, axis=0)  # one-hot: a linear score's minimum is a vertex
    agent = Behavior._of(target.initial, agent_rows)
    _held(agent, "_kl", (target,), lambda: kl.reshape(-1).take(flat))  # its KL rows, same index
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


def bound_value(policy: SynthesizedPolicy, target: Behavior) -> float:
    """Upper bound on the agent's tracking cost, tight for vertex weights.

    Propagates the agent's state marginals forward from the target's initial
    pmf and accumulates, per step, the selected contributor's one-step score:
    the stored score with the value-to-go bonus added back, leaving KL minus
    expected raw reward. Because every stored weight vector is a vertex the
    per-row log-sum inequality is an equality and the returned value matches
    the exact cost of the synthesized behavior.
    """
    _check_compatible(target, policy=policy)
    n, d, s = policy.scores.shape
    sel = policy.scores.take(np.arange(n * d).reshape(n, d) * s + policy.selected)
    agent, pmf = policy.agent, target.initial  # held marginals start at the agent's own pmf
    mu = (_mu(agent) if agent.initial is pmf else _marginals(pmf.probs, agent.matrices))[:-1]
    steps = sel + np.matmul(agent.matrices, policy.r_hat[..., None])[..., 0]
    running = np.cumsum(np.vecdot(mu, np.where(mu > 0, steps, 0.0)))  # unreachable states: 0
    return float(running[-1])


__all__ = [
    "ContributorSet",
    "Exclusion",
    "FilterReport",
    "SynthesizedPolicy",
    "filter_contributors",
    "synthesize",
    "bound_value",
]
