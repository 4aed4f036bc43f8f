"""Trajectory sampling, most-likely routes, and Monte Carlo cost estimates.

All randomness flows from NumPy's Philox4x64 counter-based generator seeded
with the caller's integer seed, the same contract `generate_random_scenario`
uses, so identical seeds reproduce identical batches on any platform. Each
path takes one uniform a step, and the first entry of its guarded CDF row
above it, found through a guide table (`_sample_paths`). A batch is held
step-major, one (N + 1, count) index array, with one flat index (N, count) of
every path's step in a raveled (N, d, d) kernel stack. A behavior holds, all
read-only, its log tables, built on first use, its guide tables, built on its
first draw, its most likely path, and its last draw for a plain-int (seed,
count), which `sample_trajectories` and `monte_carlo_cost` share. Log factors
are one `take` of the held logs through the flat index, summed row by row in
path order, so each total equals the scalar chain-rule sum. `Trajectory` has
slots, and a batch is built slot by slot with no `__init__` frame per path.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .model import Behavior, Label, RewardSchedule, _check_compatible, _set, log_pmf
from .scenario import _atomic_write_text, _csv_text


@dataclass(frozen=True, slots=True)
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


def _tables(behavior: Behavior) -> tuple[np.ndarray, ...]:
    """The behavior's held (log pmf, raveled log kernels), plus its `_guide_tables` once drawn."""
    if behavior._sampling is None:  # one assignment: threads racing here build equal tables
        logs = log_pmf(behavior.initial.probs), log_pmf(behavior.matrices.ravel())
        _set(behavior, _sampling=logs)
    return behavior._sampling


def _guide_tables(behavior: Behavior) -> tuple[np.ndarray, ...]:
    """(starts, states, cdfs, guide): each row's positive entries, and a guide into them.

    Row 0 is the initial pmf, row ``1 + k*d + x`` step k's row from state x.
    Row r's entries are ``starts[r]:starts[r + 1]`` of ``states`` (indices)
    and ``cdfs`` (CDF values, the last pinned to 1.0). ``guide[r, b]`` counts
    those ``<= b/M``, for M = ``guide.shape[1]`` the power of two in (2d, 4d].
    """
    d = behavior.space.size
    rows = np.concatenate((behavior.initial.probs[None], behavior.matrices.reshape(-1, d)))
    positive = rows > 0
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(positive, axis=1))))
    states = np.broadcast_to(np.arange(d, dtype=np.min_scalar_type(d - 1)), rows.shape)[positive]
    ranks = (np.arange(starts[-1]) - np.repeat(starts[:-1], np.diff(starts))).astype(states.dtype)
    cdfs = np.cumsum(rows, axis=1, out=rows)[positive]
    cdfs[starts[1:] - 1] = 1.0
    m = 2 << d.bit_length()
    # c <= b/M exactly when ceil(c*M) <= b, M a power of two; entry j's cell c_j fills
    # guide[r, c_(j-1):c_j] (from 0 for a row's first) with j's rank: cells never fall, end at M
    cells = np.multiply(cdfs, m, out=rows.reshape(-1)[: cdfs.size])  # in the dead `rows` buffer
    np.minimum(np.ceil(cells, out=cells), m, out=cells)
    steps = cells.astype(np.intp)
    np.subtract(steps[1:], cells[:-1], out=steps[1:], casting="unsafe")
    steps[starts[1:-1]] += m  # a row's first entry counts from cell 0, not the last row's M
    del rows, positive, cells
    return starts, states, cdfs, np.repeat(ranks, steps).reshape(-1, m)


def _sample_paths(policy: Behavior, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` i.i.d. index paths of shape (count, N+1), one ``rng.random(count)`` a step.

    The paths are filled step-major, one (N + 1, count) array read back
    through its transpose. A draw takes the first entry above its uniform
    ``u`` in its guarded CDF row (the cumulative sum, pinned to 1.0 from the
    last positive entry on). The entries ``<= u`` form a prefix, since a row
    never decreases before its last positive entry (even where rounding takes
    it above 1) and is 1.0 > u from there on. The first above ``u`` is a
    positive entry, as a zero entry repeats the value before it or the pinned
    1.0, and it comes after the ``guide[r, floor(u*M)]`` positive entries
    ``<= floor(u*M)/M <= u``. A draw starts there and looks at the next two;
    only if both are ``<= u`` does it count the row's entries ``<= u``. So
    each path is, bit for bit, the one a search of the whole row gives.
    """
    d = policy.space.size
    tables = _tables(policy)
    if len(tables) == 2:  # first draw: a behavior that is only ever a target holds logs alone
        tables = _set(policy, _sampling=(*tables, *_guide_tables(policy)))._sampling
    starts, states, cdfs, guide = tables[2:]
    m = guide.shape[1]
    paths = np.empty((policy.horizon + 1, count), dtype=np.int64)
    rows = np.zeros(count, dtype=np.int64)  # the initial pmf's row
    for idx in range(policy.horizon + 1):
        u = rng.random(count)
        first = starts.take(rows)
        at = first + guide.take(rows * m + (u * m).astype(np.intp))
        for _ in range(2):  # the bucket's next entries, enough for nearly every draw
            at += cdfs.take(at) <= u
        rest = np.flatnonzero(cdfs.take(at) <= u)
        if rest.size:  # a crowded bucket: count the whole row's entries <= u
            first, end = first[rest], starts.take(rows[rest] + 1)
            span = np.minimum(first[:, None] + np.arange((end - first).max()), end[:, None] - 1)
            at[rest] = first + np.count_nonzero(cdfs.take(span) <= u[rest, None], axis=1)
        paths[idx] = states.take(at)
        rows = paths[idx] + (1 + idx * d)  # step idx's row from each path's state
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
    return _trajectories(paths.shape[1], states, *sums)


def _trajectories(
    count: int, states: Iterable, log_p: Iterable[float], log_t: Iterable[float] | None = None
) -> list[Trajectory]:
    """``count`` trajectories built slot by slot from one iterable per field, at C speed.

    Each equals ``Trajectory(s, p, t)``, ``t`` None without ``log_t``, but skips
    ``__init__``; `Trajectory` defines no ``__post_init__``, so no check is skipped.
    """
    out = list(map(object.__new__, itertools.repeat(Trajectory, count)))
    columns = states, log_p, itertools.repeat(None) if log_t is None else log_t
    for field, column in zip(fields(Trajectory), columns):  # each slot's member descriptor
        deque(map(getattr(Trajectory, field.name).__set__, out, column), 0)
    return out


def most_likely_trajectory(policy: Behavior) -> Trajectory:
    """Highest-probability trajectory of a behavior.

    Max-product dynamic programming in log space: a backward pass computes
    the best achievable log-probability-to-go from every state, then a
    forward greedy walk picks, at each step, the smallest state index that
    attains the optimum. Among all maximum-probability trajectories this
    returns the lexicographically smallest in state-index order. The result
    is held on the behavior, so a later call returns the same object.
    """
    if policy._best is not None:
        return policy._best
    d, n = policy.space.size, policy.horizon
    log_initial, log_steps = _tables(policy)[:2]
    log_kernels = log_steps.reshape(n, d, d)
    best = np.zeros((n + 1, d))  # best[k, x]: optimal log-prob of steps k+1..N from state x
    for idx in range(n - 1, -1, -1):
        best[idx] = (log_kernels[idx] + best[idx + 1]).max(axis=1)

    path = [np.argmax(log_initial + best[0])]
    for idx in range(n):
        path.append(np.argmax(log_kernels[idx, path[-1]] + best[idx + 1]))
    states = tuple(policy.space.labels[i] for i in path)
    column = np.array(path, dtype=np.int64)[:, None]
    log_prob = _sum_in_path_order(_path_log_terms(policy, column, _flat_steps(column, d)))[0]
    return _set(policy, _best=Trajectory(states, float(log_prob)))._best  # one assignment


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
    Once a path cost reaches ``2**480``, every cost is scaled by ``2**-544``
    first, exactly, so each admitted schedule (its path costs stay below
    half the largest float) gets a finite mean and standard error.

    Raises:
        ValueError: if a sampled trajectory has target probability zero (the
            cost integrand is undefined there); the offending trajectory is
            named.
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
    costs = np.subtract(log_p, log_t, out=log_p)  # in place: the terms are this call's own
    costs -= rewards.values[np.arange(rewards.horizon)[:, None], paths[1:]]  # rewards collected
    z = _sum_in_path_order(costs)
    scale = 1.0 if np.abs(z).max() < 2.0**480 else 2.0**-544  # 1.0 keeps the unscaled bits
    scaled = z * scale
    estimate = float(scaled.mean()) / scale
    if scale != 1.0:  # add back the exact remainders the scale flushes from costs below 2**-478
        estimate += float((z - scaled / scale).mean())
    # the stderr needs no such remainder: a tiny deviation exists only beside a cost >= 2**480
    stderr = float(scaled.std(ddof=1) / math.sqrt(count)) / scale if count > 1 else 0.0
    return MonteCarloEstimate(estimate, stderr, count)


#: Column layout of `write_trajectories_csv`.
TRAJECTORY_CSV_COLUMNS = ("trajectory", "x_k...", "log_prob_policy", "log_prob_target")


def write_trajectories_csv(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    """Write trajectories as CSV: index, one state column per step, log-probs.

    Columns: ``trajectory`` (0-based draw index), ``x_0`` .. ``x_N`` (state
    labels), ``log_prob_policy``, ``log_prob_target`` (blank when unknown:
    csv writes None blank, and a float as its shortest round-trip repr). The
    whole batch is checked and rendered before ``path`` is touched, then
    written atomically, so a rejected batch leaves an existing file as it was.
    """
    batch = list(trajectories)
    if not batch:
        raise ValueError("nothing to write: empty trajectory list")
    width = len(batch[0].states)
    if any(len(t.states) != width for t in batch):
        raise ValueError("trajectories have inconsistent lengths")
    first, _, *last = TRAJECTORY_CSV_COLUMNS
    header = [first, *(f"x_{k}" for k in range(width)), *last]
    rows = (
        [i, *map(str, t.states), t.log_prob_policy, t.log_prob_target]
        for i, t in enumerate(batch)
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
