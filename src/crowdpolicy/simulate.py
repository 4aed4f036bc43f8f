"""Trajectory sampling, most-likely routes, and Monte Carlo cost estimates.

All randomness flows from NumPy's Philox4x64 counter-based generator seeded
with the caller's integer seed, the same contract `generate_random_scenario`
uses, so identical seeds reproduce identical batches on any platform. A draw
takes its uniforms in one ``rng.random((N + 1, count))`` call, row k step k's,
and each path the first entry of its guarded CDF row above its uniform, found
through a guide table (`_sample_paths`). A behavior holds (`_held`) its log and
guide tables, its most likely path, and its last draw: the paths and their log
factors for one (seed, count, target), which `sample_trajectories` and
`monte_carlo_cost` share. Log factors are gathered through one flat step index
and summed row by row in path order, so each total equals the scalar chain-rule
sum. `Trajectory` has slots, and a batch is built slot by slot with no
`__init__` frame per path.
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

from .model import Behavior, Label, RewardSchedule, _check_compatible, _held, log_pmf
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


def _tables(behavior: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """The behavior's `_held` (log pmf, raveled log kernels)."""
    probs, matrices = behavior.initial.probs, behavior.matrices
    return _held(behavior, "_logs", (), lambda: (log_pmf(probs), log_pmf(matrices.ravel())))


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
    """Sample ``count`` i.i.d. index paths, (count, N+1), from one ``rng.random((N+1, count))``.

    Row k of those uniforms is step k's, the stream of one ``rng.random(count)`` a step. The
    paths fill one step-major (N + 1, count) array, returned transposed, which first holds each
    draw's bucket ``floor(u*M)`` (exact: M is a power of two). A draw takes the first entry
    above its uniform ``u`` in its guarded CDF row (the cumulative sum, pinned to 1.0 from the
    last positive entry on). The entries ``<= u`` form a prefix, since a row never decreases
    before its last positive entry (even where rounding takes it above 1) and is 1.0 > u from
    there on. The first above ``u`` is a positive entry, as a zero entry repeats the value
    before it or the pinned 1.0, and it comes after the ``guide[r, floor(u*M)]`` positive
    entries ``<= floor(u*M)/M <= u``. A draw starts there and steps past up to three entries
    ``<= u``; only if a fourth follows does it count the row's entries ``<= u``. So each path
    is, bit for bit, the one a search of the whole row gives.
    """
    d = policy.space.size
    starts, states, cdfs, guide = _held(policy, "_guides", (), lambda: _guide_tables(policy))
    m = guide.shape[1]
    uniforms = rng.random((policy.horizon + 1, count))
    paths = np.multiply(uniforms, m, out=np.empty(uniforms.shape, np.int64), casting="unsafe")
    rows = np.zeros(count, dtype=np.int64)  # the initial pmf's row
    for idx, u in enumerate(uniforms):
        at = starts.take(rows) + guide.take(rows * m + paths[idx])
        for _ in range(3):  # the bucket's next entries, enough for nearly every draw
            at += cdfs.take(at) <= u
        below = cdfs.take(at) <= u
        if np.count_nonzero(below):  # a crowded bucket: count the whole row's entries <= u
            rest = np.flatnonzero(below)
            first, end = starts.take(rows[rest]), starts.take(rows[rest] + 1)
            span = np.minimum(first[:, None] + np.arange((end - first).max()), end[:, None] - 1)
            at[rest] = first + np.count_nonzero(cdfs.take(span) <= u[rest, None], axis=1)
        paths[idx] = states.take(at)
        rows = paths[idx] + (1 + idx * d)  # step idx's row from each path's state
    return paths.T


def _draw(policy: Behavior, count: int, seed: int, target: Behavior | None = None) -> tuple:
    """Step-major paths, (N + 1, count), and their log terms: the policy's, then the target's.

    The pair is one entry, `_held` for a plain-int (seed, count) and the target when one is
    given; another seed, count or target draws again, the same paths for the same seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    behaviors = (policy,) if target is None else (policy, target)
    key = (seed, count, *behaviors[1:]) if type(seed) is int and type(count) is int else None

    def build() -> tuple:  # the generator is built on a miss alone
        paths = _sample_paths(policy, count, np.random.Generator(np.random.Philox(seed))).T
        return paths, _path_log_terms(behaviors, paths)

    return _held(policy, "_draw", key, build)


def _path_log_terms(behaviors: tuple[Behavior, ...], paths: np.ndarray) -> np.ndarray:
    """Log factors of step-major paths, (behaviors, N + 1, count): initial, then per step."""
    d = behaviors[0].space.size  # a path's step k: entry (k*d + x_k)*d + x_(k+1) of the logs
    flat = (np.arange(paths.shape[0] - 1)[:, None] * d + paths[:-1]) * d + paths[1:]
    terms = np.empty((len(behaviors), *paths.shape))
    for behavior, out in zip(behaviors, terms):
        log_initial, log_steps = _tables(behavior)
        out[0] = log_initial.take(paths[0])
        log_steps.take(flat, out=out[1:], mode="clip")  # unbuffered; flat is always in range
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
    paths, terms = _draw(policy, count, seed, target)
    sums = (_sum_in_path_order(each).tolist() for each in terms)
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
    is held on the behavior (`_held`), so a later call returns the same object.
    """

    def build() -> Trajectory:
        d, n = policy.space.size, policy.horizon
        log_initial, log_steps = _tables(policy)
        log_kernels = log_steps.reshape(n, d, d)
        best = np.zeros((n + 1, d))  # best[k, x]: optimal log-prob of steps k+1..N from state x
        for idx in range(n - 1, -1, -1):
            best[idx] = (log_kernels[idx] + best[idx + 1]).max(axis=1)

        path = [np.argmax(log_initial + best[0])]
        for idx in range(n):
            path.append(np.argmax(log_kernels[idx, path[-1]] + best[idx + 1]))
        states = tuple(policy.space.labels[i] for i in path)
        log_prob = _sum_in_path_order(_path_log_terms((policy,), np.array(path)[:, None])[0])[0]
        return Trajectory(states, float(log_prob))

    return _held(policy, "_best", (), build)


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
    paths, (log_p, log_t) = _draw(policy, count, seed, target)
    count = paths.shape[1]
    costs = np.subtract(log_p[1:], log_t[1:])
    steps = np.arange(rewards.horizon)[:, None] * rewards.space.size
    costs -= rewards.values.take(paths[1:] + steps)  # rewards collected, in one flat gather
    z = _sum_in_path_order(costs)
    dead = np.flatnonzero(np.isposinf(z))  # policy terms are finite: +inf needs a -inf target term
    if dead.size:
        idx, col = np.argwhere(np.isneginf(log_t[1:, dead]))[0]  # earliest step, then lowest path
        labels = tuple(rewards.space.labels[i] for i in paths[:, dead[col]])
        raise ValueError(
            f"sampled trajectory {labels} has target probability 0 at step "
            f"{idx + 1}; the cost is undefined for this policy/target pair"
        )
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
