"""Finite-state probability primitives.

State spaces, probability vectors, row-stochastic transition kernels, Markov behaviors,
contributor pools, reward schedules, and simplex weight vectors, with the array routines the
other modules build on (row-wise KL, log pmfs, forward marginals) and three single-pmf
operations no library routine calls: `kl_divergence`, `expected_value`, `simplex_argmin`.

Conventions used throughout the package:

* natural logarithm everywhere;
* ``0 * ln(0/q) = 0`` and ``KL = +inf`` whenever the first argument puts mass
  where the second has none (``+inf`` is an in-band extended-real value, not
  an error);
* each row of a pmf or kernel must sum to 1 within ``PROB_TOL``; under the default
  "strict" mode a violation raises, under "renormalize" the row is rescaled by its
  sum, which must be positive and finite (negative entries are rejected in both
  modes); one pass checks every row of an array and names the first bad row.
"""

from __future__ import annotations

import weakref
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleError

#: Accepted deviation of a probability vector's sum from 1.
PROB_TOL = 1e-9

#: Bound on a reward schedule's per-step largest magnitudes, summed over the steps: half
#: the largest float, which leaves room for the ``PROB_TOL`` row slack and finite KL.
REWARD_LIMIT = float(np.finfo(float).max) / 2

#: Accepted deviation of a weight vector's sum from 1.
WEIGHT_TOL = 1e-12

Label = int | str

_MODES = ("strict", "renormalize")


def _as_probabilities(
    arr: np.ndarray, mode: str, what: str, row_name: Callable | None = None
) -> np.ndarray:
    """Validate every row (last axis) of ``arr``, a C-ordered float array handed over, in one pass.

    Returns ``arr`` locked in place (renormalise mode: a locked rescaled copy). Only a
    failure locates the first bad row, in C order, named by ``row_name(index)``.
    """
    where = row_name or (lambda index: "")
    if mode not in _MODES:
        raise ValueError(f"{where(0)}unknown tolerance mode {mode!r}, expected one of {_MODES}")
    if row_name is None and arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must have at least one entry")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is reported below
        totals = arr.sum(axis=-1)  # finite only when every entry of the row is
        if mode == "renormalize":
            ok = (totals > 0.0) & (totals < np.inf)
        else:
            ok = np.abs(totals - 1.0) <= PROB_TOL
    if not (ok.all() and arr.min() >= 0.0):
        index = int(np.argmax(~ok | (arr < 0).any(axis=-1)))
        row = arr.reshape(-1, arr.shape[-1])[index]
        if not np.all(np.isfinite(row)):
            fault = "contains non-finite entries"
        elif np.any(row < 0):
            fault = "contains negative entries"
        else:
            bound = "cannot renormalize" if mode == "renormalize" else f"outside 1 +/- {PROB_TOL}"
            fault = f"sums to {float(totals.flat[index])!r}, {bound}"
        raise ValueError(f"{where(index)}{what} {fault}")
    if mode == "renormalize":
        arr = arr / totals[..., np.newaxis]
    arr.setflags(write=False)
    return arr


def _set(obj, **fields: object):
    """Set fields of a frozen instance, no checks or copies, locking arrays nested in tuples too."""
    for name, value in fields.items():
        parts = [value]
        for part in parts:  # grows as it goes, by each tuple's parts
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
            elif isinstance(part, tuple):
                parts.extend(part)
        object.__setattr__(obj, name, value)
    return obj


def _held(owner, name: str, key: tuple | None, build: Callable):
    """``build()``, held on ``owner`` as ``name``: the same object while ``key`` comes back.

    A plain ``int`` key part matches by value; any other part by identity, held by weak
    reference, so an entry keeps nothing alive, and serves only a key of its own length.
    ``key=None`` builds and holds nothing; ``key=()`` builds once. The entry, ``(parts,
    value)``, is set in one `_set` assignment with its arrays locked (racing threads each get
    an equal value); it is never compared, and a pickle or copy starts without it.
    """
    if key is None:
        return build()
    entry = owner.__dict__.get(name)
    if entry is not None and len(entry[0]) == len(key):
        for part, given in zip(entry[0], key):  # a plain loop: a hit costs no generator
            if part != given if type(given) is int else type(part) is int or part() is not given:
                break
        else:
            return entry[1]
    value = build()
    _set(owner, **{name: (tuple(p if type(p) is int else weakref.ref(p) for p in key), value)})
    return value


def _kernel_views(space: StateSpace, matrices: np.ndarray) -> tuple:
    """View each matrix of a read-only (..., N, d, d) stack as a kernel, nested like its axes."""
    if matrices.ndim > 3:
        return tuple(_kernel_views(space, stack) for stack in matrices)
    return tuple(_set(object.__new__(TransitionKernel), space=space, matrix=m) for m in matrices)


def _index(i: int, size: int, name: str, first: int = 0) -> int:
    """``i - first`` (1 for a step k), a 0-based index; IndexError naming ``name`` outside."""
    if not first <= i < first + size:
        raise IndexError(f"{name}={i} is outside {first}..{first + size - 1}")
    return i - first


def _check_compatible(target: Behavior, **parts) -> None:
    """Raise ValueError unless each named part has the target's state space and horizon."""
    for name, part in parts.items():
        if part.space != target.space:
            raise ValueError(f"{name} and target use different state spaces")
        if part.horizon != target.horizon:
            horizons = f"horizon {part.horizon} != target horizon {target.horizon}"
            raise ValueError(f"{name.removesuffix('s')} {horizons}")  # the part in the singular


class _FrozenValue:
    """Base of the package's frozen dataclasses that hold arrays; each is declared ``eq=False``.

    Two values are equal when they are of the same type and every field with
    ``compare=True`` is equal, arrays by ``np.array_equal``; the values are
    unhashable. A pickle or copy carries the fields alone, every instance name that does
    not start with ``_``, and one restored through ``__setstate__`` has every array
    read-only again.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(
            np.array_equal(mine, theirs)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray)
            else mine == theirs
            for mine, theirs in pairs
        )

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if not name.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        _set(self, **state)


@dataclass(frozen=True)
class StateSpace:
    """Ordered collection of unique state labels; internal indices are 0-based."""

    labels: tuple[Label, ...]
    _index: dict[Label, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(labels) == 0:
            raise ValueError("state space must contain at least one state")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        _set(self, labels=labels, _index={lab: i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None

    def label(self, index: int) -> Label:
        return self.labels[_index(index, self.size, "state")]


@dataclass(frozen=True, eq=False)
class StatePMF(_FrozenValue):
    """Probability mass function over a state space."""

    space: StateSpace
    probs: np.ndarray
    mode: InitVar[str] = "strict"

    def __post_init__(self, mode: str) -> None:
        arr = _as_probabilities(np.array(self.probs, dtype=float, order="C"), mode, "pmf")
        if arr.size != self.space.size:
            raise ValueError(
                f"pmf has {arr.size} entries for a space of size {self.space.size}"
            )
        object.__setattr__(self, "probs", arr)

    def prob(self, label: Label) -> float:
        return float(self.probs[self.space.index(label)])


@dataclass(frozen=True, eq=False)
class TransitionKernel(_FrozenValue):
    """Row-stochastic matrix: row x is the pmf of the next state given state x."""

    space: StateSpace
    matrix: np.ndarray
    mode: InitVar[str] = "strict"

    def __post_init__(self, mode: str) -> None:
        arr = np.array(self.matrix, dtype=float, order="C")
        d = self.space.size
        if arr.shape != (d, d):
            raise ValueError(f"kernel must be {d}x{d}, got shape {arr.shape}")
        rows = _as_probabilities(
            arr, mode, "kernel row", lambda x: f"row for state {self.space.label(x)!r}: "
        )
        object.__setattr__(self, "matrix", rows)

    def row(self, x: int) -> np.ndarray:
        """Transition pmf out of internal state index ``x`` as a raw array."""
        return self.matrix[_index(x, self.space.size, "state")]

    def row_pmf(self, x: int) -> StatePMF:
        return StatePMF(self.space, self.row(x))


class _KernelStack(_FrozenValue):
    """Base of `Behavior` and `ContributorSet`, which store a read-only kernel stack alone.

    Their ``kernels`` field, views of ``matrices`` nested like its leading axes, is built on
    first read and `_held` as ``_kernels``, like all else the library derives from a stack.
    """

    def _stack(self, matrices: np.ndarray, **fields: object):
        """Hold validated ``matrices`` read-only, and ``fields``, in place of any given kernels."""
        vars(self).pop("kernels", None)
        return _set(self, matrices=matrices, **fields)

    def __getattr__(self, name: str):
        if name != "kernels":
            return object.__getattribute__(self, name)  # raises the standard AttributeError
        return _held(self, "_kernels", (), lambda: _kernel_views(self.space, self.matrices))

    @property
    def horizon(self) -> int:
        return self.matrices.shape[-3]


@dataclass(frozen=True, eq=False)
class Behavior(_KernelStack):
    """A finite-horizon Markov behavior: initial pmf plus one kernel per step.

    ``kernels[k-1]`` governs the transition from ``x_{k-1}`` to ``x_k`` for k = 1..N, so
    ``horizon`` equals ``len(kernels)``. The kernels are stored once, as the read-only
    ``(N, d, d)`` array ``matrices``; ``kernels`` views its matrices, built on first read.
    Its views, marginals, KL rows, sampling tables, last draw and most likely path are `_held`.
    """

    initial: StatePMF
    kernels: tuple[TransitionKernel, ...] = field(compare=False)  # views of `matrices`, on read
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        if len(kernels) == 0:
            raise ValueError("behavior must have horizon at least 1")
        for k, kernel in enumerate(kernels, start=1):
            if kernel.space != self.initial.space:
                raise ValueError(f"kernel at k={k} uses a different state space")
        self._stack(np.array([kernel.matrix for kernel in kernels]))

    @classmethod
    def _of(cls, initial: StatePMF, matrices: np.ndarray) -> "Behavior":
        """A behavior that takes over ``matrices``, an (N, d, d) stack of validated kernels."""
        return object.__new__(cls)._stack(matrices, initial=initial)

    @property
    def space(self) -> StateSpace:
        return self.initial.space


@dataclass(frozen=True, eq=False)
class ContributorSet(_KernelStack):
    """A pool of contributor kernels sharing one state space and horizon.

    Contributors supply transition kernels only; the initial pmf always comes
    from the target behavior. The kernels are stored once, as the read-only
    ``(S, N, d, d)`` array ``matrices``; ``kernels[i][k-1]`` is a view of
    ``matrices[i, k-1]``, built when ``kernels`` is first read. The KL table and filter
    report of the last target it was scored against are `_held` (`synthesis._scored`).
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


@dataclass(frozen=True, eq=False)
class RewardSchedule(_FrozenValue):
    """Per-step reward vectors; ``values[k-1][x]`` is the reward for arriving in x at step k.

    Each step's largest magnitude, summed over the steps, stays below ``REWARD_LIMIT``, so
    no route's sums over these rewards leave the finite floats, in either order.
    """

    space: StateSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, order="C")  # a copy of its own
        if arr.ndim != 2 or arr.shape[1] != self.space.size:
            raise ValueError(
                f"rewards must have shape (N, {self.space.size}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ValueError("reward schedule must cover at least one step")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rewards must be finite")
        with np.errstate(over="ignore"):  # a sum past the largest float is past the limit too
            reach = np.cumsum(np.abs(arr).max(axis=1)) >= REWARD_LIMIT
        if reach.any():
            raise ValueError(
                f"rewards' largest magnitudes, summed over steps 1..k, reach {REWARD_LIMIT!r} "
                f"at k={int(reach.argmax()) + 1}; keep the sum below it"
            )
        _set(self, values=arr)

    @property
    def horizon(self) -> int:
        return int(self.values.shape[0])

    def step(self, k: int) -> np.ndarray:
        """Reward vector for step k (1-based)."""
        return self.values[_index(k, self.horizon, "step k", 1)]


@dataclass(frozen=True, eq=False)
class WeightVector(_FrozenValue):
    """Point on the probability simplex used to weight contributors."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.weights, dtype=float, order="C")  # a copy of its own
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(arr.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {arr.sum()!r}, outside 1 +/- {WEIGHT_TOL}")
        _set(self, weights=arr)

    @property
    def is_vertex(self) -> bool:
        """True when exactly one entry is 1.0 and the rest are exactly 0.0."""
        return np.count_nonzero(self.weights) == 1 and 1.0 in self.weights

    @classmethod
    def vertex(cls, size: int, index: int) -> "WeightVector":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _marginals(initial: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """(N + 1, d) state marginals: row 0 is ``initial``, each next row the last times its kernel."""
    mu = np.empty((len(matrices) + 1, initial.size))
    mu[0] = initial
    for idx, rows in enumerate(matrices):
        np.matmul(mu[idx], rows, out=mu[idx + 1])
    return mu


def _mu(behavior: Behavior) -> np.ndarray:
    """The behavior's `_held` `_marginals`, (N + 1, d), from its own initial pmf."""
    return _held(behavior, "_mu", (), lambda: _marginals(behavior.initial.probs, behavior.matrices))


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence between matching rows of two stacked arrays.

    Accepts arrays of shape (..., d); returns shape (...). Entries where the
    first argument is zero contribute nothing; any row placing mass where the
    second argument has none evaluates to +inf. On rows that are not pmfs, NaN or
    negative entries may make a row NaN, and a term whose ratio underflows to 0 counts 0.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    missing = q == 0.0  # a row with mass there is +inf below; divide it by 1 meanwhile
    terms = np.add(q, missing)  # the one float temporary: ratio, then log, then term
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(p, terms, out=terms)
        terms += terms == 0.0  # log 1 = 0: no term where p is 0
        overflowed = np.isinf(terms)  # p / q overflows where q is a positive subnormal
        np.log(terms, out=terms)
        terms[overflowed] = np.log(p[overflowed]) - np.log(q[overflowed])
        terms *= p
    out = np.maximum(terms.sum(axis=-1), 0.0)  # clamp -1e-17 noise from near-equal rows
    violated = np.logical_and(missing, p > 0, out=missing).any(axis=-1)
    return np.where(violated, np.inf, out)


def kl_divergence(p: StatePMF, q: StatePMF) -> float:
    """KL divergence D(p || q) in nats.

    Args:
        p: pmf whose support is measured.
        q: reference pmf over the same state space.

    Returns:
        A non-negative float, ``math.inf`` when p puts mass outside q's
        support.

    Raises:
        ValueError: if the two pmfs live on different state spaces.
    """
    if p.space != q.space:
        raise ValueError("pmfs are defined on different state spaces")
    return float(kl_rows(p.probs, q.probs))


def expected_value(p: StatePMF, values: Sequence[float] | np.ndarray) -> float:
    """Expectation of a real-valued state function under ``p``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (p.space.size,):
        raise ValueError(
            f"function has shape {arr.shape}, expected ({p.space.size},)"
        )
    return float(p.probs @ arr)


class SimplexArgmin(NamedTuple):
    """Result of minimizing a linear score over the simplex: always a vertex."""

    index: int
    weights: WeightVector
    value: float


def simplex_argmin(scores: Sequence[float] | np.ndarray) -> SimplexArgmin:
    """Minimize ``scores @ alpha`` over the probability simplex.

    The minimum of a linear function over the simplex is attained at a vertex,
    so the result is the unit vector of the smallest finite entry; the lowest
    index wins ties. Entries may be ``+inf`` (inadmissible contributor); if
    every entry is ``+inf`` there is no feasible contributor and
    ``InfeasibleError`` is raised. NaN or ``-inf`` entries are structural
    errors.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty vector")
    if np.any(np.isnan(arr)) or np.any(np.isneginf(arr)):
        raise ValueError("scores must be finite or +inf")
    if np.all(np.isinf(arr)):
        raise InfeasibleError("no feasible contributor: every score is +inf")
    index = int(np.argmin(arr))  # np.argmin returns the first minimizer
    return SimplexArgmin(index, WeightVector.vertex(arr.size, index), float(arr[index]))


def log_pmf(probs: np.ndarray) -> np.ndarray:
    """Elementwise natural log with ``log 0 = -inf`` and no warnings."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


__all__ = [
    "PROB_TOL",
    "REWARD_LIMIT",
    "WEIGHT_TOL",
    "Label",
    "StateSpace",
    "StatePMF",
    "TransitionKernel",
    "Behavior",
    "RewardSchedule",
    "WeightVector",
    "SimplexArgmin",
    "kl_divergence",
    "kl_rows",
    "expected_value",
    "simplex_argmin",
    "log_pmf",
]
