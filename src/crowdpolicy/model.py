"""Finite-state probability primitives.

State spaces, probability vectors, row-stochastic transition kernels, Markov
behaviors, reward schedules, and simplex weight vectors, together with the
three operations everything else is built from: KL divergence between pmfs,
expected value under a pmf, and vertex argmin over the simplex.

Conventions used throughout the package:

* natural logarithm everywhere;
* ``0 * ln(0/q) = 0`` and ``KL = +inf`` whenever the first argument puts mass
  where the second has none (``+inf`` is an in-band extended-real value, not
  an error);
* probability vectors must sum to 1 within ``PROB_TOL``; under the default
  "strict" mode a violation raises, under "renormalize" the vector is rescaled
  by its sum (negative entries are rejected in both modes).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleError

#: Accepted deviation of a probability vector's sum from 1.
PROB_TOL = 1e-9

#: Accepted deviation of a weight vector's sum from 1.
WEIGHT_TOL = 1e-12

Label = int | str

_MODES = ("strict", "renormalize")


def _as_probabilities(values: Sequence[float] | np.ndarray, mode: str, what: str) -> np.ndarray:
    """Validate ``values`` as a probability vector and return a locked array."""
    if mode not in _MODES:
        raise ValueError(f"unknown tolerance mode {mode!r}, expected one of {_MODES}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    total = float(arr.sum())
    if mode == "renormalize":
        if total <= 0:
            raise ValueError(f"{what} sums to {total}, cannot renormalize")
        arr = arr / total
    elif abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{what} sums to {total!r}, outside 1 +/- {PROB_TOL}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None

    def label(self, index: int) -> Label:
        return self.labels[index]


@dataclass(frozen=True, eq=False)
class StatePMF:
    """Probability mass function over a state space."""

    space: StateSpace
    probs: np.ndarray
    mode: InitVar[str] = "strict"

    def __post_init__(self, mode: str) -> None:
        arr = _as_probabilities(self.probs, mode, "pmf")
        if arr.size != self.space.size:
            raise ValueError(
                f"pmf has {arr.size} entries for a space of size {self.space.size}"
            )
        object.__setattr__(self, "probs", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatePMF):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.probs, other.probs)

    def prob(self, label: Label) -> float:
        return float(self.probs[self.space.index(label)])


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Row-stochastic matrix: row x is the pmf of the next state given state x."""

    space: StateSpace
    matrix: np.ndarray
    mode: InitVar[str] = "strict"

    def __post_init__(self, mode: str) -> None:
        arr = np.asarray(self.matrix, dtype=float)
        d = self.space.size
        if arr.shape != (d, d):
            raise ValueError(f"kernel must be {d}x{d}, got shape {arr.shape}")
        rows = np.empty((d, d))
        for x in range(d):
            try:
                rows[x] = _as_probabilities(arr[x], mode, "kernel row")
            except ValueError as exc:
                raise ValueError(
                    f"row for state {self.space.label(x)!r}: {exc}"
                ) from None
        rows.setflags(write=False)
        object.__setattr__(self, "matrix", rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionKernel):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.matrix, other.matrix)

    def row(self, x: int) -> np.ndarray:
        """Transition pmf out of internal state index ``x`` as a raw array."""
        return self.matrix[x]

    def row_pmf(self, x: int) -> StatePMF:
        return StatePMF(self.space, self.matrix[x])


@dataclass(frozen=True, eq=False)
class Behavior:
    """A finite-horizon Markov behavior: initial pmf plus one kernel per step.

    ``kernels[k-1]`` governs the transition from ``x_{k-1}`` to ``x_k`` for
    k = 1..N, so ``horizon`` equals ``len(kernels)``.
    """

    initial: StatePMF
    kernels: tuple[TransitionKernel, ...]

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        if len(kernels) == 0:
            raise ValueError("behavior must have horizon at least 1")
        for k, kernel in enumerate(kernels, start=1):
            if kernel.space != self.initial.space:
                raise ValueError(f"kernel at k={k} uses a different state space")
        object.__setattr__(self, "kernels", kernels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Behavior):
            return NotImplemented
        return self.initial == other.initial and self.kernels == other.kernels

    @property
    def space(self) -> StateSpace:
        return self.initial.space

    @property
    def horizon(self) -> int:
        return len(self.kernels)


@dataclass(frozen=True, eq=False)
class RewardSchedule:
    """Per-step reward vectors; ``values[k-1][x]`` is the reward for arriving in x at step k."""

    space: StateSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.space.size:
            raise ValueError(
                f"rewards must have shape (N, {self.space.size}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ValueError("reward schedule must cover at least one step")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rewards must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RewardSchedule):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.values, other.values)

    @property
    def horizon(self) -> int:
        return int(self.values.shape[0])

    def step(self, k: int) -> np.ndarray:
        """Reward vector for step k (1-based)."""
        return self.values[k - 1]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Point on the probability simplex used to weight contributors."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(arr.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {arr.sum()!r}, outside 1 +/- {WEIGHT_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    @property
    def is_vertex(self) -> bool:
        """True when exactly one entry is 1.0 and the rest are exactly 0.0."""
        return (
            np.count_nonzero(self.weights == 1.0) == 1
            and np.count_nonzero(self.weights) == 1
        )

    @classmethod
    def vertex(cls, size: int, index: int) -> "WeightVector":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence between matching rows of two stacked arrays.

    Accepts arrays of shape (..., d); returns shape (...). Entries where the
    first argument is zero contribute nothing; any row placing mass where the
    second argument has none evaluates to +inf.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    support = p > 0
    safe_q = np.where(q > 0, q, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        try:
            ratio = np.where(support, p / safe_q, 1.0)
            logs = np.log(ratio)
        except FloatingPointError:  # p / q overflows where q is a positive subnormal
            with np.errstate(over="ignore"):
                ratio = np.where(support, p / safe_q, 1.0)
            logs = np.where(np.isinf(ratio), np.log(p) - np.log(safe_q), np.log(ratio))
        terms = np.where(support, p * logs, 0.0)
    out = np.maximum(terms.sum(axis=-1), 0.0)  # clamp -1e-17 noise from near-equal rows
    violated = (support & (q == 0.0)).any(axis=-1)
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
