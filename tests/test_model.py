"""Unit tests for the probability primitives in crowdpolicy.model."""

import copy
import math
import pickle
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdpolicy.errors import InfeasibleError
from crowdpolicy.model import (
    PROB_TOL,
    _MODES,
    Behavior,
    RewardSchedule,
    StatePMF,
    StateSpace,
    TransitionKernel,
    WeightVector,
    _held,
    _marginals,
    expected_value,
    kl_divergence,
    kl_rows,
    log_pmf,
    simplex_argmin,
)

AB = StateSpace(("a", "b"))


def pmf(values, space=AB, mode="strict"):
    return StatePMF(space, np.asarray(values, dtype=float), mode)


# ---------------------------------------------------------------------------
# state space
# ---------------------------------------------------------------------------


def test_state_space_indexing():
    space = StateSpace((1, 2, "exit"))
    assert space.size == 3
    assert space.index(2) == 1
    assert space.label(2) == "exit"
    with pytest.raises(ValueError, match="unknown state label"):
        space.index("nope")


@pytest.mark.parametrize("index", [-1, 2])
def test_a_state_space_rejects_a_label_index_outside_it(index):
    # -1 once read the last label, 2 raised a bare tuple error
    with pytest.raises(IndexError) as err:
        AB.label(index)
    assert str(err.value) == f"state={index} is outside 0..1"
    assert [AB.label(i) for i in (0, 1)] == ["a", "b"]


def test_state_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="unique"):
        StateSpace((1, 1))
    with pytest.raises(ValueError, match="at least one"):
        StateSpace(())


# ---------------------------------------------------------------------------
# pmf and kernel validation
# ---------------------------------------------------------------------------


def test_pmf_accepts_within_tolerance_without_rescaling():
    # strict mode tolerates float dust on the sum but keeps the values as given
    values = np.array([0.5, 0.5 + 5e-10])
    p = pmf(values)
    assert np.array_equal(p.probs, values)


def test_pmf_strict_rejections():
    with pytest.raises(ValueError, match="sums to"):
        pmf([0.5, 0.6])
    with pytest.raises(ValueError, match="negative"):
        pmf([1.5, -0.5])
    with pytest.raises(ValueError, match="non-finite"):
        pmf([np.inf, 0.0])
    with pytest.raises(ValueError, match="entries for a space"):
        pmf([1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        pmf([[0.5, 0.5]])


def test_pmf_renormalize_mode():
    p = pmf([1.0, 3.0], mode="renormalize")
    assert np.allclose(p.probs, [0.25, 0.75])
    with pytest.raises(ValueError, match="cannot renormalize"):
        pmf([0.0, 0.0], mode="renormalize")


def test_pmf_unknown_mode():
    with pytest.raises(ValueError, match="unknown tolerance mode"):
        pmf([0.5, 0.5], mode="loose")


def test_pmf_probs_are_locked():
    p = pmf([0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_kernel_row_error_names_the_state():
    with pytest.raises(ValueError, match="row for state 'b'"):
        TransitionKernel(AB, np.array([[0.5, 0.5], [0.5, 0.6]]))


def test_kernel_shape_and_lookup():
    kernel = TransitionKernel(AB, np.array([[1.0, 0.0], [0.25, 0.75]]))
    assert kernel.row(1)[1] == 0.75
    assert kernel.row_pmf(0).prob("a") == 1.0
    with pytest.raises(ValueError, match="must be 2x2"):
        TransitionKernel(AB, np.ones((2, 3)) / 3)


def test_behavior_horizon_and_space_checks():
    kernel = TransitionKernel(AB, np.full((2, 2), 0.5))
    behavior = Behavior(pmf([1.0, 0.0]), (kernel, kernel, kernel))
    assert behavior.horizon == 3
    assert behavior.space is AB
    with pytest.raises(ValueError, match="horizon at least 1"):
        Behavior(pmf([1.0, 0.0]), ())
    other = TransitionKernel(StateSpace(("x", "y")), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="k=2 uses a different state space"):
        Behavior(pmf([1.0, 0.0]), (kernel, other))


@pytest.mark.parametrize("start", ["point", "sparse", "full"])
@pytest.mark.parametrize("d", [6, 64])
def test_marginals_equal_the_row_times_kernel_chain_byte_for_byte(d, start):
    # the chain `mu = mu @ rows` wrote marginals.csv before; its bytes are pinned
    rng = np.random.default_rng(d)
    rows = rng.random((16, d, d)) * (rng.random((16, d, d)) < 0.3)
    rows[:, np.arange(d), rng.integers(0, d, d)] += 0.5  # every row keeps one entry
    rows /= rows.sum(axis=-1, keepdims=True)
    initial = np.eye(d)[3] if start == "point" else rng.random(d)
    if start == "sparse":
        initial[initial < 0.6] = 0.0
        initial[0] = 1.0
    initial = initial / initial.sum()
    chain = [initial]
    for kernel in rows:
        chain.append(chain[-1] @ kernel)
    got = _marginals(initial, rows)
    assert got.shape == (17, d)
    assert got.tobytes() == np.array(chain).tobytes()


def test_reward_schedule():
    sched = RewardSchedule(AB, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert sched.horizon == 2
    assert np.array_equal(sched.step(2), [3.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        RewardSchedule(AB, np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        RewardSchedule(AB, np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least one step"):
        RewardSchedule(AB, np.ones((0, 2)))


# ---------------------------------------------------------------------------
# one-pass row validation against the per-row code it replaced
# ---------------------------------------------------------------------------


def _reference_as_probabilities(values, mode, what):
    """The former per-vector validator, kept as the differential reference."""
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


def _reference_pmf(space, values, mode):
    """The former ``StatePMF`` validation."""
    arr = _reference_as_probabilities(values, mode, "pmf")
    if arr.size != space.size:
        raise ValueError(f"pmf has {arr.size} entries for a space of size {space.size}")
    return arr


def _reference_kernel(space, matrix, mode):
    """The former ``TransitionKernel`` validation: one row at a time."""
    arr = np.asarray(matrix, dtype=float)
    d = space.size
    if arr.shape != (d, d):
        raise ValueError(f"kernel must be {d}x{d}, got shape {arr.shape}")
    rows = np.empty((d, d))
    for x in range(d):
        try:
            rows[x] = _reference_as_probabilities(arr[x], mode, "kernel row")
        except ValueError as exc:
            raise ValueError(f"row for state {space.label(x)!r}: {exc}") from None
    rows.setflags(write=False)
    return rows


def _outcome(build):
    try:
        out = build()
    except Exception as exc:  # the type is part of what is compared
        return ("raised", type(exc), str(exc))
    return ("accepted", out.tobytes(), out.shape, out.dtype, out.flags.writeable)


#: Faults injected at a random (row, column) position.
_FAULTS = (
    "nan", "+inf", "-inf", "negative", "negative zero", "subnormal", "huge",
    "zero row", "just off", "just under", "just inside",
)


def _inject(row, col, fault):
    if fault == "zero row":
        row[:] = 0.0
        return
    row[col] = {
        "nan": np.nan,
        "+inf": np.inf,
        "-inf": -np.inf,
        "negative": -row[col] - 0.25,
        "negative zero": -0.0,
        "subnormal": 5e-324,
        "huge": 1e308,
        "just off": row[col] + 1.5 * PROB_TOL,
        "just under": row[col] - 1.5 * PROB_TOL,
        "just inside": row[col] + 0.5 * PROB_TOL,
    }[fault]


@st.composite
def _validation_cases(draw):
    d = draw(st.integers(1, 8))
    kernel = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.dirichlet(np.ones(d), size=d if kernel else None)
    if draw(st.booleans()):  # unnormalised rows, for the renormalize mode
        arr = arr * rng.uniform(0.1, 10.0, size=(d, 1) if kernel else None)
    for _ in range(draw(st.integers(0, 3))):
        rows = arr if kernel else arr[np.newaxis]
        row = rows[draw(st.integers(0, rows.shape[0] - 1))]
        _inject(row, draw(st.integers(0, d - 1)), draw(st.sampled_from(_FAULTS)))
    if draw(st.booleans()):
        arr = np.asfortranarray(arr)  # row sums must not depend on the memory layout
    size = d + (not kernel and draw(st.integers(0, 4)) == 0)  # now and then a pmf too short
    labels = tuple(range(size)) if draw(st.booleans()) else tuple(f"s{i}" for i in range(size))
    mode = draw(st.sampled_from(["strict", "renormalize", "strict", "renormalize", "loose"]))
    return StateSpace(labels), arr, kernel, mode


def _overflowing_rows(arr):
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.atleast_2d(arr)
        finite = np.isfinite(rows).all(axis=-1) & (rows >= 0).all(axis=-1)
        return bool((finite & ~np.isfinite(rows.sum(axis=-1))).any())


@settings(max_examples=400, deadline=None)
@given(_validation_cases())
def test_one_pass_validation_matches_the_per_row_reference(case):
    space, arr, kernel, mode = case
    # the reference turned an overflowing row into zeros under renormalize;
    # that is pinned separately by the test below
    assume(not (mode == "renormalize" and _overflowing_rows(arr)))
    if kernel:
        new = _outcome(lambda: TransitionKernel(space, arr, mode).matrix)
        with np.errstate(all="ignore"):
            old = _outcome(lambda: _reference_kernel(space, arr, mode))
    else:
        new = _outcome(lambda: StatePMF(space, arr, mode).probs)
        with np.errstate(all="ignore"):
            old = _outcome(lambda: _reference_pmf(space, arr, mode))
    assert new == old
    assert new[0] == "raised" or new[-1] is False  # accepted arrays are read-only


def test_renormalize_rejects_an_overflowing_row_sum():
    # finite entries whose sum overflows used to renormalize to all zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            pmf([1e308, 1e308], mode="renormalize")
        assert str(err.value) == "pmf sums to inf, cannot renormalize"
        with pytest.raises(ValueError) as err:
            TransitionKernel(AB, np.array([[0.5, 0.5], [1e308, 1e308]]), "renormalize")
        assert str(err.value) == "row for state 'b': kernel row sums to inf, cannot renormalize"
        # strict mode reports the same overflowing total as before, silently
        with pytest.raises(ValueError, match="sums to inf, outside 1"):
            pmf([1e308, 1e308])


def test_first_bad_row_is_named_in_row_order():
    space = StateSpace(("a", "b", "c"))
    matrix = np.array([[0.5, 0.5, 0.0], [0.5, 0.6, 0.0], [np.nan, 0.5, 0.5]])
    with pytest.raises(ValueError) as err:
        TransitionKernel(space, matrix)
    assert str(err.value) == "row for state 'b': kernel row sums to 1.1, outside 1 +/- 1e-09"
    with pytest.raises(ValueError) as err:
        TransitionKernel(space, matrix, "loose")
    assert str(err.value).startswith("row for state 'a': unknown tolerance mode 'loose'")


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


def test_kl_known_values():
    # 0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5)
    assert kl_divergence(pmf([0.9, 0.1]), pmf([0.5, 0.5])) == pytest.approx(
        0.3680642071684971, abs=1e-15
    )
    # asymmetry: the reverse direction is a different number
    assert kl_divergence(pmf([0.5, 0.5]), pmf([0.9, 0.1])) == pytest.approx(
        0.5108256237659907, abs=1e-15
    )
    assert kl_divergence(pmf([0.5, 0.5]), pmf([0.5, 0.5])) == 0.0


def test_kl_zero_conventions():
    # zero mass in p contributes nothing, even against q = 0 there
    assert kl_divergence(pmf([0.0, 1.0]), pmf([0.5, 0.5])) == pytest.approx(
        math.log(2.0), abs=1e-15
    )
    assert kl_divergence(pmf([0.0, 1.0]), pmf([0.0, 1.0])) == 0.0
    # mass where the reference has none: +inf, not an error
    assert kl_divergence(pmf([0.5, 0.5]), pmf([1.0, 0.0])) == math.inf


def test_kl_requires_shared_space():
    with pytest.raises(ValueError, match="different state spaces"):
        kl_divergence(pmf([0.5, 0.5]), pmf([0.5, 0.5], space=StateSpace((1, 2))))


def test_kl_rows_matches_scalar_loop():
    rng = np.random.default_rng(42)
    p = rng.dirichlet(np.ones(4), size=5)
    q = rng.dirichlet(np.ones(4), size=5)
    stacked = kl_rows(p, q)
    for x in range(5):
        assert stacked[x] == pytest.approx(float(kl_rows(p[x], q[x])), abs=1e-15)


def test_kl_rows_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        expected = float(scipy_special.rel_entr(p, q).sum())
        assert float(kl_rows(p, q)) == pytest.approx(expected, abs=1e-12)


def test_kl_rows_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        kl_rows(np.ones(2) / 2, np.ones(3) / 3)


def test_kl_never_negative_on_near_identical_rows():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.dirichlet(np.ones(5))
        q = p * (1 + rng.normal(scale=1e-12, size=5))
        q = q / q.sum()
        assert float(kl_rows(p, q)) >= 0.0


def test_kl_rows_finite_against_subnormal_reference_mass():
    # p / q overflows where q is a positive subnormal, but the KL is finite
    tiny = 5e-324
    expected = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(tiny))
    assert float(kl_rows([0.5, 0.5], [1.0, tiny])) == pytest.approx(expected, rel=1e-15)
    assert float(kl_rows([1.0, tiny], [0.5, 0.5])) == pytest.approx(math.log(2.0), abs=1e-15)
    p = np.array([[0.5, 0.5], [0.9, 0.1], [0.5, 0.5]])
    q = np.array([[1.0, tiny], [0.5, 0.5], [1.0, 0.0]])
    stacked = kl_rows(p, q)
    assert stacked[0] == pytest.approx(expected, rel=1e-15)
    assert stacked[1] == kl_rows(p[1], q[1])  # rows that do not overflow keep their value
    assert stacked[2] == math.inf


def _reference_kl_rows(p, q):
    """Reference: the two-path `kl_rows` that re-ran the whole ratio when one entry overflowed."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    support = p > 0
    safe_q = np.where(q > 0, q, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        try:
            ratio = np.where(support, p / safe_q, 1.0)
            logs = np.log(ratio)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                ratio = np.where(support, p / safe_q, 1.0)
            logs = np.where(np.isinf(ratio), np.log(p) - np.log(safe_q), np.log(ratio))
        terms = np.where(support, p * logs, 0.0)
    out = np.maximum(terms.sum(axis=-1), 0.0)
    violated = (support & (q == 0.0)).any(axis=-1)
    return np.where(violated, np.inf, out)


#: Entries that hit `kl_rows`' edges: zero mass, and subnormal or tiny mass
#: whose ratio to an ordinary entry is subnormal or overflows.
KL_EDGE_ENTRIES = (0.0, 5e-324, 1e-310, 1e-300, 1e-17)


@st.composite
def kl_row_stacks(draw):
    """(p, q) of shape (d,), (k, d) or (S, d, d): Dirichlet rows with edge entries set in."""
    d = draw(st.integers(1, 9))
    lead = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(d,), (lead, d), (lead, d, d)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(shape):
        arr = rng.dirichlet(np.ones(d), size=shape[:-1])
        edges = st.tuples(st.integers(0, arr.size - 1), st.sampled_from(KL_EDGE_ENTRIES))
        for at, value in draw(st.lists(edges, max_size=arr.size)):
            arr.flat[at] = value
        return arr

    p = rows(shape)
    if len(shape) > 1 and draw(st.booleans()):  # one target block for every leading index
        return p, np.broadcast_to(rows(shape[1:]), shape)  # read-only, as `_kl_table` passes it
    return p, rows(shape)


@settings(max_examples=400, deadline=None)
@given(kl_row_stacks())
def test_kl_rows_equals_the_two_path_reference(pair):
    p, q = pair
    got = kl_rows(p, q)
    assert got.shape == p.shape[:-1]
    assert got.tobytes() == _reference_kl_rows(p, q).tobytes()


NAN = math.nan

#: Pairs the random net draws rarely or never: d = 1, all-zero p rows against
#: zero q entries, subnormal q, and NaN p.
KL_EDGE_PAIRS = [
    ([1.0], [1.0]),
    ([0.0], [0.0]),
    ([1.0], [0.0]),
    ([0.0], [1.0]),
    ([[1.0], [0.0], [1.0]], [[1.0], [1.0], [5e-324]]),
    ([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]], [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
    ([0.5, 0.5], [1.0, 5e-324]),
    ([[0.5, 0.5], [5e-324, 1.0], [0.0, 1.0]], [[1e-310, 1.0], [5e-324, 1.0], [5e-324, 1.0]]),
    ([NAN, 0.5], [0.5, 0.5]),
    ([NAN, 0.5], [0.0, 1.0]),
    ([NAN, 1.0], [0.5, 0.0]),
    ([[NAN, NAN], [0.5, 0.5]], [[0.5, 0.5], [5e-324, 1.0]]),
]


@pytest.mark.parametrize("p, q", KL_EDGE_PAIRS)
def test_kl_rows_equals_the_two_path_reference_at_the_edges(p, q):
    got, want = kl_rows(p, q), _reference_kl_rows(p, q)
    assert got.shape == np.shape(p)[:-1]
    # the reference drops a NaN term of p; kl_rows keeps the row NaN unless it is +inf
    nan_rows = np.isnan(p).any(axis=-1) & ~np.isinf(want)
    assert np.isnan(got[nan_rows]).all()
    assert got[~nan_rows].tobytes() == want[~nan_rows].tobytes()


def test_kl_rows_drops_a_term_whose_ratio_underflows_off_pmfs():
    # no pmf entry is 2 or more, but there p / q can underflow to 0 with p > 0.
    # That term counts 0 (its value, about -4e-321, rounds away beside log 2);
    # the two-path reference took its log as -inf and clamped the row to 0.
    p = np.array([0.5, 0.5, 5e-324])
    q = np.array([0.25, 0.25, 4.0])
    assert p[2] / q[2] == 0.0
    assert float(kl_rows(p, q)) == float(kl_rows(p[:2], q[:2])) == math.log(2.0)
    assert float(_reference_kl_rows(p, q)) == 0.0


def test_kl_rows_reads_a_nan_in_either_argument_as_nan():
    assert math.isnan(kl_rows([0.5, 0.5], [NAN, 1.0]))  # the two-path reference dropped it
    assert math.isnan(kl_rows([0.0, 1.0], [NAN, 1.0]))
    assert math.isnan(kl_rows([NAN, 0.5], [0.5, 0.5]))
    assert kl_rows([NAN, 1.0], [1.0, 0.0]) == math.inf  # a violation still wins


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
)
def test_kl_nonnegative_property(raw_p, raw_q):
    size = min(len(raw_p), len(raw_q))
    p = np.asarray(raw_p[:size]) / np.sum(raw_p[:size])
    q = np.asarray(raw_q[:size]) / np.sum(raw_q[:size])
    value = float(kl_rows(p, q))
    assert value >= 0.0
    assert float(kl_rows(p, p)) == 0.0


# ---------------------------------------------------------------------------
# expectations, argmin, weights
# ---------------------------------------------------------------------------


def test_expected_value():
    assert expected_value(pmf([0.25, 0.75]), [4.0, 8.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError, match="expected"):
        expected_value(pmf([0.25, 0.75]), [1.0, 2.0, 3.0])


def test_simplex_argmin_picks_first_minimum():
    result = simplex_argmin([3.0, -1.0, -1.0, 2.0])
    assert result.index == 1
    assert result.value == -1.0
    assert result.weights.is_vertex
    assert np.array_equal(result.weights.weights, [0.0, 1.0, 0.0, 0.0])


def test_simplex_argmin_ignores_inf_entries():
    result = simplex_argmin([math.inf, 5.0, math.inf])
    assert result.index == 1


def test_simplex_argmin_failure_modes():
    with pytest.raises(InfeasibleError, match="no feasible contributor"):
        simplex_argmin([math.inf, math.inf])
    with pytest.raises(ValueError, match="finite or \\+inf"):
        simplex_argmin([math.nan, 1.0])
    with pytest.raises(ValueError, match="finite or \\+inf"):
        simplex_argmin([-math.inf, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        simplex_argmin([])


def test_weight_vector_vertex_detection():
    assert WeightVector(np.array([0.0, 1.0, 0.0])).is_vertex
    assert not WeightVector(np.array([0.5, 0.5])).is_vertex
    vertex = WeightVector.vertex(4, 2)
    assert np.array_equal(vertex.weights, [0.0, 0.0, 1.0, 0.0])


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="sum"):
        WeightVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="non-negative"):
        WeightVector(np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="finite"):
        WeightVector(np.array([np.nan, 1.0]))


def test_log_pmf_silent_on_zero():
    out = log_pmf(np.array([0.0, 1.0, 0.5]))
    assert out[0] == -math.inf
    assert out[1] == 0.0
    assert out[2] == pytest.approx(math.log(0.5))


def test_an_empty_pmf_and_an_empty_weight_vector_are_rejected():
    with pytest.raises(ValueError) as err:
        StatePMF(AB, [])
    assert str(err.value) == "pmf must have at least one entry"
    with pytest.raises(ValueError) as err:
        WeightVector([])
    assert str(err.value) == "weights must be a non-empty vector"


# ---------------------------------------------------------------------------
# `_held`: the one rule for what the library derives from a frozen owner and keeps
# ---------------------------------------------------------------------------


def _owner():
    return Behavior(pmf([0.5, 0.5]), [TransitionKernel(AB, np.eye(2))])


def _counted(make=object):
    """A build function that returns a new ``make()`` each call, and the list of its calls."""
    calls = []
    return lambda: calls.append(1) or make(), calls


def test_held_matches_a_key_object_by_identity_not_by_equality():
    owner, key = _owner(), np.arange(3.0)
    build, calls = _counted()
    value = _held(owner, "_x", (key,), build)
    assert _held(owner, "_x", (key,), build) is value and len(calls) == 1
    twin = key.copy()
    assert np.array_equal(twin, key)
    assert _held(owner, "_x", (twin,), build) is not value and len(calls) == 2  # an equal copy
    assert _held(owner, "_x", (twin,), build) is not value and len(calls) == 2  # now held


def test_held_matches_plain_int_parts_by_value():
    owner, key = _owner(), np.arange(3.0)
    build, calls = _counted()
    big = 10**20  # each `10**20 + 0` below is a new int object
    value = _held(owner, "_x", (big, key), build)
    assert _held(owner, "_x", (big + 0, key), build) is value and len(calls) == 1
    for other in ((big + 1, key), (big, key.copy()), (key, big), (key,)):
        fresh = _owner()
        held = _held(fresh, "_x", (big, key), build)
        assert _held(fresh, "_x", other, build) is not held, other
    assert len(calls) == 1 + 4 * 2


def test_key_none_builds_and_holds_nothing_and_an_empty_key_builds_once():
    owner = _owner()
    build, calls = _counted()
    assert _held(owner, "_x", None, build) is not _held(owner, "_x", None, build)
    assert len(calls) == 2 and "_x" not in vars(owner)
    once = _held(owner, "_y", (), build)
    assert _held(owner, "_y", (), build) is once and len(calls) == 3


def test_a_shorter_or_a_longer_key_misses_and_rebuilds():
    owner, first, second = _owner(), np.zeros(1), np.ones(1)
    build, calls = _counted()
    value = _held(owner, "_x", (first, second), build)
    shorter = _held(owner, "_x", (first,), build)  # a key the entry's parts begin with
    assert shorter is not value and len(calls) == 2
    assert _held(owner, "_x", (first,), build) is shorter and len(calls) == 2
    longer = _held(owner, "_x", (first, second), build)  # a key that begins with its parts
    assert longer is not shorter and longer is not value and len(calls) == 3
    assert _held(owner, "_x", (first, second), build) is longer and len(calls) == 3


def test_a_dropped_key_object_is_freed_and_the_entry_keeps_its_value():
    owner, key = _owner(), np.arange(3.0)
    value = _held(owner, "_x", (key,), lambda: np.zeros(2))
    dropped = weakref.ref(key)
    del key
    assert dropped() is None  # by reference count alone: the entry holds a weak reference
    assert vars(owner)["_x"][1] is value


def test_held_arrays_come_back_read_only_however_deeply_nested():
    owner = _owner()
    value = _held(owner, "_x", (), lambda: (np.zeros(2), (np.ones(3), ("label", np.ones(1))), 7))
    flat, (nested, (_, deeper)), _ = value
    for arr in (flat, nested, deeper):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert not _held(owner, "_y", (), lambda: np.zeros(2)).flags.writeable


@pytest.mark.parametrize(
    "duplicate",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_pickle_or_copy_of_an_owner_starts_without_its_entries(duplicate):
    owner, key = _owner(), np.arange(3.0)
    bare = copy.copy(owner)
    _held(owner, "_x", (key,), lambda: np.zeros(2))
    _held(owner, "_y", (), object)
    twin = duplicate(owner)
    assert not {"_x", "_y"} & set(vars(twin))
    assert twin == owner == bare and repr(owner) == repr(bare)  # an entry is never compared


def test_threads_racing_on_a_cold_owner_each_get_a_value_equal_to_the_held_one():
    owner, key, count = _owner(), np.arange(3.0), 4
    start, got = threading.Barrier(count), [None] * count

    def build():
        time.sleep(0.01)  # every thread misses before any sets the entry
        return np.arange(3.0) * 2.0, "report"

    def work(i):
        start.wait(timeout=60)
        got[i] = _held(owner, "_x", (key,), build)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    held = vars(owner)["_x"][1]
    assert any(value is held for value in got)
    for table, report in got:
        assert np.array_equal(table, held[0]) and report == held[1]
    assert _held(owner, "_x", (key,), build) is held
