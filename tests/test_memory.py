"""Memory guard: a pool is held once, and synthesizing against it never copies it.

Measured with `tracemalloc` on the size of the benchmark's shared pool (d=64,
N=16, S=12: 6.29 MB of kernels). `tracemalloc` counts NumPy's heap buffers but
not the anonymous memory map a generated pool lives in, so generation, sparse
or dense, may put on the heap only the target and temporaries, well under a quarter of a pool:
a pool built on the heap, or per-kernel copies held next to the pool, would
pass a whole pool. A `synthesize` that copied the pool per call would
allocate more than one pool.

The pool holds one KL table, for the last target it was scored against: at
most ``POOL_BYTES / D`` bytes, a warm call allocates less than the cold call
that built it, and the table keeps no target alive. A pool with contributors
the filter report excludes is read step by step, never copied whole: a warm
call that looks for dead states peaks within a quarter of one KL table of a
warm call on the same pool that has none to look for. `kl_rows` holds one
float temporary the size of its input. A cold table on a long-horizon pool
(d=64, N=64, S=2) is built in blocks of whole steps and peaks below a quarter
of that pool.

A behavior holds one sampled draw, the last, as one entry, ``_draw``: after
draws under many seeds it retains ``3 * (N + 1) * count * 8`` bytes, its paths
and its own and its target's log terms, not one draw per seed, and the draw
keeps no target or reward schedule alive. Its sampling tables are the logs of
its initial pmf and kernels, ``(N * d * d + d) * 8`` bytes, and its guide tables
over their R = N * d + 1 rows: ``(R + 1) * 8`` bytes of row starts, 9 bytes
for each of the P positive entries (a one-byte state index and its CDF value
at d <= 256), and an R by M one-byte guide, M the power of two in (2d, 4d].
Building the guide holds, besides the tables it keeps (about 1.6 kernel
stacks on a dense d=256 behavior), one float and one index array per positive
entry: at d=256 its peak stays below 4 times the kernel stack, where an
(N, d, M, d) one-byte comparison array would take 128 times, and a per-entry
(row, state) index pair with its cell arithmetic would take over 7 times. A
behavior only ever used as a target holds the logs alone. A behavior holding
its most likely path is freed as soon as it is dropped.

A synthesized agent holds its KL rows against its target: dropping them frees
``N * d * 8`` bytes and a few hundred of header and key, counted from two
snapshots as the blocks alive at the first and gone at the second, so nothing
allocated between them counts; they are never a view into the pool's table, and
they keep no target alive. Any other behaviour `evaluate_cost` costs holds the
same ``N * d * 8`` bytes for that target. Every value kept is a `model._held`
entry. Its marginals, held once read, are ``(N + 1) * d * 8`` bytes, and an
agent holding them is freed as soon as it is dropped.
"""

import copy
import gc
import tracemalloc
import weakref

import numpy as np

from crowdpolicy import (
    bound_value,
    evaluate_cost,
    generate_random_scenario,
    monte_carlo_cost,
    most_likely_trajectory,
    sample_trajectories,
    synthesize,
)
from crowdpolicy.model import Behavior, _mu, kl_rows
from crowdpolicy.simulate import _guide_tables
from crowdpolicy.synthesis import ContributorSet, _scored

D, HORIZON, CONTRIBUTORS = 64, 16, 12
POOL_BYTES = CONTRIBUTORS * HORIZON * D * D * 8


def test_pool_is_held_once_and_never_copied_per_request():
    generate_random_scenario(0, 2, 1, 1, sparsity=0.3)  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        scenario = generate_random_scenario(11, D, HORIZON, CONTRIBUTORS, sparsity=0.3)
        _, generation_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        synthesize(scenario.target, scenario.contributors, scenario.reward_profile())
        _, synthesis_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scenario.contributors.matrices.nbytes == POOL_BYTES
    assert generation_peak <= 0.25 * POOL_BYTES
    assert synthesis_peak - baseline < POOL_BYTES


def test_a_dense_pool_is_generated_with_no_pool_sized_temporary():
    # the sparsity=0 twin of the generation peak above: dense rows are drawn
    # whole-array, and normalised in blocks of rows, not in one pool-sized pass
    generate_random_scenario(0, 2, 1, 1)  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        scenario = generate_random_scenario(11, D, HORIZON, CONTRIBUTORS)
        _, generation_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scenario.contributors.matrices.nbytes == POOL_BYTES
    assert generation_peak <= 0.25 * POOL_BYTES


def test_held_table_is_small_warm_calls_allocate_less_and_no_target_is_kept_alive():
    scenario = generate_random_scenario(11, D, HORIZON, CONTRIBUTORS, sparsity=0.3)
    target, contributors, rewards = (
        scenario.target, scenario.contributors, scenario.reward_profile()
    )
    del scenario
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):  # cold, then warm
            tracemalloc.reset_peak()
            baseline, _ = tracemalloc.get_traced_memory()
            synthesize(target, contributors, rewards)
            peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
    finally:
        tracemalloc.stop()
    cold_peak, warm_peak = peaks
    assert warm_peak < cold_peak
    (key,), (held, _) = vars(contributors)["_scored"]  # the `model._held` entry
    assert key() is target and _scored(target, contributors)[0] is held
    assert held.nbytes <= POOL_BYTES // D

    dropped = weakref.ref(target)
    del target
    gc.collect()
    assert dropped() is None


def _peak_of(call, *args, **kwargs):
    """Bytes `call` allocates on the heap above what was held before it, at its peak."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def test_a_pool_with_excluded_contributors_is_read_step_by_step_never_copied_whole():
    # the target is contributor 0's kernels, zeros included; odd contributors
    # reweight it on its support, the random even ones after 0 break it, and
    # the whole pool is scored
    scenario = generate_random_scenario(11, D, HORIZON, CONTRIBUTORS, sparsity=0.3)
    source = scenario.contributors.matrices
    target = Behavior._of(scenario.target.initial, np.array(source[0]))
    rng = np.random.default_rng(5)
    matrices = np.array(source)
    kept = target.matrices * rng.uniform(0.5, 1.5, (CONTRIBUTORS // 2, HORIZON, D, D))
    matrices[1::2] = kept / kept.sum(axis=-1, keepdims=True)
    contributors = ContributorSet._of(scenario.space, matrices, scenario.contributors.ids)
    rewards = scenario.reward_profile()
    synthesize(target, contributors, rewards)  # cold: builds the held table
    peak = _peak_of(synthesize, target, contributors, rewards)
    retained = synthesize(target, contributors, rewards).filter_report.retained_ids
    assert CONTRIBUTORS // 2 <= len(retained) < CONTRIBUTORS
    assert peak < POOL_BYTES // 4


def test_a_warm_call_with_dead_state_checks_holds_no_copy_of_the_kl_table():
    # one k=4 target entry zeroed: 9 of the 12 contributors are excluded, so the
    # sweep checks for dead states; a copy of the held table would add a whole one
    scenario = generate_random_scenario(5, D, HORIZON, CONTRIBUTORS, sparsity=0.3)
    matrices = np.array(scenario.target.matrices)
    matrices[3, 0, 6] = 0.0
    matrices[3, 0] /= matrices[3, 0].sum()
    zeroed = Behavior._of(scenario.target.initial, matrices)
    contributors, rewards = scenario.contributors, scenario.reward_profile()
    peaks = {}
    for name, target in (("twin", scenario.target), ("zeroed", zeroed)):
        synthesize(target, contributors, rewards)  # cold: builds the held table
        peaks[name] = _peak_of(synthesize, target, contributors, rewards)
    assert len(synthesize(zeroed, contributors, rewards).filter_report.exclusions) == 9
    kl_bytes = _scored(zeroed, contributors)[0].nbytes
    assert kl_bytes == CONTRIBUTORS * HORIZON * D * 8 == 98_304
    assert peaks["zeroed"] - peaks["twin"] < kl_bytes // 4


def test_kl_rows_holds_one_float_temporary():
    # the ratio, its log and the terms share one buffer; a form holding two
    # input-sized float temporaries at once peaks above two inputs, and at
    # 512 KB each they trip glibc's trim threshold on every request
    scenario = generate_random_scenario(11, D, HORIZON, 1, sparsity=0.3)
    p, q = np.array(scenario.contributors.matrices[0]), scenario.target.matrices
    kl_rows(p, q)
    assert _peak_of(kl_rows, p, q) < 2 * p.nbytes


def test_a_cold_kl_table_on_a_long_horizon_pool_peaks_below_a_quarter_pool():
    # d=64, N=64, S=2: 8,192 entries a step, a 4 MB pool. Blocks of whole steps, at most
    # 2**16 entries a `kl_rows` call, peak near a fifth of it; one call a contributor would
    # take 0.70 of the pool, one call over the whole pool 1.39
    scenario = generate_random_scenario(11, 64, 64, 2, sparsity=0.3)
    target, contributors = scenario.target, scenario.contributors
    _scored(target, ContributorSet._of(scenario.space, contributors.matrices, contributors.ids))
    assert "_scored" not in vars(contributors)  # the twin above holds its own table
    assert _peak_of(_scored, target, contributors) < contributors.matrices.nbytes // 4


def test_a_behavior_holds_one_draw_whatever_the_number_of_seeds():
    # the monte-carlo workload's sizes: d=20, N=20, 1000 paths per call
    scenario = generate_random_scenario(5, 20, 20, 2, sparsity=0.3)
    target, rewards = scenario.target, scenario.reward_profile()
    monte_carlo_cost(copy.copy(target), target, rewards, 1000, 0)  # lazy imports stay out
    policy = copy.copy(target)
    count, horizon = 1000, target.horizon
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        for seed in range(20):
            monte_carlo_cost(policy, target, rewards, count, seed)
            sample_trajectories(policy, count, seed, target)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    (key_seed, key_count, held_target), (paths, terms) = vars(policy)["_draw"]  # one entry
    assert (key_seed, key_count) == (19, count) and held_target() is target
    held = paths.nbytes + terms.nbytes
    assert held == 3 * (horizon + 1) * count * 8 == 504_000
    d = target.space.size
    rows, buckets = horizon * d + 1, 2 << d.bit_length()
    positive = np.count_nonzero(target.initial.probs) + np.count_nonzero(target.matrices)
    logs = (horizon * d * d + d) * 8
    tables = sum(table.nbytes for name in ("_logs", "_guides") for table in vars(policy)[name][1])
    assert (rows, buckets, positive) == (401, 64, 8020)  # the workload's target has no zero
    assert tables == logs + (rows + 1) * 8 + positive * (1 + 8) + rows * buckets == 165_220
    assert "_guides" not in vars(target)
    assert sum(table.nbytes for table in vars(target)["_logs"][1]) == logs
    assert held <= retained < 2 * held


def test_building_the_guide_holds_no_per_bucket_comparison_array():
    policy = generate_random_scenario(7, 256, 2, 1, sparsity=0.3).target
    _guide_tables(generate_random_scenario(7, 4, 2, 1).target)  # lazy imports stay out
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        guide = _guide_tables(policy)[-1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert guide.shape == (2 * 256 + 1, 1024) and guide.dtype == np.uint8
    # an (N, d, M, d) one-byte array alone would take 2 * 256 * 1024 * 256 B, 128 stacks; the
    # build holds its tables, about 1.6 stacks, and one float and one index per entry
    assert peak - baseline < 4 * policy.matrices.nbytes


def test_the_held_draw_keeps_no_target_or_rewards_alive():
    scenario = generate_random_scenario(5, 6, 4, 2, sparsity=0.3)
    target, rewards = scenario.target, scenario.reward_profile()
    policy = copy.copy(target)
    del scenario
    monte_carlo_cost(policy, target, rewards, 100, 3)
    sample_trajectories(policy, 100, 3, target)
    (seed, count, held), (_, terms) = vars(policy)["_draw"]  # the `model._held` entry
    assert (seed, count) == (3, 100) and held() is target and terms.shape == (2, 5, 100)
    dropped = weakref.ref(target), weakref.ref(rewards)
    del target, rewards
    gc.collect()
    assert [ref() for ref in dropped] == [None, None]
    assert held() is None and vars(policy)["_draw"][1][1] is terms


def test_a_behavior_holding_its_most_likely_path_is_freed_once_dropped():
    scenario = generate_random_scenario(5, 6, 4, 2, sparsity=0.3)
    target, rewards = scenario.target, scenario.reward_profile()
    policy = copy.copy(target)
    del scenario
    monte_carlo_cost(policy, target, rewards, 100, 3)
    sample_trajectories(policy, 100, 3, target)
    best = most_likely_trajectory(policy)
    assert vars(policy)["_best"][1] is best and "_draw" in vars(policy)
    dropped = weakref.ref(policy)
    del policy
    assert dropped() is None  # by reference count alone: the held state makes no cycle
    assert best == most_likely_trajectory(copy.copy(target))


def test_an_agent_holding_its_marginals_is_freed_once_dropped():
    scenario = generate_random_scenario(5, 6, 4, 2, sparsity=0.3)
    target, contributors, rewards = (
        scenario.target, scenario.contributors, scenario.reward_profile()
    )
    del scenario
    policy = synthesize(target, contributors, rewards)
    bound_value(policy, target)
    evaluate_cost(policy.agent, target, rewards)
    mu = _mu(policy.agent)
    assert vars(policy.agent)["_mu"][1] is mu and mu.nbytes == (4 + 1) * 6 * 8
    dropped = weakref.ref(policy.agent)
    del policy
    assert dropped() is None  # by reference count alone: the held marginals make no cycle


def test_an_agent_retains_only_its_n_by_d_kl_rows_more():
    scenario = generate_random_scenario(11, D, HORIZON, CONTRIBUTORS, sparsity=0.3)
    target, contributors, rewards = (
        scenario.target, scenario.contributors, scenario.reward_profile()
    )
    synthesize(target, contributors, rewards)  # builds and holds the pool's table
    tracemalloc.start(32)  # whole call stacks, so an allocation site is seldom shared
    try:
        policy = synthesize(target, contributors, rewards)
        gc.collect()
        with_rows = tracemalloc.take_snapshot()
        rows = vars(policy.agent)["_kl"][1]
        row_bytes = rows.nbytes
        del rows
        object.__delattr__(policy.agent, "_kl")  # drops the `model._held` entry
        gc.collect()
        without_rows = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert "_kl" not in vars(policy.agent)
    assert row_bytes == HORIZON * D * 8
    # the bytes alive at the first reading and gone at the second: the rows, plus a few
    # hundred bytes of array header and key; what is allocated between the readings adds none
    changes = without_rows.compare_to(with_rows, "traceback")
    freed = -sum(change.size_diff for change in changes if change.size_diff < 0)
    assert row_bytes <= freed < row_bytes + 1024


def test_a_costed_behaviour_that_is_no_agent_holds_its_n_by_d_kl_rows_too():
    # `evaluate_cost` holds the rows it computes, the size an agent already holds
    scenario = generate_random_scenario(11, D, HORIZON, 2, sparsity=0.3)
    target, rewards = scenario.target, scenario.reward_profile()
    behaviour = Behavior._of(target.initial, np.array(scenario.contributors.matrices[0]))
    del scenario
    want = repr(evaluate_cost(behaviour, target, rewards))
    (key,), rows = vars(behaviour)["_kl"]
    assert key() is target and rows.nbytes == HORIZON * D * 8 and not rows.flags.writeable
    assert repr(evaluate_cost(behaviour, target, rewards)) == want
    assert vars(behaviour)["_kl"][1] is rows  # reused for that very target
    dropped = weakref.ref(target)
    del target
    assert dropped() is None  # by reference count alone: the rows keep no target alive


def test_the_agents_held_kl_rows_keep_no_target_alive():
    scenario = generate_random_scenario(5, 6, 4, 3, sparsity=0.3)
    target, contributors, rewards = (
        scenario.target, scenario.contributors, scenario.reward_profile()
    )
    del scenario
    policy = synthesize(target, contributors, rewards)
    assert vars(policy.agent)["_kl"][0][0]() is target
    twin = copy.copy(target)
    want = evaluate_cost(copy.copy(policy.agent), twin, rewards)  # the agent keeps target's rows
    dropped = weakref.ref(target)
    del target
    gc.collect()
    assert dropped() is None
    assert vars(policy.agent)["_kl"][0][0]() is None
    assert repr(evaluate_cost(policy.agent, twin, rewards)) == repr(want)
