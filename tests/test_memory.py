"""Memory guard: a pool is held once, and synthesizing against it never copies it.

Measured with `tracemalloc` on the size of the benchmark's shared pool (d=64,
N=16, S=12: 6.29 MB of kernels). `tracemalloc` counts NumPy's heap buffers but
not the anonymous memory map a generated pool lives in, so generation may put
on the heap only the target and temporaries, well under a quarter of a pool:
a pool built on the heap, or per-kernel copies held next to the pool, would
pass a whole pool. A `synthesize` that copied the pool per call would
allocate more than one pool.

The pool holds one KL table, for the last target it was scored against: at
most ``POOL_BYTES / D`` bytes, a warm call allocates less than the cold call
that built it, and the table keeps no target alive.
"""

import gc
import tracemalloc
import weakref

from crowdpolicy import generate_random_scenario, synthesize
from crowdpolicy.synthesis import _kl_table

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
    held = _kl_table(target, contributors)
    assert contributors._held[0]() is target and contributors._held[1] is held
    assert held.nbytes <= POOL_BYTES // D

    dropped = weakref.ref(target)
    del target
    gc.collect()
    assert dropped() is None
