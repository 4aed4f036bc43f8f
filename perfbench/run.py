"""Benchmark for the crowdpolicy library: one workload per run, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fresh-small --seed 1 --seconds 5 --trace 0

A single client thread drives the library's public functions in a closed
loop: each request is sent only after the previous one returned and its
result was checked. Checks run outside the timed region; a failed check or a
raised exception counts the request as failed.

Runs always cover whole passes over the workload's fixed request sequence,
so every run measures the same request mix. ``--trace 0`` makes passes until
``--seconds`` have elapsed and gives the end-to-end metrics. The host this
benchmark was built on is a shared machine whose speed for the same code
swings by a factor of two within seconds, as neighbours load the cores, so
every timing is scaled to a fixed host speed by `reference.ScaledTimer`: a
short reference kernel that does not touch the library is timed before,
during and after each request and set-up, and the wall time between
readings is multiplied by ``REFERENCE_MS`` over the reference's time. The
unscaled wall times are printed too. Set-up is repeated, at least
``SETUP_REPEATS`` times and for ``SETUP_SECONDS``, and ``setup_s`` is the
median. ``--trace 1`` runs every request once untraced and once traced,
back to back, writes the spans under ``.perfbench/`` and prints the
per-layer metrics derived from them, plus the tracing overhead.

Every run prints its environment and each metric by name and unit, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: Thread-count variables read by BLAS and OpenMP runtimes. Unset ones default
#: to 1 so the library runs on the single client thread; they are read when
#: NumPy is first imported, by `reference` below.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for var in THREAD_VARS:
    os.environ.setdefault(var, "1")

from reference import ScaledTimer, WallTimer  # noqa: E402
from spans import REQUEST, NullTracer, Tracer, layer_of, self_times_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Requests every workload sends per pass, so that one pass leaves at least
#: ten per-request latencies beyond the 90th percentile.
MIN_REQUESTS = 100

#: Requests run before timing starts, so lazy imports and caches settle.
WARMUP_REQUESTS = 5

#: An untraced run builds its workload at least this many times, and until
#: the builds have taken this many seconds, and reports the median build.
SETUP_REPEATS, SETUP_SECONDS = 3, 4.0

@dataclass
class Tally:
    """Outcomes of the requests run so far."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def run_pass(
    workload, tracer, tally: Tally, counts=None, first_id: int = 0, indices=None,
    timer=WallTimer,
) -> list:
    """Send the requests at ``indices`` (by default all) of the workload once.

    Each request is timed by a new ``timer()``. Returns those timers, None
    where the request raised.
    """
    timings: list = []
    for index in range(len(workload.requests)) if indices is None else indices:
        request = workload.requests[index]
        tally.attempted += 1
        tracer.request_id = first_id + index
        try:
            with timer() as timed, tracer.span(REQUEST):
                result = workload.run(index, request, tracer)
        except Exception:  # a failing request is counted, the run goes on
            tally.fail(f"request {index} raised:\n{traceback.format_exc()}")
            timings.append(None)
            continue
        timings.append(timed)
        problems = workload.check(index, request, result)
        if problems:
            tally.fail(f"request {index}: " + "; ".join(problems))
        if counts is not None:
            workload.count(request, result, counts)
    return timings


def _warm_up(workload, tracer, tally: Tally) -> None:
    """Run the first requests untimed; their checks still count."""
    run_pass(workload, tracer, tally, indices=range(min(WARMUP_REQUESTS, len(workload.requests))))


def _all_failed(tally: Tally) -> RuntimeError:
    return RuntimeError("every request of a pass failed:\n" + "\n".join(tally.problems))


def set_up(
    workload_cls, seed: int, workdir: Path, spare: Path, repeats: int = 1, seconds: float = 0.0,
):
    """Build the workload into ``workdir``, then again until it was built
    ``repeats`` times and the builds took ``seconds`` in all.

    Repetitions after the first build into ``spare`` and are dropped. Returns
    the workload and each build's (wall, scaled) seconds.
    """
    times: list[tuple[float, float]] = []
    while len(times) < repeats or sum(wall for wall, _ in times) < seconds:
        into = spare if times else workdir
        shutil.rmtree(into, ignore_errors=True)
        into.mkdir(parents=True)
        with ScaledTimer() as timer:
            built = workload_cls(seed, into)
        times.append((timer.wall_s, timer.scaled_s))
        if into is workdir:
            workload = built
        else:
            del built
            gc.collect()  # the dropped inputs' garbage is not left to a timed request
            shutil.rmtree(spare)
    return workload, times


def _latency_metrics(lat_ms: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "throughput_rps": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
    }


def _end_to_end(workload, seconds: float, tally: Tally, setup_times) -> tuple[dict, dict]:
    tracer = NullTracer()
    _warm_up(workload, tracer, tally)
    wall_ms: list[float] = []
    scaled_ms: list[float] = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for timed in run_pass(workload, tracer, tally, timer=ScaledTimer):
            if timed is not None:
                wall_ms.append(timed.wall_s * 1e3)
                scaled_ms.append(timed.scaled_s * 1e3)
        passes += 1
    if not scaled_ms:
        raise _all_failed(tally)
    metrics = _latency_metrics(scaled_ms)
    metrics["setup_s"] = (statistics.median(s for _, s in setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = {name: value for name, (value, _) in _latency_metrics(wall_ms).items()}
    wall["setup_s"] = statistics.median(w for w, _ in setup_times)
    details = {
        "passes": passes,
        "latency_samples": len(scaled_ms),
        "unscaled_wall": wall,
        "host_slowdown_median": statistics.median(w / s for w, s in zip(wall_ms, scaled_ms)),
    }
    return metrics, details


def _per_layer(workload, seconds: float, tally: Tally, trace_path: Path) -> tuple[dict, dict]:
    from workloads import Counts

    null, tracer = NullTracer(), Tracer()
    _warm_up(workload, null, tally)
    counts = Counts()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first_id = passes * len(workload.requests)
        for index in range(len(workload.requests)):
            # each request runs untraced and traced back to back, so both
            # see the same host speed; the order alternates so neither run
            # always finds the other's data in the caches
            latency = {}
            for run_tracer in (null, tracer) if index % 2 == 0 else (tracer, null):
                into = counts if run_tracer is null and not passes else None
                (latency[run_tracer],) = run_pass(
                    workload, run_tracer, tally, into, first_id, indices=[index]
                )
            if None not in latency.values():
                untraced_s.append(latency[null].wall_s)
                traced_s.append(latency[tracer].wall_s)
        passes += 1
    if not traced_s:
        raise _all_failed(tally)
    tracer.write(trace_path)

    spans = tracer.spans
    self_ns = self_times_ns(spans)
    is_request = [span.name == REQUEST for span in spans]
    wall = sum(s.end_ns - s.start_ns for s, r in zip(spans, is_request) if r) / 1e9 / passes
    requests = sum(is_request) / passes
    busy: dict[str, float] = {}
    calls: dict[str, float] = {}
    for span in spans:
        if span.parent is not None and is_request[span.parent]:
            for key in (layer_of(span.name), span.name):
                busy[key] = busy.get(key, 0.0) + (span.end_ns - span.start_ns) / 1e9 / passes
                calls[key] = calls.get(key, 0.0) + 1 / passes

    def rate(amount: float, function: str) -> float:
        return amount / busy[function] if busy.get(function) else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer in ("scenario", "synthesis", "evaluation", "simulate"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0.0), "count/pass")
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s/pass")
        metrics[f"{layer}.busy_share"] = (busy.get(layer, 0.0) / wall, "ratio")
    metrics["scenario.load_MBps"] = (
        rate(counts["scenario.bytes_loaded"] / 1e6, "scenario.load_scenario"), "MB/s"
    )
    metrics["synthesis.rows_scored"] = (counts["synthesis.rows_scored"], "rows/pass")
    metrics["synthesis.rows_scored_per_s"] = (
        rate(counts["synthesis.rows_scored"], "synthesis.synthesize"), "rows/s"
    )
    offered = counts["synthesis.offered"]
    metrics["synthesis.retained_ratio"] = (
        counts["synthesis.retained"] / offered if offered else 0.0, "ratio"
    )
    metrics["simulate.sampled_paths_per_s"] = (
        rate(counts["simulate.sampled_paths"], "simulate.sample_trajectories"), "paths/s"
    )
    metrics["simulate.mc_paths_per_s"] = (
        rate(counts["simulate.mc_paths"], "simulate.monte_carlo_cost"), "paths/s"
    )
    metrics["model.kl_row_evals"] = (counts["model.kl_row_evals"], "rows/pass")
    metrics["model.kl_bytes_computed"] = (counts["model.kl_bytes_computed"], "B/pass")
    metrics["model.rows_validated"] = (counts["model.rows_validated"], "rows/pass")
    scored = counts["synthesis.rows_scored"]
    metrics["workload.shared_row_ratio"] = (
        counts["workload.shared_rows"] / scored if scored else 0.0, "ratio"
    )
    request_self = sum(ns for ns, r in zip(self_ns, is_request) if r) / 1e9 / passes
    metrics["request.wall_ms"] = (wall / requests * 1e3, "ms")
    metrics["request.self_ms"] = (request_self / requests * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(untraced_s) - 1, "ratio")
    details = {
        "passes": passes,
        "spans": len(spans),
        "busy_s_per_pass_by_function": {k: v for k, v in busy.items() if "." in k},
        "computed_counts_per_pass": dict(sorted(counts.items())),
    }
    return metrics, details


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "client": "closed loop, 1 client thread",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crowdpolicy" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crowdpolicy

    if Path(crowdpolicy.__file__).resolve().parent != SRC / "crowdpolicy":
        print(f"error: imported crowdpolicy from {crowdpolicy.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out = ROOT / ".perfbench"
    workdir = out / f"work-{os.getpid()}"
    tally = Tally()
    try:
        repeats, seconds = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
        workload, setup_times = set_up(
            WORKLOADS[args.workload], args.seed, workdir / "inputs", workdir / "spare",
            repeats, seconds,
        )
        if args.trace:
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, details = _per_layer(workload, args.seconds, tally, trace_path)
            details["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, details = _end_to_end(workload, args.seconds, tally, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    env.update(workload=args.workload, seed=args.seed, sizes=workload.sizes(),
               setup_s_each=setup_times, **details)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems:
        print("failure " + problem)
    print(f"error_rate {tally.failed / tally.attempted!r} (failed {tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
