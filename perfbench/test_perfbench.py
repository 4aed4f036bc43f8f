"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from crowdpolicy import load_scenario, save_policy, save_scenario  # noqa: E402
from spans import REQUEST, NullTracer, Tracer, layer_of, self_times_ns  # noqa: E402
from workloads import WORKLOADS, Counts, SharedPool  # noqa: E402

#: Requests per workload used by these tests; enough to include scenarios
#: with target zeros and one pure-schedule oracle check.
FIRST = {"fresh-small": 40, "shared-pool": 3, "monte-carlo": 3}


def _build(name: str, seed: int, workdir: Path):
    workdir.mkdir()
    workload = WORKLOADS[name](seed, workdir)
    workload.requests = workload.requests[: FIRST[name]]
    return workload


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request, tmp_path_factory):
    return _build(request.param, 7, tmp_path_factory.mktemp("w") / "inputs")


def _counts(workload) -> Counts:
    counts = Counts()
    tally = run.Tally()
    run.run_pass(workload, NullTracer(), tally, counts)
    assert tally.failed == 0, tally.problems
    return counts


def test_computed_counts_repeat_for_a_fixed_seed(workload, tmp_path):
    again = _build(workload.name, 7, tmp_path / "again")
    first = _counts(workload)
    assert first
    assert _counts(again) == first
    assert _counts(workload) == first
    scored, shared = first["synthesis.rows_scored"], first["workload.shared_rows"]
    if workload.name == "fresh-small":
        assert 0 < first["synthesis.retained"] < first["synthesis.offered"]
        assert shared < 0.01 * scored
    elif workload.name == "shared-pool":
        n = len(workload.requests)
        assert shared * n == scored * (n - 1)


def _corrupt(name: str):
    if name == "fresh-small":
        def corrupt(result, request):
            save_policy(result.scenario.target, request.policy_out)
            return result
    elif name == "shared-pool":
        def corrupt(result, request):
            return dataclasses.replace(result, bound=result.bound + 1e-6)
    else:
        def corrupt(result, request):
            estimate = dataclasses.replace(
                result.estimate, estimate=result.estimate.estimate + 1e-6
            )
            return dataclasses.replace(result, estimate=estimate)
    return corrupt


def test_corrupted_results_count_as_failures(workload, monkeypatch):
    corrupt = _corrupt(workload.name)
    original = workload.run
    monkeypatch.setattr(
        workload, "run", lambda i, request, tracer: corrupt(original(i, request, tracer), request)
    )
    tally = run.Tally()
    run.run_pass(workload, NullTracer(), tally)
    assert tally.attempted == len(workload.requests)
    assert tally.failed == tally.attempted


def test_raising_request_counts_as_failure_and_pass_goes_on(tmp_path, monkeypatch):
    workload = _build("shared-pool", 7, tmp_path / "pool")
    original = workload.run

    def flaky(i, request, tracer):
        if i == 1:
            raise RuntimeError("boom")
        return original(i, request, tracer)

    monkeypatch.setattr(workload, "run", flaky)
    tally = run.Tally()
    timings = run.run_pass(workload, NullTracer(), tally)
    assert (tally.attempted, tally.failed) == (len(workload.requests), 1)
    assert [t is None for t in timings] == [i == 1 for i in range(len(workload.requests))]
    assert "boom" in tally.problems[0]


def test_run_stops_when_no_request_of_a_pass_succeeds(tmp_path, monkeypatch):
    workload = _build("shared-pool", 7, tmp_path / "pool")

    def broken(i, request, tracer):
        raise RuntimeError("down")

    monkeypatch.setattr(workload, "run", broken)
    with pytest.raises(RuntimeError, match="every request of a pass failed"):
        run._end_to_end(workload, 0.0, run.Tally(), [(1.0, 1.0)])
    with pytest.raises(RuntimeError, match="every request of a pass failed"):
        run._per_layer(workload, 0.0, run.Tally(), tmp_path / "trace.json")


def test_span_self_times_account_for_request_time(workload):
    tracer = Tracer()
    run.run_pass(workload, tracer, run.Tally())
    spans = tracer.spans
    self_ns = self_times_ns(spans)
    for i, span in enumerate(spans):
        children = [s for s in spans if s.parent == i]
        assert self_ns[i] + sum(c.end_ns - c.start_ns for c in children) == span.end_ns - span.start_ns
        assert self_ns[i] >= 0
        if span.name == REQUEST:
            assert span.parent is None
        else:
            assert spans[span.parent].name == REQUEST
            assert spans[span.parent].request_id == span.request_id
            assert layer_of(span.name) in {"scenario", "synthesis", "evaluation", "simulate"}


def test_per_layer_metrics_cover_the_request_wall_time(tmp_path):
    workload = _build("shared-pool", 7, tmp_path / "pool")
    tally = run.Tally()
    metrics, details = run._per_layer(workload, 0.0, tally, tmp_path / "trace.json")
    assert tally.failed == 0
    wall = metrics["request.wall_ms"][0]
    shares = sum(metrics[f"{layer}.busy_share"][0]
                 for layer in ("scenario", "synthesis", "evaluation", "simulate"))
    assert shares + metrics["request.self_ms"][0] / wall == pytest.approx(1.0, abs=1e-9)
    assert metrics["synthesis.calls"][0] == 2 * len(workload.requests)
    assert metrics["workload.shared_row_ratio"][0] == pytest.approx(2 / 3)
    written = json.loads((tmp_path / "trace.json").read_text())
    assert len(written["spans"]) == details["spans"]


def test_every_workload_sends_enough_requests_per_pass_for_its_p90():
    sizes = {"fresh-small": WORKLOADS["fresh-small"].SCENARIOS + 1,
             "shared-pool": WORKLOADS["shared-pool"].SCHEDULES,
             "monte-carlo": WORKLOADS["monte-carlo"].REQUESTS}
    assert sizes.keys() == WORKLOADS.keys()
    assert min(sizes.values()) >= run.MIN_REQUESTS


def test_shared_pool_inputs_depend_only_on_the_seed(tmp_path):
    a = SharedPool(1, tmp_path)
    b = SharedPool(1, tmp_path)
    c = SharedPool(2, tmp_path)
    assert a.scenario == b.scenario and a.requests == b.requests
    assert a.scenario != c.scenario


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


class _Echo:
    """A workload whose requests return at once, to test the run loop alone."""

    name = "echo"
    requests = list(range(run.MIN_REQUESTS))

    def run(self, index, request, tracer):
        return request

    def check(self, index, request, result):
        return [] if result == request else ["wrong"]


def test_end_to_end_keeps_one_latency_per_request_and_pass():
    tally = run.Tally()
    metrics, details = run._end_to_end(_Echo(), 0.0, tally, [(2.0, 1.0), (6.0, 3.0), (4.0, 2.0)])
    assert details["passes"] == 1
    assert details["latency_samples"] == run.MIN_REQUESTS
    assert tally.attempted == run.WARMUP_REQUESTS + run.MIN_REQUESTS
    assert tally.failed == 0
    assert metrics["setup_s"] == (2.0, "s")
    assert details["unscaled_wall"]["setup_s"] == 4.0
    assert 0 < metrics["latency_p50_ms"][0] <= metrics["latency_p90_ms"][0]


class _Inputs:
    """A workload whose set-up sleeps and writes one file, to test `run.set_up` alone."""

    def __init__(self, seed, workdir):
        time.sleep(0.1)
        self.path = workdir / "input.txt"
        self.path.write_text(str(seed))


def test_setup_is_repeated_into_a_spare_directory(tmp_path):
    workload, times = run.set_up(_Inputs, 5, tmp_path / "inputs", tmp_path / "spare", 3)
    assert len(times) == 3
    # the timer leaves out its own readings, which run during the sleep
    assert all(0.05 < wall <= 0.2 and scaled > 0 for wall, scaled in times)
    assert workload.path.read_text() == "5"
    assert not (tmp_path / "spare").exists()
    _, times = run.set_up(_Inputs, 5, tmp_path / "inputs", tmp_path / "spare", 1, 0.15)
    assert len(times) == 2


def test_scaled_time_follows_the_reference_speed(monkeypatch):
    readings = []
    monkeypatch.setattr(
        reference, "reference_ms", lambda: readings.append(1) or 2 * reference.REFERENCE_MS
    )
    handler = signal.getsignal(signal.SIGALRM)
    with reference.ScaledTimer() as timer:
        time.sleep(3 * reference.ScaledTimer.LAP_S)
    assert len(readings) >= 4  # on entry, at least twice during the sleep, on exit
    assert timer.wall_s >= 3 * reference.ScaledTimer.LAP_S
    assert timer.scaled_s == pytest.approx(timer.wall_s / 2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fresh_small_files_are_written_by_the_library(tmp_path):
    workload = _build("fresh-small", 7, tmp_path / "inputs")
    for request in workload.requests[:5]:
        saved = tmp_path / "saved.json"
        save_scenario(load_scenario(request.scenario), saved)
        assert saved.read_bytes() == request.scenario.read_bytes()
