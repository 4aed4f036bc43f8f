"""The benchmark's workloads: generated inputs, request sequence, checks, counts.

Each workload builds its inputs from the benchmark seed when constructed (the
set-up the benchmark times) and exposes:

* ``requests``, the fixed request sequence of one pass;
* ``run``, called inside the timed region, which makes the request's calls
  into the library, one span per call, named ``<layer>.<function>`` after
  the module that owns the function;
* ``check``, called outside it, which returns the problems found in the
  result (none when it is correct);
* ``count``, called outside it, which adds the work the request implies to a
  `Counts`, computed from the inputs and the result.

Why these three workloads:

* ``fresh-small`` sends ~200 distinct small scenario files plus the bundled
  demo through the whole file path (load, synthesize, bound, evaluate, save).
  Nothing is shared between requests, so parsing, validation and per-row
  Python overhead dominate, and it is the bypass case for any cache.
* ``shared-pool`` re-synthesizes one large scenario under fresh reward
  schedules. Every KL and filter result repeats across requests, so it is
  where caching or vectorising the scoring would show.
* ``monte-carlo`` samples one fixed policy; only the simulate layer runs.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from crowdpolicy import (
    Behavior,
    ContributorSet,
    RewardSchedule,
    Scenario,
    StatePMF,
    StateSpace,
    TransitionKernel,
    bound_value,
    demo_scenario_path,
    evaluate_cost,
    generate_random_scenario,
    load_policy,
    load_scenario,
    monte_carlo_cost,
    most_likely_trajectory,
    pure_schedule_oracle,
    sample_trajectories,
    save_policy,
    save_scenario,
    synthesize,
)

#: Absolute tolerance of every equality check between two exact routes.
TOL = 1e-9

#: The pure-schedule oracle check runs on requests 0, 10, 20, ... of a pass.
ORACLE_EVERY = 10

#: Contributor rows are sparsified entrywise with this probability.
SPARSITY = 0.3

FLOAT_BYTES = 8


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


class Counts(Counter):
    """Work implied by the requests of one pass, computed rather than timed.

    ``seen_pairs`` holds a digest of every (contributor row, target row) pair
    scored so far in the pass, so repeats can be told from new pairs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.seen_pairs: set[bytes] = set()

    def loaded(self, scenario: Scenario, path: Path) -> None:
        n, d = scenario.horizon, scenario.space.size
        self["scenario.bytes_loaded"] += path.stat().st_size
        # one initial pmf plus every target and contributor kernel row
        self["model.rows_validated"] += 1 + n * d * (1 + scenario.contributors.size)

    def synthesized(self, target: Behavior, offered, policy) -> None:
        n, d = target.horizon, target.space.size
        # the filter stops scanning a contributor at its first violating step
        stop = {e.contributor_id: e.k for e in policy.filter_report.exclusions}
        filter_rows = sum(d * stop.get(cid, n) for cid in offered.ids)
        retained = [offered.ids.index(cid) for cid in policy.contributor_ids]
        scored = n * d * len(retained)
        self["synthesis.offered"] += offered.size
        self["synthesis.retained"] += len(retained)
        self["synthesis.rows_scored"] += scored
        self._kl_rows(filter_rows + scored, d)
        self["model.rows_validated"] += n * d  # the agent's kernels
        for idx in range(n):
            target_rows = target.kernels[idx].matrix
            for i in retained:
                rows = offered.kernels[i][idx].matrix
                for x in range(d):
                    key = hashlib.blake2b(
                        rows[x].tobytes() + target_rows[x].tobytes(), digest_size=16
                    ).digest()
                    if key in self.seen_pairs:
                        self["workload.shared_rows"] += 1
                    else:
                        self.seen_pairs.add(key)

    def evaluated(self, target: Behavior) -> None:
        self._kl_rows(target.horizon * target.space.size, target.space.size)

    def _kl_rows(self, rows: int, d: int) -> None:
        self["model.kl_row_evals"] += rows
        self["model.kl_bytes_computed"] += rows * 2 * d * FLOAT_BYTES


def _retained_pool(scenario: Scenario, policy):
    ids = scenario.contributors.ids
    return scenario.contributors.subset([ids.index(cid) for cid in policy.contributor_ids])


def _synthesis_problems(index: int, scenario: Scenario, rewards, policy, bound, total) -> list[str]:
    problems = []
    if not abs(bound - total) <= TOL:
        problems.append(f"bound_value {bound!r} != evaluate_cost {total!r}")
    if index % ORACLE_EVERY == 0:
        oracle = pure_schedule_oracle(
            scenario.target, _retained_pool(scenario, policy), rewards, "per-time-and-state"
        )
        if not abs(bound - oracle.cost) <= TOL:
            problems.append(f"bound_value {bound!r} != oracle cost {oracle.cost!r}")
    return problems


def _random_scenario(
    rng: np.random.Generator, name: str, d: int, horizon: int, contributors: int,
    zero_target: bool,
) -> Scenario:
    """A random scenario, built from the library's own types.

    Rows follow `generate_random_scenario`'s distributions: Dirichlet draws
    with a small floor for the target, and contributor rows sparsified
    entrywise, keeping the largest entry of a row that would lose them all.
    They are drawn with whole-array calls: the library's row-by-row
    generator takes about two and a half times as long to build these 200
    scenarios.

    With ``zero_target``, one target entry that a random contributor avoids
    is zeroed. That contributor stays admissible, so the filter always keeps
    someone, and every contributor with mass on the entry is excluded.
    """

    def pmfs(*shape: int) -> np.ndarray:
        rows = rng.dirichlet(np.ones(d), size=shape) + 1e-6
        return rows / rows.sum(axis=-1, keepdims=True)

    initial, target, pool = pmfs(), pmfs(horizon, d), pmfs(contributors, horizon, d)
    drop = rng.random(pool.shape) < SPARSITY
    emptied = np.nonzero(drop.all(axis=-1))
    drop[emptied + (pool[emptied].argmax(axis=-1),)] = False
    pool = np.where(drop, 0.0, pool)
    pool /= pool.sum(axis=-1, keepdims=True)
    if zero_target:
        holes = np.argwhere(pool[rng.integers(contributors)] == 0.0)
        if len(holes):
            k, x, entry = holes[rng.integers(len(holes))]
            target[k, x, entry] = 0.0
            target[k, x] /= target[k, x].sum()
    space = StateSpace(tuple(range(d)))

    def kernels(matrices: np.ndarray) -> tuple[TransitionKernel, ...]:
        return tuple(TransitionKernel(space, m) for m in matrices)

    return Scenario(
        name=name,
        space=space,
        target=Behavior(StatePMF(space, initial), kernels(target)),
        contributors=ContributorSet(
            space,
            tuple(kernels(matrices) for matrices in pool),
            tuple(f"c{i + 1}" for i in range(contributors)),
        ),
        rewards={"default": RewardSchedule(space, rng.uniform(-1.0, 1.0, (horizon, d)))},
    )


def _cycle(bounds: tuple[int, int], j: int) -> int:
    low, high = bounds
    return low + j % (high - low + 1)


@dataclass(frozen=True)
class FileRequest:
    scenario: Path
    profile: str | None
    policy_out: Path


@dataclass
class FileResult:
    scenario: Scenario
    rewards: RewardSchedule
    policy: Any
    bound: float
    total: float


class FreshSmall:
    """Distinct small scenario files, each loaded, solved and saved once a pass."""

    name = "fresh-small"
    SCENARIOS = 200
    D, HORIZON, CONTRIBUTORS = (6, 16), (4, 12), (2, 8)
    DEMO_PROFILE = "favor-node-2"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = _rng(seed)
        inputs, outputs = workdir / "scenarios", workdir / "policies"
        inputs.mkdir()
        outputs.mkdir()
        files = []
        for j in range(self.SCENARIOS):
            # sizes cycle through each range with co-prime periods, so every
            # seed gets the same mix of sizes and only the contents differ
            scenario = _random_scenario(
                rng, f"fresh-{j}", _cycle(self.D, j), _cycle(self.HORIZON, j),
                _cycle(self.CONTRIBUTORS, j), zero_target=j % 4 == 0,
            )
            path = inputs / f"{j:03d}.json"
            save_scenario(scenario, path)
            files.append((path, None))
        files.append((demo_scenario_path(), self.DEMO_PROFILE))
        order = rng.permutation(len(files))
        self.requests = [
            FileRequest(*files[j], outputs / f"{i:03d}.json") for i, j in enumerate(order)
        ]

    def run(self, index: int, request: FileRequest, tracer) -> FileResult:
        with tracer.span("scenario.load_scenario"):
            scenario = load_scenario(request.scenario)
        rewards = scenario.reward_profile(request.profile)
        with tracer.span("synthesis.synthesize"):
            policy = synthesize(scenario.target, scenario.contributors, rewards)
        with tracer.span("synthesis.bound_value"):
            bound = bound_value(policy, scenario.target)
        with tracer.span("evaluation.evaluate_cost"):
            total = evaluate_cost(policy.agent, scenario.target, rewards).total
        with tracer.span("scenario.save_policy"):
            save_policy(policy.agent, request.policy_out)
        return FileResult(scenario, rewards, policy, bound, total)

    def check(self, index: int, request: FileRequest, result: FileResult) -> list[str]:
        problems = _synthesis_problems(
            index, result.scenario, result.rewards, result.policy, result.bound, result.total
        )
        if load_policy(request.policy_out, result.scenario.space) != result.policy.agent:
            problems.append("saved policy does not reload equal to the agent")
        return problems

    def count(self, request: FileRequest, result: FileResult, counts: Counts) -> None:
        counts.loaded(result.scenario, request.scenario)
        counts.synthesized(result.scenario.target, result.scenario.contributors, result.policy)
        counts.evaluated(result.scenario.target)

    def sizes(self) -> dict[str, Any]:
        return {
            "requests_per_pass": len(self.requests),
            "generated_scenarios": self.SCENARIOS,
            "d": list(self.D),
            "horizon": list(self.HORIZON),
            "contributors": list(self.CONTRIBUTORS),
            "sparsity": SPARSITY,
            "with_target_zero": "every 4th generated scenario",
            "demo_profile": self.DEMO_PROFILE,
        }


@dataclass
class PoolResult:
    policy: Any
    bound: float
    total: float


class SharedPool:
    """One large scenario re-solved under a fresh reward schedule per request."""

    name = "shared-pool"
    D, HORIZON, CONTRIBUTORS, SCHEDULES = 64, 16, 12, 100

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = _rng(seed)
        self.scenario = generate_random_scenario(
            int(rng.integers(2**63)), self.D, self.HORIZON, self.CONTRIBUTORS,
            sparsity=SPARSITY, name="shared-pool",
        )
        self.requests = [
            RewardSchedule(self.scenario.space, rng.uniform(-1.0, 1.0, (self.HORIZON, self.D)))
            for _ in range(self.SCHEDULES)
        ]

    def run(self, index: int, rewards: RewardSchedule, tracer) -> PoolResult:
        target, pool = self.scenario.target, self.scenario.contributors
        with tracer.span("synthesis.synthesize"):
            policy = synthesize(target, pool, rewards)
        with tracer.span("synthesis.bound_value"):
            bound = bound_value(policy, target)
        with tracer.span("evaluation.evaluate_cost"):
            total = evaluate_cost(policy.agent, target, rewards).total
        return PoolResult(policy, bound, total)

    def check(self, index: int, rewards: RewardSchedule, result: PoolResult) -> list[str]:
        return _synthesis_problems(
            index, self.scenario, rewards, result.policy, result.bound, result.total
        )

    def count(self, rewards: RewardSchedule, result: PoolResult, counts: Counts) -> None:
        counts.synthesized(self.scenario.target, self.scenario.contributors, result.policy)
        counts.evaluated(self.scenario.target)

    def sizes(self) -> dict[str, Any]:
        return {
            "requests_per_pass": len(self.requests),
            "d": self.D,
            "horizon": self.HORIZON,
            "contributors": self.CONTRIBUTORS,
            "sparsity": SPARSITY,
        }


@dataclass
class SimulationResult:
    trajectories: list
    estimate: Any
    best: Any


class MonteCarlo:
    """One synthesized policy sampled with a new Philox seed per request."""

    name = "monte-carlo"
    D, HORIZON, CONTRIBUTORS, REQUESTS, PATHS = 20, 20, 8, 100, 1000

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = _rng(seed)
        self.scenario = generate_random_scenario(
            int(rng.integers(2**63)), self.D, self.HORIZON, self.CONTRIBUTORS,
            sparsity=SPARSITY, name="monte-carlo",
        )
        self.rewards = self.scenario.reward_profile()
        self.agent = synthesize(self.scenario.target, self.scenario.contributors, self.rewards).agent
        self.exact = evaluate_cost(self.agent, self.scenario.target, self.rewards).total
        base = int(rng.integers(2**32))
        self.requests = [base + i for i in range(self.REQUESTS)]

    def run(self, index: int, seed: int, tracer) -> SimulationResult:
        target = self.scenario.target
        with tracer.span("simulate.sample_trajectories"):
            trajectories = sample_trajectories(self.agent, self.PATHS, seed, target)
        with tracer.span("simulate.monte_carlo_cost"):
            estimate = monte_carlo_cost(self.agent, target, self.rewards, self.PATHS, seed)
        with tracer.span("simulate.most_likely_trajectory"):
            best = most_likely_trajectory(self.agent)
        return SimulationResult(trajectories, estimate, best)

    def check(self, index: int, seed: int, result: SimulationResult) -> list[str]:
        est = result.estimate
        problems = []
        if len(result.trajectories) != self.PATHS or est.count != self.PATHS:
            problems.append("wrong number of paths")
        if not abs(est.estimate - self.exact) <= 5.0 * est.stderr:
            problems.append(
                f"estimate {est.estimate!r} is more than 5 stderr ({est.stderr!r}) "
                f"from the exact cost {self.exact!r}"
            )
        index = {label: i for i, label in enumerate(self.scenario.space.labels)}
        arrivals = np.array([[index[s] for s in t.states[1:]] for t in result.trajectories])
        collected = self.rewards.values[np.arange(self.HORIZON), arrivals].sum(axis=1)
        per_path = [
            t.log_prob_policy - t.log_prob_target - r
            for t, r in zip(result.trajectories, collected)
        ]
        mean = math.fsum(per_path) / len(per_path)
        if not abs(mean - est.estimate) <= TOL:
            problems.append(f"trajectory mean {mean!r} != monte_carlo_cost {est.estimate!r}")
        top = max(t.log_prob_policy for t in result.trajectories)
        if result.best.log_prob_policy < top - TOL:
            problems.append("a sampled trajectory is likelier than the most likely one")
        return problems

    def count(self, seed: int, result: SimulationResult, counts: Counts) -> None:
        counts["simulate.sampled_paths"] += len(result.trajectories)
        counts["simulate.mc_paths"] += result.estimate.count

    def sizes(self) -> dict[str, Any]:
        return {
            "requests_per_pass": len(self.requests),
            "d": self.D,
            "horizon": self.HORIZON,
            "contributors": self.CONTRIBUTORS,
            "sparsity": SPARSITY,
            "paths_per_call": self.PATHS,
        }


WORKLOADS = {w.name: w for w in (FreshSmall, SharedPool, MonteCarlo)}
