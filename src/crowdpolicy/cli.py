"""Command-line front end.

Subcommands: validate, synthesize, evaluate, oracle, simulate, demo.

Exit codes: 0 success, 2 scenario or policy validation failure, 3
infeasibility (the initial pmf on a dead state, or an estimand undefined for
the given inputs), 4 oracle guard refusal, 1 unexpected internal error.

`main` runs every command the same way: it starts the clock, `_inputs` loads
the scenario and reward profile and starts the report, the command's handler
adds its own fields and returns the report, and `_finish` writes
``report.json`` and ``timing.json`` under ``--out``; nothing else writes them.
`synthesize` and `demo` solve each reward profile through `_solve`, which
computes every number before it writes the profile's policy and CSV files.

All file outputs are written atomically (temp file in the same directory,
then rename). Given the same scenario and flags, report.json and every CSV
are byte-identical across runs; wall-clock timings therefore live in a
separate ``timing.json`` sidecar, which every command with an ``--out``
directory writes (synthesize, evaluate, oracle, simulate, demo), and the
``--out`` directory itself is never embedded in a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InfeasibleError, OracleGuardError, ValidationError
from .evaluation import evaluate_cost, pure_schedule_oracle, simplex_grid_oracle
from .model import Behavior, RewardSchedule, _mu
from .scenario import (
    Scenario,
    _atomic_write_text,
    _csv_text,
    demo_scenario_path,
    load_policy,
    load_scenario,
    save_policy,
)
from .simulate import (
    monte_carlo_cost,
    most_likely_trajectory,
    sample_trajectories,
    write_trajectories_csv,
)
from .synthesis import SynthesizedPolicy, bound_value, synthesize

PROG = "crowdpolicy"


# ---------------------------------------------------------------------------
# small output helpers
# ---------------------------------------------------------------------------


def _jsonable(obj: Any) -> Any:
    """Recursively convert to plain JSON types; infinities become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):  # NumPy's float64 is a float too
        return "inf" if obj > 0 else "-inf"
    return obj


def _dump_json(doc: Any) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _pure_costs(scenario: Scenario, rewards: RewardSchedule) -> dict[str, float]:
    """Cost of each contributor's own kernels from the target's initial pmf."""
    target, pool = scenario.target, scenario.contributors
    return {
        cid: evaluate_cost(Behavior._of(target.initial, own), target, rewards).total
        for cid, own in zip(pool.ids, pool.matrices)
    }


def _flags(args: argparse.Namespace) -> dict:
    """Flag set embedded in reports; --out is deliberately omitted."""
    keep = ("scenario", "reward_profile", "policy", "seed", "count", "mode",
            "grid_resolution", "tolerance_mode")
    return {key: getattr(args, key) for key in keep if hasattr(args, key)}


def _inputs(args: argparse.Namespace) -> tuple[Scenario, RewardSchedule | None, dict]:
    """Scenario (the bundled demo without --scenario), reward schedule, and report head.

    The schedule is None, and the head has no ``reward_profile``, when the
    command takes no --reward-profile; without a name, a scenario's sole
    profile is used.
    """
    path = Path(args.scenario) if hasattr(args, "scenario") else demo_scenario_path()
    scenario = load_scenario(path, args.tolerance_mode)
    report = {
        "command": args.command,
        "scenario_name": scenario.name,
        "scenario_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "flags": _flags(args),
    }
    if not hasattr(args, "reward_profile"):
        return scenario, None, report
    try:
        rewards = scenario.reward_profile(args.reward_profile)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    report["reward_profile"] = args.reward_profile or next(iter(scenario.rewards))
    return scenario, rewards, report


def _policy(args: argparse.Namespace, scenario: Scenario) -> Behavior:
    """The --policy file, checked against the scenario's states and horizon."""
    policy = load_policy(args.policy, scenario.space, args.tolerance_mode)
    if policy.horizon != scenario.horizon:
        raise ValidationError(
            f"policy horizon {policy.horizon} != scenario horizon {scenario.horizon}"
        )
    return policy


def _finish(args: argparse.Namespace, report: dict, started: float) -> None:
    """Write report.json and timing.json under --out when the command has one."""
    if getattr(args, "out", None) is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(out / "report.json", _dump_json(report))
        timing = {"seconds": time.perf_counter() - started}
        _atomic_write_text(out / "timing.json", _dump_json(timing))


def _solve(
    scenario: Scenario, rewards: RewardSchedule, out: Path, prefix: str = ""
) -> tuple[SynthesizedPolicy, dict]:
    """Synthesize and cost one reward profile, then write its files under ``out / prefix``.

    Nothing is written until every number is computed. Returns the policy and
    its report block, whose output names carry ``prefix``.
    """
    policy = synthesize(scenario.target, scenario.contributors, rewards)
    labels, selection = scenario.space.labels, policy.selection_table()
    kernels = [f"{prefix}agent_kernel_k{k}.csv" for k in range(1, policy.horizon + 1)]
    outputs = {"policy": f"{prefix}policy.json", "selection": f"{prefix}selection.csv",
               "kernels": kernels, "marginals": f"{prefix}marginals.csv"}
    block = {
        "bound_value": bound_value(policy, scenario.target),
        "exact_cost": asdict(evaluate_cost(policy.agent, scenario.target, rewards)),
        "pure_contributor_costs": _pure_costs(scenario, rewards),
        "selection": selection,
        "outputs": outputs,
    }
    (out / prefix).mkdir(parents=True, exist_ok=True)
    save_policy(policy.agent, out / outputs["policy"])
    steps = [[k, *ids] for k, ids in enumerate(selection, start=1)]
    _atomic_write_text(out / outputs["selection"], _csv_text(["k", *labels], steps))
    for name, matrix in zip(kernels, policy.agent.matrices):
        rows = [[label, *row] for label, row in zip(labels, matrix.tolist())]
        _atomic_write_text(out / name, _csv_text(["from", *labels], rows))
    rows = [[k, *mu] for k, mu in enumerate(_mu(policy.agent).tolist())]  # k = 0..N, held
    _atomic_write_text(out / outputs["marginals"], _csv_text(["k", *labels], rows))
    return policy, block


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(
    args: argparse.Namespace, scenario: Scenario, rewards: None, report: dict
) -> dict:
    print(f"scenario OK: {scenario.name}")
    print(f"  states: {scenario.space.size}  horizon: {scenario.horizon}")
    print(f"  contributors: {', '.join(scenario.contributors.ids)}")
    print(f"  reward profiles: {', '.join(scenario.rewards)}")
    return report


def cmd_synthesize(
    args: argparse.Namespace, scenario: Scenario, rewards: RewardSchedule, report: dict
) -> dict:
    out = Path(args.out)
    policy, block = _solve(scenario, rewards, out)
    filtered = policy.filter_report  # admissibility only: excluded contributors may be selected
    excluded = [{"id": e.contributor_id, "k": e.k, "state": e.state} for e in filtered.exclusions]
    report.update(block, filter={"retained": filtered.retained_ids, "excluded": excluded})
    print(f"synthesized {scenario.name} [{report['reward_profile']}]")
    print(f"  bound value: {block['bound_value']!r}")
    print(f"  exact cost:  {block['exact_cost']['total']!r}")
    print(f"  outputs in {out}")
    return report


def cmd_evaluate(
    args: argparse.Namespace, scenario: Scenario, rewards: RewardSchedule, report: dict
) -> dict:
    policy = _policy(args, scenario)
    report["cost"] = asdict(evaluate_cost(policy, scenario.target, rewards))
    sys.stdout.write(_dump_json(report))
    return report


def cmd_oracle(
    args: argparse.Namespace, scenario: Scenario, rewards: RewardSchedule, report: dict
) -> dict:
    policy = synthesize(scenario.target, scenario.contributors, rewards)
    bound = bound_value(policy, scenario.target)
    mode = {"per-time": "per-time", "per-time-state": "per-time-and-state"}[args.mode]
    pool = scenario.contributors  # the whole pool, as synthesize scores it
    result = pure_schedule_oracle(scenario.target, pool, rewards, mode)
    report.update(
        bound_value=bound,
        oracle={**asdict(result), "mode": args.mode, "contributor_ids": pool.ids},
        gap_oracle_minus_bound=result.cost - bound,
    )
    if args.grid_resolution is not None:
        grid = simplex_grid_oracle(scenario.target, pool, rewards, args.grid_resolution)
        report["grid"] = {**asdict(grid), "resolution": args.grid_resolution}
    sys.stdout.write(_dump_json(report))
    return report


def cmd_simulate(
    args: argparse.Namespace, scenario: Scenario, rewards: RewardSchedule, report: dict
) -> dict:
    policy = _policy(args, scenario)
    try:
        estimate = monte_carlo_cost(policy, scenario.target, rewards, args.count, args.seed)
    except ValueError as exc:  # a sampled path the target cannot produce
        raise InfeasibleError(str(exc)) from None
    trajectories = sample_trajectories(policy, args.count, args.seed, scenario.target)
    exact = evaluate_cost(policy, scenario.target, rewards)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectories_csv(trajectories, out / "trajectories.csv")
    report.update(
        monte_carlo={**asdict(estimate), "seed": args.seed},
        exact_cost=asdict(exact),
        outputs={"trajectories": "trajectories.csv"},
    )
    print(
        f"simulated {args.count} trajectories: estimate {estimate.estimate!r} "
        f"(stderr {estimate.stderr!r}), exact {exact.total!r}"
    )
    print(f"  outputs in {out}")
    return report


def cmd_demo(args: argparse.Namespace, scenario: Scenario, rewards: None, report: dict) -> dict:
    out = Path(args.out)
    profiles: dict[str, Any] = {}
    for profile, schedule in scenario.rewards.items():
        policy, block = _solve(scenario, schedule, out, f"{profile}/")
        route = most_likely_trajectory(policy.agent)
        sampled = sample_trajectories(policy.agent, 1, args.seed, target=scenario.target)[0]
        _atomic_write_text(
            out / profile / "route.json",
            _dump_json({
                "profile": profile,
                "most_likely": route.states,
                "most_likely_log_prob": route.log_prob_policy,
                "sampled": sampled.states,
                "sample_seed": args.seed,
            }),
        )
        block["outputs"]["route"] = f"{profile}/route.json"
        block.update(most_likely_route=route.states, sampled_route=sampled.states)
        profiles[profile] = block
        print(f"[{profile}] most likely route: {' -> '.join(str(s) for s in route.states)}")
        costs = ", ".join(f"{c}: {v!r}" for c, v in block["pure_contributor_costs"].items())
        print(f"[{profile}] agent cost {block['exact_cost']['total']!r} vs contributors {costs}")
    report["profiles"] = profiles
    print(f"demo outputs in {out}")
    return report


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _count_type(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return value


def _add_tolerance_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--strict", dest="tolerance_mode", action="store_const", const="strict",
        help="reject probability rows that do not sum to 1 (default)",
    )
    group.add_argument(
        "--renormalize", dest="tolerance_mode", action="store_const",
        const="renormalize", help="rescale probability rows by their sum",
    )
    sub.set_defaults(tolerance_mode="strict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Synthesize an agent behavior from contributor kernels by "
        "divergence-guided switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)  # shared by the commands that read a profile
    inputs.add_argument("--scenario", required=True, help="scenario JSON file")
    inputs.add_argument("--reward-profile", help="profile name; a sole profile needs none")

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("synthesize", parents=[inputs], help="build the switched agent policy")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("evaluate", parents=[inputs], help="cost a policy file against a scenario")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("oracle", parents=[inputs], help="compare the bound to schedule search")
    p.add_argument(
        "--mode", choices=("per-time", "per-time-state"), default="per-time-state"
    )
    p.add_argument(
        "--grid-resolution", dest="grid_resolution", type=_count_type, default=None,
        help="also run the mixture-weight grid oracle at this resolution",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("simulate", parents=[inputs], help="sample paths and estimate the cost")
    p.add_argument("--policy", required=True)
    p.add_argument("--count", type=_count_type, required=True)
    p.add_argument("--seed", type=_seed_type, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("demo", help="run the bundled six-node road-network demo")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.set_defaults(handler=cmd_demo)

    for p in sub.choices.values():
        _add_tolerance_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = time.perf_counter()
        scenario, rewards, report = _inputs(args)
        _finish(args, args.handler(args, scenario, rewards, report), started)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except OracleGuardError as exc:
        print(f"oracle refused: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
