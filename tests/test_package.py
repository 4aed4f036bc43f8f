"""The package namespace: what ``import crowdpolicy`` exports."""

import importlib

import pytest

import crowdpolicy

MODULES = ("errors", "model", "synthesis", "evaluation", "scenario", "simulate")

# crowdpolicy.__all__ before the package took its exports from each module's __all__
EXPORTED_BEFORE = [
    "__version__", "CrowdPolicyError", "ValidationError", "InfeasibleError", "OracleGuardError",
    "StateSpace", "StatePMF", "TransitionKernel", "Behavior", "RewardSchedule", "WeightVector",
    "SimplexArgmin", "kl_divergence", "expected_value", "simplex_argmin", "ContributorSet",
    "FilterReport", "SynthesizedPolicy", "filter_contributors", "synthesize", "bound_value",
    "AgentPolicy", "CostBreakdown", "ScheduleResult", "GridSearchResult", "evaluate_cost",
    "trajectory_enumeration_cost", "logsum_bound_check", "pure_schedule_oracle",
    "simplex_grid_oracle", "Scenario", "demo_scenario_path", "load_scenario", "save_scenario",
    "load_policy", "save_policy", "generate_random_scenario", "Trajectory",
    "MonteCarloEstimate", "sample_trajectories", "most_likely_trajectory", "monte_carlo_cost",
    "write_trajectories_csv",
]


def test_every_name_exported_before_is_still_exported():
    assert len(EXPORTED_BEFORE) == 43
    assert [name for name in EXPORTED_BEFORE if name not in crowdpolicy.__all__] == []


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(set(crowdpolicy.__all__)) == len(crowdpolicy.__all__)
    assert [name for name in crowdpolicy.__all__ if not hasattr(crowdpolicy, name)] == []


def test_all_is_the_version_plus_every_module_all():
    modules = [importlib.import_module(f"crowdpolicy.{name}") for name in MODULES]
    assert crowdpolicy.__all__ == ["__version__"] + [
        name for module in modules for name in module.__all__
    ]


@pytest.mark.parametrize("name", MODULES)
def test_each_exported_name_is_the_module_object(name):
    module = importlib.import_module(f"crowdpolicy.{name}")
    assert [n for n in module.__all__ if getattr(crowdpolicy, n) is not getattr(module, n)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from crowdpolicy import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(crowdpolicy.__all__)
