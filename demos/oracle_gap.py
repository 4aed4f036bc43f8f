"""Compare the synthesized bound against every oracle on small instances.

Three reference optimizers bracket the synthesizer:

* per-(time, state) schedule search by dynamic programming -- the same class
  the synthesizer optimizes over, so the values must coincide;
* per-time exhaustive search -- a strictly smaller class (one contributor per
  step for all states), so its optimum can only be worse or equal;
* a simplex grid over per-step mixture weights -- a different class that can
  genuinely beat every pure switch, because the cost is not linear in the
  weights: the synthesizer minimizes a log-sum bound that is linear in them and
  tight only at the vertices, and an interior mixture sometimes reproduces the
  target exactly.

The last section constructs the canonical certificate for that gap.
"""

import numpy as np

from crowdpolicy import (
    bound_value,
    generate_random_scenario,
    pure_schedule_oracle,
    simplex_grid_oracle,
    synthesize,
)
from crowdpolicy.model import (
    Behavior,
    RewardSchedule,
    StatePMF,
    StateSpace,
    TransitionKernel,
)
from crowdpolicy.synthesis import ContributorSet


def sweep() -> None:
    print("seed   d  N  S | bound        dp oracle    per-time     grid(res 4)")
    for seed in range(20, 28):
        scenario = generate_random_scenario(
            seed=seed, d=3, horizon=3, contributors=2, reward_range=(-1.5, 1.5)
        )
        rewards = scenario.reward_profile()
        policy = synthesize(scenario.target, scenario.contributors, rewards)
        bound = bound_value(policy, scenario.target)
        dp = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time-and-state"
        )
        pt = pure_schedule_oracle(
            scenario.target, scenario.contributors, rewards, mode="per-time"
        )
        grid = simplex_grid_oracle(scenario.target, scenario.contributors, rewards, 4)
        print(
            f"{seed:>4}   3  3  2 | {bound:+.8f}  {dp.cost:+.8f}  "
            f"{pt.cost:+.8f}  {grid.cost:+.8f}"
        )
    print()
    print("dp == bound on every row; per-time >= bound; the grid sometimes dips")
    print("below because interior mixtures are outside the switching class.")
    print()


def certificate() -> None:
    space = StateSpace(("L", "R"))
    uniform = TransitionKernel(space, np.full((2, 2), 0.5))
    target = Behavior(StatePMF(space, np.array([1.0, 0.0])), (uniform,))
    skew = lambda a, b: (TransitionKernel(space, np.array([[a, b], [a, b]])),)
    contributors = ContributorSet(
        space, (skew(0.9, 0.1), skew(0.1, 0.9)), ("left-ish", "right-ish")
    )
    rewards = RewardSchedule(space, np.zeros((1, 2)))

    policy = synthesize(target, contributors, rewards)
    vertex_cost = bound_value(policy, target)
    grid = simplex_grid_oracle(target, contributors, rewards, 2)

    print("interior-mixture certificate")
    print("  contributors [0.9, 0.1] and [0.1, 0.9], uniform target, no reward")
    print(f"  best vertex (pure switch) cost: {vertex_cost:.16f}")
    print(f"  50/50 mixture cost:             {grid.cost:.16f}")
    print(f"  grid weights: {grid.weights[0]}")
    print()
    print("the mixture reconstructs the target exactly, so it costs nothing,")
    print("while every single contributor pays the same positive divergence.")


if __name__ == "__main__":
    sweep()
    certificate()
