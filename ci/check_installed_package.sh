#!/usr/bin/env bash
# Runs the installed package from outside the checkout: the console script,
# the packaged demo scenario and every CLI command, with no PYTHONPATH.
# Tier-1 imports src/ through PYTHONPATH, so it would pass without the
# packaged data/*.json or the console script; this uses only what is
# installed.
#
# Usage: ci/check_installed_package.sh WORKDIR
# It writes its outputs under WORKDIR, which must exist. CI runs it after
# `pip install ".[test]"`; README's "Installation" shows how to run it
# against a source tree through a venv and a console-script shim.
set -eo pipefail
cd "${1:?usage: check_installed_package.sh WORKDIR}"
unset PYTHONPATH
# a NumPy RuntimeWarning that leaks out of the library fails this
# step, as filterwarnings in pyproject.toml fails tier-1
export PYTHONWARNINGS=error::RuntimeWarning
python -c "from crowdpolicy import *"
demo="$(python -c 'import crowdpolicy; print(crowdpolicy.demo_scenario_path())')"
crowdpolicy demo --out demo-out
# marginals.csv and report.json are array expressions over one
# forward pass; a second run writes the same bytes on every leg,
# the NumPy floor's np.vecdot too (timing.json holds wall time)
crowdpolicy demo --out demo-out2
diff -r -x timing.json demo-out demo-out2
crowdpolicy validate --scenario "$demo"
# main writes timing.json after every command with --out
crowdpolicy synthesize --scenario "$demo" --reward-profile favor-node-2 --out syn
test -f syn/timing.json
# simulate's estimate and trajectories share the behaviour's held
# draw; the same run again writes the same trajectory bytes
crowdpolicy simulate --scenario "$demo" --reward-profile favor-node-2 --policy syn/policy.json --count 50 --seed 1 --out sim
test -f sim/trajectories.csv && test -f sim/timing.json
crowdpolicy simulate --scenario "$demo" --reward-profile favor-node-2 --policy syn/policy.json --count 50 --seed 1 --out sim2
cmp sim/trajectories.csv sim2/trajectories.csv
# Trajectory is a frozen dataclass with slots, which pickles through
# dataclasses' own state helpers, and those differ between Python
# versions: a sampled batch and the held most likely path round-trip
# through pickle and deepcopy equal on every leg
python -c '
import copy, pickle
import crowdpolicy as cp
demo = cp.load_scenario(cp.demo_scenario_path())
agent = cp.synthesize(demo.target, demo.contributors, demo.rewards["favor-node-2"]).agent
batch = cp.sample_trajectories(agent, 50, 1, demo.target)
best = cp.most_likely_trajectory(agent)
assert cp.most_likely_trajectory(agent) is best
for value in (batch, best):
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert restored == value and repr(restored) == repr(value), restored
'
# evaluate and oracle from the console script too: the synthesized
# policy costs what the per-(step, state) oracle finds, exactly
crowdpolicy evaluate --scenario "$demo" --reward-profile favor-node-2 --policy syn/policy.json --out ev
test -f ev/report.json && test -f ev/timing.json
crowdpolicy oracle --scenario "$demo" --reward-profile favor-node-2 --out orc
python -c 'import json, sys; sys.exit(json.load(open("orc/report.json"))["gap_oracle_minus_bound"] != 0.0)'
# the grid oracle refuses the demo's N=4 (it takes N <= 3): exit code 4
rc=0
crowdpolicy oracle --scenario "$demo" --reward-profile favor-node-2 --mode per-time --grid-resolution 2 || rc=$?
test "$rc" -eq 4
# the smallest pool that breaks the target's support only in a state
# without mass: synthesize answers (exit 0), and the per-(step, state)
# oracle on the whole pool finds the same cost exactly
cat > unreachable.json <<'JSON'
{"scenario_version": 1, "name": "unreachable-violation", "states": ["a", "b"],
 "horizon": 1, "target": {"initial": [1.0, 0.0], "kernels": [[[1.0, 0.0], [0.0, 1.0]]]},
 "contributors": [{"id": "c", "kernels": [[[1.0, 0.0], [0.72, 0.28]]]}],
 "rewards": {"p": [[-0.1033, 0.2329]]}}
JSON
crowdpolicy synthesize --scenario unreachable.json --out unreachable-syn
crowdpolicy oracle --scenario unreachable.json --out unreachable-orc
python -c 'import json, sys; sys.exit(json.load(open("unreachable-orc/report.json"))["gap_oracle_minus_bound"] != 0.0)'
# a policy whose horizon is not the scenario's is a validation error
# (exit code 2) naming both horizons
cat > two-step.json <<'JSON'
{"policy_version": 1, "states": ["a", "b"], "initial": [1.0, 0.0],
 "kernels": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]]}
JSON
rc=0
crowdpolicy evaluate --scenario unreachable.json --policy two-step.json 2> two-step.err || rc=$?
test "$rc" -eq 2
grep -F "policy horizon 2 != scenario horizon 1" two-step.err
# one reward domain: a profile whose per-step largest magnitudes,
# summed forward, reach half the largest double is refused when the
# scenario loads (exit code 2), naming the profile and the step
cat > past-limit.json <<'JSON'
{"scenario_version": 1, "name": "past-limit", "states": ["s"], "horizon": 3,
 "target": {"initial": [1.0], "kernels": [[1.0]]},
 "contributors": [{"id": "c", "kernels": [[1.0]]}],
 "rewards": {"big": [[-3.5953862697246315e+307], [-3.5953862697246315e+307], [3.5953862697246315e+307]]}}
JSON
rc=0
crowdpolicy validate --scenario past-limit.json 2> past-limit.err || rc=$?
test "$rc" -eq 2
grep -F "reward profile 'big'" past-limit.err
grep -F "k=3" past-limit.err
# at 0.3 of the limit a step, down-down-up: the backward and forward
# sums both stay finite, and the oracle finds the bound exactly
cat > near-limit.json <<'JSON'
{"scenario_version": 1, "name": "near-limit", "states": ["s"], "horizon": 3,
 "target": {"initial": [1.0], "kernels": [[1.0]]},
 "contributors": [{"id": "c", "kernels": [[1.0]]}],
 "rewards": {"near": [[-2.6965397022934733e+307], [-2.6965397022934733e+307], [2.6965397022934733e+307]]}}
JSON
crowdpolicy synthesize --scenario near-limit.json --out near-syn
crowdpolicy evaluate --scenario near-limit.json --policy near-syn/policy.json
crowdpolicy oracle --scenario near-limit.json --out near-orc
python -c 'import json, sys; sys.exit(json.load(open("near-orc/report.json"))["gap_oracle_minus_bound"] != 0.0)'
# 50 sampled paths of the same costs: their plain float sum would
# overflow, and the estimate is exact with a zero spread
crowdpolicy simulate --scenario near-limit.json --policy near-syn/policy.json --count 50 --seed 1 --out near-sim
python -c 'import json, sys; r = json.load(open("near-sim/report.json")); sys.exit(r["monte_carlo"]["estimate"] != r["exact_cost"]["total"] or r["monte_carlo"]["stderr"] != 0.0)'
