"""The benchmark's generated inputs: stable for a seed, valid, conservative.

Run with `PYTHONPATH=src python -m pytest bench`.
"""

import hashlib

import pytest

import checks
from worker import SCENARIOS
from bufferlane import scenario
from bufferlane.solver import simulate

# sha256 of each workload's text for seed 0; a change here changes the
# benchmark's inputs and needs a new baseline
TEXT_SHA256 = {
    "junction-grid":
        "a7d99e9df24154a827c9fb4c880c0e37fcf6b48f60bbd9875de546f1ecda2854",
    "fine-roads-cli":
        "136698ef2de7e9fc245fc1d897aa301f66ac7a25dcdeabc724eacf4547b4b3dd",
    "route-queries":
        "ff5bdf8fab41141ef28ea639d68a8fea787a2683d1121a3fe38edeb9dfd2af80",
}


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_text_is_fixed_by_seed(workload):
    make = SCENARIOS[workload]
    assert make(0) == make(0)
    assert make(0) != make(1)
    digest = hashlib.sha256(make(0).encode()).hexdigest()
    assert digest == TEXT_SHA256[workload]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_parses_validates_and_conserves_mass(workload, seed):
    doc = scenario.parse_scenario(SCENARIOS[workload](seed))
    network = scenario.build_network(doc)
    assert network.validate() is network
    tau = min(e.h for e in network.edges.values()) / 2
    log = simulate(network, scenario.build_initial(doc), 40 * tau)
    assert checks.check_log(log) == []
