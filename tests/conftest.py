import itertools

import numpy as np
import pytest

from flowsamp import (Allocation, EpochConfig, EstimatorMode, Formulation, FlowSpec,
                      RateProcess, SamplingQuery, SolverConfig, SwitchSpec,
                      build_network)
from flowsamp.instances import ScenarioBundle, two_switch_toy


@pytest.fixture
def toy_network():
    return two_switch_toy()


def random_instance(rng, max_switches=3, max_flows=6):
    """Small random instance with a mix of tight and slack capacities."""
    ns = int(rng.integers(1, max_switches + 1))
    nf = int(rng.integers(1, max_flows + 1))
    switches = [SwitchSpec(f"s{i}", float(rng.uniform(1, 50))) for i in range(ns)]
    sids = [s.id for s in switches]
    flows = []
    for j in range(nf):
        k = int(rng.integers(1, ns + 1))
        path = tuple(sids[i] for i in rng.choice(ns, size=k, replace=False))
        flows.append(FlowSpec(f"f{j}", "x", "y", path,
                              float(rng.uniform(0.05, 1.0)),
                              float(rng.uniform(0, 100)),
                              float(rng.uniform(0, 900))))
    return build_network(switches, flows)


def all_allocations(network):
    choices = [[None] + sorted(f.path) for f in network.flows]
    for combo in itertools.product(*choices):
        yield Allocation({f.id: s for f, s in zip(network.flows, combo) if s is not None})


def partly_admitted_bundle(seed):
    """Two 1 s epochs on one switch (budget 50 pps) at target rate 0.5:
    "huge" never fits; "big" is admitted in epoch 0 and evicted in epoch 1
    by the cheaper "small"."""
    means = {"big": 90.0, "huge": 300.0, "small": 20.0}
    net = build_network([SwitchSpec("s", 50.0)],
                        [FlowSpec(fid, "a", "b", ("s",), 0.5, m, 0.0)
                         for fid, m in means.items()])
    queries = (SamplingQuery("big", 0.0, 2.0, 0.5), SamplingQuery("huge", 0.0, 2.0, 0.5),
               SamplingQuery("small", 1.0, 1.0, 0.5))
    process = RateProcess(0.1, 20, {fid: np.full(20, m) for fid, m in means.items()})
    epoch = EpochConfig(epoch_length=1.0, solver=SolverConfig(Formulation.DS),
                        estimator_mode=EstimatorMode.DECLARED)
    return ScenarioBundle(net, queries, process, epoch)
