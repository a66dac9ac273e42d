"""Benchmark topologies and reproducible experiment scenarios.

Everything here is a pure function of its arguments and a seed: networks,
query schedules, and rate processes come out bit-identical across runs.
Routing is computed only while *building* instances (shortest paths on the
given graph); the core model itself treats paths as inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .model import FlowSpec, Network, SwitchSpec, build_network, load_stats
from .optimizer import Formulation, SolverConfig, min_required_capacity
from .simulator import EpochConfig, EstimatorMode, SamplingQuery
from .stats import estimate_flow_stats
from .trafficgen import (UPDATE_INTERVAL, Distribution, MixtureConfig, RateModel, RateProcess,
                         draw_flow_model, generate_model_driven, kbps_to_pps)

# Violation probability whose standard-normal quantile is exactly 2.0, i.e.
# the variance-aware surrogate charges the same headroom multiplier as the
# fixed two-sigma baseline. The comparison preset runs at this delta.
TWO_SIGMA_DELTA = 0.022750131948179205

_ABILENE_LINKS = [
    ("SEA", "SNV"), ("SEA", "DEN"), ("SNV", "LAX"), ("SNV", "DEN"),
    ("LAX", "HOU"), ("DEN", "KC"), ("KC", "HOU"), ("KC", "IND"),
    ("HOU", "ATL"), ("IND", "CHI"), ("IND", "ATL"), ("CHI", "NY"),
    ("ATL", "DC"), ("NY", "DC"),
]


def abilene_graph() -> nx.Graph:
    """The 11-node, 14-link US research backbone used for small scenarios."""
    g = nx.Graph()
    g.add_edges_from(_ABILENE_LINKS)
    return g


def scale_free_graph(n: int, seed: int) -> nx.Graph:
    """Random scale-free topology reduced to a simple undirected graph."""
    g = nx.Graph(nx.scale_free_graph(n, seed=seed))
    g.remove_edges_from(nx.selfloop_edges(g))
    nodes = max(nx.connected_components(g), key=len)
    return g.subgraph(nodes).copy()


def _one_model(distribution: Distribution, mean_kbps: float,
               cov: float) -> tuple[MixtureConfig, RateModel]:
    """A mixture that gives every flow the same rate model, and that model."""
    return (MixtureConfig(distribution, (mean_kbps,), cov_low=cov, cov_low_prob=1.0,
                          cov_high=cov),
            RateModel(distribution, kbps_to_pps(mean_kbps), cov))


# The rate model of every flow that uniform_rate_network declares, and the
# traffic the epoch-sweep preset draws for them: 200 KBps at cov 1.
UNIFORM_MIXTURE, _UNIFORM_MODEL = _one_model(Distribution.TRUNC_NORMAL, 200.0, 1.0)


def uniform_rate_network(graph: nx.Graph, n_flows: int, capacity_pps: float,
                         seed: int = 0) -> Network:
    """Random source/destination flows, all declaring UNIFORM_MIXTURE's rate
    model and sampled at 0.1."""
    mean, var = _UNIFORM_MODEL.moments()
    rng = np.random.default_rng([seed, 4294967296])
    nodes = sorted(graph.nodes, key=str)
    flows = []
    for i in range(n_flows):
        src, dst = (nodes[j] for j in rng.choice(len(nodes), size=2, replace=False))
        path = tuple(str(v) for v in nx.shortest_path(graph, src, dst))
        flows.append(FlowSpec(f"f{i:04d}", str(src), str(dst), path, 0.1, mean, var))
    return build_network([SwitchSpec(str(v), capacity_pps) for v in nodes], flows)


def two_switch_toy() -> Network:
    """Two switches (3 pps budget each) and four flows crossing both: two
    smooth-mean/bursty flows and two high-mean/steady ones, all sampled at
    0.1. Small enough to reason about violation probabilities by hand."""
    switches = [SwitchSpec("S1", 3.0), SwitchSpec("S2", 3.0)]
    flows = [
        FlowSpec("f1", "a", "b", ("S1", "S2"), 0.1, 5.0, 100.0),
        FlowSpec("f2", "a", "b", ("S1", "S2"), 0.1, 5.0, 100.0),
        FlowSpec("f3", "a", "b", ("S1", "S2"), 0.1, 14.0, 1.0),
        FlowSpec("f4", "a", "b", ("S1", "S2"), 0.1, 14.0, 1.0),
    ]
    return build_network(switches, flows)


@dataclass(frozen=True)
class ScenarioBundle:
    """Everything a simulation run needs, minus the seed."""

    network: Network
    queries: tuple[SamplingQuery, ...]
    process: RateProcess
    epoch: EpochConfig

    def with_solver(self, solver: SolverConfig) -> "ScenarioBundle":
        return dataclasses.replace(
            self, epoch=dataclasses.replace(self.epoch, solver=solver))


def _random_query_epoch(n_epochs: int | None, epoch_length: float, bucket: float,
                        inclusion_prob: float, node_limit: int) -> EpochConfig:
    """The epoch settings of a random-query preset, built before its traffic.
    Settings that would give an empty or meaningless run are rejected,
    naming the keyword; ``EpochConfig`` names an ``epoch_length`` that is not
    a whole number of buckets."""
    if n_epochs is not None and not n_epochs >= 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    if not 0 < inclusion_prob <= 1:
        raise ValueError(f"inclusion_prob must be in (0, 1], got {inclusion_prob}")
    return EpochConfig(
        epoch_length=epoch_length, bucket=bucket,
        solver=SolverConfig(Formulation.APX, delta=TWO_SIGMA_DELTA, node_limit=node_limit,
                            time_limit=60.0),
        estimator_mode=EstimatorMode.DECLARED,
    )


def _random_query_bundle(network: Network, process: RateProcess, seed: int,
                         n_epochs: int, epoch: EpochConfig, target_rate: float,
                         inclusion_prob: float) -> ScenarioBundle:
    """Each epoch queries every flow independently with ``inclusion_prob``;
    the declared moments feed the APX solver."""
    qrng = np.random.default_rng([seed, 4294967296])
    queries = tuple(SamplingQuery(f.id, e * epoch.epoch_length, epoch.epoch_length, target_rate)
                    for e in range(n_epochs) for f in network.flows
                    if qrng.random() < inclusion_prob)
    return ScenarioBundle(network, queries, process, epoch)


def model_driven_scenario(seed: int, *, n_epochs: int = 5, epoch_length: float = 5.0,
                          capacity_pps: float = 400.0, target_rate: float = 0.1,
                          inclusion_prob: float = 0.8,
                          node_limit: int = 20_000) -> ScenarioBundle:
    """Synthetic mixed-burstiness scenario on the Abilene backbone.

    All 110 ordered node pairs are flows; each epoch independently queries
    roughly 80% of them. Flow means come from {200, 300, 500} KBps and each
    flow is smooth (cov 0.2, probability 0.3) or bursty (cov 2.0). Each flow
    declares its rate model's :meth:`~flowsamp.trafficgen.RateModel.moments`.
    The smooth flows' draws carry them; the bursty flows' draws, truncated at
    zero, do not (about twice the mean and half the variance).
    """
    epoch = _random_query_epoch(n_epochs, epoch_length, UPDATE_INTERVAL, inclusion_prob,
                                node_limit)
    mixture = MixtureConfig()
    graph = abilene_graph()
    nodes = sorted(graph.nodes)
    switches = [SwitchSpec(v, capacity_pps) for v in nodes]
    flows = []
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            fid = f"{src}-{dst}"
            path = tuple(nx.shortest_path(graph, src, dst))
            flows.append(FlowSpec(fid, src, dst, path, target_rate,
                                  *draw_flow_model(mixture, seed, fid).moments()))
    network = build_network(switches, flows)
    process = generate_model_driven(network, mixture, n_epochs * epoch_length, seed)
    return _random_query_bundle(network, process, seed, n_epochs, epoch, target_rate,
                                inclusion_prob)


def sensitivity_scenario(distribution: Distribution, seed: int, *,
                         horizon: float = 100.0) -> ScenarioBundle:
    """Single switch carrying 20 identical flows sampled at rate 1, capacity
    at their tail bound for violation probability 0.05. Measures how the
    realized per-bucket violation frequency tracks delta per distribution."""
    delta = 0.05
    mixture, model = _one_model(distribution, 1000.0, 0.1)
    flows = [FlowSpec(f"f{i:02d}", "src", "SW", ("SW",), 1.0, *model.moments())
             for i in range(20)]
    capacity = min_required_capacity([load_stats(f) for f in flows], delta)
    network = build_network([SwitchSpec("SW", capacity)], flows)
    queries = tuple(SamplingQuery(f.id, 0.0, horizon, 1.0) for f in network.flows)
    process = generate_model_driven(network, mixture, horizon, seed)
    epoch = EpochConfig(
        epoch_length=horizon, bucket=UPDATE_INTERVAL,
        solver=SolverConfig(Formulation.EXACT, delta=delta),
        estimator_mode=EstimatorMode.DECLARED,
    )
    return ScenarioBundle(network, queries, process, epoch)


def epoch_sweep_scenario(epoch_length: float, seed: int) -> ScenarioBundle:
    """One epoch of the given length, 100 flows with effectively unlimited
    capacity; shows measured sampling rates concentrating around the target
    as the epoch grows."""
    network = uniform_rate_network(abilene_graph(), 100, capacity_pps=1e9, seed=seed)
    queries = tuple(SamplingQuery(f.id, 0.0, epoch_length, f.target_rate)
                    for f in network.flows)
    process = generate_model_driven(network, UNIFORM_MIXTURE, epoch_length, seed)
    epoch = EpochConfig(epoch_length=epoch_length, bucket=UPDATE_INTERVAL,
                        solver=SolverConfig(Formulation.APX, delta=0.2),
                        estimator_mode=EstimatorMode.DECLARED)
    return ScenarioBundle(network, queries, process, epoch)


def runtime_comparison_network(seed: int) -> Network:
    """Abilene with 50 uniform 200 KBps cov-1 flows on a tight 70 pps
    capacity; the surrogate solver proves optimality immediately while the
    cone search has to enumerate."""
    return uniform_rate_network(abilene_graph(), 50, 70.0, seed=seed)


def big_scale_free_network(seed: int, *, n_switches: int = 500,
                           n_flows: int = 5000) -> Network:
    return uniform_rate_network(scale_free_graph(n_switches, seed), n_flows, 100.0,
                                seed=seed)


def whole_epochs(process: RateProcess, epoch: EpochConfig) -> int:
    """How many whole epochs the trace ``process`` holds, counted in buckets
    (``1.0 // 0.1`` is 9.0 in floats); a trace shorter than one epoch is
    rejected."""
    n_epochs = process.n_buckets // epoch.buckets_per_epoch
    if n_epochs < 1:
        raise ValueError(f"epoch_length {epoch.epoch_length:g} s is longer than the trace "
                         f"({process.horizon:g} s)")
    return n_epochs


def trace_driven_scenario(process: RateProcess, seed: int, *,
                          n_epochs: int | None = None, epoch_length: float = 5.0,
                          capacity_pps: float = 200.0, target_rate: float = 0.1,
                          inclusion_prob: float = 0.8,
                          node_limit: int = 20_000) -> ScenarioBundle:
    """Replay a loaded trace on Abilene: trace flow ids are mapped onto the
    ordered node pairs round-robin, declared moments are measured from the
    trace itself, and queries follow the per-epoch random-subset pattern."""
    epoch = _random_query_epoch(n_epochs, epoch_length, process.bucket, inclusion_prob,
                                node_limit)
    max_epochs = whole_epochs(process, epoch)
    graph = abilene_graph()
    nodes = sorted(graph.nodes)
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    switches = [SwitchSpec(v, capacity_pps) for v in nodes]
    flows = []
    for i, fid in enumerate(sorted(process.rates)):
        src, dst = pairs[i % len(pairs)]
        mean, var = (m.item() for m in estimate_flow_stats(process.rates[fid][None],
                                                           process.n_buckets))
        flows.append(FlowSpec(fid, src, dst, tuple(nx.shortest_path(graph, src, dst)),
                              target_rate, mean, var))
    network = build_network(switches, flows)
    if n_epochs is None:
        n_epochs = max_epochs
    elif n_epochs > max_epochs:
        raise ValueError(f"n_epochs {n_epochs} is more than the trace holds: {max_epochs} "
                         f"whole epoch(s) of {epoch_length:g} s in {process.horizon:g} s")
    return _random_query_bundle(network, process, seed, n_epochs, epoch, target_rate,
                                inclusion_prob)
