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

from .model import FlowSpec, Network, SwitchSpec, build_network
from .optimizer import Formulation, SolverConfig
from .simulator import EpochConfig, EstimatorMode, SamplingQuery
from .trafficgen import (UPDATE_INTERVAL, Distribution, MixtureConfig, RateProcess,
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


def _random_pair_flows(graph: nx.Graph, n_flows: int, rng: np.random.Generator,
                       make_flow) -> list[FlowSpec]:
    nodes = sorted(graph.nodes, key=str)
    flows = []
    for i in range(n_flows):
        src, dst = (nodes[j] for j in rng.choice(len(nodes), size=2, replace=False))
        path = tuple(str(v) for v in nx.shortest_path(graph, src, dst))
        flows.append(make_flow(f"f{i:04d}", str(src), str(dst), path))
    return flows


def uniform_rate_network(graph: nx.Graph, n_flows: int, capacity_pps: float,
                         mean_kbps: float = 200.0, cov: float = 1.0,
                         target_rate: float = 0.1, packet_bytes: int = 1000,
                         seed: int = 0) -> Network:
    """Random source/destination flows, all with the same declared rate model."""
    mean_pps = kbps_to_pps(mean_kbps, packet_bytes)
    var = (cov * mean_pps) ** 2

    def make(fid, src, dst, path):
        return FlowSpec(fid, src, dst, path, target_rate, mean_pps, var)

    rng = np.random.default_rng([seed, 4294967296])
    switches = [SwitchSpec(str(v), capacity_pps) for v in sorted(graph.nodes, key=str)]
    return build_network(switches, _random_pair_flows(graph, n_flows, rng, make))


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
                        inclusion_prob: float, delta: float, node_limit: int) -> EpochConfig:
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
        solver=SolverConfig(Formulation.APX, delta=delta, node_limit=node_limit,
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
                          delta: float = TWO_SIGMA_DELTA,
                          mixture: MixtureConfig = MixtureConfig(),
                          node_limit: int = 20_000) -> ScenarioBundle:
    """Synthetic mixed-burstiness scenario on the Abilene backbone.

    All 110 ordered node pairs are flows; each epoch independently queries
    roughly 80% of them. Flow means come from {200, 300, 500} KBps and each
    flow is smooth (cov 0.2, probability 0.3) or bursty (cov 2.0). Declared
    flow moments match the generator's nominal parameters, so the solvers
    see the statistics the queries would carry.
    """
    epoch = _random_query_epoch(n_epochs, epoch_length, UPDATE_INTERVAL, inclusion_prob,
                                delta, node_limit)
    graph = abilene_graph()
    nodes = sorted(graph.nodes)
    switches = [SwitchSpec(v, capacity_pps) for v in nodes]
    flows = []
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            fid = f"{src}-{dst}"
            model = draw_flow_model(mixture, seed, fid)
            path = tuple(nx.shortest_path(graph, src, dst))
            flows.append(FlowSpec(fid, src, dst, path, target_rate,
                                  model.mean_pps, (model.cov * model.mean_pps) ** 2))
    network = build_network(switches, flows)
    process = generate_model_driven(network, mixture, n_epochs * epoch_length, seed)
    return _random_query_bundle(network, process, seed, n_epochs, epoch, target_rate,
                                inclusion_prob)


def sensitivity_scenario(distribution: Distribution, seed: int, *,
                         n_flows: int = 20, mean_pps: float = 1000.0,
                         cov: float = 0.1, capacity_pps: float = 20735.6,
                         horizon: float = 100.0, delta: float = 0.05) -> ScenarioBundle:
    """Single switch carrying identical flows sampled at rate 1, capacity at
    the tail bound for the requested violation probability. Measures how the
    realized per-bucket violation frequency tracks delta per distribution."""
    switches = [SwitchSpec("SW", capacity_pps)]
    flows = [FlowSpec(f"f{i:02d}", "src", "SW", ("SW",), 1.0, mean_pps,
                      (cov * mean_pps) ** 2) for i in range(n_flows)]
    network = build_network(switches, flows)
    queries = tuple(SamplingQuery(f.id, 0.0, horizon, 1.0) for f in network.flows)
    mixture = MixtureConfig(distribution=distribution,
                            mean_choices_kbps=(mean_pps,), packet_bytes=1000,
                            cov_low=cov, cov_low_prob=1.0, cov_high=cov)
    process = generate_model_driven(network, mixture, horizon, seed)
    epoch = EpochConfig(
        epoch_length=horizon, bucket=0.1,
        solver=SolverConfig(Formulation.EXACT, delta=delta),
        estimator_mode=EstimatorMode.DECLARED,
    )
    return ScenarioBundle(network, queries, process, epoch)


def epoch_sweep_scenario(epoch_length: float, seed: int, *, n_flows: int = 100,
                         mean_kbps: float = 200.0, cov: float = 1.0,
                         target_rate: float = 0.1) -> ScenarioBundle:
    """One epoch of the given length with effectively unlimited capacity;
    shows measured sampling rates concentrating around the target as the
    epoch grows."""
    network = uniform_rate_network(abilene_graph(), n_flows, capacity_pps=1e9,
                                   mean_kbps=mean_kbps, cov=cov,
                                   target_rate=target_rate, seed=seed)
    queries = tuple(SamplingQuery(f.id, 0.0, epoch_length, target_rate)
                    for f in network.flows)
    mixture = MixtureConfig(mean_choices_kbps=(mean_kbps,), cov_low=cov,
                            cov_low_prob=1.0, cov_high=cov)
    process = generate_model_driven(network, mixture, epoch_length, seed)
    epoch = EpochConfig(epoch_length=epoch_length, bucket=0.1,
                        solver=SolverConfig(Formulation.APX, delta=0.2),
                        estimator_mode=EstimatorMode.DECLARED)
    return ScenarioBundle(network, queries, process, epoch)


def runtime_comparison_network(seed: int, *, n_flows: int = 50,
                               capacity_pps: float = 70.0) -> Network:
    """Abilene with uniform 200 KBps cov-1 flows on a tight capacity; the
    surrogate solver proves optimality immediately while the cone search
    has to enumerate."""
    return uniform_rate_network(abilene_graph(), n_flows, capacity_pps, seed=seed)


def big_scale_free_network(seed: int, *, n_switches: int = 500, n_flows: int = 5000,
                           capacity_pps: float = 100.0) -> Network:
    return uniform_rate_network(scale_free_graph(n_switches, seed), n_flows,
                                capacity_pps, seed=seed)


def trace_driven_scenario(process: RateProcess, seed: int, *,
                          n_epochs: int | None = None, epoch_length: float = 5.0,
                          capacity_pps: float = 200.0, target_rate: float = 0.1,
                          inclusion_prob: float = 0.8,
                          delta: float = TWO_SIGMA_DELTA,
                          node_limit: int = 20_000) -> ScenarioBundle:
    """Replay a loaded trace on Abilene: trace flow ids are mapped onto the
    ordered node pairs round-robin, declared moments are measured from the
    trace itself, and queries follow the per-epoch random-subset pattern."""
    epoch = _random_query_epoch(n_epochs, epoch_length, process.bucket, inclusion_prob,
                                delta, node_limit)
    graph = abilene_graph()
    nodes = sorted(graph.nodes)
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    switches = [SwitchSpec(v, capacity_pps) for v in nodes]
    flows = []
    for i, fid in enumerate(sorted(process.rates)):
        src, dst = pairs[i % len(pairs)]
        series = process.rates[fid]
        mean = float(series.mean())
        var = float(series.var(ddof=1)) if len(series) > 1 else 0.0
        flows.append(FlowSpec(fid, src, dst, tuple(nx.shortest_path(graph, src, dst)),
                              target_rate, mean, var))
    network = build_network(switches, flows)
    max_epochs = int(process.horizon // epoch_length)
    if max_epochs < 1:
        raise ValueError(f"epoch_length {epoch_length:g} s is longer than the trace "
                         f"({process.horizon:g} s)")
    if n_epochs is None:
        n_epochs = max_epochs
    elif n_epochs > max_epochs:
        raise ValueError(f"n_epochs {n_epochs} is more than the trace holds: {max_epochs} "
                         f"whole epoch(s) of {epoch_length:g} s in {process.horizon:g} s")
    return _random_query_bundle(network, process, seed, n_epochs, epoch, target_rate,
                                inclusion_prob)
