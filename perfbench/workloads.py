"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (timed
as set-up), does the measured work in ``run`` and turns one repetition's
outputs into bytes in ``digest``, which the harness compares across
repetitions. Calls into flowsamp go through module attributes
(``fi.model_driven_scenario``), so the probe's wrappers see them.

Why these four: ``model-driven`` and ``solve-scale`` use the optimizer in
different ways (many node-limited solves on 11 switches, against one
500-switch solve and the cone search); ``replay-wide`` and ``calibration``
use the simulator in different ways (wide, no overloads, estimator and
report path, against narrow and long with drops). A change to one module
shows on one workload of a pair against an unchanged other.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import flowsamp.cli as fcli
import flowsamp.instances as fi
import flowsamp.optimizer as fo
import flowsamp.simulator as fs
import flowsamp.trafficgen as ft
from flowsamp.optimizer import Formulation, SolverConfig
from flowsamp.simulator import EpochConfig, EstimatorMode, SamplingQuery
from flowsamp.trafficgen import Distribution, MixtureConfig

from probe import Target, count_generated, record_report, record_solve

CALIBRATION_DELTA = 0.05   # sensitivity_scenario's default delta


def common_targets() -> list[Target]:
    """Every layer boundary the trace records, on every workload."""
    targets = [
        Target(fs, "build_network", "model.build_network"),
        Target(fs, "estimate_flow_stats", "stats.estimate"),
        Target(fs, "measure_metrics", "simulator.measure_metrics"),
        Target(fs, "write_flow_epochs_csv", "simulator.write_csv"),
        Target(fs, "write_summary_json", "simulator.write_json"),
        Target(fs, "run_simulation", "simulator.run_simulation", record_report),
        Target(fcli, "run_simulation", "simulator.run_simulation", record_report),
        Target(fcli, "measure_metrics", "simulator.measure_metrics"),
        Target(fcli, "compare_algorithms", "cli.compare"),
        Target(fi, "generate_model_driven", "trafficgen.generate", count_generated),
        Target(ft, "generate_model_driven", "trafficgen.generate", count_generated),
    ]
    for builder in ("model_driven_scenario", "sensitivity_scenario", "uniform_rate_network",
                    "big_scale_free_network", "runtime_comparison_network"):
        targets.append(Target(fi, builder, "instances.build"))
    return targets


def write_reports(reports, out_dir: str, h) -> int:
    """Feed every report's CSV and JSON outputs into hash ``h``; returns the
    summed fully-sampled flow count read back from the JSON summaries."""
    fully = 0
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    for report in reports:
        fs.write_flow_epochs_csv(report, csv_path)
        fs.write_summary_json(report, json_path)
        fully += _hash_files(h, csv_path, json_path)
    return fully


def _hash_files(h, csv_path: str, json_path: str) -> int:
    with open(csv_path, "rb") as fh:
        h.update(fh.read())
    with open(json_path, "rb") as fh:
        data = fh.read()
    h.update(data)
    return json.loads(data)["fully_sampled_flows"]


class ModelDriven:
    """``compare_algorithms`` over ``model_driven_scenario`` as in
    configs/model_driven.json (its algorithms, the preset's node limit), on
    the config's first two scenario seeds. The instances stay fixed: across
    scenario seeds the number of node-limited solves alone moves the time
    by about 13%, which on top of host noise overran every bound. The
    workload seed n drives the replay instead, with compare seeds 2n+1 and
    2n+2; seed 0 is the config's own run of scenarios 1 and 2."""

    name = "model-driven"
    admits_all = False
    sizes = {"full": {"scenarios": 2, "params": {}},
             "smoke": {"scenarios": 1, "params": {"n_epochs": 1, "node_limit": 2000}}}
    solve_targets = [Target(fs, "solve", "optimizer.solve", record_solve)]

    def setup(self, seed: int, size: dict):
        with open(os.path.join("configs", "model_driven.json")) as fh:
            config = json.load(fh)
        k = size["scenarios"]
        bundles = [fi.model_driven_scenario(s, **size["params"]) for s in config["seeds"][:k]]
        return config["algorithms"], bundles, list(range(k * seed + 1, k * seed + k + 1))

    def run(self, inputs, out_dir: str):
        algorithms, bundles, seeds = inputs
        return fcli.compare_algorithms(lambda s: bundles[(s - 1) % len(bundles)],
                                       algorithms, seeds)

    def digest(self, results, reports, out_dir: str) -> tuple[str, int, float]:
        h = hashlib.sha256()
        table = {token: {k: v for k, v in res.items() if k != "mean_solver_wall_time_s"}
                 for token, res in results.items()}
        h.update(json.dumps(table, sort_keys=True).encode())
        return h.hexdigest(), write_reports(reports, out_dir, h), 0.0


class ReplayWide:
    """Many flows, unlimited capacity, the windowed estimator, then the
    whole report path. 1000 flows rather than 2000 keep a run inside the
    time budget; the O(flows x records) report scans still dominate."""

    name = "replay-wide"
    admits_all = False
    sizes = {"full": {"flows": 1000, "epochs": 20}, "smoke": {"flows": 40, "epochs": 2}}
    solve_targets = [Target(fs, "solve", "optimizer.solve", record_solve)]
    epoch_length = 5.0
    query_share = 0.8
    mixture = MixtureConfig(mean_choices_kbps=(200.0,), cov_low=1.0, cov_low_prob=1.0,
                            cov_high=1.0)

    def setup(self, seed: int, size: dict):
        network = fi.uniform_rate_network(fi.abilene_graph(), size["flows"],
                                          capacity_pps=1e9, seed=seed)
        rng = np.random.default_rng([seed, 4294967296])
        queries = [SamplingQuery(f.id, e * self.epoch_length, self.epoch_length, 0.1)
                   for e in range(size["epochs"]) for f in network.flows
                   if rng.random() < self.query_share]
        horizon = size["epochs"] * self.epoch_length
        process = ft.generate_model_driven(network, self.mixture, horizon, seed)
        epoch = EpochConfig(epoch_length=self.epoch_length, bucket=0.1,
                            solver=SolverConfig(Formulation.APX, delta=0.2),
                            estimator_mode=EstimatorMode.WINDOWED)
        return network, queries, process, epoch, seed

    def run(self, inputs, out_dir: str):
        network, queries, process, epoch, seed = inputs
        report = fs.run_simulation(network, list(queries), process, epoch, seed)
        fs.measure_metrics(report)
        paths = (os.path.join(out_dir, "replay.csv"), os.path.join(out_dir, "replay.json"))
        fs.write_flow_epochs_csv(report, paths[0])
        fs.write_summary_json(report, paths[1])
        return paths

    def digest(self, paths, reports, out_dir: str) -> tuple[str, int, float]:
        h = hashlib.sha256()
        fully = _hash_files(h, *paths)
        return h.hexdigest(), fully, 0.0


class Calibration:
    """The distribution-sensitivity preset: one switch, 20 flows at full
    sampling rate, capacity at the delta=0.05 tail bound, four rate
    distributions. Seed n runs replay seeds k*n .. k*n+k-1, so seed 0 is
    the preset's own seeds 0..19."""

    name = "calibration"
    admits_all = True    # capacity sits at the tail bound of all 20 flows
    sizes = {"full": {"seeds": 20, "params": {}},
             "smoke": {"seeds": 2, "params": {"horizon": 10.0}}}
    solve_targets = [Target(fs, "solve", "optimizer.solve", record_solve)]

    def setup(self, seed: int, size: dict):
        k = size["seeds"]
        return [(dist, s, fi.sensitivity_scenario(dist, s, **size["params"]))
                for dist in Distribution for s in range(k * seed, k * seed + k)]

    def run(self, items, out_dir: str) -> dict[str, float]:
        freq: dict[str, list[float]] = {}
        for dist, s, b in items:
            report = fs.run_simulation(b.network, list(b.queries), b.process, b.epoch, s)
            freq.setdefault(dist.value, []).append(report.violation_fraction("SW"))
        return {d: float(np.mean(v)) for d, v in freq.items()}

    def digest(self, freq, reports, out_dir: str) -> tuple[str, int, float]:
        h = hashlib.sha256(json.dumps(freq, sort_keys=True).encode())
        fully = write_reports(reports, out_dir, h)
        err = max(abs(v - CALIBRATION_DELTA) for v in freq.values())
        return h.hexdigest(), fully, err


class SolveScale:
    """Two standalone solves, both capped by node count: the surrogate on
    the 500-switch/5000-flow scale-free instance (proves optimal near 5,000
    nodes; the cap of 20,000 bounds an unlucky seed) and the cone search on
    the 50-flow Abilene instance (ends unproven at 200,000 nodes). Seed n
    uses instance seeds 3+n and 7+n, so seed 0 is the ROADMAP's pair."""

    name = "solve-scale"
    admits_all = False
    sizes = {"full": {"big": {}, "apx_nodes": 20_000, "cone_nodes": 200_000},
             "smoke": {"big": {"n_switches": 50, "n_flows": 300}, "apx_nodes": 2_000,
                       "cone_nodes": 2_000}}
    solve_targets = [Target(fo, "solve_apx", "optimizer.solve", record_solve),
                     Target(fo, "solve_exact", "optimizer.solve", record_solve)]

    def setup(self, seed: int, size: dict):
        big = fi.big_scale_free_network(3 + seed, **size["big"])
        cone = fi.runtime_comparison_network(7 + seed)
        return [(big, SolverConfig(Formulation.APX, delta=0.2, node_limit=size["apx_nodes"])),
                (cone, SolverConfig(Formulation.EXACT, delta=0.2,
                                    node_limit=size["cone_nodes"]))]

    def run(self, items, out_dir: str):
        return [fo.solve_apx(*items[0]), fo.solve_exact(*items[1])]

    def digest(self, results, reports, out_dir: str) -> tuple[str, int, float]:
        docs = [{k: v for k, v in r.to_json_dict().items() if k != "wall_time_s"}
                for r in results]
        return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest(), 0, 0.0


WORKLOADS = {w.name: w for w in (ModelDriven(), ReplayWide(), Calibration(), SolveScale())}
