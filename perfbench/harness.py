"""Runs one workload: set-up, measured repetitions, checks and metrics.

Set-up is built ``SETUP_REPS`` times and ``setup_s`` is the median. The
measured region is then repeated until ``seconds`` have passed, at least
``MIN_REPS`` times; end-to-end times are medians over repetitions. Every
repetition must produce the same outputs byte for byte. With tracing on,
repetitions alternate untraced and traced, so the difference of their
median walls is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from time import perf_counter

from checks import OracleCache, mismatches, oracle_problems, report_problems, solve_problems
from flowsamp.optimizer import Formulation
from probe import Probe
from workloads import WORKLOADS, common_targets

SETUP_REPS = 9
KNOWN_OPTIMA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_optima.json")
MIN_REPS = 3

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "proven_optimal_frac": "share", "objective_sum": "flows",
    "optimality_share": "share", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "optimizer.solve_calls": "count", "optimizer.solve_p50_ms": "ms",
    "optimizer.solve_tail_ms": "ms", "optimizer.solve_s": "s", "optimizer.nodes": "count",
    "optimizer.nodes_per_s": "1/s", "optimizer.limit_hits": "count",
    "optimizer.objective_gap": "flows",
    "simulator.replay_s": "s", "simulator.flow_buckets_per_s": "1/s",
    "simulator.overloaded_buckets": "count", "simulator.forwarded_share": "share",
    "simulator.metrics_s": "s", "simulator.write_csv_s": "s", "simulator.write_json_s": "s",
    "simulator.records": "count", "simulator.fully_sampled_flows": "flows",
    "simulator.calibration_err": "share",
    "stats.estimate_calls": "count", "stats.estimate_s": "s",
    "model.build_network_calls": "count", "model.build_network_s": "s",
    "instances.build_s": "s", "trafficgen.generate_s": "s", "trafficgen.flow_buckets": "count",
    "cli.compare_self_s": "s", "bench.self_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Rep:
    """What one repetition of the measured region produced."""

    wall: float
    traced: bool
    digest: str
    quality: dict
    counts: dict
    solve_times: list[float]
    problems: list[str] = field(default_factory=list)
    operations: int = 0
    failed: int = 0

    def check(self, problems: list[str]) -> None:
        """Count one operation, failed when it has problems."""
        self.operations += 1
        self.failed += bool(problems)
        self.problems += problems


def _summarize(workload, probe: Probe, wall: float, traced: bool, digest, fully: int,
               calibration_err: float) -> Rep:
    solves, reports = probe.solves, probe.reports
    rep = Rep(wall=wall, traced=traced, digest=digest,
              quality={"solves": len(solves),
                       "proven": sum(r.optimal for _, _, r in solves),
                       "objective_sum": sum(r.objective for _, _, r in solves),
                       "fully_sampled_flows": fully,
                       "calibration_err": calibration_err},
              counts=dict(probe.counts), solve_times=[r.wall_time for _, _, r in solves])
    for network, config, result in solves:
        problems = solve_problems(network, config, result)
        if workload.admits_all and result.objective != len(network.flows):
            problems.append(f"admitted {result.objective} of {len(network.flows)} flows")
        rep.check(problems)
    sampled = forwarded = 0
    for report in reports:
        rep.check(report_problems(report))
        sampled += sum(r.sampled for r in report.records)
        forwarded += sum(r.forwarded for r in report.records)
    rep.counts.update({
        "nodes": sum(r.nodes_explored for _, _, r in solves),
        "limit_hits": sum(not r.optimal for _, _, r in solves),
        "records": sum(len(report.records) for report in reports),
        "overloaded_buckets": int(sum(report.switch_violations.sum() for report in reports)),
        "forwarded_share": forwarded / sampled if sampled else 0.0,
    })
    return rep


def _oracle(solves, cache: OracleCache) -> tuple[dict, list[str], int]:
    """Optimality share and gap over the solves whose optimum is known:
    the HiGHS optimum for additive formulations, and the flow count for a
    cone solve that admits every flow."""
    known_obj = known_opt = gap = 0
    problems: list[str] = []
    checked = 0
    for network, config, result in solves:
        if config.formulation != Formulation.EXACT:
            feasible = None if solve_problems(network, config, result) else result.objective
            optimum = cache.optimum(network, config, feasible)
            problems += oracle_problems(result, optimum)
            checked += 1
            gap += optimum - result.objective
        elif result.objective == len(network.flows):
            optimum = result.objective
        else:
            continue
        known_obj += result.objective
        known_opt += optimum
    share = known_obj / known_opt if known_opt else 1.0
    return {"optimality_share": share, "objective_gap": gap, "oracle_solves": checked}, \
        problems, checked


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and
    its percentile. Below 21 samples that statistic would not lie above the
    median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "networkx": metadata.version("networkx"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def git_commit(root: str = ".") -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 out_dir: str = ".perfbench") -> tuple[dict, dict]:
    """Returns (result, detail): the result has the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics``; the detail explains it."""
    workload = WORKLOADS[name]
    params = workload.sizes[size]
    os.makedirs(out_dir, exist_ok=True)
    probe = Probe(common_targets() + workload.solve_targets)
    reps: list[Rep] = []
    setup_times = []
    with probe:
        probe.tracing = trace
        for i in range(SETUP_REPS):
            probe.reset()
            gc.collect()   # the previous build's garbage is not this one's cost
            probe.run_id = f"setup{i}"
            with probe.span("bench.setup"):
                t0 = perf_counter()
                inputs = workload.setup(seed, params)
                setup_times.append(perf_counter() - t0)
        setup_counts = dict(probe.counts)
        first_solves = None
        start = perf_counter()
        while len(reps) < MIN_REPS or perf_counter() - start < seconds:
            traced = trace and len(reps) % 2 == 1
            probe.reset()
            gc.collect()
            probe.tracing = traced
            probe.run_id = f"rep{len(reps)}"
            with probe.span("bench.workload"):
                t0 = perf_counter()
                result = workload.run(inputs, out_dir)
                wall = perf_counter() - t0
            probe.tracing = False
            digest, fully, calibration_err = workload.digest(result, probe.reports, out_dir)
            reps.append(_summarize(workload, probe, wall, traced, digest, fully,
                                   calibration_err))
            if first_solves is None:
                first_solves = probe.solves
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for r in reps for p in r.problems]
    attempted = sum(r.operations for r in reps)
    # Determinism: every repetition, traced or not, repeats the first.
    attempted += len(reps) - 1
    determinism = max(mismatches([r.digest for r in reps]),
                      mismatches([r.quality for r in reps]))
    if determinism:
        problems.append(f"{determinism} repetitions differ from the first")
    cache = OracleCache(os.path.join(out_dir, "oracle_cache.json"), KNOWN_OPTIMA)
    oracle, oracle_failures, checked = _oracle(first_solves, cache)
    cache.save()
    problems += oracle_failures
    attempted += checked
    failed = sum(r.failed for r in reps) + determinism + len(oracle_failures)

    quality = dict(reps[0].quality, **oracle)
    untraced = [r for r in reps if not r.traced]
    solve_times = [t for r in untraced for t in r.solve_times]
    tail_value, tail_pct = tail(solve_times)
    latency = {"solve_p50_ms": 1e3 * statistics.median(solve_times),
               "solve_tail_ms": 1e3 * tail_value, "solve_tail_percentile": tail_pct,
               "solve_samples": len(solve_times)}
    if trace:
        traced_ids = [f"rep{i}" for i, r in enumerate(reps) if r.traced]
        self_times = median_self_times(probe, traced_ids)
        setup_self = median_self_times(probe, [f"setup{i}" for i in range(SETUP_REPS)])
        calls = Counter(s.name for s in probe.spans if s.run_id == traced_ids[0])
        metrics = _per_layer(reps, self_times, setup_self, calls, setup_counts, quality,
                             latency)
        units = PER_LAYER_UNITS
        trace_path = os.path.join(out_dir, f"trace_{name}_seed{seed}.jsonl")
        probe.write_spans(trace_path)
    else:
        metrics = {
            "wall_s": statistics.median(r.wall for r in untraced),
            "setup_s": statistics.median(setup_times),
            "proven_optimal_frac": quality["proven"] / quality["solves"],
            "objective_sum": quality["objective_sum"],
            "optimality_share": quality["optimality_share"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "repetitions": len(reps), "untraced_wall_s": [r.wall for r in untraced],
        "traced_wall_s": [r.wall for r in reps if r.traced], "setup_s": setup_times,
        "solve_latency": latency, "quality": quality, "oracle_computed": cache.computed,
        "problems": problems[:20], "environment": environment(),
    }
    if trace:
        # The self times of a traced repetition add up to its wall; less
        # the tracing overhead they account for the untraced wall.
        detail["self_time_s"] = self_times
        detail["trace_file"] = trace_path
    return result, detail


def median_self_times(probe: Probe, run_ids: list[str]) -> dict[str, float]:
    """Median over the given runs of each span name's summed self time."""
    per_run = [probe.self_times(i) for i in run_ids]
    names = sorted(set().union(*per_run))
    return {n: statistics.median(t.get(n, 0.0) for t in per_run) for n in names}


def _per_layer(reps: list[Rep], self_times: dict, setup_self: dict, calls: Counter,
               setup_counts: dict, quality: dict, latency: dict) -> dict:
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    counts = traced[0].counts
    solve_s = self_times.get("optimizer.solve", 0.0)
    replay_s = self_times.get("simulator.run_simulation", 0.0)
    return {
        "optimizer.solve_calls": quality["solves"],
        "optimizer.solve_p50_ms": latency["solve_p50_ms"],
        "optimizer.solve_tail_ms": latency["solve_tail_ms"],
        "optimizer.solve_s": solve_s,
        "optimizer.nodes": counts["nodes"],
        "optimizer.nodes_per_s": counts["nodes"] / solve_s if solve_s else 0.0,
        "optimizer.limit_hits": counts["limit_hits"],
        "optimizer.objective_gap": quality["objective_gap"],
        "simulator.replay_s": replay_s,
        "simulator.flow_buckets_per_s":
            counts["simulator.flow_buckets"] / replay_s if replay_s else 0.0,
        "simulator.overloaded_buckets": counts["overloaded_buckets"],
        "simulator.forwarded_share": counts["forwarded_share"],
        "simulator.metrics_s": self_times.get("simulator.measure_metrics", 0.0),
        "simulator.write_csv_s": self_times.get("simulator.write_csv", 0.0),
        "simulator.write_json_s": self_times.get("simulator.write_json", 0.0),
        "simulator.records": counts["records"],
        "simulator.fully_sampled_flows": quality["fully_sampled_flows"],
        "simulator.calibration_err": quality["calibration_err"],
        "stats.estimate_calls": calls["stats.estimate"],
        "stats.estimate_s": self_times.get("stats.estimate", 0.0),
        "model.build_network_calls": calls["model.build_network"],
        "model.build_network_s": self_times.get("model.build_network", 0.0),
        "instances.build_s": setup_self.get("instances.build", 0.0),
        "trafficgen.generate_s": setup_self.get("trafficgen.generate", 0.0),
        "trafficgen.flow_buckets": setup_counts["trafficgen.flow_buckets"],
        "cli.compare_self_s": self_times.get("cli.compare", 0.0),
        "bench.self_s": self_times.get("bench.workload", 0.0),
        "trace.overhead_s": statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in untraced),
    }
