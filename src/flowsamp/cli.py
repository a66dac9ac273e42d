"""Command-line surface: solve instances, run simulations, compare algorithms.

Exit codes: 0 success, 2 validation error, 3 solver hit its limits without
finding any assignment. Every subcommand is a pure function of its
configuration and seed; rerunning writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

import numpy as np

from .instances import (epoch_sweep_scenario, model_driven_scenario,
                        sensitivity_scenario, trace_driven_scenario)
from .model import ModelError, load_network
from .optimizer import Formulation, SolverConfig, solve
from .simulator import (EpochConfig, EstimatorMode, SamplingQuery, measure_metrics,
                        run_simulation, write_flow_epochs_csv, write_summary_json)
from .trafficgen import Distribution, load_trace

DEFAULT_COMPARE_ALGOS = ["ds", "ds2sigma", "apx", "csamp+100", "csamp+150", "csamp+200"]
_CONFIG_KEYS = {"version", "preset", "seed", "seeds", "algorithms", "out_dir", "out",
                "params", "trace", "net", "formulation", "delta", "epsilon", "alpha",
                "epoch_len", "bucket", "time_limit", "node_limit"}


class CliError(Exception):
    pass


def parse_algorithm(token: str, base: SolverConfig) -> SolverConfig:
    """Algorithm tokens: ds, ds2sigma, apx, exact, csamp+<epsilon_pps>."""
    token = token.strip().lower()
    eps = base.epsilon_pps
    if token.startswith("csamp+"):
        try:
            eps = float(token.split("+", 1)[1])
        except ValueError:
            raise CliError(f"bad epsilon in algorithm token {token!r}") from None
        token = "csamp"
    try:
        form = Formulation(token)
    except ValueError:
        raise CliError(f"unknown algorithm {token!r}") from None
    return dataclasses.replace(base, formulation=form, epsilon_pps=eps)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}: unknown config key {key!r}")
    version = doc.get("version", "runconfig/1")
    if version != "runconfig/1":
        raise CliError(f"{path}: unsupported config version {version!r}")
    return doc


def _merge_config(args: argparse.Namespace, doc: dict) -> None:
    # The config document overrides flags.
    for key, value in doc.items():
        if key in ("version",):
            continue
        setattr(args, key, value)


def _float_arg(args, name: str, default: float) -> float:
    # an explicit 0 is kept, so that validation rejects it
    value = getattr(args, name, None)
    return float(default if value is None else value)


def _solver_from_args(args) -> SolverConfig:
    base = SolverConfig()
    kwargs = {}
    if getattr(args, "delta", None) is not None:
        kwargs["delta"] = float(args.delta)
    if getattr(args, "epsilon", None) is not None:
        kwargs["epsilon_pps"] = float(args.epsilon)
    if getattr(args, "time_limit", None) is not None:
        kwargs["time_limit"] = float(args.time_limit)
    if getattr(args, "node_limit", None) is not None:
        try:
            kwargs["node_limit"] = int(args.node_limit)
        except (ValueError, OverflowError):
            raise CliError(f"node_limit must be an integer, got {args.node_limit!r}") from None
    cfg = dataclasses.replace(base, **kwargs) if kwargs else base
    form = getattr(args, "formulation", None)
    if form is not None:
        cfg = parse_algorithm(form, cfg)
    return cfg


def cmd_solve(args) -> int:
    if not args.net:
        raise CliError("solve needs --net (or a config with 'net')")
    network = load_network(args.net)
    if getattr(args, "alpha", None) is not None:
        alpha = float(args.alpha)
        flows = [dataclasses.replace(f, target_rate=alpha) for f in network.flows]
        from .model import build_network
        network = build_network(network.switches, flows)
    config = _solver_from_args(args)
    result = solve(network, config)
    print(f"objective={result.objective} optimal={result.optimal} "
          f"nodes={result.nodes_explored} wall_time={result.wall_time:.3f}s")
    if args.out:
        result.save(args.out)
    if not result.optimal and result.objective == 0 and network.flows:
        return 3
    return 0


def _sim_out_dir(args) -> str:
    out_dir = getattr(args, "out_dir", None) or "out"
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _write_table(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _print_table(header: list[str], rows: list[list]) -> None:
    widths = [max(len(str(c)) for c in [h] + [r[i] for r in rows])
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*[str(c) for c in row]))


def _run_epoch_sweep(args) -> int:
    out_dir = _sim_out_dir(args)
    seed = int(getattr(args, "seed", None) or 0)
    lengths = (1.0, 5.0, 20.0)
    rows = []
    for length in lengths:
        bundle = epoch_sweep_scenario(length, seed)
        report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                                bundle.epoch, seed)
        rates = measure_metrics(report).measured_rates
        q1, med, q3 = np.percentile(rates, [25, 50, 75])
        rows.append([f"{length:g}", f"{np.mean(rates):.4f}", f"{q1:.4f}",
                     f"{med:.4f}", f"{q3:.4f}", f"{q3 - q1:.4f}"])
    header = ["epoch_s", "mean_rate", "q1", "median", "q3", "iqr"]
    _print_table(header, rows)
    _write_table(os.path.join(out_dir, "epoch_sweep.csv"), header, rows)
    return 0


def _run_distribution_sensitivity(args) -> int:
    out_dir = _sim_out_dir(args)
    seeds = getattr(args, "seeds", None) or list(range(20))
    rows = []
    for dist in Distribution:
        violations = []
        loads_pps = []
        for seed in seeds:
            bundle = sensitivity_scenario(dist, int(seed))
            report = run_simulation(bundle.network, list(bundle.queries),
                                    bundle.process, bundle.epoch, int(seed))
            violations.append(report.violation_fraction("SW"))
            loads_pps.append(report.switch_loads[0] / report.bucket)
        pooled = np.concatenate(loads_pps)
        q1, med, q3 = np.percentile(pooled, [25, 50, 75])
        rows.append([dist.value, f"{np.mean(violations):.4f}", f"{q1:.0f}",
                     f"{med:.0f}", f"{q3:.0f}"])
    header = ["distribution", "violation_freq", "load_q1_pps", "load_median_pps",
              "load_q3_pps"]
    _print_table(header, rows)
    _write_table(os.path.join(out_dir, "distribution_sensitivity.csv"), header, rows)
    return 0


def _check_params(builder, params) -> None:
    """Reject 'params' entries the preset builder has no keyword for."""
    if not isinstance(params, dict):
        raise CliError("'params' must be a JSON object")
    accepted = {name for name, p in inspect.signature(builder).parameters.items()
                if p.kind == inspect.Parameter.KEYWORD_ONLY}
    for key in params:
        if key not in accepted:
            raise CliError(f"unknown params key {key!r} for preset "
                           f"(accepted: {', '.join(sorted(accepted))})")


def _bundle_builder(args):
    preset = getattr(args, "preset", None)
    params = getattr(args, "params", None) or {}
    if preset == "model-driven":
        _check_params(model_driven_scenario, params)
        return lambda seed: model_driven_scenario(seed, **params)
    if preset == "trace-driven":
        trace = getattr(args, "trace", None)
        if not trace:
            raise CliError("trace-driven preset needs 'trace' "
                           "({path, scale_divisor, bucket}) or --trace")
        _check_params(trace_driven_scenario, params)
        if isinstance(trace, str):
            trace = {"path": trace}
        process = load_trace(trace["path"], float(trace.get("scale_divisor", 100.0)),
                             float(trace.get("bucket", 0.1)))
        return lambda seed: trace_driven_scenario(process, seed, **params)
    raise CliError(f"unknown preset {preset!r}")


def cmd_simulate(args) -> int:
    preset = getattr(args, "preset", None)
    if preset == "epoch-sweep":
        return _run_epoch_sweep(args)
    if preset == "distribution-sensitivity":
        return _run_distribution_sensitivity(args)
    seed = int(getattr(args, "seed", None) or 0)
    out_dir = _sim_out_dir(args)
    if preset:
        bundle = _bundle_builder(args)(seed)
        network, queries, process, epoch = (bundle.network, list(bundle.queries),
                                            bundle.process, bundle.epoch)
        solver = _solver_from_args(args)
        if getattr(args, "formulation", None) is not None or \
                getattr(args, "delta", None) is not None:
            epoch = dataclasses.replace(epoch, solver=solver)
    else:
        if not (getattr(args, "net", None) and getattr(args, "trace", None)):
            raise CliError("simulate needs --preset, or --net and --trace")
        network = load_network(args.net)
        epoch = EpochConfig(epoch_length=_float_arg(args, "epoch_len", 5.0),
                            bucket=_float_arg(args, "bucket", 0.1),
                            solver=_solver_from_args(args),
                            estimator_mode=EstimatorMode.WINDOWED)
        process = load_trace(args.trace, 1.0, epoch.bucket,
                             known_flows={f.id for f in network.flows})
        alpha = _float_arg(args, "alpha", 0.1)
        n_epochs = int(process.horizon // epoch.epoch_length)
        if n_epochs < 1:
            raise CliError("trace shorter than one epoch")
        queries = [SamplingQuery(f.id, 0.0, n_epochs * epoch.epoch_length, alpha)
                   for f in network.flows]
    report = run_simulation(network, queries, process, epoch, seed)
    csv_path = os.path.join(out_dir, f"flow_epochs_seed{seed}.csv")
    json_path = os.path.join(out_dir, f"summary_seed{seed}.json")
    write_flow_epochs_csv(report, csv_path)
    write_summary_json(report, json_path)
    summary = measure_metrics(report)
    print(f"admitted={summary.admitted_flows} fully_sampled={summary.fully_sampled_flows} "
          f"violation_fraction={summary.violation_fraction:.4f}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def compare_algorithms(bundle_builder, algorithms: list[str], seeds: list[int]):
    """Run every (algorithm, seed) pair and aggregate per algorithm.

    Returns a dict keyed by algorithm token with summed admitted and fully
    sampled counts, pooled measured-rate quartiles, and mean solve time.
    """
    if len(algorithms) < 2:
        raise CliError("compare needs at least two algorithms")
    results = {}
    for token in algorithms:
        admitted = fully = 0
        rates = []
        times = []
        per_seed = []
        for seed in seeds:
            bundle = bundle_builder(seed)
            solver = parse_algorithm(token, bundle.epoch.solver)
            bundle = bundle.with_solver(solver)
            report = run_simulation(bundle.network, list(bundle.queries),
                                    bundle.process, bundle.epoch, seed)
            summary = measure_metrics(report)
            admitted += summary.admitted_flows
            fully += summary.fully_sampled_flows
            times.append(summary.mean_solver_wall_time)
            rates.extend(summary.measured_rates)
            per_seed.append({"seed": seed, "admitted": summary.admitted_flows,
                             "fully_sampled": summary.fully_sampled_flows})
        quartiles = [float(q) for q in np.percentile(rates, [25, 50, 75])] if rates else None
        results[token] = {
            "admitted": admitted,
            "fully_sampled": fully,
            "rate_quartiles": quartiles,
            "mean_solver_wall_time_s": float(np.mean(times)) if times else 0.0,
            "per_seed": per_seed,
        }
    return results


def cmd_compare(args) -> int:
    algorithms = getattr(args, "algorithms", None) or DEFAULT_COMPARE_ALGOS
    if isinstance(algorithms, str):
        algorithms = [a for a in algorithms.split(",") if a]
    seeds = getattr(args, "seeds", None)
    if seeds is None:
        seeds = [1, 2, 3, 4, 5]
    elif isinstance(seeds, str):
        seeds = [int(s) for s in seeds.split(",") if s]
    seeds = [int(s) for s in seeds]
    builder = _bundle_builder(args)
    results = compare_algorithms(builder, algorithms, seeds)
    header = ["algorithm", "admitted", "fully_sampled", "rate_q1", "rate_median",
              "rate_q3", "mean_solve_s"]
    rows = []
    for token, res in results.items():
        q = res["rate_quartiles"] or ["", "", ""]
        rows.append([token, res["admitted"], res["fully_sampled"],
                     *(f"{v:.4f}" if v != "" else "" for v in q),
                     f"{res['mean_solver_wall_time_s']:.4f}"])
    _print_table(header, rows)
    out = getattr(args, "out", None)
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"version": "compare/1", "seeds": seeds, "results": results},
                      fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run configuration (overrides flags)")
    p.add_argument("--formulation", choices=["apx", "exact", "ds", "ds2sigma", "csamp"])
    p.add_argument("--delta", type=float)
    p.add_argument("--epsilon", type=float, help="csamp rate headroom, pps")
    p.add_argument("--alpha", type=float, help="uniform target sampling rate override")
    p.add_argument("--time-limit", dest="time_limit", type=float)
    p.add_argument("--node-limit", dest="node_limit", type=int)
    p.add_argument("--seed", type=int)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flowsamp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one allocation instance")
    p_solve.add_argument("--net", help="network JSON file")
    p_solve.add_argument("--out", help="write the result JSON here")
    _add_common(p_solve)

    p_sim = sub.add_parser("simulate", help="run an epoch-driven simulation")
    p_sim.add_argument("--preset",
                       choices=["epoch-sweep", "distribution-sensitivity",
                                "model-driven", "trace-driven"])
    p_sim.add_argument("--net")
    p_sim.add_argument("--trace")
    p_sim.add_argument("--epoch-len", dest="epoch_len", type=float)
    p_sim.add_argument("--bucket", type=float)
    p_sim.add_argument("--out-dir", dest="out_dir")
    _add_common(p_sim)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one scenario")
    p_cmp.add_argument("--preset", choices=["model-driven", "trace-driven"])
    p_cmp.add_argument("--trace")
    p_cmp.add_argument("--algorithms", help="comma-separated tokens")
    p_cmp.add_argument("--seeds", help="comma-separated seeds")
    p_cmp.add_argument("--out", help="write aggregate JSON here")
    p_cmp.add_argument("--out-dir", dest="out_dir")
    _add_common(p_cmp)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _merge_config(args, _load_config(args.config))
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_compare(args)
    except (CliError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
