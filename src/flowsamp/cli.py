"""Command-line surface: solve instances, run simulations, compare algorithms,
turn packet logs into traces.

Exit codes: 0 success, 2 validation error, 3 solver hit its limits without
finding any assignment. Every subcommand is a pure function of its
configuration and seed; rerunning writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys
from collections import namedtuple

import numpy as np

from .instances import (ScenarioBundle, epoch_sweep_scenario, model_driven_scenario,
                        sensitivity_scenario, trace_driven_scenario, whole_epochs)
from .model import ModelError, build_network, load_network, read_json, write_json
from .optimizer import Formulation, SolverConfig, reused_searches, solve
from .simulator import (EpochConfig, EstimatorMode, SamplingQuery, epoch_networks,
                        measure_metrics, run_simulation, write_flow_epochs_csv,
                        write_summary_json)
from .trafficgen import (UPDATE_INTERVAL, Distribution, count_packets, load_trace,
                         write_trace)

DEFAULT_COMPARE_ALGOS = ["ds", "ds2sigma", "apx", "csamp+100", "csamp+150", "csamp+200"]
# solver setting flag destinations -> the SolverConfig field each one replaces
_SOLVER_SETTINGS = {"delta": "delta", "epsilon": "epsilon_pps", "time_limit": "time_limit",
                    "node_limit": "node_limit"}
# JSON types of the config keys whose value is not the scalar a flag parses to.
_STRUCTURED = {"seeds": (list,), "algorithms": (list,), "trace": (str, dict), "params": (dict,)}
# Builder keyword annotations that a JSON 'params' value can express.
_PARAM_KINDS = {"int": (int,), "float": (float,), "int | None": (int, type(None))}


class CliError(Exception):
    pass


def _repeated(items: list):
    """The first item that an earlier one equals, or None."""
    return next((item for i, item in enumerate(items) if item in items[:i]), None)


def parse_algorithm(token: str, base: SolverConfig) -> SolverConfig:
    """Algorithm tokens: ds, ds2sigma, apx, exact, csamp+<epsilon_pps>."""
    given = token
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
    try:
        return dataclasses.replace(base, formulation=form, epsilon_pps=eps)
    except ValueError as exc:
        raise CliError(f"algorithm {given!r}: {exc}") from None


def _typed(name: str, value, *kinds: type):
    """``value`` if it is one of the JSON ``kinds``; an integer passes as a
    number if a float can hold it, a bool as nothing."""
    accepted = kinds + ((int,) if float in kinds else ())
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise CliError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, "
                       f"got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise CliError(f"{name} is an integer too large for a float")
    return value


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Overlay the JSON run configuration ``args.config`` on the parsed flags.

    The accepted keys are the subcommand's own settings (its flag
    destinations and config-only defaults) plus ``version``; each value must
    have the type its flag parses to."""
    path = args.config
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    version = doc.pop("version", "runconfig/1")
    if version != "runconfig/1":
        raise CliError(f"{path}: unsupported config version {version!r}")
    actions = {a.dest: a for a in parser._actions}
    accepted = set(vars(args)) - {"command", "config"}
    for key, value in doc.items():
        if key not in accepted:
            raise CliError(f"{path}: unknown config key {key!r} for {args.command}")
        action = actions.get(key) or argparse.Action((), key)   # a config-only key
        _typed(f"{path}: config key {key!r}", value,
               *_STRUCTURED.get(key, (action.type or str,)))
        if action.choices and value not in action.choices:
            raise CliError(f"{path}: config key {key!r} must be one of "
                           f"{', '.join(action.choices)}, got {value!r}")
        setattr(args, key, float(value) if action.type is float else value)


def _solver(args, base: SolverConfig) -> SolverConfig:
    """``base`` with every solver setting the run was given replacing its
    field; the other fields keep the base's values."""
    given = {field: getattr(args, key) for key, field in _SOLVER_SETTINGS.items()
             if getattr(args, key) is not None}
    form = getattr(args, "formulation", None)   # compare sets it per algorithm token
    if form is not None:
        given["formulation"] = Formulation(form)
    return dataclasses.replace(base, **given)


def cmd_solve(args) -> int:
    if not args.net:
        raise CliError("solve needs --net (or a config with 'net')")
    network = load_network(args.net)
    if args.alpha is not None:
        flows = [dataclasses.replace(f, target_rate=args.alpha) for f in network.flows]
        network = build_network(network.switches, flows)
    result = solve(network, _solver(args, SolverConfig()))
    print(f"objective={result.objective} optimal={result.optimal} bound={result.bound} "
          f"nodes={result.nodes_explored} wall_time={result.wall_time:.3f}s")
    if args.out:
        result.save(args.out)
    if not result.optimal and result.objective == 0 and network.flows:
        return 3
    return 0


def _table(header: list[str], rows: list[list], path: str | None = None) -> None:
    """Print the rows aligned under ``header``; with ``path``, also write them as CSV."""
    lines = [[str(c) for c in row] for row in [header, *rows]]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write("".join(",".join(line) + "\n" for line in lines))


def _simulate(bundle: ScenarioBundle, seed: int):
    return run_simulation(bundle.network, list(bundle.queries), bundle.process,
                          bundle.epoch, seed)


def _run_epoch_sweep(args, out_dir: str) -> int:
    seed = args.seed or 0
    rows = []
    for length in (1.0, 5.0, 20.0):
        summary = measure_metrics(_simulate(_scenario(args, epoch_sweep_scenario, length,
                                                      seed), seed))
        if summary.rate_quartiles is None:   # e.g. --node-limit 1 admits no flow
            raise CliError(f"no flow measured a sampling rate in the {length:g} s epoch")
        q1, med, q3 = summary.rate_quartiles
        rows.append([f"{length:g}", f"{np.mean(summary.measured_rates):.4f}", f"{q1:.4f}",
                     f"{med:.4f}", f"{q3:.4f}", f"{q3 - q1:.4f}"])
    _table(["epoch_s", "mean_rate", "q1", "median", "q3", "iqr"], rows,
           os.path.join(out_dir, "epoch_sweep.csv"))
    return 0


def _run_distribution_sensitivity(args, out_dir: str) -> int:
    seeds = _seeds(args, range(20))
    rows = []
    for dist in Distribution:
        violations, loads_pps = [], []
        for seed in seeds:
            report = _simulate(_scenario(args, sensitivity_scenario, dist, seed), seed)
            violations.append(report.violation_fraction("SW"))
            loads_pps.append(report.switch_loads[0] / report.bucket)
        q1, med, q3 = np.percentile(np.concatenate(loads_pps), [25, 50, 75])
        rows.append([dist.value, f"{np.mean(violations):.4f}", f"{q1:.0f}",
                     f"{med:.0f}", f"{q3:.0f}"])
    _table(["distribution", "violation_freq", "load_q1_pps", "load_median_pps",
            "load_q3_pps"], rows, os.path.join(out_dir, "distribution_sensitivity.csv"))
    return 0


def _seed(name: str, value) -> int:
    """``value`` if it is an integer >= 0, as numpy's generators need."""
    if _typed(name, value, int) < 0:
        raise CliError(f"{name} must be >= 0, got {value}")
    return value


def _seeds(args, default) -> list[int]:
    """The run's 'seeds', or ``default`` when none were given."""
    return _distinct_seeds([_seed("'seeds' entry", s)
                            for s in (default if args.seeds is None else args.seeds)])


def _distinct_seeds(seeds: list[int]) -> list[int]:
    """``seeds`` if it lists at least one seed and none twice."""
    if not seeds:
        raise CliError("'seeds' must list at least one seed")
    repeated = _repeated(seeds)
    if repeated is not None:
        raise CliError(f"'seeds' lists seed {repeated} more than once")
    return seeds


def _params(args, builder) -> dict:
    """The run's 'params', checked against the keyword-only arguments of the
    preset's scenario builder; the solver settings have top-level keys."""
    params = args.params or {}
    accepted = {name: _PARAM_KINDS[p.annotation]
                for name, p in inspect.signature(builder).parameters.items()
                if p.kind == inspect.Parameter.KEYWORD_ONLY and p.annotation in _PARAM_KINDS
                and name not in _SOLVER_SETTINGS}
    for key, value in params.items():
        if key in _SOLVER_SETTINGS:
            raise CliError(f"params key {key!r} is a solver setting; "
                           f"give it as the top-level config key {key!r}")
        if key not in accepted:
            raise CliError(f"unknown params key {key!r} for preset "
                           f"(accepted: {', '.join(sorted(accepted))})")
        _typed(f"params key {key!r}", value, *accepted[key])
    return params


def _scenario(args, builder, *positional) -> ScenarioBundle:
    """The preset's bundle built with the run's 'params', its solver
    overlaid with the run's solver settings."""
    bundle = builder(*positional, **_params(args, builder))
    return bundle.with_solver(_solver(args, bundle.epoch.solver))


def _trace_driven(args):
    """seed -> bundle for the trace-driven preset."""
    trace = {"path": args.trace} if isinstance(args.trace, str) else args.trace or {}
    if set(trace) - {"path", "scale_divisor", "bucket"} or \
            not isinstance(trace.get("path"), str):
        raise CliError("trace-driven preset needs 'trace' ({path, scale_divisor, bucket}) "
                       f"or --trace, got {args.trace!r}")
    process = load_trace(
        trace["path"],
        float(_typed("'trace.scale_divisor'", trace.get("scale_divisor", 100.0), float)),
        float(_typed("'trace.bucket'", trace.get("bucket", UPDATE_INTERVAL), float)))
    return lambda seed: _scenario(args, trace_driven_scenario, process, seed)


def _net_trace(args):
    """seed -> bundle for simulate --net and --trace."""
    network = load_network(args.net)
    # an explicit 0 is kept, so that validation rejects it
    epoch = EpochConfig(epoch_length=5.0 if args.epoch_len is None else args.epoch_len,
                        bucket=UPDATE_INTERVAL if args.bucket is None else args.bucket,
                        solver=_solver(args, SolverConfig()),
                        estimator_mode=EstimatorMode.WINDOWED)
    process = load_trace(args.trace, 1.0, epoch.bucket,
                         known_flows={f.id for f in network.flows})
    n_epochs = whole_epochs(process, epoch)
    queries = tuple(SamplingQuery(f.id, 0.0, n_epochs * epoch.epoch_length,
                                  f.target_rate if args.alpha is None else args.alpha)
                    for f in network.flows)
    return lambda seed: ScenarioBundle(network, queries, process, epoch)


# A run: the non-solver settings it reads (it rejects the others), and either
# ``bundles``, args -> (seed -> ScenarioBundle), for a single simulation, which
# compare also runs, or ``table``, (args, out_dir) -> exit code, for a run that
# writes its own table.
_Run = namedtuple("_Run", "reads bundles table", defaults=(None, None))
# Every simulate run, keyed by --preset; None is the --net and --trace run.
_RUNS = {
    None: _Run({"net", "trace", "epoch_len", "bucket", "alpha", "seed"}, _net_trace),
    "epoch-sweep": _Run({"seed"}, table=_run_epoch_sweep),
    "distribution-sensitivity": _Run({"seeds"}, table=_run_distribution_sensitivity),
    "model-driven": _Run({"seed", "params"}, lambda args: lambda seed: _scenario(
        args, model_driven_scenario, seed)),
    "trace-driven": _Run({"seed", "params", "trace"}, _trace_driven),
}
_COMPARED = [name for name, run in _RUNS.items() if name and run.bundles]


def _run(args) -> _Run:
    """The run ``args`` selects. The first non-solver setting that it does not
    read, in name order, exits 2; compare also reads 'seeds'."""
    run = _RUNS[args.preset]
    reads = run.reads | ({"seeds"} if args.command == "compare" else set())
    for key in sorted(set().union(*(r.reads for r in _RUNS.values())) - reads):
        if getattr(args, key, None) is not None:
            hint = ("; it takes scenario settings through 'params'" if "params" in reads
                    and key in ("net", "alpha", "epoch_len", "bucket") else "")
            where = f"--preset {args.preset}" if args.preset else "--net"
            raise CliError(f"{key!r} does not apply to {where}{hint}")
    return run


def cmd_simulate(args) -> int:
    if not (args.preset or args.net and isinstance(args.trace, str)):
        raise CliError("simulate needs --preset, or --net and --trace (a file path)")
    run = _run(args)
    seed = _seed("'seed'", args.seed or 0)
    out_dir = args.out_dir or "out"     # made only once there is something to write
    if run.table:
        return run.table(args, out_dir)
    report = _simulate(run.bundles(args)(seed), seed)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"flow_epochs_seed{seed}.csv")
    json_path = os.path.join(out_dir, f"summary_seed{seed}.json")
    write_flow_epochs_csv(report, csv_path)
    write_summary_json(report, json_path)
    summary = measure_metrics(report)
    print(f"admitted={summary.admitted_flows} fully_sampled={summary.fully_sampled_flows} "
          f"violation_fraction={summary.violation_fraction:.4f}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


# One (algorithm, seed) run of a compare, in run order: its admitted and
# fully-sampled counts, its measured rates, its report's solves, and how many
# of those solves the search block served from earlier searches.
_Row = namedtuple("_Row", "algorithm seed admitted fully_sampled rates solves reused")
# The keys of a compare result that ``compare --out`` writes, in its order;
# the others are for the stdout table only.
_OUT_KEYS = ("admitted", "fully_sampled", "rate_quartiles", "per_seed")


def compare_algorithms(bundle_builder, algorithms: list[str], seeds: list[int]):
    """Run every (algorithm, seed) pair, one row each, and reduce the rows
    per algorithm.

    Returns a dict keyed by algorithm token. Each entry sums its rows'
    admitted and fully sampled counts, pools their measured rates into
    quartiles and lists the rows as ``per_seed``; for the stdout table only
    (``compare --out`` writes just :data:`_OUT_KEYS`), it also holds the mean
    wall time over the rows' solves, how many solves there were and how many
    of them an identical earlier search in this call served. Every compare
    output is a reduction of these rows. Two tokens that parse to one
    (formulation, epsilon) are refused, and so are no seeds or a repeated
    seed.

    The runs replay in one :func:`optimizer.reused_searches` block, which
    reads their epoch instances as its plan; its docstring gives the rules.
    """
    _distinct_seeds(seeds)
    if len(algorithms) < 2:
        raise CliError("'algorithms' must list at least two algorithms")
    bundles = [bundle_builder(seed) for seed in seeds]
    seen, runs = {}, {}
    for token in algorithms:
        configs = [parse_algorithm(token, bundle.epoch.solver) for bundle in bundles]
        key = (configs[0].formulation, configs[0].epsilon_pps)
        if key in seen:
            raise CliError(f"algorithms {seen[key]!r} and {token!r} are the same algorithm")
        seen[key] = token
        runs[token] = [bundle.with_solver(c) for bundle, c in zip(bundles, configs)]

    def plan():
        networks = {}   # by seed, built on that seed's first read
        for run in runs.values():
            for seed, bundle in zip(seeds, run):
                if seed not in networks:
                    networks[seed] = list(epoch_networks(bundle.network, list(bundle.queries),
                                                         bundle.process, bundle.epoch))
                yield from ((network, bundle.epoch.solver) for network in networks[seed])

    rows = []
    with reused_searches(plan()) as reuse:
        for token, run in runs.items():
            for seed, bundle in zip(seeds, run):
                before = reuse.reused
                report = _simulate(bundle, seed)
                summary = measure_metrics(report)
                rows.append(_Row(token, seed, summary.admitted_flows,
                                 summary.fully_sampled_flows, summary.measured_rates,
                                 report.solves, reuse.reused - before))
    return {token: _reduce([row for row in rows if row.algorithm == token]) for token in runs}


def _reduce(rows: list[_Row]) -> dict:
    """One algorithm's compare result from its rows."""
    rates = [rate for row in rows for rate in row.rates]
    times = [s["wall_time_s"] for row in rows for s in row.solves]
    return {
        "admitted": sum(row.admitted for row in rows),
        "fully_sampled": sum(row.fully_sampled for row in rows),
        "rate_quartiles": [float(q) for q in np.percentile(rates, [25, 50, 75])] if rates else None,
        "mean_solver_wall_time_s": float(np.mean(times)) if times else 0.0,
        "solves": len(times),
        "reused": sum(row.reused for row in rows),
        "per_seed": [{"seed": row.seed, "admitted": row.admitted,
                      "fully_sampled": row.fully_sampled} for row in rows],
    }


def cmd_compare(args) -> int:
    if not args.preset:
        raise CliError(f"compare needs --preset {' or '.join(_COMPARED)}")
    algorithms = [_typed("'algorithms' entry", a, str)
                  for a in (DEFAULT_COMPARE_ALGOS if args.algorithms is None
                            else args.algorithms)]
    seeds = _seeds(args, [1, 2, 3, 4, 5])
    results = compare_algorithms(_run(args).bundles(args), algorithms, seeds)
    _table(["algorithm", "admitted", "fully_sampled", "rate_q1", "rate_median", "rate_q3",
            "mean_solve_s", "reused"],
           [[token, res["admitted"], res["fully_sampled"],
             *([f"{q:.4f}" for q in res["rate_quartiles"]] if res["rate_quartiles"]
               else ["", "", ""]),
             f"{res['mean_solver_wall_time_s']:.4f}", f"{res['reused']}/{res['solves']}"]
            for token, res in results.items()])
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_json({"version": "compare/1", "seeds": seeds,
                    "results": {token: {key: res[key] for key in _OUT_KEYS}
                                for token, res in results.items()}}, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_ingest(args) -> int:
    """Write the trace of a packet log (see trafficgen.count_packets), rows
    bucket by bucket; a bucket too narrow for its rates writes nothing."""
    width = args.bucket_ms
    if not (math.isfinite(width) and width > 0):
        raise CliError(f"--bucket-ms must be a finite positive number, got {width!r}")
    bucket_s = width / 1000.0
    if bucket_s == 0:
        raise CliError(f"--bucket-ms {width!r} is too narrow: it is 0 s wide")
    counts = count_packets(args.packets, width)
    rows = [(idx, fid, n / bucket_s) for (idx, fid), n in sorted(counts.items())]
    if not all(math.isfinite(rate) for _, _, rate in rows):
        raise CliError(f"--bucket-ms {width!r} is too narrow: a bucket's rate is not finite")
    write_trace(args.out, width, rows)
    print(f"wrote {args.out}: {len(counts)} entries, {len({f for _, f in counts})} flows")
    return 0


_COMMANDS = {"solve": cmd_solve, "simulate": cmd_simulate, "compare": cmd_compare,
             "ingest": cmd_ingest}


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line and overlay its ``--config`` document."""
    parser = argparse.ArgumentParser(prog="flowsamp")
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: "compare --seed" must not read as --seeds
    p_solve = sub.add_parser("solve", allow_abbrev=False, help="solve one allocation instance")
    p_solve.add_argument("--net", help="network JSON file")
    p_solve.add_argument("--out", help="write the result JSON here")

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run an epoch-driven simulation")
    p_sim.add_argument("--preset", choices=[name for name in _RUNS if name])
    p_sim.add_argument("--net")
    p_sim.add_argument("--trace")
    p_sim.add_argument("--epoch-len", dest="epoch_len", type=float)
    p_sim.add_argument("--bucket", type=float)
    p_sim.add_argument("--out-dir", dest="out_dir")
    p_sim.add_argument("--seed", type=int)
    p_sim.set_defaults(params=None, seeds=None)   # settable from a config only

    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="compare algorithms on one scenario")
    p_cmp.add_argument("--preset", choices=_COMPARED)
    p_cmp.add_argument("--trace")
    p_cmp.add_argument("--algorithms", type=lambda text: [a for a in text.split(",") if a],
                       help="comma-separated tokens")
    p_cmp.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",") if s],
                       help="comma-separated seeds")
    p_cmp.add_argument("--out", help="write aggregate JSON here")
    p_cmp.set_defaults(params=None)   # settable from a config only

    p_ing = sub.add_parser("ingest", allow_abbrev=False,
                           help="turn a packet log into a bucketed rate trace")
    p_ing.add_argument("--packets", required=True,
                       help="packet log: timestamp_s,flow_id or timestamp_s,src,dst lines")
    p_ing.add_argument("--out", required=True, help="write the trace here")
    p_ing.add_argument("--bucket-ms", dest="bucket_ms", type=float, default=100.0)

    for p in (p_solve, p_sim):
        p.add_argument("--formulation", choices=[f.value for f in Formulation])
        p.add_argument("--alpha", type=float, help="uniform target sampling rate override")
    for p in (p_solve, p_sim, p_cmp):
        p.add_argument("--config", help="JSON run configuration (overrides flags)")
        p.add_argument("--delta", type=float)
        p.add_argument("--epsilon", type=float, help="csamp rate headroom, pps")
        p.add_argument("--time-limit", dest="time_limit", type=float)
        p.add_argument("--node-limit", dest="node_limit", type=int)

    args = parser.parse_args(argv)
    if getattr(args, "config", None):   # ingest takes no config
        _merge_config(args, sub.choices[args.command])
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
