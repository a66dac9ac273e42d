import argparse
import concurrent.futures
import contextlib
import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from flowsamp import (Allocation, EpochConfig, EstimatorMode, Formulation, FlowSpec,
                      RateProcess, SamplingQuery, SolveResult, SolverConfig, SwitchSpec,
                      build_network, cli, measure_metrics, optimizer, run_simulation,
                      save_network, simulator)
from flowsamp.cli import (_COMPARED, _RUNS, CliError, _params, compare_algorithms, main,
                          parse_algorithm, parse_args)
from flowsamp.instances import (ScenarioBundle, epoch_sweep_scenario, model_driven_scenario,
                                sensitivity_scenario, trace_driven_scenario, two_switch_toy)
from flowsamp.optimizer import load_solve_result
from flowsamp.trafficgen import (TRACE_HEADER, Distribution, load_trace, save_trace,
                                write_trace)

from conftest import partly_admitted_bundle


@pytest.fixture
def toy_net_file(tmp_path):
    path = tmp_path / "toy.json"
    save_network(two_switch_toy(), str(path))
    return str(path)


def test_solve_toy(toy_net_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["solve", "--net", toy_net_file, "--formulation", "apx",
                 "--delta", "0.08", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "objective=2" in stdout and "bound=2" in stdout
    assert load_solve_result(str(out)).objective == 2


def test_solve_empty_network(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"switches": [], "flows": []}))
    assert main(["solve", "--net", str(path)]) == 0
    assert "objective=0" in capsys.readouterr().out


def test_solve_rejects_bad_delta(toy_net_file, capsys):
    assert main(["solve", "--net", toy_net_file, "--delta", "0.7"]) == 2
    assert "delta" in capsys.readouterr().err


def test_solve_rejects_nan_epsilon(toy_net_file, capsys):
    assert main(["solve", "--net", toy_net_file, "--formulation", "csamp",
                 "--epsilon", "nan"]) == 2
    assert "epsilon_pps" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "--net", "/does/not/exist.json"]) == 2


@pytest.mark.parametrize("flow_changes, named", [
    ({"path": [["S1"]]}, "flows[0].path[0]"),
    ({"extra": 1}, "flows[0]: unknown key 'extra'"),
])
def test_solve_rejects_net_entries_outside_the_schema(tmp_path, toy_net_file, capsys,
                                                       flow_changes, named):
    doc = json.loads(Path(toy_net_file).read_text())
    doc["flows"][0].update(flow_changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--net", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_solve_rejects_nan_capacity(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"switches": [{"id": "s", "capacity_pps": NaN}], "flows": []}')
    assert main(["solve", "--net", str(path)]) == 2
    err = capsys.readouterr().err
    assert "capacity_pps" in err and "Traceback" not in err


def test_solve_alpha_override(toy_net_file, capsys):
    # at a tiny target rate everything fits
    assert main(["solve", "--net", toy_net_file, "--delta", "0.08",
                 "--alpha", "0.001"]) == 0
    assert "objective=4" in capsys.readouterr().out


def test_parse_algorithm_tokens():
    base = SolverConfig()
    assert parse_algorithm("ds", base).formulation == Formulation.DS
    assert parse_algorithm("csamp+150", base).epsilon_pps == 150.0
    with pytest.raises(CliError):
        parse_algorithm("newton", base)
    with pytest.raises(CliError):
        parse_algorithm("csamp+abc", base)


def _zero_variance_bundle(seed):
    switches = [SwitchSpec("s", 50.0)]
    flows = [FlowSpec(f"f{i}", "a", "b", ("s",), 0.5, float(20 + 10 * i), 0.0)
             for i in range(4)]
    net = build_network(switches, flows)
    queries = tuple(SamplingQuery(f.id, 0.0, 1.0, 0.5) for f in net.flows)
    process = RateProcess(0.1, 10, {f.id: np.full(10, f.rate_mean_pps)
                                    for f in net.flows})
    epoch = EpochConfig(epoch_length=1.0, estimator_mode=EstimatorMode.DECLARED)
    return ScenarioBundle(net, queries, process, epoch)


def test_compare_zero_variance_rows_identical():
    results = compare_algorithms(
        _zero_variance_bundle, ["ds", "ds2sigma", "apx", "exact", "csamp+0"], [0, 1])
    rows = {(r["admitted"], r["fully_sampled"], tuple(r["rate_quartiles"]))
            for r in results.values()}
    assert len(rows) == 1
    # every formulation charges mu alone and both seeds build one instance,
    # so the first search serves every other solve
    assert [(r["reused"], r["solves"]) for r in results.values()] == \
        [(1, 2)] + [(2, 2)] * 4


HEADLINE = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "model_driven.json").read_text())
HEADLINE_ALGOS = HEADLINE["algorithms"]


@pytest.fixture
def blocks(monkeypatch):
    """The SearchReuse of every reused_searches block compare opens, in order."""
    opened = []
    block = optimizer.reused_searches

    @contextlib.contextmanager
    def recording(instances=()):
        with block(instances) as reuse:
            opened.append(reuse)
            yield reuse

    monkeypatch.setattr(cli, "reused_searches", recording)
    return opened


def test_compare_searches_each_distinct_instance_once(monkeypatch, blocks):
    # At TWO_SIGMA_DELTA, z is exactly 2, so apx charges every flow what
    # ds2sigma does: its 10 solves are served by ds2sigma's searches. The
    # searches run in worker processes, which the block counts.
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    solves = []
    solve = optimizer.solve

    def recording_solve(net, cfg):
        n_reused = blocks[-1].reused
        result = solve(net, cfg)
        solves.append((net, cfg, result, blocks[-1].reused > n_reused))
        return result

    monkeypatch.setattr(simulator, "solve", recording_solve)
    results = compare_algorithms(model_driven_scenario, HEADLINE_ALGOS, [1, 2])
    assert (blocks[0].searched, len(solves)) == (50, 60)
    assert {token: (r["reused"], r["solves"]) for token, r in results.items()} == \
        {token: (10 if token == "apx" else 0, 10) for token in HEADLINE_ALGOS}
    reused = [(net, cfg, result) for net, cfg, result, was_reused in solves if was_reused]
    assert {cfg.formulation for _, cfg, _ in reused} == {Formulation.APX}
    for net, cfg, result in reused:
        fresh = optimizer._bb_solve(net, cfg)
        assert (result.objective, result.optimal, result.nodes_explored, result.bound,
                sorted(result.allocation.assignment.items())) == \
            (fresh.objective, fresh.optimal, fresh.nodes_explored, fresh.bound,
             sorted(fresh.allocation.assignment.items()))
    # the reuse ends with the call
    compare_algorithms(model_driven_scenario, HEADLINE_ALGOS, [1, 2])
    assert [b.searched for b in blocks] == [50, 50]


def test_compare_builds_each_seeds_epoch_networks_once(monkeypatch):
    # the plan builds seeds 1 and 2 once each for all six algorithms; each
    # of the 12 replays builds its own
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    reads, epochs = [], simulator._epochs
    monkeypatch.setattr(simulator, "_epochs", lambda *args: reads.append(1) or epochs(*args))
    compare_algorithms(model_driven_scenario, HEADLINE_ALGOS, [1, 2])
    assert len(reads) == 14


def test_compare_sends_each_search_as_the_plan_is_read(monkeypatch):
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    log, key, submit = [], optimizer._search_key, ProcessPoolExecutor.submit
    monkeypatch.setattr(optimizer, "_search_key",
                        lambda net, cfg: log.append("key") or key(net, cfg))
    monkeypatch.setattr(ProcessPoolExecutor, "submit",
                        lambda pool, *args: log.append("submit") or submit(pool, *args))
    compare_algorithms(model_driven_scenario, HEADLINE_ALGOS, [1, 2])
    sent = [i for i, entry in enumerate(log) if entry == "submit"]
    # each new key's search is sent before the plan's next instance is keyed,
    # not after all 60 of them
    assert len(sent) == 50 and sent[0] == 1
    assert all(log[i - 1] == "key" for i in sent)


def test_compare_pool_has_a_worker_per_usable_cpu(monkeypatch, blocks):
    # two distinct searches, and one idle worker
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 3)
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda workers, **kwargs:
                        sizes.append(workers) or ProcessPoolExecutor(workers, **kwargs))
    compare_algorithms(lambda seed: model_driven_scenario(seed, n_epochs=1), ["ds", "apx"], [1])
    assert sizes == [3] and blocks[0].searched == 2
    assert multiprocessing.active_children() == []


def _headline_compare(monkeypatch, tmp_path, capsys, cpus):
    """The headline compare at seeds 1-2 with ``cpus`` usable CPUs: its
    --out bytes, its stdout table without the mean_solve_s column, every
    solve's result without its wall time, and how many searches ran in
    this process."""
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: cpus)
    parent, here = os.getpid(), []
    search, solve, results = optimizer._bb_solve, optimizer.solve, []
    monkeypatch.setattr(optimizer, "_bb_solve", lambda net, cfg: (
        os.getpid() == parent and here.append(cfg)) or search(net, cfg))
    monkeypatch.setattr(simulator, "solve",
                        lambda net, cfg: results.append(solve(net, cfg)) or results[-1])
    out, config = tmp_path / f"compare{cpus}.json", tmp_path / "run.json"
    config.write_text(json.dumps({**HEADLINE, "seeds": [1, 2], "out": str(out)}))
    capsys.readouterr()
    assert main(["compare", "--config", str(config)]) == 0
    *lines, wrote = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert wrote == ["wrote", str(out)]
    column = lines[0].index("mean_solve_s")
    table = [line[:column] + line[column + 1:] for line in lines]
    fields = [{f.name: getattr(r, f.name) for f in dataclasses.fields(r)
               if f.name != "wall_time"} for r in results]
    return out.read_bytes(), table, fields, len(here)


def test_compare_in_workers_equals_compare_in_process(monkeypatch, tmp_path, capsys):
    *pooled, pooled_here = _headline_compare(monkeypatch, tmp_path, capsys, 2)
    *serial, serial_here = _headline_compare(monkeypatch, tmp_path, capsys, 1)
    assert (pooled_here, serial_here) == (0, 50)
    assert len(pooled[2]) == 60
    assert pooled == serial


def test_compare_searches_again_what_a_worker_stopped_at_its_deadline(monkeypatch, tmp_path,
                                                                      blocks):
    # every worker search returns as if stopped at its deadline, short of
    # the node limit: none may serve a solve, and the workers are gone
    # once compare returns
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    parent, here, keys = os.getpid(), [], []
    search = optimizer._bb_solve

    def deadline_in_workers(net, cfg):
        if os.getpid() == parent:
            here.append(optimizer._search_key(net, cfg))
            return search(net, cfg)
        (tmp_path / str(os.getpid())).touch()
        return SolveResult(Allocation({}), 0, False, 1, 0.0, None)

    monkeypatch.setattr(optimizer, "_bb_solve", deadline_in_workers)
    solve = optimizer.solve
    monkeypatch.setattr(simulator, "solve", lambda net, cfg: keys.append(
        optimizer._search_key(net, cfg)) or solve(net, cfg))
    results = compare_algorithms(lambda seed: model_driven_scenario(seed, n_epochs=2),
                                 HEADLINE_ALGOS, [1])
    assert len(keys) == 12 and len(set(keys)) == 10
    assert sorted(here) == sorted(set(keys))
    assert blocks[0].searched == 20
    assert results["apx"]["reused"] == 2
    workers = [int(p.name) for p in tmp_path.iterdir()]
    assert workers and parent not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_compare_replays_while_the_workers_search(monkeypatch, tmp_path):
    # each worker search of the last run waits, up to a timeout, for the
    # marker the first replay leaves: a compare that searched everything
    # before replaying anything would find it only after the timeout
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    parent, marker = os.getpid(), tmp_path / "first-replay-done"
    search, simulate = optimizer._bb_solve, cli._simulate

    def waiting_in_workers(net, cfg):
        if os.getpid() != parent and cfg.formulation == Formulation.EXACT:
            deadline = time.monotonic() + 10.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            (tmp_path / f"waited-{optimizer._search_key(net, cfg).hex()}").write_text(
                "marker" if marker.exists() else "timeout")
        return search(net, cfg)

    def marking(bundle, seed):
        report = simulate(bundle, seed)
        marker.touch()
        return report

    monkeypatch.setattr(optimizer, "_bb_solve", waiting_in_workers)
    monkeypatch.setattr(cli, "_simulate", marking)
    compare_algorithms(lambda seed: model_driven_scenario(seed, n_epochs=2),
                       ["ds", "exact"], [1])
    waits = [p.read_text() for p in tmp_path.glob("waited-*")]
    assert len(waits) == 2 and set(waits) == {"marker"}


def test_compare_that_fails_mid_replay_leaves_no_worker(monkeypatch, tmp_path):
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    parent, search, simulate = os.getpid(), optimizer._bb_solve, cli._simulate
    calls = []

    def marking_workers(net, cfg):
        if os.getpid() != parent:
            (tmp_path / str(os.getpid())).touch()
        return search(net, cfg)

    def failing_second(bundle, seed):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("replay failed")
        return simulate(bundle, seed)

    monkeypatch.setattr(optimizer, "_bb_solve", marking_workers)
    monkeypatch.setattr(cli, "_simulate", failing_second)
    with pytest.raises(RuntimeError, match="replay failed"):
        compare_algorithms(model_driven_scenario, HEADLINE_ALGOS, [1, 2])
    assert len(calls) == 2
    workers = [int(p.name) for p in tmp_path.iterdir()]
    assert workers and parent not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_compare_reads_its_plan_only_if_a_pool_may_start(monkeypatch):
    def unreadable(*args):
        raise RuntimeError("plan read")

    def untimed(results):
        return {token: {k: v for k, v in r.items() if k != "mean_solver_wall_time_s"}
                for token, r in results.items()}

    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 1)
    expected = untimed(compare_algorithms(partly_admitted_bundle, ["ds", "csamp+0"], [0, 1]))
    monkeypatch.setattr(cli, "epoch_networks", unreadable)
    assert untimed(compare_algorithms(partly_admitted_bundle, ["ds", "csamp+0"], [0, 1])) == \
        expected
    monkeypatch.setattr(optimizer, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="plan read"):
        compare_algorithms(partly_admitted_bundle, ["ds", "csamp+0"], [0, 1])
    assert multiprocessing.active_children() == []


def test_compare_mean_solve_time_is_over_the_row_solves(monkeypatch):
    # at this inclusion probability seeds 1 and 2 draw no query and make no
    # solve: they must not count as solves that took no time
    walls = {}
    solve = simulator.solve

    def recording_solve(net, cfg):
        result = solve(net, cfg)
        walls.setdefault(cfg.formulation, []).append(result.wall_time)
        return result

    monkeypatch.setattr(simulator, "solve", recording_solve)
    results = compare_algorithms(lambda seed: model_driven_scenario(seed, inclusion_prob=0.002),
                                 ["ds", "apx"], [1, 2, 3, 4])
    assert [r["admitted"] for r in results["ds"]["per_seed"]][:2] == [0, 0]
    for token, form in (("ds", Formulation.DS), ("apx", Formulation.APX)):
        assert results[token]["solves"] == len(walls[form]) == 6
        assert results[token]["mean_solver_wall_time_s"] == float(np.mean(walls[form]))


def test_importing_the_package_starts_no_pool_machinery():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import flowsamp, flowsamp.cli, flowsamp.instances; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_the_package_needs_only_numpy_and_networkx():
    # src/ imports no test or optional dependency, even to build a scenario
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, importlib, pkgutil; sys.path.insert(0, sys.argv[1]); import flowsamp; "
            "[importlib.import_module('flowsamp.' + m.name) "
            " for m in pkgutil.iter_modules(flowsamp.__path__)]; "
            "flowsamp.instances.model_driven_scenario(1, n_epochs=1); "
            "print(sorted({'scipy', 'jsonschema', 'hypothesis', 'pytest'} & "
            "{name.partition('.')[0] for name in sys.modules}))")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_compare_outputs_are_reductions_of_the_run_rows(tmp_path, monkeypatch, capsys):
    # "huge" is never admitted, so each run admits part of its queries
    solves, returned = {}, []
    simulate, compare = cli.run_simulation, cli.compare_algorithms

    def counting(network, queries, process, epoch, seed):
        report = simulate(network, queries, process, epoch, seed)
        solves[epoch.solver] = solves.get(epoch.solver, 0) + len(report.solves)
        return report

    def recording(*args):
        returned.append(compare(*args))
        return returned[-1]

    monkeypatch.setattr(cli, "run_simulation", counting)
    monkeypatch.setattr(cli, "compare_algorithms", recording)
    monkeypatch.setitem(_RUNS, "model-driven", _RUNS["model-driven"]._replace(
        bundles=lambda args: partly_admitted_bundle))
    out = tmp_path / "c.json"
    assert main(["compare", "--preset", "model-driven", "--algorithms", "ds,csamp+0",
                 "--seeds", "0,1,2", "--out", str(out)]) == 0
    [results] = returned
    written = json.loads(out.read_text())["results"]
    assert list(written) == list(results) == ["ds", "csamp+0"]
    base = partly_admitted_bundle(0).epoch.solver
    for token, res in results.items():
        per_seed = res["per_seed"]
        assert [r["seed"] for r in per_seed] == [0, 1, 2]
        assert res["admitted"] == sum(r["admitted"] for r in per_seed) < 3 * len(per_seed)
        assert res["fully_sampled"] == sum(r["fully_sampled"] for r in per_seed)
        assert res["solves"] == solves[parse_algorithm(token, base)] == 6
        assert list(written[token]) == ["admitted", "fully_sampled", "rate_quartiles",
                                        "per_seed"]
        assert written[token] == {key: res[key] for key in written[token]}


def test_compare_pools_per_seed_measured_rates():
    seeds = [0, 1, 2]
    results = compare_algorithms(partly_admitted_bundle, ["ds", "csamp+0"], seeds)
    rates = []
    for seed in seeds:
        bundle = partly_admitted_bundle(seed)
        report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                                bundle.epoch, seed)
        summary = measure_metrics(report)
        assert len(summary.measured_rates) == 2   # "huge" is never admitted
        rates.extend(summary.measured_rates)
    expected = [float(q) for q in np.percentile(rates, [25, 50, 75])]
    assert results["ds"]["rate_quartiles"] == expected
    assert results["ds"]["admitted"] == 2 * len(seeds)


@pytest.mark.parametrize("seeds, message", [
    ([], "'seeds' must list at least one seed"),
    ([1, 1], "'seeds' lists seed 1 more than once"),
    ([2, 1, 2], "'seeds' lists seed 2 more than once"),
])
def test_compare_refuses_no_seeds_or_a_repeated_seed(seeds, message):
    with pytest.raises(CliError, match=re.escape(message)):
        compare_algorithms(model_driven_scenario, ["ds", "apx"], seeds)


def test_compare_needs_two_algorithms():
    with pytest.raises(CliError):
        compare_algorithms(_zero_variance_bundle, ["apx"], [0])


def test_compare_unknown_algorithm_exits_2(capsys):
    assert main(["compare", "--preset", "model-driven",
                 "--algorithms", "apx,warlock", "--seeds", "1"]) == 2
    assert "warlock" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["csamp+nan", "csamp+-5", "csamp+1e400"])
def test_compare_bad_epsilon_exits_2_naming_the_token(token, capsys):
    assert main(["compare", "--preset", "model-driven",
                 "--algorithms", f"ds,{token}", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert f"algorithm {token!r}: epsilon_pps must be a finite number >= 0" in err


@pytest.mark.parametrize("tokens,first,second", [
    pytest.param("ds,ds", "ds", "ds", id="ds,ds"),
    pytest.param("apx,DS, ds ", "DS", " ds ", id="apx,DS, ds "),
    pytest.param("csamp+100,csamp+100.0", "csamp+100", "csamp+100.0",
                 id="csamp+100,csamp+100.0"),
    # the preset runs csamp at epsilon 0
    pytest.param("csamp,apx,csamp+0", "csamp", "csamp+0", id="csamp,apx,csamp+0"),
])
def test_compare_repeated_algorithm_exits_2(tokens, first, second, capsys):
    assert main(["compare", "--preset", "model-driven",
                 "--algorithms", tokens, "--seeds", "1"]) == 2
    assert f"algorithms {first!r} and {second!r} are the same algorithm" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,doc", [
    (["compare", "--preset", "model-driven", "--seeds", "1,2,1"], {}),
    (["simulate", "--preset", "distribution-sensitivity"], {"seeds": [3, 3]}),
])
def test_repeated_seed_exits_2(tmp_path, argv, doc, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(cfg), *(["--out-dir", str(tmp_path)]
                                                 if argv[0] == "simulate" else [])]) == 2
    err = capsys.readouterr().err
    assert "'seeds'" in err and "more than once" in err


def _write_trace(path, flows, n_buckets, rate):
    write_trace(str(path), 100.0, ((k, fid, rate) for k in range(n_buckets) for fid in flows))


def test_simulate_net_and_trace_deterministic(tmp_path, capsys):
    net = build_network(
        [SwitchSpec("s", 40.0)],
        [FlowSpec(f"f{i}", "a", "b", ("s",), 0.1, 300.0, 0.0) for i in range(3)])
    net_path = tmp_path / "net.json"
    save_network(net, str(net_path))
    trace_path = tmp_path / "t.trace"
    _write_trace(trace_path, [f"f{i}" for i in range(3)], 100, 300.0)
    outs = []
    for run in range(2):
        out_dir = tmp_path / f"out{run}"
        code = main(["simulate", "--net", str(net_path), "--trace", str(trace_path),
                     "--epoch-len", "5", "--seed", "3", "--out-dir", str(out_dir)])
        assert code == 0
        outs.append(((out_dir / "flow_epochs_seed3.csv").read_bytes(),
                     (out_dir / "summary_seed3.json").read_bytes()))
    assert outs[0] == outs[1]
    summary = json.loads(outs[0][1])
    assert summary["version"] == "sim-summary/1"


def test_simulate_net_and_trace_counts_whole_epochs_in_buckets(tmp_path, capsys):
    # 1.0 // 0.1 is 9.0 in floats: a 10-bucket trace holds ten 0.1 s epochs
    net_path = tmp_path / "net.json"
    save_network(build_network([SwitchSpec("s", 1e6)],
                               [FlowSpec("f", "a", "b", ("s",), 0.1, 300.0, 0.0)]),
                 str(net_path))
    trace_path = tmp_path / "t.trace"
    _write_trace(trace_path, ["f"], 10, 300.0)
    assert main(["simulate", "--net", str(net_path), "--trace", str(trace_path),
                 "--epoch-len", "0.1", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary_seed0.json").read_text())
    assert summary["n_epochs"] == 10


def test_simulate_rejects_a_bucket_finer_than_the_trace(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(build_network([SwitchSpec("s", 1e6)],
                               [FlowSpec("f", "a", "b", ("s",), 0.1, 300.0, 0.0)]),
                 str(net_path))
    trace_path = tmp_path / "t.trace"
    save_trace(RateProcess(0.1, 10, {"f": np.full(10, 300.0)}), str(trace_path))
    argv = ["simulate", "--net", str(net_path), "--trace", str(trace_path),
            "--epoch-len", "0.1", "--out-dir", str(tmp_path)]
    assert main(argv + ["--bucket", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "100 ms grid, read at bucket 0.05 s" in err and "Traceback" not in err
    assert not (tmp_path / "summary_seed0.json").exists()
    assert main(argv + ["--bucket", "0.1"]) == 0


@pytest.mark.parametrize("epoch_length,n_epochs", [(0.1, 10), (0.2, 5)])
def test_trace_driven_counts_whole_epochs_in_buckets(epoch_length, n_epochs):
    process = RateProcess(0.1, 10, {"t": np.full(10, 50.0)})
    bundle = trace_driven_scenario(process, 0, epoch_length=epoch_length,
                                   inclusion_prob=1.0)
    assert len(bundle.queries) == n_epochs


def test_simulate_rejects_bad_epoch_settings(tmp_path, toy_net_file, capsys):
    trace_path = tmp_path / "t.trace"
    _write_trace(trace_path, ["f1"], 100, 300.0)
    for flag, field in (("--epoch-len", "epoch_length"), ("--bucket", "bucket"),
                        ("--alpha", "sampling_rate")):
        for value in ("nan", "inf", "0"):
            assert main(["simulate", "--net", toy_net_file, "--trace", str(trace_path),
                         flag, value, "--out-dir", str(tmp_path)]) == 2
            assert field in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"net": toy_net_file, "node_limit": float("inf")}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "node_limit" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path, toy_net_file, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"net": toy_net_file, "delta": 0.08,
                               "formulation": "apx"}))
    # flag says delta 0.3; the config document wins
    assert main(["solve", "--config", str(cfg), "--delta", "0.3"]) == 0
    assert "objective=2" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"net": "x.json", "frobnicate": 1}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "frobnicate" in capsys.readouterr().err
    # keys another subcommand reads are unknown to this one
    for command, key in (("compare", "alpha"), ("compare", "formulation"),
                         ("compare", "out_dir"), ("compare", "seed"), ("solve", "preset"),
                         ("solve", "seed"), ("solve", "params")):
        cfg.write_text(json.dumps({key: 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, named", [
    (["solve"], [1], "run.json: config must be a JSON object"),
    (["solve"], {"version": "runconfig/2"}, "run.json: unsupported config version 'runconfig/2'"),
    (["simulate"], {"preset": "warlock"}, "run.json: config key 'preset' must be one of"),
    (["solve"], {}, "solve needs --net"),
    (["simulate"], None, "simulate needs --preset"),
    (["compare"], None, "compare needs --preset"),
])
def test_run_without_a_usable_config_or_input_exits_2(tmp_path, capsys, argv, doc, named):
    if doc is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_config_rejects_unknown_params_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "model-driven", "params": {"bogus": 1}}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg.write_text(json.dumps({"preset": "model-driven", "params": ["n_epochs"]}))
    assert main(["compare", "--config", str(cfg)]) == 2
    assert "params" in capsys.readouterr().err


def test_solve_exit_3_when_limited_without_assignment(tmp_path, capsys):
    # one flow, one node allowed: the search stops before assigning anything
    net = build_network([SwitchSpec("s", 10.0)],
                        [FlowSpec("f", "a", "b", ("s",), 0.5, 4.0, 0.0)])
    path = tmp_path / "n.json"
    save_network(net, str(path))
    assert main(["solve", "--net", str(path), "--node-limit", "1"]) == 3


class _Stop(Exception):
    pass


@pytest.fixture
def first_solver(monkeypatch):
    """Record the SolverConfig of a run's first solve, then stop the run."""
    seen = []

    def spy(network, config):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(simulator, "solve", spy)
    return seen


def _preset_runs(tmp_path):
    """(argv, the solver the first solve gets when no setting is given)."""
    trace = tmp_path / "t.trace"
    _write_trace(trace, ["a", "b", "c"], 60, 300.0)
    process = load_trace(str(trace), 100.0, 0.1)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"n_epochs": 1}}))
    out = ["--out-dir", str(tmp_path)]
    md_solver = model_driven_scenario(1, n_epochs=1).epoch.solver
    td_solver = trace_driven_scenario(process, 1).epoch.solver
    ds = Formulation.DS
    return [
        (["simulate", "--preset", "model-driven", "--seed", "1", "--config", str(params), *out],
         md_solver),
        (["simulate", "--preset", "trace-driven", "--trace", str(trace), *out], td_solver),
        (["simulate", "--preset", "epoch-sweep", *out],
         epoch_sweep_scenario(1.0, 0).epoch.solver),
        (["simulate", "--preset", "distribution-sensitivity", *out],
         sensitivity_scenario(Distribution.TRUNC_NORMAL, 0).epoch.solver),
        (["compare", "--preset", "model-driven", "--seeds", "1", "--algorithms", "ds,apx",
          "--config", str(params)], dataclasses.replace(md_solver, formulation=ds)),
        (["compare", "--preset", "trace-driven", "--trace", str(trace), "--seeds", "1",
          "--algorithms", "ds,apx"], dataclasses.replace(td_solver, formulation=ds)),
    ]


_SETTINGS = [("--delta", "0.3", "delta", 0.3), ("--epsilon", "7", "epsilon_pps", 7.0),
             ("--time-limit", "9", "time_limit", 9.0), ("--node-limit", "11", "node_limit", 11)]


@pytest.mark.parametrize("flag,text,field,value", _SETTINGS)
def test_solver_settings_reach_every_preset_solve(tmp_path, first_solver, flag, text,
                                                  field, value):
    for argv, preset_solver in _preset_runs(tmp_path):
        first_solver.clear()
        with pytest.raises(_Stop):
            main([*argv, flag, text])
        assert first_solver == [dataclasses.replace(preset_solver, **{field: value})], argv


def test_solver_settings_from_config_reach_compare(tmp_path, first_solver):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "model-driven", "params": {"n_epochs": 1},
                               "seeds": [1], "algorithms": ["csamp+5", "apx"],
                               "node_limit": 5, "delta": 0.3, "time_limit": 2}))
    with pytest.raises(_Stop):
        main(["compare", "--config", str(cfg)])
    # the algorithm token sets the formulation and epsilon on top
    assert first_solver == [SolverConfig(Formulation.CSAMP_EPS, delta=0.3, epsilon_pps=5.0,
                                         time_limit=2.0, node_limit=5)]


def test_preset_formulation_flag_keeps_preset_solver(tmp_path, first_solver):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"n_epochs": 1}}))
    base = ["simulate", "--preset", "model-driven", "--seed", "1", "--config", str(params)]
    with pytest.raises(_Stop):
        main([*base, "--out-dir", str(tmp_path), "--formulation", "ds"])
    assert first_solver == [dataclasses.replace(
        model_driven_scenario(1, n_epochs=1).epoch.solver, formulation=Formulation.DS)]


def test_preset_formulation_flag_equal_to_preset_changes_nothing(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": {"n_epochs": 1}}))
    base = ["simulate", "--preset", "model-driven", "--seed", "1", "--config", str(params)]
    assert main([*base, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*base, "--out-dir", str(tmp_path / "b"), "--formulation", "apx"]) == 0
    assert (tmp_path / "a" / "summary_seed1.json").read_bytes() == \
        (tmp_path / "b" / "summary_seed1.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "1"],
    ["compare", "--formulation", "apx"],
    ["compare", "--alpha", "0.1"],
    ["compare", "--seed", "1"],
    ["compare", "--out-dir", "out"],
])
def test_deleted_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["model-driven", "epoch-sweep"])
@pytest.mark.parametrize("key", ["net", "alpha", "epoch_len", "bucket"])
def test_preset_rejects_scenario_settings(tmp_path, preset, key, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": preset, key: "x.json" if key == "net" else 1}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and ("params" in err) == (preset == "model-driven")


@pytest.mark.parametrize("preset", ["epoch-sweep", "distribution-sensitivity"])
def test_fixed_presets_reject_params(tmp_path, preset, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": preset, "params": {}}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "'params'" in capsys.readouterr().err


def _preset_config(tmp_path, preset, doc):
    """A config file for ``preset`` with the keys of ``doc``; trace-driven
    also gets a 6 s trace. ``None`` is the --net run, on the two-switch toy
    network and a 6 s trace of its flows."""
    if preset is None:
        save_network(two_switch_toy(), str(tmp_path / "toy.json"))
        _write_trace(tmp_path / "t.trace", ["f1", "f2", "f3", "f4"], 60, 300.0)
        doc = {"net": str(tmp_path / "toy.json"), "trace": str(tmp_path / "t.trace"), **doc}
    else:
        doc = {"preset": preset, **doc}
    if preset == "trace-driven":
        _write_trace(tmp_path / "t.trace", ["a"], 60, 300.0)
        doc.setdefault("trace", str(tmp_path / "t.trace"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    return cfg


_UNREAD_SETTINGS = [
    ("simulate", "model-driven", {"seeds": [4, 5]}, "seeds"),
    ("simulate", "trace-driven", {"seeds": [4, 5]}, "seeds"),
    ("simulate", "epoch-sweep", {"seeds": [4, 5]}, "seeds"),
    ("simulate", "distribution-sensitivity", {"seed": 4}, "seed"),
    ("simulate", "model-driven", {"trace": "t.trace"}, "trace"),
    ("simulate", "epoch-sweep", {"trace": "t.trace"}, "trace"),
    ("simulate", "distribution-sensitivity", {"trace": "t.trace"}, "trace"),
    ("compare", "model-driven", {"trace": "t.trace"}, "trace"),
    ("simulate", None, {"seeds": [4, 5]}, "seeds"),
    ("simulate", None, {"params": {"n_epochs": 1}}, "params"),
]


# the id names the subcommand unless it is simulate, and the --net run as "net"
@pytest.mark.parametrize("command,preset,doc,key", _UNREAD_SETTINGS, ids=[
    f"{'' if command == 'simulate' else command + '-'}{preset or 'net'}-doc{i}-{key}"
    for i, (command, preset, _, key) in enumerate(_UNREAD_SETTINGS)])
def test_preset_rejects_settings_it_does_not_read(tmp_path, command, preset, doc, key,
                                                  capsys):
    cfg = _preset_config(tmp_path, preset, doc)
    out_dir = ["--out-dir", str(tmp_path)] if command == "simulate" else []
    assert main([command, "--config", str(cfg), *out_dir]) == 2
    err = capsys.readouterr().err
    where = f"--preset {preset}" if preset else "--net"
    assert f"{key!r} does not apply to {where}" in err and "Traceback" not in err


@pytest.mark.parametrize("preset,params,key", [
    ("model-driven", {"n_epochs": 0}, "n_epochs"),
    ("model-driven", {"n_epochs": -1}, "n_epochs"),
    ("model-driven", {"epoch_length": math.nan}, "epoch_length"),
    ("model-driven", {"inclusion_prob": math.nan}, "inclusion_prob"),
    ("model-driven", {"inclusion_prob": 1.5}, "inclusion_prob"),
    ("trace-driven", {"inclusion_prob": 0.0}, "inclusion_prob"),
    ("trace-driven", {"epoch_length": 10.0}, "epoch_length"),   # the trace lasts 6 s
    ("trace-driven", {"n_epochs": 100}, "n_epochs"),   # one whole 5 s epoch
    # not whole 0.1 s buckets: named before any traffic is generated
    ("model-driven", {"epoch_length": 0.15, "n_epochs": 3}, "epoch_length"),
])
def test_random_query_presets_range_check_params(tmp_path, preset, params, key, capsys):
    cfg = _preset_config(tmp_path, preset, {"params": params})
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["delta", "node_limit"])
def test_params_rejects_solver_settings(tmp_path, key, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "model-driven", "params": {key: 1}}))
    assert main(["compare", "--config", str(cfg)]) == 2
    assert f"top-level config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("preset,builder", [("model-driven", model_driven_scenario),
                                            ("trace-driven", trace_driven_scenario)])
def test_params_accepts_every_json_expressible_builder_keyword(tmp_path, preset, builder,
                                                               capsys):
    # an annotation spelled differently from the ones 'params' knows would
    # silently drop its keyword from the accepted set
    cfg = _preset_config(tmp_path, preset, {"params": {"bogus": 1}})
    assert main(["compare", "--config", str(cfg)]) == 2
    accepted = re.search(r"accepted: ([^)]*)\)", capsys.readouterr().err).group(1)
    keywords = {name for name, p in inspect.signature(builder).parameters.items()
                if p.kind == inspect.Parameter.KEYWORD_ONLY}
    assert set(accepted.split(", ")) == keywords - {"node_limit"}


@pytest.mark.parametrize("argv,doc", [
    (["compare", "--preset", "model-driven", "--seeds", ""], {}),
    (["simulate", "--preset", "distribution-sensitivity"], {"seeds": []}),
])
def test_empty_seeds_exit_2(tmp_path, argv, doc, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(cfg), *(["--out-dir", str(tmp_path)]
                                                 if argv[0] == "simulate" else [])]) == 2
    assert "'seeds'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,doc", [
    (["compare", "--preset", "model-driven", "--algorithms", ","], {}),
    (["compare", "--preset", "model-driven"], {"algorithms": []}),
])
def test_empty_algorithms_exit_2(tmp_path, argv, doc, capsys):
    # an empty list is not the default list
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seeds": [1], **doc}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "'algorithms' must list at least two" in capsys.readouterr().err


@pytest.mark.parametrize("argv,doc,key", [
    (["simulate", "--preset", "model-driven", "--seed", "-1"], {}, "'seed'"),
    (["simulate", "--preset", "epoch-sweep"], {"seed": -3}, "'seed'"),
    (["simulate", "--preset", "distribution-sensitivity"], {"seeds": [2, -1]}, "'seeds' entry"),
    (["compare", "--preset", "model-driven"], {"seeds": [1, -2]}, "'seeds' entry"),
])
def test_negative_seed_exits_2_before_any_output(tmp_path, argv, doc, key, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    tail = ["--out-dir", str(out)] if argv[0] == "simulate" else ["--out", str(out / "c.json")]
    assert main([*argv, "--config", str(cfg), *tail]) == 2
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_trace_too_long_to_allocate(tmp_path, toy_net_file, capsys):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"{TRACE_HEADER}\n0,f1,5\n1e20,f1,5\n")
    assert main(["simulate", "--net", toy_net_file, "--trace", str(trace_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert ":3: bucket_start_ms 1e20 needs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_NARROW = "t.trace:3: bucket start 100 ms is too many"
_WIDE = "bucket 1e+306 s is too wide: inf ms is not finite"
_ALIASED = "t.trace:3: duplicate entry for flow 'f1' in bucket 0 of 1e+308 ms"


@pytest.mark.parametrize("command,trace,message", [
    # 100 ms is an infinite number of buckets this narrow
    pytest.param("compare", {"bucket": 1e-310}, _NARROW, id="compare"),
    pytest.param("simulate", {"bucket": 5e-324}, _NARROW, id="simulate"),
    # a bucket this wide is infinitely many ms
    pytest.param("compare", {"bucket": 1e306}, _WIDE, id="compare-wide"),
    pytest.param("simulate", {"bucket": 1e306}, _WIDE, id="simulate-wide"),
    # 100 ms is within the grid tolerance of a 1e308 ms bucket's start
    pytest.param("compare", {"bucket": 1e305}, _ALIASED, id="compare-aliased"),
    pytest.param("simulate", {"bucket": 1e305}, _ALIASED, id="simulate-aliased"),
    # 5 pps over this divisor is past the float range
    pytest.param("compare", {"scale_divisor": 1e-320},
                 "t.trace:2: rate_pps 5 over scale_divisor 1e-320 is not finite",
                 id="compare-scale_divisor"),
])
def test_a_bucket_too_narrow_to_index_a_trace_exits_2(tmp_path, toy_net_file, command, trace,
                                                       message, capsys):
    trace_path = tmp_path / "t.trace"
    trace_path.write_text(f"{TRACE_HEADER}\n0,f1,5\n100,f1,5\n")
    out = tmp_path / "out"
    if command == "compare":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "trace-driven", "out": str(out / "c.json"),
                                   "trace": {"path": str(trace_path), **trace}}))
        argv = ["compare", "--config", str(cfg)]
    else:
        width = str(trace["bucket"])
        argv = ["simulate", "--net", toy_net_file, "--trace", str(trace_path),
                "--epoch-len", width, "--bucket", width, "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


_TOO_MANY = "horizon 5e+15 s needs 50000000000000000 buckets"
_INFINITE = "horizon inf s is not a finite number of 0.1 s buckets"


@pytest.mark.parametrize("command,params,message", [
    # 5e16 buckets of 8 bytes are 355 PiB, beyond any address space, so the
    # first draw fails at once; never test a size a host could overcommit
    pytest.param("simulate", {"n_epochs": 10 ** 15}, _TOO_MANY, id="params0"),
    pytest.param("simulate", {"epoch_length": 1e15}, _TOO_MANY, id="params1"),
    # horizons that are an infinite number of buckets
    pytest.param("simulate", {"n_epochs": 10 ** 308}, _INFINITE, id="n_epochs-1e308"),
    pytest.param("simulate", {"epoch_length": 1e300, "n_epochs": 10 ** 9}, _INFINITE,
                 id="epoch_length-1e300"),
    pytest.param("compare", {"n_epochs": 4 * 10 ** 307}, _INFINITE, id="compare-n_epochs-4e307"),
])
def test_model_driven_rejects_a_horizon_too_long_to_allocate(tmp_path, command, params, message,
                                                             capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "model-driven", "params": params}))
    out = tmp_path / "out"
    tail = ["--out-dir", str(out)] if command == "simulate" else ["--out", str(out / "c.json")]
    assert main([command, "--config", str(cfg), *tail]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


_HUGE = 10 ** 400   # a JSON integer larger than any float
# A JSON integer literal longer than Python's 4,300-digit conversion limit;
# it is written into the document as bare digits.
_OVERLONG = "1" + "0" * 5000


def _dump(doc) -> str:
    return json.dumps(doc).replace(f'"{_OVERLONG}"', _OVERLONG)


@pytest.mark.parametrize("net_field, config, named", [
    (("switches", "capacity_pps", _HUGE), {}, "switches[0].capacity_pps"),
    (("flows", "rate_mean_pps", _HUGE), {}, "flows[0].rate_mean_pps"),
    (None, {"time_limit": _HUGE}, "config key 'time_limit'"),
    (None, {"delta": _HUGE}, "config key 'delta'"),
    (None, {"preset": "model-driven", "params": {"capacity_pps": _HUGE}},
     "params key 'capacity_pps'"),
    (None, {"preset": "model-driven", "params": {"n_epochs": _HUGE}}, "params key 'n_epochs'"),
    (None, {"preset": "trace-driven", "trace": {"scale_divisor": _HUGE}},
     "'trace.scale_divisor'"),
    (("switches", "capacity_pps", _OVERLONG), {}, "net.json: switches[0].capacity_pps"),
    (None, {"time_limit": _OVERLONG}, "run.json: config key 'time_limit'"),
])
def test_integer_too_large_for_a_float_exits_2_naming_it(tmp_path, toy_net_file, net_field,
                                                          config, named, capsys):
    doc = json.loads(Path(toy_net_file).read_text())
    if net_field:
        entries, key, value = net_field
        doc[entries][0][key] = value
    net_path = tmp_path / "net.json"
    net_path.write_text(_dump(doc))
    if "trace" in config:
        _write_trace(tmp_path / "t.trace", ["a"], 60, 300.0)
        config = dict(config, trace=dict(config["trace"], path=str(tmp_path / "t.trace")))
    cfg = tmp_path / "run.json"
    cfg.write_text(_dump(config))
    argv = (["simulate", "--out-dir", str(tmp_path / "out")] if "preset" in config
            else ["solve", "--net", str(net_path)])
    assert main([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert named in err and "too large for a float" in err


@pytest.mark.parametrize("flag", ["--net", "--config"])
def test_non_utf8_json_input_exits_2_naming_the_file(tmp_path, toy_net_file, flag, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"switches": [{"id": "caf\xe9", "capacity_pps": 1}], "flows": []}')
    argv = ["solve", "--net", toy_net_file, flag, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: byte 0xe9 at offset 25 is not UTF-8" in err and "Traceback" not in err


def test_solve_out_is_byte_identical_across_runs(tmp_path, toy_net_file, capsys):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["solve", "--net", toy_net_file, "--out", str(out)]) == 0
        assert "wall_time=" in capsys.readouterr().out
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "wall" not in outs[0].read_text()


def test_simulate_net_queries_each_flow_at_its_declared_rate(tmp_path, capsys):
    # --alpha is the uniform override, as in solve
    net_path = tmp_path / "net.json"
    save_network(build_network([SwitchSpec("s", 1e6)],
                               [FlowSpec("f", "a", "b", ("s",), 0.5, 300.0, 0.0),
                                FlowSpec("g", "a", "b", ("s",), 0.3, 300.0, 0.0)]),
                 str(net_path))
    trace_path = tmp_path / "t.trace"
    _write_trace(trace_path, ["f", "g"], 50, 300.0)
    argv = ["simulate", "--net", str(net_path), "--trace", str(trace_path),
            "--out-dir", str(tmp_path)]
    targets = []
    for alpha in ([], ["--alpha", "0.2"]):
        assert main(argv + alpha) == 0
        flows = json.loads((tmp_path / "summary_seed0.json").read_text())["flows"]
        targets.append({fid: flow["target"] for fid, flow in flows.items()})
    assert targets == [{"f": 0.5, "g": 0.3}, {"f": 0.2, "g": 0.2}]


def test_epoch_sweep_without_measured_rate_exits_2(tmp_path, capsys):
    # one search node admits no flow, so no rate is measured
    assert main(["simulate", "--preset", "epoch-sweep", "--node-limit", "1",
                 "--out-dir", str(tmp_path)]) == 2
    assert "no flow measured" in capsys.readouterr().err


@pytest.mark.parametrize("doc,key", [
    ({"preset": "model-driven", "params": {"n_epochs": "x"}}, "n_epochs"),
    ({"preset": "model-driven", "params": {"mixture": {}}}, "mixture"),
    ({"preset": "trace-driven", "trace": {"scale_divisor": 100}}, "trace"),
    ({"preset": "trace-driven", "trace": ["t.trace"]}, "trace"),
    ({"preset": "model-driven", "node_limit": 1.5}, "node_limit"),
    ({"preset": "model-driven", "node_limit": True}, "node_limit"),
])
def test_malformed_config_value_exits_2_naming_key(tmp_path, doc, key, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_trace_driven_rejects_nan_scale_divisor(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    _write_trace(trace, ["a"], 60, 300.0)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "trace-driven",
                               "trace": {"path": str(trace), "scale_divisor": float("nan")}}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "scale_divisor" in capsys.readouterr().err


def test_readme_configs_load(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    runs = re.findall(r"flowsamp (\w+) --config (configs/\S+\.json)",
                      (root / "README.md").read_text())
    assert {path for _, path in runs} == \
        {str(p.relative_to(root)) for p in (root / "configs").glob("*.json")}
    monkeypatch.chdir(root)
    for command, path in runs:
        args = parse_args([command, "--config", path])
        assert args.preset == json.loads((root / path).read_text())["preset"]


def test_docs_run_table_matches_cli():
    root = Path(__file__).resolve().parents[1]
    rows = re.findall(r"^\| `(simulate --net|--preset [\w-]+)`[^|]*\| ([^|]*) \| (yes|no) \|$",
                      (root / "docs" / "formats.md").read_text(), re.M)
    documented = {None if run == "simulate --net" else run.split()[1]:
                  (set(re.findall(r"`(\w+)`", reads)), compared == "yes")
                  for run, reads, compared in rows}
    assert documented == {name: (run.reads, name in _COMPARED) for name, run in _RUNS.items()}


@pytest.mark.parametrize("preset,builder", [("model-driven", model_driven_scenario),
                                            ("trace-driven", trace_driven_scenario)])
def test_docs_params_table_matches_cli(preset, builder):
    root = Path(__file__).resolve().parents[1]
    row = re.search(rf"^\| `{preset}` \| (.*) \|$",
                    (root / "docs" / "formats.md").read_text(), re.M).group(1)
    documented = dict(re.findall(r"`(\w+)` \(([^)]*)\)", row))
    with pytest.raises(CliError, match=r"accepted: ([^)]*)\)") as info:
        _params(argparse.Namespace(params={"bogus": 1}), builder)
    accepted = re.search(r"accepted: ([^)]*)\)", str(info.value)).group(1).split(", ")
    assert set(documented) == set(accepted)
    defaults = {name: p.default for name, p in inspect.signature(builder).parameters.items()}
    for key, text in documented.items():
        if defaults[key] is None:   # the trace-driven n_epochs, documented in words
            assert not text[0].isdigit(), key
        else:
            assert text == str(defaults[key]), key
