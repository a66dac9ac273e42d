import json

import numpy as np
import pytest

from flowsamp import (EpochConfig, EstimatorMode, Formulation, FlowSpec, RateProcess,
                      SamplingQuery, SolverConfig, SwitchSpec, build_network,
                      measure_metrics, run_simulation, save_network)
from flowsamp.cli import CliError, compare_algorithms, main, parse_algorithm
from flowsamp.instances import ScenarioBundle, two_switch_toy
from flowsamp.optimizer import load_solve_result
from flowsamp.trafficgen import TRACE_HEADER

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
    assert "objective=2" in capsys.readouterr().out
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


def test_compare_needs_two_algorithms():
    with pytest.raises(CliError):
        compare_algorithms(_zero_variance_bundle, ["apx"], [0])


def test_compare_unknown_algorithm_exits_2(capsys):
    assert main(["compare", "--preset", "model-driven",
                 "--algorithms", "apx,warlock", "--seeds", "1"]) == 2
    assert "warlock" in capsys.readouterr().err


def _write_trace(path, flows, n_buckets, rate):
    lines = [TRACE_HEADER]
    for k in range(n_buckets):
        for fid in flows:
            lines.append(f"{k * 100},{fid},{rate}")
    path.write_text("\n".join(lines) + "\n")


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
