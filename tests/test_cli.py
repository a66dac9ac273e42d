import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from flowsamp import (EpochConfig, EstimatorMode, Formulation, FlowSpec, RateProcess,
                      SamplingQuery, SolverConfig, SwitchSpec, build_network,
                      measure_metrics, run_simulation, save_network, simulator)
from flowsamp.cli import (_COMPARED, _RUNS, CliError, compare_algorithms, main,
                          parse_algorithm, parse_args)
from flowsamp.instances import (ScenarioBundle, epoch_sweep_scenario, model_driven_scenario,
                                sensitivity_scenario, trace_driven_scenario, two_switch_toy)
from flowsamp.optimizer import load_solve_result
from flowsamp.trafficgen import TRACE_HEADER, Distribution, load_trace

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
    # keys another subcommand reads are unknown to this one
    for command, key in (("compare", "alpha"), ("compare", "formulation"),
                         ("compare", "out_dir"), ("compare", "seed"), ("solve", "preset"),
                         ("solve", "seed"), ("solve", "params")):
        cfg.write_text(json.dumps({key: 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err


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
    assert set(accepted.split(", ")) == keywords - {"mixture", "delta", "node_limit"}


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
