import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from flowsamp import (Distribution, EpochConfig, EstimatorMode, Formulation, FlowSpec,
                      MixtureConfig, RateProcess, SamplingQuery, SolverConfig, SwitchSpec,
                      build_network, generate_model_driven, measure_metrics,
                      run_simulation, solve, write_flow_epochs_csv, write_summary_json)
from flowsamp import simulator as fs
from flowsamp.instances import (TWO_SIGMA_DELTA, abilene_graph, model_driven_scenario,
                                sensitivity_scenario, trace_driven_scenario,
                                uniform_rate_network)

from conftest import partly_admitted_bundle


def constant_process(rates_by_flow, n_buckets, bucket=0.1):
    return RateProcess(bucket, n_buckets,
                       {fid: np.full(n_buckets, rate)
                        for fid, rate in rates_by_flow.items()})


def single_flow_net(capacity=1e9, alpha=0.1, mean=1000.0, var=0.0):
    return build_network([SwitchSpec("s", capacity)],
                         [FlowSpec("f", "a", "b", ("s",), alpha, mean, var)])


def test_single_flow_binomial_sampling():
    # 1000 pps over one 5 s epoch offers exactly 5000 packets; at rate 0.1
    # roughly 500 are sampled and none dropped
    net = single_flow_net()
    process = constant_process({"f": 1000.0}, 50)
    config = EpochConfig(epoch_length=5.0, estimator_mode=EstimatorMode.DECLARED)
    report = run_simulation(net, [SamplingQuery("f", 0.0, 5.0, 0.1)], process, config, 0)
    rec = report.records[0]
    assert rec.offered == 5000
    assert rec.dropped == 0
    assert abs(rec.forwarded - 500) <= 45
    assert report.measured_rate("f") == pytest.approx(0.1, abs=0.01)


def test_zero_queries():
    net = single_flow_net()
    report = run_simulation(net, [], constant_process({"f": 10.0}, 10),
                            EpochConfig(), 0)
    assert not report.records
    assert report.n_epochs == 0
    summary = measure_metrics(report)
    assert summary.admitted_flows == 0
    assert summary.fully_sampled_flows == 0
    assert summary.violation_fraction == 0.0


def test_conservation_and_bucket_caps():
    rng = np.random.default_rng(4)
    net = build_network(
        [SwitchSpec("s", 200.0)],
        [FlowSpec(f"f{i}", "a", "b", ("s",), 1.0, 120.0, 0.0) for i in range(3)])
    process = RateProcess(0.1, 30, {f"f{i}": rng.uniform(50, 200, 30) for i in range(3)})
    config = EpochConfig(epoch_length=1.0, solver=SolverConfig(Formulation.DS),
                         estimator_mode=EstimatorMode.DECLARED)
    queries = [SamplingQuery(f"f{i}", 0.0, 3.0, 1.0) for i in range(3)]
    report = run_simulation(net, queries, process, config, 1)
    for r in report.records:
        assert r.offered >= r.sampled
        assert r.sampled == r.forwarded + r.dropped
        assert r.dropped >= 0
    cap = math.floor(200.0 * 0.1)
    loads = report.switch_loads[0]
    flags = report.switch_violations[0]
    assert ((loads > cap) == flags).all()


def test_half_capacity_halves_measured_rate():
    # declared 500 pps fits the 500 pps budget, but the flow really sends
    # 1000 pps at alpha 1, so every bucket drops half its sampled packets
    net = single_flow_net(capacity=500.0, alpha=1.0, mean=500.0)
    process = constant_process({"f": 1000.0}, 50)
    config = EpochConfig(epoch_length=5.0, solver=SolverConfig(Formulation.DS),
                         estimator_mode=EstimatorMode.DECLARED)
    report = run_simulation(net, [SamplingQuery("f", 0.0, 5.0, 1.0)], process, config, 0)
    assert report.measured_rate("f") == pytest.approx(0.5, abs=1e-6)
    assert not report.fully_sampled("f")
    assert report.violation_fraction("s") == 1.0


def test_fully_sampled_requires_admission_in_every_active_epoch():
    # epoch 1 brings a cheaper competitor that evicts the first flow
    switches = [SwitchSpec("s", 100.0)]
    flows = [FlowSpec("big", "a", "b", ("s",), 1.0, 90.0, 0.0),
             FlowSpec("small", "a", "b", ("s",), 1.0, 20.0, 0.0)]
    net = build_network(switches, flows)
    process = constant_process({"big": 90.0, "small": 20.0}, 20)
    config = EpochConfig(
        epoch_length=1.0, solver=SolverConfig(Formulation.DS),
        estimator_mode=EstimatorMode.DECLARED, fully_sampled_tolerance=0.9)
    queries = [SamplingQuery("big", 0.0, 2.0, 1.0),
               SamplingQuery("small", 1.0, 1.0, 1.0)]
    report = run_simulation(net, queries, process, config, 0)
    by_epoch = {(r.flow_id, r.epoch): r for r in report.records}
    assert by_epoch[("big", 0)].assigned_switch == "s"
    # epoch 1: 90 + 20 > 100, the solver keeps the pair that maximizes count
    assert by_epoch[("small", 1)].assigned_switch == "s"
    assert by_epoch[("big", 1)].assigned_switch is None
    assert not report.fully_sampled("big")
    assert report.fully_sampled("small")


def test_mid_epoch_query_waits_for_next_boundary():
    net = single_flow_net(alpha=1.0)
    process = constant_process({"f": 100.0}, 100)
    config = EpochConfig(epoch_length=5.0, solver=SolverConfig(Formulation.DS),
                         estimator_mode=EstimatorMode.DECLARED)
    report = run_simulation(net, [SamplingQuery("f", 2.5, 5.0, 1.0)], process, config, 0)
    epochs = sorted(r.epoch for r in report.records)
    assert epochs == [1]
    assert report.target[:, 0].tolist() == [0.0, 1.0]


def test_windowed_estimator_reacts_to_observed_rates():
    # declared mean 100 but the flow actually sends 300; capacity only
    # covers the declared rate, so epoch 1 drops it once history exists
    net = build_network([SwitchSpec("s", 150.0)],
                        [FlowSpec("f", "a", "b", ("s",), 1.0, 100.0, 0.0)])
    process = constant_process({"f": 300.0}, 40)
    queries = [SamplingQuery("f", 0.0, 4.0, 1.0)]
    windowed = EpochConfig(epoch_length=1.0, solver=SolverConfig(Formulation.DS),
                           estimator_mode=EstimatorMode.WINDOWED)
    report = run_simulation(net, queries, process, windowed, 0)
    assigned = {r.epoch: r.assigned_switch for r in report.records}
    assert assigned[0] == "s"          # cold start trusts the declaration
    assert assigned[1] is None         # history says 300 > 150
    declared = dataclasses.replace(windowed, estimator_mode=EstimatorMode.DECLARED)
    report2 = run_simulation(net, queries, process, declared, 0)
    assert all(r.assigned_switch == "s" for r in report2.records)


def test_queries_ending_before_time_zero_give_empty_report():
    # no epoch boundary t_e >= 0 falls in [-10, -5)
    net = single_flow_net()
    report = run_simulation(net, [SamplingQuery("f", -10.0, 5.0, 0.5)],
                            constant_process({"f": 10.0}, 20),
                            EpochConfig(epoch_length=1.0), 0)
    assert report.n_epochs == 0
    assert not report.records and not report.solves
    assert report.switch_loads.shape == report.switch_violations.shape == (1, 0)
    assert measure_metrics(report).admitted_flows == 0


def test_unknown_query_flow_rejected():
    net = single_flow_net()
    with pytest.raises(ValueError, match="unknown flow"):
        run_simulation(net, [SamplingQuery("ghost", 0.0, 1.0, 0.5)],
                       constant_process({"f": 1.0}, 10), EpochConfig(), 0)


def test_short_rate_process_rejected():
    net = single_flow_net()
    with pytest.raises(ValueError, match="horizon"):
        run_simulation(net, [SamplingQuery("f", 0.0, 10.0, 0.5)],
                       constant_process({"f": 1.0}, 10), EpochConfig(), 0)


def test_bucket_mismatch_rejected_before_horizon():
    # a 0.2 s process is only 10 s long against 0.1 s epoch buckets; the
    # horizon would read short, but the buckets are what is wrong
    net = single_flow_net()
    with pytest.raises(ValueError, match=r"rate process bucket 0\.2 s differs from "
                                         r"simulation bucket 0\.1 s"):
        run_simulation(net, [SamplingQuery("f", 0.0, 10.0, 0.5)],
                       constant_process({"f": 1.0}, 50, bucket=0.2),
                       EpochConfig(epoch_length=5.0, bucket=0.1), 0)


def test_query_validation():
    with pytest.raises(ValueError):
        SamplingQuery("f", 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        SamplingQuery("f", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SamplingQuery("f", 0.0, 1.0, 1.5)
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="start"):
            SamplingQuery("f", start, 1.0, 0.5)
    for duration in (math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            SamplingQuery("f", 0.0, duration, 0.5)
    with pytest.raises(ValueError, match="sampling_rate"):
        SamplingQuery("f", 0.0, 1.0, math.nan)


def test_epoch_config_validation():
    for length in (0.55, 1e-12):   # 1e-12 s is within 1e-9 of zero buckets
        with pytest.raises(ValueError, match="whole number of buckets"):
            EpochConfig(epoch_length=length, bucket=0.1)
    with pytest.raises(ValueError):
        EpochConfig(fully_sampled_tolerance=1.0)
    for bucket in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bucket"):
            EpochConfig(bucket=bucket)
    for length in (math.nan, math.inf, -math.inf, 0.0, 1e308):
        with pytest.raises(ValueError, match="epoch_length"):
            EpochConfig(epoch_length=length)


def _replay_digest(report):
    h = hashlib.sha256(repr(report.records).encode())
    h.update(report.switch_loads.tobytes())
    h.update(report.switch_violations.tobytes())
    return h.hexdigest()


def _windowed_case(mode=EstimatorMode.WINDOWED):
    # nine 0.5 s epochs, so the five-epoch window slides; flows really send
    # 100 or 300 pps against a declared 200, so the estimates change who is
    # admitted, and bursty flows overrun some buckets
    net = uniform_rate_network(abilene_graph(), 40, capacity_pps=200.0, cov=1.0,
                               target_rate=0.5, seed=5)
    mixture = MixtureConfig(mean_choices_kbps=(100.0, 300.0), cov_low=0.2, cov_low_prob=0.5,
                            cov_high=1.5)
    process = generate_model_driven(net, mixture, 4.5, 5)
    queries = [SamplingQuery(f.id, 0.0, 4.5, 0.5) for f in net.flows]
    config = EpochConfig(epoch_length=0.5, solver=SolverConfig(Formulation.APX, node_limit=2_000),
                         estimator_mode=mode)
    return net, queries, process, config


# sha256 over the records, switch loads and violation flags, recorded with
# the replay that drew and capped one bucket at a time. A change to the
# carry-over or the overload split shows up in every case. The four
# sensitivity cases sample at rate 1, where every binomial draw returns its
# offered count, so only "windowed" and "model-driven" pin the draw order.
REPLAY_FINGERPRINTS = {
    Distribution.TRUNC_NORMAL:
        "68a7d9bdb38f274eb1cf59595be1e79153ec1a19f2441bb94297bf6b24836723",
    Distribution.GAMMA:
        "af4fa722ee9b0b312db5751a0f49bef90b76607a5fed4c6a65a1050b687251cc",
    Distribution.UNIFORM:
        "a9a711eb465fb1cbcaa1cb1d199a7a0cb8775e1eee6c5c0fb29d2d8efaabdd53",
    Distribution.T_LOCATION_SCALE:
        "94c02239e6f659eae3393bf6245b2d4ab420342371473038b0095f8819c60260",
    "windowed": "33e2d65089b28612797ab5abc4a39c5799a3713d286a57f88e873a434141ef79",
    "model-driven": "417dd493de4bcd37f5e828858d5cf77e9cbee2b2789478e22530918ced10f2a3",
}


@pytest.mark.parametrize("case", list(REPLAY_FINGERPRINTS))
def test_replay_fingerprint(case):
    if case == "windowed":
        report = run_simulation(*_windowed_case(), 7)
    elif case == "model-driven":
        bundle = model_driven_scenario(1, n_epochs=2, node_limit=2_000)
        report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                                bundle.epoch, 1)
    else:
        bundle = sensitivity_scenario(case, 0)
        report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                                bundle.epoch, 0)
    assert report.switch_violations.any()   # every case splits overloads
    assert _replay_digest(report) == REPLAY_FINGERPRINTS[case]


def test_windowed_estimate_reaches_solver(monkeypatch):
    # at epoch e the solver sees the mean and ddof=1 variance of each flow's
    # last min(e, 5) epoch means, and the declared moments at epoch 0
    net, queries, process, config = _windowed_case()
    seen = []

    def spy(network, solver_config):
        seen.append(network.flows)
        return solve(network, solver_config)

    monkeypatch.setattr(fs, "solve", spy)
    report = run_simulation(net, queries, process, config, 7)
    assert len(seen) == report.n_epochs == 9
    bpe = config.buckets_per_epoch
    for e, flows in enumerate(seen):
        assert [f.id for f in flows] == [f.id for f in net.flows]
        for flow in flows:
            declared = net.flow(flow.id)
            if e == 0:
                assert (flow.rate_mean_pps, flow.rate_var_pps2) == \
                    (declared.rate_mean_pps, declared.rate_var_pps2)
                continue
            means = process.series(flow.id)[:e * bpe].reshape(e, bpe).mean(axis=1)
            window = means[-min(e, 5):]
            assert flow.rate_mean_pps == pytest.approx(window.mean(), rel=1e-12)
            expected_var = window.var(ddof=1) if len(window) > 1 else 0.0
            assert flow.rate_var_pps2 == pytest.approx(expected_var, rel=1e-9, abs=1e-9)
    declared = run_simulation(*_windowed_case(EstimatorMode.DECLARED), 7)
    assert [r.assigned_switch for r in declared.records] != \
        [r.assigned_switch for r in report.records]


def test_active_epoch_range_matches_scan():
    # one flow per query, so each target column holds one query's epochs
    rng = np.random.default_rng(3)
    for epoch_length in (0.1, 0.3, 0.7, 5.0):
        starts = [e * epoch_length + d for e in range(6) for d in (-1e-9, 0.0, 1e-9, 0.05)]
        starts += list(rng.uniform(-1.0, 6 * epoch_length, 30))
        queries = [SamplingQuery(f"q{i}-{k}", float(start), duration, 0.5)
                   for i, start in enumerate(starts)
                   for k, duration in enumerate((epoch_length, 2e-9, 0.5 * epoch_length,
                                                 3 * epoch_length - 1e-9,
                                                 float(rng.uniform(0.01, 4.0))))]
        net = build_network([SwitchSpec("s", 1e9)],
                            [FlowSpec(q.flow_id, "a", "b", ("s",), 0.5, 1.0, 0.0)
                             for q in queries])
        config = EpochConfig(epoch_length=epoch_length, solver=SolverConfig(Formulation.DS),
                             estimator_mode=EstimatorMode.DECLARED)
        report = run_simulation(net, queries, RateProcess(0.1, 500), config, 0)
        assert report.n_epochs >= 8
        for i, q in enumerate(queries):
            scan = [e for e in range(report.n_epochs)
                    if q.start <= e * epoch_length + 1e-9
                    and e * epoch_length < q.start + q.duration - 1e-9]
            active = np.nonzero(report.target[:, i])[0].tolist()
            assert active == scan, (epoch_length, q.start, q.duration)


def test_simulation_deterministic(tmp_path):
    net = build_network(
        [SwitchSpec("s", 30.0)],
        [FlowSpec(f"f{i}", "a", "b", ("s",), 0.2, 100.0, 400.0) for i in range(4)])
    rng = np.random.default_rng(2)
    process = RateProcess(0.1, 20, {f"f{i}": rng.uniform(50, 150, 20) for i in range(4)})
    queries = [SamplingQuery(f"f{i}", 0.0, 2.0, 0.2) for i in range(4)]
    config = EpochConfig(epoch_length=1.0)
    paths = []
    for run in range(2):
        report = run_simulation(net, queries, process, config, 77)
        csv_path = tmp_path / f"run{run}.csv"
        json_path = tmp_path / f"run{run}.json"
        write_flow_epochs_csv(report, str(csv_path))
        write_summary_json(report, str(json_path))
        paths.append((csv_path, json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    assert paths[0][0].read_text().startswith("#flow-epochs v1\n")


def test_metrics_no_pressure_fully_sampled_equals_admitted():
    net = build_network(
        [SwitchSpec("s", 1e6)],
        [FlowSpec(f"f{i}", "a", "b", ("s",), 1.0, 200.0, 0.0) for i in range(5)])
    process = constant_process({f"f{i}": 200.0 for i in range(5)}, 20)
    config = EpochConfig(epoch_length=2.0, solver=SolverConfig(Formulation.DS),
                         estimator_mode=EstimatorMode.DECLARED)
    queries = [SamplingQuery(f"f{i}", 0.0, 2.0, 1.0) for i in range(5)]
    summary = measure_metrics(run_simulation(net, queries, process, config, 0))
    assert summary.admitted_flows == 5
    assert summary.fully_sampled_flows == 5
    assert summary.rate_quartiles == (1.0, 1.0, 1.0)
    assert summary.violation_fraction == 0.0


def test_summary_flows_agree_with_report(tmp_path):
    bundle = partly_admitted_bundle(0)
    report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                            bundle.epoch, 0)
    path = tmp_path / "summary.json"
    write_summary_json(report, str(path))
    flows = json.loads(path.read_text())["flows"]
    assert list(flows) == ["big", "huge", "small"]
    for fid, entry in flows.items():
        assert entry == {"target": 0.5, "measured_rate": report.measured_rate(fid),
                         "fully_sampled": report.fully_sampled(fid),
                         "ever_admitted": report.ever_admitted(fid)}
    assert [report.ever_admitted(f) for f in flows] == [True, False, True]
    assert [report.fully_sampled(f) for f in flows] == [False, False, True]
    # offered but never forwarded: measured at zero, yet left out of the rates
    assert report.measured_rate("huge") == 0.0
    summary = measure_metrics(report)
    assert summary.measured_rates == (report.measured_rate("big"),
                                      report.measured_rate("small"))
    assert (summary.admitted_flows, summary.fully_sampled_flows) == (2, 1)
    assert report.measured_rate("ghost") is None
    assert not report.ever_admitted("ghost") and not report.fully_sampled("ghost")


def _dict_aggregation(report, queries):
    """Targets, outcomes, metrics and the summary's flows as the run first
    computed them: a scan of every (epoch, query) pair, and per-flow sums
    over the records in dicts; the reference for the column reductions."""
    targets, active_epochs = {}, {}
    for e in range(report.n_epochs):
        t = e * report.epoch_length
        for q in queries:
            if q.start <= t + 1e-9 and t < q.start + q.duration - 1e-9:
                targets[q.flow_id] = max(targets.get(q.flow_id, 0.0), q.sampling_rate)
                epochs = active_epochs.setdefault(q.flow_id, [])
                if e not in epochs:
                    epochs.append(e)
    offered, forwarded, admitted_in = {}, {}, {}
    for r in report.records:
        offered[r.flow_id] = offered.get(r.flow_id, 0) + r.offered
        forwarded[r.flow_id] = forwarded.get(r.flow_id, 0) + r.forwarded
        epochs = admitted_in.setdefault(r.flow_id, set())
        if r.assigned_switch is not None:
            epochs.add(r.epoch)
    outcomes = {}
    for fid in sorted(offered):
        rate = forwarded[fid] / offered[fid] if offered[fid] > 0 else None
        active = active_epochs.get(fid, [])
        fully = (bool(active) and admitted_in[fid].issuperset(active) and rate is not None
                 and rate >= targets[fid] * (1.0 - report.fully_sampled_tolerance))
        outcomes[fid] = (rate, bool(admitted_in[fid]), fully)
    measured = tuple(rate for rate, ever, _ in outcomes.values()
                     if ever and rate is not None)
    per_switch = {}
    for sid in report.switch_ids:
        row = report.switch_violations[report.switch_ids.index(sid)]
        per_switch[sid] = float(row.mean()) if row.size else 0.0
    summary = {
        "admitted_flows": sum(ever for _, ever, _ in outcomes.values()),
        "fully_sampled_flows": sum(fully for _, _, fully in outcomes.values()),
        "rate_quartiles": [float(q) for q in np.percentile(measured, [25, 50, 75])]
        if measured else None,
        "per_switch_violation": per_switch,
        "flows": {fid: {"target": targets.get(fid), "measured_rate": rate,
                        "fully_sampled": fully, "ever_admitted": ever}
                  for fid, (rate, ever, fully) in outcomes.items()},
    }
    return active_epochs, outcomes, measured, summary


def _random_queries(rng, flow_ids, epoch_length):
    """Overlapping queries at several rates, some starting on or a hair off
    an epoch boundary, some mid-epoch, some ending at or before 0."""
    queries = []
    for _ in range(int(rng.integers(0, 14))):
        fid = flow_ids[int(rng.integers(len(flow_ids)))]
        kind = rng.integers(4)
        if kind == 0:      # on a boundary, or within 1e-9 of it
            start = int(rng.integers(-2, 6)) * epoch_length + float(rng.choice([-1e-9, 0, 1e-9]))
        elif kind == 1:    # ends at or before 0
            end = -float(rng.choice([0.0, 0.3, 2.0]))
            duration = float(rng.uniform(0.1, 3.0))
            queries.append(SamplingQuery(fid, end - duration, duration,
                                         float(rng.choice([0.2, 0.5, 1.0]))))
            continue
        else:              # anywhere, mostly mid-epoch
            start = float(rng.uniform(-2.0, 5.0))
        queries.append(SamplingQuery(fid, start, float(rng.uniform(0.05, 4.0)),
                                     float(rng.choice([0.2, 0.5, 1.0]))))
    return queries


def test_table_reductions_match_dict_aggregation(tmp_path):
    # three flows share two switches with tight budgets, so admission varies
    # by epoch; "idle" sends nothing, so it is measured at no rate
    net = build_network([SwitchSpec("s1", 60.0), SwitchSpec("s2", 40.0)],
                        [FlowSpec("b", "x", "y", ("s1", "s2"), 0.5, 80.0, 900.0),
                         FlowSpec("a", "x", "y", ("s2",), 0.5, 50.0, 100.0),
                         FlowSpec("c", "x", "y", ("s1",), 0.5, 120.0, 2500.0),
                         FlowSpec("idle", "x", "y", ("s1", "s2"), 0.5, 10.0, 0.0)])
    rng = np.random.default_rng(12)
    process = RateProcess(0.1, 100, {fid: rng.uniform(20.0, 160.0, 100)
                                     for fid in ("a", "b", "c")})
    seen = Counter()
    path = tmp_path / "summary.json"
    for case in range(80):
        epoch_length = float(rng.choice([0.5, 1.0]))
        config = EpochConfig(epoch_length=epoch_length,
                             solver=SolverConfig(Formulation.DS if case % 2 else Formulation.APX,
                                                 node_limit=500),
                             estimator_mode=list(EstimatorMode)[case % 3 == 0],
                             fully_sampled_tolerance=float(rng.choice([0.05, 0.5])))
        queries = [] if case == 0 else _random_queries(rng, ["a", "b", "c", "idle"],
                                                       epoch_length)
        report = run_simulation(net, queries, process, config, case)
        active_epochs, outcomes, measured, expected = _dict_aggregation(report, queries)
        assert sorted((r.flow_id, r.epoch) for r in report.records) == \
            sorted((fid, e) for fid, epochs in active_epochs.items() for e in epochs)
        assert [r.epoch for r in report.records] == sorted(r.epoch for r in report.records)
        assert {fid: (o.measured_rate, o.ever_admitted, o.fully_sampled)
                for fid, o in report.outcomes.items()} == outcomes
        assert list(report.outcomes) == list(outcomes)
        summary = measure_metrics(report)
        assert summary.measured_rates == measured
        doc = summary.to_json_dict()
        assert {k: doc[k] for k in expected if k != "flows"} == \
            {k: v for k, v in expected.items() if k != "flows"}
        write_summary_json(report, str(path))
        assert json.loads(path.read_text())["flows"] == expected["flows"]
        t = report.epoch_length
        seen["two rates in one cell"] += any(
            len({q.sampling_rate for q in queries if q.flow_id == r.flow_id
                 and q.start <= r.epoch * t + 1e-9
                 and r.epoch * t < q.start + q.duration - 1e-9}) > 1
            for r in report.records)
        seen["no epochs"] += report.n_epochs == 0
        seen["no rate"] += any(rate is None for rate, _, _ in outcomes.values())
        seen["partly sampled"] += any(ever and not fully for _, ever, fully in outcomes.values())
        seen["fully sampled"] += any(fully for _, _, fully in outcomes.values())
    assert len(seen) == 5 and min(seen.values()) > 0, seen


@pytest.mark.parametrize("mode", list(EstimatorMode))
def test_solver_receives_plain_float_moments(monkeypatch, mode):
    # numpy scalars in a FlowSpec would leak numpy arithmetic into the search
    bundle = partly_admitted_bundle(0)
    epoch = dataclasses.replace(bundle.epoch, estimator_mode=mode)
    seen = []

    def spy(network, config):
        seen.extend(network.flows)
        return solve(network, config)

    monkeypatch.setattr(fs, "solve", spy)
    run_simulation(bundle.network, list(bundle.queries), bundle.process, epoch, 0)
    assert len(seen) == 5   # "big" and "huge" in both epochs, "small" in the second
    for flow in seen:
        for name in ("target_rate", "rate_mean_pps", "rate_var_pps2"):
            assert type(getattr(flow, name)) is float, (flow.id, name)


def test_random_query_presets_unchanged():
    # sha256 of the queries' field tuples, recorded before the two presets
    # shared one query-subset builder; a change to the qrng draw order shows here
    def digest(bundle):
        fields = [dataclasses.astuple(q) for q in bundle.queries]
        return len(fields), hashlib.sha256(repr(fields).encode()).hexdigest()[:16]

    process = RateProcess(0.1, 200, {f"t{i:02d}": np.full(200, 10.0 + i) for i in range(12)})
    model = model_driven_scenario(1, n_epochs=3)
    trace = trace_driven_scenario(process, 2, n_epochs=3, inclusion_prob=0.5)
    assert digest(model) == (269, "f995f4ee161958e6")
    assert digest(trace) == (15, "754da25bc66c9b3e")
    expected = EpochConfig(epoch_length=5.0, bucket=0.1,
                           solver=SolverConfig(Formulation.APX, delta=TWO_SIGMA_DELTA,
                                               node_limit=20_000, time_limit=60.0),
                           estimator_mode=EstimatorMode.DECLARED)
    assert model.epoch == expected and trace.epoch == expected


def _per_bucket_offered(arrivals, carry):
    """The replay's carry-over as it was first written, one bucket at a
    time; the reference for the whole-epoch pass."""
    acc = carry.copy()
    offered = np.zeros(arrivals.shape, dtype=np.int64)
    for b in range(len(arrivals)):
        acc += arrivals[b]
        offered[b] = np.floor(acc + 1e-9)
        acc -= offered[b]
    return offered, acc


def _carry_processes(n_buckets):
    net = uniform_rate_network(abilene_graph(), 8, capacity_pps=1e9, seed=2)
    # 3 to 300 pps: from a third of a packet to 30 packets per bucket
    for dist in Distribution:
        mixture = MixtureConfig(distribution=dist, mean_choices_kbps=(3.0, 20.0, 300.0),
                                cov_low=0.2, cov_low_prob=0.5, cov_high=0.5)
        yield dist.value, generate_model_driven(net, mixture, n_buckets * 0.1, 11)
    # 10 pps is one packet per 0.1 s bucket; at 7 and 9 pps running sums fall
    # a rounding error short of whole packets, and the 1e-9 nudge counts them
    yield "constant", constant_process({"c10": 10.0, "c7": 7.0, "c9": 9.0}, n_buckets)


@pytest.mark.parametrize("bpe", [1, 3, 50, 1000])
def test_offered_counts_match_per_bucket_carry(bpe):
    # the two passes add the same arrivals in different orders, so the
    # carries may differ by roundings of the running sums, but by less than
    # a quarter of the 1e-9 nudge, or a later count could differ; the counts
    # must be equal
    n_buckets = max(300, 2 * bpe)
    for name, process in _carry_processes(n_buckets):
        arrivals = np.stack([process.series(fid) for fid in sorted(process.rates)]) * 0.1
        if name == "constant":
            sums = np.cumsum(arrivals, axis=1)
            assert (np.floor(sums) != np.floor(sums + 1e-9)).any()
        carry = ref_carry = np.zeros(len(arrivals))
        for k0 in range(0, n_buckets, bpe):
            epoch = arrivals[:, k0:k0 + bpe].T
            offered, carry = fs._offered_counts(epoch, carry)
            expected, ref_carry = _per_bucket_offered(epoch, ref_carry)
            assert offered.dtype == np.int64
            np.testing.assert_array_equal(offered, expected, err_msg=f"{name} at {k0}")
            assert np.abs(carry - ref_carry).max() < 2.5e-10, (name, k0)
            assert ((carry > -1e-9) & (carry < 1.0)).all()


def _per_cell_split(sampled, totals, over, assigned, cap_bucket):
    """The overload split as it was first written, one (bucket, switch)
    cell at a time; the reference for the whole-epoch pass."""
    forwarded = sampled.copy()
    for b, s in zip(*np.nonzero(over)):
        member = np.nonzero((assigned == s) & (sampled[b] > 0))[0]
        capacity = int(cap_bucket[s])
        total = int(sampled[b, member].sum())
        quotas = capacity * sampled[b, member] / total
        base = np.floor(quotas).astype(np.int64)
        leftover = capacity - int(base.sum())
        if leftover > 0:
            frac = quotas - base
            take = np.lexsort((np.arange(len(member)), -frac))[:leftover]
            base[take] += 1
        forwarded[b, member] = base
    return forwarded


def _check_split(sampled, assigned, cap_bucket):
    bpe, ns = len(sampled), len(cap_bucket)
    totals = np.zeros((bpe, ns), dtype=np.int64)
    for f, s in enumerate(assigned):
        if s >= 0:
            totals[:, s] += sampled[:, f]
    over = totals > cap_bucket
    args = (sampled, totals, over, assigned, cap_bucket)
    forwarded = fs._split_overloads(*args)
    np.testing.assert_array_equal(forwarded, _per_cell_split(*args))
    # each overloaded cell forwards exactly its budget, the others all they sampled
    sent = np.zeros_like(totals)
    for f, s in enumerate(assigned):
        if s >= 0:
            sent[:, s] += forwarded[:, f]
    np.testing.assert_array_equal(sent, np.where(over, cap_bucket, totals))
    return over, forwarded


def test_split_overloads_matches_per_cell_split():
    rng = np.random.default_rng(8)
    n_over = 0
    for _ in range(300):
        bpe, nf, ns = (int(x) for x in rng.integers(1, [40, 30, 6]))
        assigned = rng.integers(-1, ns, nf)
        sampled = rng.integers(0, int(rng.integers(1, 60)), (bpe, nf))
        cap_bucket = rng.integers(0, 4 * nf, ns)
        n_over += _check_split(sampled, assigned, cap_bucket)[0].sum()
    assert n_over > 1000


def test_split_overloads_ties_single_members_and_zero_budget():
    # equal sampled counts tie every remainder: the earlier flows get the
    # leftovers; switch 1 has one member, switch 2 a zero budget, and the
    # unadmitted flow 6 is never touched
    assigned = np.array([0, 0, 0, 1, 2, 2, -1])
    sampled = np.array([[5, 5, 5, 9, 4, 0, 7],
                        [2, 2, 2, 1, 0, 0, 7]])
    cap_bucket = np.array([7, 3, 0])
    over, forwarded = _check_split(sampled, assigned, cap_bucket)
    assert over.tolist() == [[True, True, True], [False, False, False]]
    assert forwarded.tolist() == [[3, 2, 2, 3, 0, 0, 7], [2, 2, 2, 1, 0, 0, 7]]
