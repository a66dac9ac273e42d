import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsamp import (Allocation, FlowSpec, ModelError, SwitchSpec, build_network,
                      load_network, load_stats, save_network, validate_allocation)


def test_toy_incidence(toy_network):
    # every flow crosses both switches
    assert set(toy_network.flows_at["S1"]) == {"f1", "f2", "f3", "f4"}
    assert set(toy_network.flows_at["S2"]) == {"f1", "f2", "f3", "f4"}


def test_empty_network():
    net = build_network([SwitchSpec("s0", 1.0)], [])
    assert net.flows_at == {"s0": ()}


def test_incidence_excludes_off_path_switch():
    switches = [SwitchSpec(f"s{i}", 1.0) for i in range(3)]
    flow = FlowSpec("f0", "a", "b", ("s0", "s1"), 0.5, 1.0, 0.0)
    net = build_network(switches, [flow])
    assert net.flows_at["s2"] == ()
    assert net.flows_at["s0"] == ("f0",)


def test_incidence_count_matches_total_path_length():
    switches = [SwitchSpec(f"s{i}", 1.0) for i in range(4)]
    flows = [
        FlowSpec("f0", "a", "b", ("s0", "s1", "s2"), 0.5, 1.0, 0.0),
        FlowSpec("f1", "a", "b", ("s3",), 0.5, 1.0, 0.0),
    ]
    net = build_network(switches, flows)
    assert sum(len(v) for v in net.flows_at.values()) == sum(len(f.path) for f in flows)


@pytest.mark.parametrize("bad", [
    lambda: build_network([SwitchSpec("s", 1.0), SwitchSpec("s", 2.0)], []),
    lambda: build_network([SwitchSpec("s", 1.0)],
                          [FlowSpec("f", "a", "b", ("s",), 0.5, 1, 0),
                           FlowSpec("f", "a", "b", ("s",), 0.5, 1, 0)]),
    lambda: build_network([SwitchSpec("s", 1.0)],
                          [FlowSpec("f", "a", "b", ("nope",), 0.5, 1, 0)]),
])
def test_build_errors(bad):
    with pytest.raises(ModelError):
        bad()


@pytest.mark.parametrize("kwargs", [
    dict(path=()),
    dict(path=("s", "s")),
    dict(target_rate=0.0),
    dict(target_rate=1.5),
    dict(rate_mean_pps=-1.0),
    dict(rate_var_pps2=-1.0),
    dict(rate_mean_pps=math.nan),
    dict(rate_mean_pps=math.inf),
    dict(rate_var_pps2=math.inf),
    dict(rate_var_pps2=math.nan),
])
def test_flow_spec_invariants(kwargs):
    base = dict(id="f", src="a", dst="b", path=("s",), target_rate=0.5,
                rate_mean_pps=1.0, rate_var_pps2=0.0)
    base.update(kwargs)
    with pytest.raises(ModelError):
        FlowSpec(**base)


def test_negative_capacity_rejected():
    with pytest.raises(ModelError):
        SwitchSpec("s", -1.0)


@pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf])
def test_non_finite_capacity_rejected(capacity):
    with pytest.raises(ModelError, match="capacity_pps"):
        SwitchSpec("s", capacity)


def test_load_stats_toy_flow():
    f = FlowSpec("f", "a", "b", ("s",), 0.1, 5.0, 100.0)
    s = load_stats(f)
    assert s.mu == pytest.approx(0.5)
    assert s.sigma == pytest.approx(1.0)


def test_load_stats_identity_at_full_rate():
    f = FlowSpec("f", "a", "b", ("s",), 1.0, 7.0, 49.0)
    s = load_stats(f)
    assert s.mu == 7.0
    assert s.sigma == 7.0


def test_load_stats_scaling_cross_checked_by_sampling():
    # scaling a random rate by alpha scales its sample mean and std by alpha
    f = FlowSpec("f", "a", "b", ("s",), 0.1, 1000.0, 10000.0)
    s = load_stats(f)
    assert s.mu == pytest.approx(100.0)
    assert s.sigma == pytest.approx(10.0)
    rng = np.random.default_rng(0)
    draws = rng.normal(1000.0, 100.0, 10000)
    scaled = 0.1 * draws
    assert np.mean(scaled) == pytest.approx(100.0, rel=0.01)
    assert np.std(scaled, ddof=1) == pytest.approx(10.0, rel=0.05)


@given(alpha=st.floats(min_value=1e-3, max_value=0.5),
       mean=st.floats(min_value=0, max_value=1e6, allow_subnormal=False),
       var=st.floats(min_value=0, max_value=1e9, allow_subnormal=False))
def test_load_stats_linear_in_target_rate(alpha, mean, var):
    lo = load_stats(FlowSpec("f", "a", "b", ("s",), alpha, mean, var))
    hi = load_stats(FlowSpec("f", "a", "b", ("s",), 2 * alpha, mean, var))
    assert math.isclose(hi.mu, 2 * lo.mu, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(hi.sigma, 2 * lo.sigma, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_incidence_is_path_transpose(data):
    ns = data.draw(st.integers(1, 5))
    switches = [SwitchSpec(f"s{i}", 1.0) for i in range(ns)]
    sids = [s.id for s in switches]
    nf = data.draw(st.integers(0, 6))
    flows = []
    for j in range(nf):
        path = data.draw(st.lists(st.sampled_from(sids), min_size=1, max_size=ns,
                                  unique=True))
        flows.append(FlowSpec(f"f{j}", "a", "b", tuple(path), 0.5, 1.0, 0.0))
    net = build_network(switches, flows)
    for f in flows:
        for sid in sids:
            assert (f.id in net.flows_at[sid]) == (sid in f.path)


def test_allocation_rejects_off_path_switch(toy_network):
    switches = [SwitchSpec("s0", 1.0), SwitchSpec("s1", 1.0)]
    flows = [FlowSpec("f", "a", "b", ("s0",), 0.5, 1.0, 0.0)]
    net = build_network(switches, flows)
    validate_allocation(net, Allocation({"f": "s0"}))
    with pytest.raises(ModelError):
        validate_allocation(net, Allocation({"f": "s1"}))
    with pytest.raises(ModelError):
        validate_allocation(net, Allocation({"ghost": "s0"}))


def test_network_file_round_trip(tmp_path, toy_network):
    path = tmp_path / "net.json"
    save_network(toy_network, str(path))
    again = load_network(str(path))
    assert [s.id for s in again.switches] == [s.id for s in toy_network.switches]
    assert again.flows == toy_network.flows


def test_load_network_names_offending_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"switches": [{"id": "s"}], "flows": []}))
    with pytest.raises(ModelError, match="capacity_pps"):
        load_network(str(path))
    path.write_text(json.dumps({"switchez": []}))
    with pytest.raises(ModelError, match="switchez"):
        load_network(str(path))
    path.write_text("{\n  broken\n}")
    with pytest.raises(ModelError, match="line 2"):
        load_network(str(path))


def _network_doc(**changes):
    flow = {"id": "f", "src": "a", "dst": "b", "path": ["s"], "target_rate": 0.5,
            "rate_mean_pps": 10.0, "rate_var_pps2": 1.0}
    doc = {"switches": [{"id": "s", "capacity_pps": 5.0}], "flows": [flow]}
    for where, value in changes.items():
        kind, field = where.split("__")
        doc[kind][0][field] = value
    return doc


@pytest.mark.parametrize("changes, named", [
    ({"flows__path": [["s"]]}, "flows[0].path[0]"),
    ({"flows__path": ["s", 3]}, "flows[0].path[1]"),
    ({"flows__extra": 1}, "flows[0]: unknown key 'extra'"),
    ({"switches__extra": 1}, "switches[0]: unknown key 'extra'"),
])
def test_load_network_rejects_what_the_schema_rejects(tmp_path, changes, named):
    # schemas/network.schema.json: string path items, no additional properties
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_network_doc(**changes)))
    with pytest.raises(ModelError, match=re.escape(named)):
        load_network(str(path))
    path.write_text(json.dumps(_network_doc()))
    assert load_network(str(path)).flow("f").path == ("s",)


@pytest.mark.parametrize("key", ["switches", "flows"])
def test_load_network_rejects_a_non_array_list(tmp_path, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: 5}))
    with pytest.raises(ModelError, match=f"{key} must be an array"):
        load_network(str(path))
