import bisect
import dataclasses
import hashlib
import json
import math
import os
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as opt

from flowsamp import optimizer, simulator
from flowsamp import (Allocation, Formulation, FlowSpec, LoadStats, SolverConfig,
                      SwitchSpec, additive_feasible, brute_force_optimal,
                      build_network, effective_load, feasible, flow_charge,
                      min_required_capacity, socp_feasible, solve, solve_apx,
                      solve_exact, squared_form_feasible, validate_allocation)
from flowsamp.cli import parse_algorithm
from flowsamp.instances import (big_scale_free_network, model_driven_scenario,
                                runtime_comparison_network)
from flowsamp.optimizer import FEAS_TOL, load_solve_result
from flowsamp.simulator import run_simulation

from conftest import all_allocations, random_instance
from test_stats import quantile_by_bisection


def _flow(mu, sigma, path=("s",), alpha=1.0, fid="f"):
    # declared moments that produce the requested sampling-load moments
    return FlowSpec(fid, "a", "b", path, alpha, mu / alpha, (sigma / alpha) ** 2)


def test_effective_load_apx():
    f = _flow(20.0, 20.0)
    cfg = SolverConfig(Formulation.APX, delta=0.2)
    expected = 20.0 + quantile_by_bisection(0.2) * 20.0
    assert effective_load(f, cfg) == pytest.approx(36.832, abs=1e-3)
    assert effective_load(f, cfg) == pytest.approx(expected, abs=1e-6)


def test_effective_load_collapses_without_variance():
    f = _flow(20.0, 0.0)
    for form in (Formulation.APX, Formulation.DS, Formulation.DS2SIGMA,
                 Formulation.CSAMP_EPS):
        cfg = SolverConfig(form, delta=0.2, epsilon_pps=0.0)
        assert effective_load(f, cfg) == pytest.approx(20.0)


def test_effective_load_two_sigma_headroom():
    cfg = SolverConfig(Formulation.DS2SIGMA, delta=0.2)
    assert effective_load(_flow(20.0, 20.0), cfg) == pytest.approx(60.0)


def test_effective_load_csamp_inflates_raw_rate():
    f = FlowSpec("f", "a", "b", ("s",), 0.1, 300.0, 0.0)
    cfg = SolverConfig(Formulation.CSAMP_EPS, epsilon_pps=150.0)
    assert effective_load(f, cfg) == pytest.approx(45.0)


def test_effective_load_rejects_cone_formulation():
    with pytest.raises(ValueError):
        effective_load(_flow(1, 1), SolverConfig(Formulation.EXACT))


def _single_switch_net(n, mu, var, alpha, capacity):
    switches = [SwitchSpec("SW", capacity)]
    flows = [FlowSpec(f"f{i:02d}", "a", "b", ("SW",), alpha, mu, var)
             for i in range(n)]
    return build_network(switches, flows)


def test_socp_feasible_published_boundary():
    # 20 identical flows need 20735.6 pps at 5% violation; the rounded
    # figure itself must stay feasible, a visibly lower capacity must not
    alloc = Allocation({f"f{i:02d}": "SW" for i in range(20)})
    net = _single_switch_net(20, 1000.0, 10000.0, 1.0, 20735.6)
    assert socp_feasible(net, alloc, 0.05)
    net_low = _single_switch_net(20, 1000.0, 10000.0, 1.0, 20700.0)
    assert not socp_feasible(net_low, alloc, 0.05)


def test_socp_feasible_empty_allocation(toy_network):
    assert socp_feasible(toy_network, Allocation({}), 0.2)


def test_socp_feasible_deterministic_overload():
    net = _single_switch_net(1, 2.0, 0.0, 1.0, 1.0)
    assert not socp_feasible(net, Allocation({"f00": "SW"}), 0.2)


def test_flow_charge_per_formulation():
    f = _flow(20.0, 20.0)
    assert flow_charge(f, SolverConfig(Formulation.EXACT)) == (20.0, 400.0)
    for form in (Formulation.APX, Formulation.DS, Formulation.DS2SIGMA,
                 Formulation.CSAMP_EPS):
        cfg = SolverConfig(form, delta=0.2, epsilon_pps=5.0)
        assert flow_charge(f, cfg) == (effective_load(f, cfg), 0.0)


def test_additive_feasible_refuses_exact_even_when_empty(toy_network):
    with pytest.raises(ValueError):
        additive_feasible(toy_network, Allocation({}), SolverConfig(Formulation.EXACT))


def test_min_required_capacity_published_value():
    loads = [LoadStats(1000.0, 100.0)] * 20
    assert min_required_capacity(loads, 0.05) == pytest.approx(20735.6, abs=0.1)


def test_min_required_capacity_deterministic_flow():
    assert min_required_capacity([LoadStats(7.5, 0.0)], 0.3) == 7.5


def test_min_required_capacity_toy_loads():
    # mean sum 3.8, variance sum 2.02, z(0.08) from the bisection oracle
    loads = [LoadStats(0.5, 1.0), LoadStats(0.5, 1.0),
             LoadStats(1.4, 0.1), LoadStats(1.4, 0.1)]
    expected = 3.8 + quantile_by_bisection(0.08) * math.sqrt(2.02)
    assert min_required_capacity(loads, 0.08) == pytest.approx(5.797, abs=1e-3)
    assert min_required_capacity(loads, 0.08) == pytest.approx(expected, abs=1e-9)


def test_min_required_capacity_rejects_empty():
    with pytest.raises(ValueError):
        min_required_capacity([], 0.05)


def test_solve_apx_toy(toy_network):
    # any two flows together exceed a switch at delta 0.08, so one each
    result = solve_apx(toy_network, SolverConfig(Formulation.APX, delta=0.08))
    assert result.objective == 2
    assert result.optimal
    validate_allocation(toy_network, result.allocation)


def test_solve_apx_zero_flows():
    net = build_network([SwitchSpec("s", 5.0)], [])
    result = solve_apx(net, SolverConfig(Formulation.APX))
    assert result.objective == 0 and result.optimal


def test_solve_apx_capacity_slack():
    net = build_network([SwitchSpec("s", 3.0)],
                        [_flow(1.0, 0.0, fid="f1"), _flow(1.0, 0.0, fid="f2")])
    assert solve_apx(net, SolverConfig(Formulation.APX)).objective == 2


def test_solve_apx_rejects_exact():
    with pytest.raises(ValueError):
        solve_apx(build_network([SwitchSpec("s", 1.0)], []),
                  SolverConfig(Formulation.EXACT))


def test_solve_exact_toy_admits_all_at_toy_violation_level(toy_network):
    result = solve_exact(toy_network, SolverConfig(Formulation.EXACT, delta=0.14))
    assert result.objective == 4
    assert result.optimal
    assert socp_feasible(toy_network, result.allocation, 0.14)


def test_solve_exact_zero_flows():
    net = build_network([SwitchSpec("s", 5.0)], [])
    result = solve_exact(net, SolverConfig(Formulation.EXACT, delta=0.2))
    assert result.objective == 0 and result.optimal


def test_exact_dominates_apx_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        net = random_instance(rng, max_switches=3, max_flows=8)
        delta = float(rng.uniform(0.01, 0.5))
        apx = solve_apx(net, SolverConfig(Formulation.APX, delta=delta))
        exact = solve_exact(net, SolverConfig(Formulation.EXACT, delta=delta))
        assert apx.optimal and exact.optimal
        assert exact.objective >= apx.objective


def test_brute_force_matches_solver_on_toy(toy_network):
    cfg = SolverConfig(Formulation.APX, delta=0.08)
    assert brute_force_optimal(toy_network, cfg).objective == 2


def test_brute_force_single_fitting_flow():
    net = build_network([SwitchSpec("s", 10.0)], [_flow(2.0, 1.0)])
    result = brute_force_optimal(net, SolverConfig(Formulation.APX, delta=0.2))
    assert result.objective == result.bound == 1
    assert result.allocation.assignment == {"f": "s"}


def test_brute_force_fingerprint():
    # (sum of objectives, digest of every (objective, sorted assignment)),
    # recorded with the incremental depth-first oracle that the plain
    # enumeration replaced: same optima, same first-found tie.
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(30):
        net = random_instance(rng)
        delta = float(rng.uniform(0.01, 0.5))
        for form in Formulation:
            r = brute_force_optimal(net, SolverConfig(form, delta=delta, epsilon_pps=20.0))
            rows.append([r.objective, sorted(r.allocation.assignment.items())])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert (sum(r[0] for r in rows), digest) == (216, "77547862c165c101")


def test_brute_force_matches_apx_objective_property():
    rng = np.random.default_rng(17)
    for _ in range(40):
        net = random_instance(rng, max_switches=3, max_flows=6)
        cfg = SolverConfig(Formulation.APX, delta=float(rng.uniform(0.01, 0.5)))
        assert solve_apx(net, cfg).objective == brute_force_optimal(net, cfg).objective


def test_brute_force_refuses_oversized_instances():
    switches = [SwitchSpec(f"s{i}", 100.0) for i in range(3)]
    flows = [FlowSpec(f"f{i}", "a", "b", ("s0", "s1", "s2"), 0.5, 1.0, 0.0)
             for i in range(24)]  # 4^24 assignments
    net = build_network(switches, flows)
    with pytest.raises(ValueError):
        brute_force_optimal(net, SolverConfig(Formulation.APX))


def test_additive_feasibility_contained_in_cone():
    # sqrt(sum of variances) never exceeds the sum of deviations
    rng = np.random.default_rng(29)
    for _ in range(25):
        net = random_instance(rng)
        delta = float(rng.uniform(0.01, 0.5))
        cfg = SolverConfig(Formulation.APX, delta=delta)
        for alloc in all_allocations(net):
            if additive_feasible(net, alloc, cfg):
                assert socp_feasible(net, alloc, delta)


def test_squared_form_equivalent_to_cone():
    rng = np.random.default_rng(31)
    for _ in range(25):
        net = random_instance(rng, max_switches=2, max_flows=4)
        delta = float(rng.uniform(0.01, 0.5))
        for alloc in all_allocations(net):
            assert squared_form_feasible(net, alloc, delta) == \
                socp_feasible(net, alloc, delta)


def test_zero_variance_collapse():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net = random_instance(rng)
        flows = [dataclasses.replace(f, rate_var_pps2=0.0) for f in net.flows]
        net = build_network(net.switches, flows)
        objectives = set()
        for form in Formulation:
            cfg = SolverConfig(form, delta=0.2, epsilon_pps=0.0)
            objectives.add(solve(net, cfg).objective)
        assert len(objectives) == 1


def test_solver_deterministic(toy_network):
    cfg = SolverConfig(Formulation.APX, delta=0.08)
    first = solve_apx(toy_network, cfg)
    second = solve_apx(toy_network, cfg)
    assert first.allocation.assignment == second.allocation.assignment
    assert first.nodes_explored == second.nodes_explored


def test_greedy_incumbent_under_node_limit():
    net = build_network([SwitchSpec("s", 10.0)],
                        [_flow(1.0, 0.0, fid=f"f{i}") for i in range(6)])
    cfg = SolverConfig(Formulation.APX, delta=0.2, node_limit=3)
    result = solve_apx(net, cfg)
    assert not result.optimal
    assert 1 <= result.objective < 6
    assert result.nodes_explored == 3


# No sum of distinct charges here equals a switch limit of 1e-6 or 1.2e-6:
# in units of 1e-8 a sum of k of them is k mod 4, and no four sum to 100
# or 120. So no load lands on a limit, where rounding would decide a fit.
TINY_CHARGES = (1.3e-7, 2.9e-7, 3.3e-7, 4.1e-7, 4.9e-7, 5.3e-7, 5.7e-7)


def _tiny_room_instance(rng, repeated=False, var=0.0):
    """1-3 switches of capacity 0 or 2e-7 and 1-6 flows at target 1 and
    variance ``var``, each charged one of TINY_CHARGES: loads sit between a
    switch's capacity and its limit, inside the slack. Distinct charges
    (the default) keep every load off the limit under every formulation;
    ``repeated`` charges let some loads land on it."""
    ns, nf = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    switches = [SwitchSpec(f"s{i}", float(rng.choice([0.0, 2e-7]))) for i in range(ns)]
    flows = [FlowSpec(f"f{j}", "x", "y",
                      tuple(f"s{i}" for i in rng.choice(ns, int(rng.integers(1, ns + 1)),
                                                        replace=False)),
                      1.0, float(c), var)
             for j, c in enumerate(rng.choice(TINY_CHARGES, nf, replace=repeated))]
    return build_network(switches, flows)


@given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(list(Formulation)),
       delta=st.floats(0.01, 0.5), epsilon=st.floats(0.0, 50.0),
       node_limit=st.integers(1, 300), tiny=st.booleans())
@settings(max_examples=150, deadline=None)
def test_node_limited_search_against_oracle(seed, form, delta, epsilon, node_limit, tiny):
    # A stale bound prunes a better subtree and still reports optimal=True;
    # so does a bound that reads less room than the fit test admits, which
    # the tiny-room instances catch.
    rng = np.random.default_rng(seed)
    net = _tiny_room_instance(rng) if tiny else random_instance(rng, max_switches=3,
                                                                max_flows=6)
    cfg = SolverConfig(form, delta=delta, epsilon_pps=epsilon, node_limit=node_limit)
    result = solve(net, cfg)
    validate_allocation(net, result.allocation)
    assert feasible(net, result.allocation, cfg)
    best = brute_force_optimal(net, cfg).objective
    assert result.objective <= best <= result.bound
    if result.optimal:
        assert result.objective == best
    assert result.nodes_explored <= node_limit


def test_bounds_count_the_slack_as_room():
    # Every load here lies between capacity 0 and the limit 1e-6, which the
    # fit test admits; bounds that gave a switch no room past its capacity
    # proved 2 optimal against the root bound 3.
    net = build_network([SwitchSpec("s0", 0.0), SwitchSpec("s1", 0.0)],
                        [FlowSpec("f0", "x", "y", ("s1", "s0"), 1.0, 4.1e-7, 0.0),
                         FlowSpec("f1", "x", "y", ("s0",), 1.0, 5.3e-7, 0.0),
                         FlowSpec("f2", "x", "y", ("s0",), 1.0, 1.3e-7, 0.0)])
    for form in Formulation:
        r = solve(net, SolverConfig(form, delta=0.2))
        assert (r.objective, r.optimal, r.bound) == (3, True, 3), form


def test_load_on_a_limit_rounds_as_in_the_search():
    # 1.3e-7 + 3.3e-7 + 4.1e-7 + 1.3e-7 is exactly the limit 1e-6 in this
    # order and 1.0000000000000002e-06 in the search's (ascending) order.
    # feasible summed in assignment order, so the oracle admitted all four
    # while the search proved 3.
    net = build_network([SwitchSpec("s0", 0.0)],
                        [FlowSpec(f"f{j}", "x", "y", ("s0",), 1.0, c, 0.0)
                         for j, c in enumerate((1.3e-7, 3.3e-7, 4.1e-7, 1.3e-7))])
    assert not feasible(net, Allocation({f.id: "s0" for f in net.flows}),
                        SolverConfig(Formulation.DS))
    for form in Formulation:
        cfg = SolverConfig(form, delta=0.2)
        r = solve(net, cfg)
        assert (r.objective, r.optimal, r.bound) == (3, True, 3), form
        assert brute_force_optimal(net, cfg).objective == 3, form


@pytest.mark.parametrize("var", [0.0, 1e-16])
def test_repeated_charges_against_oracle(var):
    # With repeated charges some loads land exactly on a limit; draws 570,
    # 802 and 1127 are false proofs when feasible and the search round a
    # load in different orders.
    for seed in range(1200):
        net = _tiny_room_instance(np.random.default_rng(seed), repeated=True, var=var)
        for form in Formulation:
            cfg = SolverConfig(form, delta=0.2)
            r = solve(net, cfg)
            assert feasible(net, r.allocation, cfg)
            assert r.optimal and r.objective == brute_force_optimal(net, cfg).objective, \
                (seed, form)


def _fingerprint(objective, optimal, nodes, pairs):
    digest = hashlib.sha256(json.dumps(sorted(pairs)).encode()).hexdigest()[:16]
    return objective, optimal, nodes, digest


# (objective, optimal, nodes_explored, digest of the sorted assignment).
# The objectives, proofs and digests were recorded before the bound was
# made incremental, the node counts when the search began to stop at its
# root bound. A change to the search order, the bound or the arithmetic
# shows up here.
RC7_FINGERPRINTS = {
    Formulation.APX: (11, True, 35, "d6ae5c6662027d54"),
    Formulation.EXACT: (22, False, 50_000, "48d1bcd11489ce1c"),
    Formulation.DS: (33, True, 37, "6f4393cd4515aa07"),
    Formulation.DS2SIGMA: (11, True, 35, "d6ae5c6662027d54"),
    Formulation.CSAMP_EPS: (33, True, 37, "6f4393cd4515aa07"),
}


def test_search_fingerprint_cone_instance():
    net = runtime_comparison_network(7)
    for form, expected in RC7_FINGERPRINTS.items():
        cfg = SolverConfig(form, delta=0.2,
                           node_limit=50_000 if form == Formulation.EXACT else 200_000)
        r = solve(net, cfg)
        got = _fingerprint(r.objective, r.optimal, r.nodes_explored,
                           r.allocation.assignment.items())
        assert got == expected, form


def test_search_fingerprint_full_size_surrogate():
    # The benchmark's 500-switch, 5,000-flow surrogate solve: the greedy
    # pass meets the root bound of 1,000 in 2,731 steps.
    r = solve(big_scale_free_network(3), SolverConfig(Formulation.APX, delta=0.2,
                                                      node_limit=20_000))
    assert r.bound == 1000
    assert _fingerprint(r.objective, r.optimal, r.nodes_explored,
                        r.allocation.assignment.items()) == \
        (1000, True, 2_731, "c2dd20a40624144b")


def test_search_fingerprint_scale_free_and_simulation():
    net = big_scale_free_network(3, n_switches=50, n_flows=300)
    r = solve(net, SolverConfig(Formulation.APX, delta=0.2, node_limit=2_000))
    assert _fingerprint(r.objective, r.optimal, r.nodes_explored,
                        r.allocation.assignment.items()) == \
        (100, True, 182, "9c84813e7e2d7865")

    bundle = model_driven_scenario(1, n_epochs=1, node_limit=2_000)
    report = run_simulation(bundle.network, list(bundle.queries), bundle.process,
                            bundle.epoch, 0)
    [s] = report.solves
    assigned = [(rec.flow_id, rec.assigned_switch) for rec in report.records
                if rec.assigned_switch is not None]
    assert _fingerprint(s["objective"], s["optimal"], s["nodes_explored"], assigned) == \
        (53, False, 2_000, "5f34cae0bccf9c1f")


# (objective, optimal, nodes_explored, digest of the assigned pairs) of one
# model-driven epoch under each of the six compare algorithms at the
# preset's node limit of 20,000: the deep walks that stop at the limit.
MODEL_DRIVEN_FINGERPRINTS = {
    "ds": (82, True, 82, "dddc35b11e157133"),
    "ds2sigma": (53, False, 20_000, "5f34cae0bccf9c1f"),
    "apx": (53, False, 20_000, "5f34cae0bccf9c1f"),
    "csamp+100": (82, True, 82, "dddc35b11e157133"),
    "csamp+150": (82, True, 113, "b9ec21bea42d080b"),
    "csamp+200": (81, False, 20_000, "b4c78fdcd19bba82"),
}


def test_search_fingerprint_model_driven_at_node_limit():
    bundle = model_driven_scenario(1, n_epochs=1)
    for token, expected in MODEL_DRIVEN_FINGERPRINTS.items():
        b = bundle.with_solver(parse_algorithm(token, bundle.epoch.solver))
        report = run_simulation(b.network, list(b.queries), b.process, b.epoch, 0)
        [s] = report.solves
        assigned = [(rec.flow_id, rec.assigned_switch) for rec in report.records
                    if rec.assigned_switch is not None]
        assert _fingerprint(s["objective"], s["optimal"], s["nodes_explored"],
                            assigned) == expected, token


def _pooled_instance():
    means = np.random.default_rng(303).uniform(10, 40, 12)
    switches = [SwitchSpec(f"s{i}", 100.0) for i in range(2)]
    path = tuple(s.id for s in switches)
    flows = [FlowSpec(f"f{j}", "a", "b", path, 1.0, float(m), 0.0)
             for j, m in enumerate(means)]
    return build_network(switches, flows)


def test_search_fingerprint_pooled_bound():
    # Every flow crosses both switches, so each per-switch term counts the
    # same cheap flows twice over (total 12); only the pooled residual bound
    # sees that they share one budget. The cheapest 10 fit in the pooled 200
    # but no 10 fit in two switches of 100, so the search proves the optimum
    # 9 below its root bound 10 by exhausting the tree (without the pooled
    # test it takes 1,437 nodes).
    r = solve(_pooled_instance(), SolverConfig(Formulation.DS, delta=0.2))
    assert r.bound == 10
    assert _fingerprint(r.objective, r.optimal, r.nodes_explored,
                        r.allocation.assignment.items()) == \
        (9, True, 609, "9c920666dd314176")


def _tight_instance(rng):
    """2-8 switches of capacity 5-60 and 10-40 flows on paths of 1-4 of them:
    too little capacity for most flows, so the search prunes on every bound."""
    ns, nf = int(rng.integers(2, 9)), int(rng.integers(10, 41))
    switches = [SwitchSpec(f"s{i}", float(rng.uniform(5, 60))) for i in range(ns)]
    flows = [FlowSpec(f"f{j}", "a", "b",
                      tuple(f"s{i}" for i in rng.choice(ns, int(rng.integers(1, min(4, ns) + 1)),
                                                        replace=False)),
                      float(rng.uniform(0.05, 0.5)), float(rng.uniform(5, 100)),
                      float(rng.uniform(0, 1500)))
             for j in range(nf)]
    return build_network(switches, flows)


def test_search_digest_tight_capacity():
    # One digest over (objective, optimal, nodes, bound, sorted assignment)
    # of 200 tight instances under all five formulations at node limits of
    # 50-1,499: 655 solves end proven and 345 at their limit. It pins the
    # search where the pooled bound and the per-switch terms decide, so a
    # change to how either is computed must leave every node as it was.
    rows = []
    for seed in range(200):
        rng = np.random.default_rng([seed, 16])
        net = _tight_instance(rng)
        delta = float(rng.uniform(0.01, 0.5))
        node_limit = int(rng.integers(50, 1500))
        for form in Formulation:
            r = solve(net, SolverConfig(form, delta=delta, epsilon_pps=20.0,
                                        node_limit=node_limit))
            rows.append([r.objective, r.optimal, r.nodes_explored, r.bound,
                         sorted(r.allocation.assignment.items())])
    assert sum(r[1] for r in rows) == 655
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "a80c012d3eccf802"


def _watch_tight_searches(watch, seeds):
    """Run the tight searches of `seeds` under all five formulations with
    `watch` as the trace function: no hook in the solver is needed."""
    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        for seed in seeds:
            rng = np.random.default_rng([seed, 16])
            net = _tight_instance(rng)
            delta = float(rng.uniform(0.01, 0.5))
            node_limit = int(rng.integers(50, 1500))
            for form in Formulation:
                solve(net, SolverConfig(form, delta=delta, epsilon_pps=20.0,
                                        node_limit=node_limit))
    finally:
        sys.settrace(previous)


def test_search_loads_are_the_applied_charges():
    # Whenever the search calls a helper, each switch's used_g and used_var
    # must equal the charges of the flows applied on the path, added afresh
    # in path order: a return to a frame restores them exactly, with no
    # arithmetic, and a child being tested is not written into them. A load
    # restored by subtraction reads, e.g., -3.6e-15 on an empty switch, and
    # that switch then sorts ahead of an untouched one with a lower id.
    # Only the main loop makes pooled tests, so their count shows that the
    # checks reach it; the greedy pass's calls alone could pass a count of
    # every helper call.
    bb_code = optimizer._bb_solve.__code__
    helpers = {c for c in bb_code.co_consts
               if isinstance(c, types.CodeType) and not c.co_name.startswith("<")}
    pooled, wrong = 0, []

    def watch(frame, event, arg):
        nonlocal pooled
        if event == "call" and frame.f_code in helpers and frame.f_back.f_code is bb_code:
            search = frame.f_back.f_locals
            used_g, used_var, g, var = (search[k] for k in ("used_g", "used_var", "g", "var"))
            fresh_g, fresh_var = [0.0] * len(used_g), [0.0] * len(used_var)
            for pos, s in search["applied"]:
                fresh_g[s] += g[pos]
                fresh_var[s] += var[pos]
            pooled += frame.f_code.co_name == "pool_admits"
            if fresh_g != used_g or fresh_var != used_var:
                wrong.append((frame.f_code.co_name, list(used_g), fresh_g))

    _watch_tight_searches(watch, range(30))
    assert pooled > 10_000
    assert not wrong, wrong[:3]


def test_pooled_bound_reads_as_the_exact_sum():
    # The pooled test reads a running pool plus a rounding margin, which
    # depends on the instance only. If it grew with the node limit, at
    # 10**18 it would exceed every pool, the pooled test would never prune
    # and the search would take 1,437 nodes.
    r = solve(_pooled_instance(), SolverConfig(Formulation.DS, delta=0.2, node_limit=10**18))
    assert _fingerprint(r.objective, r.optimal, r.nodes_explored,
                        r.allocation.assignment.items()) == \
        (9, True, 609, "9c920666dd314176")
    # Capacities that sum to inf make the pool and the margin infinite, so
    # the pooled test keeps every child; the search must still be right.
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_instance(rng, max_switches=3, max_flows=6)
        huge = [dataclasses.replace(sw, capacity_pps=1e308) for sw in net.switches[:2]]
        net = build_network(huge + list(net.switches[2:]), net.flows)
        for form in Formulation:
            cfg = SolverConfig(form, delta=0.2, epsilon_pps=20.0)
            r = solve(net, cfg)
            assert r.optimal and r.objective == brute_force_optimal(net, cfg).objective


def test_running_pool_stays_well_inside_its_margin():
    # Watch every pooled test of the tight searches: the running pool it is
    # given must lie within margin / 64 of the room of the child it tests
    # (the frame's state, with the flow applied to switch s unless s is the
    # skip child's -1), sum(max(0, limit - load)) summed afresh. The pool
    # does drift (most tests see a nonzero gap, so a zero margin fails
    # here); the largest gap is about 0.010 of the margin.
    seen = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "pool_admits":
            search = frame.f_back.f_locals
            used = list(search["used_g"])
            s = search["s"]
            if s >= 0:
                used[s] += search["g"][search["depth"]]
            fresh = math.fsum(max(lim - u, 0.0) for lim, u in zip(search["limit"], used))
            seen.append((abs(frame.f_locals["pool"] - fresh), search["margin"]))

    _watch_tight_searches(watch, range(50))
    assert len(seen) > 10_000 and sum(gap > 0 for gap, _ in seen) > len(seen) // 2
    assert all(gap <= margin / 64 for gap, margin in seen)


def test_search_stops_at_root_bound():
    # The greedy pass admits 32 of these 50 flows against a root bound of 33,
    # so the search runs; it stops at its first incumbent of 33 instead of
    # going on to 200 nodes to prove what the bound already says.
    r = solve(runtime_comparison_network(2), SolverConfig(Formulation.DS, delta=0.2))
    assert r.bound == 33
    assert _fingerprint(r.objective, r.optimal, r.nodes_explored,
                        r.allocation.assignment.items()) == \
        (33, True, 112, "d93e91ca32544728")
    # A root bound of 0 is met by the empty incumbent before any step.
    net = build_network([SwitchSpec("s", 1.0)],
                        [_flow(5.0, 0.0, fid="f1"), _flow(7.0, 0.0, fid="f2")])
    r = solve(net, SolverConfig(Formulation.APX))
    assert (r.objective, r.optimal, r.bound, r.nodes_explored) == (0, True, 0, 0)


def test_node_limit_counts_whole_frame_prunes_one_by_one():
    # The search proves this instance in 609 nodes, 173 of them counted in
    # 58 frames pruned whole. Every limit that stops it, inside such a
    # batch or not, must read as exactly that many nodes, and a larger
    # limit never loses flows.
    net = _pooled_instance()
    prev = 0
    for limit in range(1, 620):
        r = solve(net, SolverConfig(Formulation.DS, delta=0.2, node_limit=limit))
        if r.optimal:
            assert limit > 609 and (r.objective, r.nodes_explored) == (9, 609)
        else:
            assert r.nodes_explored == limit
        assert r.objective >= prev
        prev = r.objective


def test_time_limit_stops_the_search(monkeypatch):
    # The deadline is read whenever the node count crosses a multiple of
    # 512. On this model-driven epoch the count crosses 512 in one batch
    # (four children of one frame, from 511 to 515), so a clock that is
    # past the deadline must stop the search there, where the per-step
    # count stops at a node limit of 512.
    bundle = model_driven_scenario(2, n_epochs=1)
    seen = []
    monkeypatch.setattr(simulator, "solve",
                        lambda net, cfg: seen.append((net, cfg)) or solve(net, cfg))
    run_simulation(bundle.network, list(bundle.queries), bundle.process, bundle.epoch, 0)
    [(net, cfg)] = seen
    assert cfg.node_limit == 20_000
    at_512 = solve(net, dataclasses.replace(cfg, node_limit=512))
    clock = iter([0.0])
    monkeypatch.setattr(optimizer, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(clock, 1e9)))
    r = solve(net, cfg)
    assert not r.optimal
    assert (r.objective, r.nodes_explored, r.bound, r.allocation.assignment) == \
        (at_512.objective, 512, at_512.bound, at_512.allocation.assignment)


def test_reused_searches_keep_only_searches_that_a_rerun_repeats(monkeypatch):
    searches = []
    search = optimizer._bb_solve
    monkeypatch.setattr(optimizer, "_bb_solve",
                        lambda net, cfg: searches.append(cfg) or search(net, cfg))
    net = runtime_comparison_network(7)
    limited = SolverConfig(Formulation.EXACT, delta=0.2, node_limit=512)
    # no node limit is reached before the deadline, read at 512 nodes
    late = dataclasses.replace(limited, node_limit=200_000, time_limit=1e-9)
    with optimizer.reused_searches() as reuse:
        stopped = [solve(net, late) for _ in range(2)]
        assert len(searches) == 2 and reuse.reused == 0
        assert [(r.optimal, r.nodes_explored) for r in stopped] == [(False, 512)] * 2
        first, again = solve(net, limited), solve(net, limited)
        assert len(searches) == 3 and reuse.reused == 1
        assert again is first and (first.optimal, first.nodes_explored) == (False, 512)
    # outside a block every solve searches
    solve(net, limited)
    solve(net, limited)
    assert len(searches) == 5


def test_reused_searches_serve_only_solves_with_the_same_limits(monkeypatch):
    searches = []
    search = optimizer._bb_solve
    monkeypatch.setattr(optimizer, "_bb_solve",
                        lambda net, cfg: searches.append(cfg) or search(net, cfg))
    net = runtime_comparison_network(7)
    limited = SolverConfig(Formulation.EXACT, delta=0.2, node_limit=512)
    with optimizer.reused_searches() as reuse:
        solve(net, limited)
        assert solve(net, dataclasses.replace(limited, node_limit=513)).nodes_explored == 513
        solve(net, dataclasses.replace(limited, time_limit=2 * limited.time_limit))
        assert len(searches) == 3 and reuse.reused == 0
        solve(net, limited)
        assert len(searches) == 3 and reuse.reused == 1


def test_prune_work_on_cone_instance(monkeypatch):
    # Every per-switch term computed as first[] moves down, and every test
    # of a child's own term, bisects once; the pooled test and backtracking
    # never do. The rem test decides nothing the pooled test would not
    # (pooled <= rem); it comes first so that the pooled test's count stays
    # inside the flows. Here it decides alone only for skip children, which
    # compute no term, so without it the count is the same. Under DS the
    # greedy pass meets the root bound, so the solve bisects only for the
    # root bound: 11 per-switch terms and one pooled count (164 if the
    # search's own first dive found the same incumbent).
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return bisect.bisect_right(*args)

    monkeypatch.setattr(optimizer, "bisect_right", counting)
    net = runtime_comparison_network(7)
    r = solve(net, SolverConfig(Formulation.EXACT, delta=0.2, node_limit=2_000))
    assert (r.objective, r.nodes_explored, calls) == (22, 2_000, 4_350)
    calls = 0
    r = solve(net, SolverConfig(Formulation.DS, delta=0.2))
    assert (r.objective, r.optimal, r.nodes_explored, calls) == (33, True, 37, 12)


def test_solve_result_round_trip(tmp_path, toy_network):
    result = solve_apx(toy_network, SolverConfig(Formulation.APX, delta=0.08))
    path = tmp_path / "result.json"
    result.save(str(path))
    again = load_solve_result(str(path))
    assert again.objective == result.objective
    assert again.bound == result.bound == 2
    assert again.allocation.assignment == result.allocation.assignment
    validate_allocation(toy_network, again.allocation)
    doc = json.loads(path.read_text())
    del doc["bound"]          # written before solve results carried one
    path.write_text(json.dumps(doc))
    assert load_solve_result(str(path)).bound is None
    doc["bound"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bound"):
        load_solve_result(str(path))


def test_load_solve_result_reads_older_files_and_names_bad_keys(tmp_path, toy_network):
    path = tmp_path / "result.json"
    solve(toy_network, SolverConfig(Formulation.APX, delta=0.08)).save(str(path))
    doc = json.loads(path.read_text())
    assert "wall_time_s" not in doc and math.isnan(load_solve_result(str(path)).wall_time)
    path.write_text(json.dumps(dict(doc, wall_time_s=0.25)))    # written with a wall time
    assert load_solve_result(str(path)).wall_time == 0.25
    for key, value, named in [("assignment", None, "missing key 'assignment'"),
                              ("objective", "2", "objective has the wrong type"),
                              ("optimal", 1, "optimal has the wrong type"),
                              ("nodes_explored", True, "nodes_explored has the wrong type"),
                              ("bound", 2.0, "bound has the wrong type"),
                              ("wall_time_s", "0.25", "wall_time_s has the wrong type"),
                              ("assignment", {"f1": 3}, "assignment must map")]:
        bad = dict(doc, **{key: value})
        if value is None:
            del bad[key]
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=named):
            load_solve_result(str(path))


@pytest.mark.parametrize("kwargs", [
    dict(delta=0.7), dict(delta=0.0), dict(epsilon_pps=-1.0),
    dict(time_limit=0.0), dict(node_limit=0),
])
def test_solver_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("name,value", [
    ("delta", math.nan), ("epsilon_pps", math.nan), ("epsilon_pps", math.inf),
    ("time_limit", math.nan), ("node_limit", math.nan),
])
def test_solver_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: value})


def _highs_optimum(net, cfg):
    """The additive program as plain knapsack rows, solved by HiGHS: one
    binary per (flow, switch on its path), at most one switch per flow, and
    each switch's summed charges within its capacity plus the search's slack."""
    pairs = [(i, net.switches.index(net.switch(sid)))
             for i, f in enumerate(net.flows) for sid in f.path]
    rows = np.zeros((len(net.flows) + len(net.switches), len(pairs)))
    for j, (i, s) in enumerate(pairs):
        rows[i, j] = 1.0
        rows[len(net.flows) + s, j] = effective_load(net.flows[i], cfg)
    caps = [sw.capacity_pps + FEAS_TOL * max(1.0, sw.capacity_pps) for sw in net.switches]
    with warnings.catch_warnings():
        # HiGHS keeps the thread count of its first call in a process, so this
        # passes the one perfbench/oracle.py passes, verbatim (scipy warns so)
        warnings.simplefilter("ignore", RuntimeWarning)
        res = opt.milp(-np.ones(len(pairs)), integrality=np.ones(len(pairs)),
                       bounds=opt.Bounds(0, 1),
                       constraints=opt.LinearConstraint(rows, -np.inf,
                                                        [1.0] * len(net.flows) + caps),
                       options={"threads": os.cpu_count() or 1})
    assert res.success
    return round(-res.fun)


def test_additive_search_against_highs():
    proven = limited = 0
    for seed in range(12):
        rng = np.random.default_rng([seed, 7])
        ns, nf = int(rng.integers(4, 7)), int(rng.integers(20, 31))
        switches = [SwitchSpec(f"s{i}", float(rng.uniform(20, 120))) for i in range(ns)]
        flows = [FlowSpec(f"f{j}", "a", "b",
                          tuple(f"s{i}" for i in rng.choice(ns, int(rng.integers(1, 4)),
                                                            replace=False)),
                          float(rng.uniform(0.05, 0.5)), float(rng.uniform(10, 200)),
                          float(rng.uniform(0, 2000)))
                 for j in range(nf)]
        net = build_network(switches, flows)
        for form in (Formulation.APX, Formulation.DS, Formulation.DS2SIGMA,
                     Formulation.CSAMP_EPS):
            cfg = SolverConfig(form, delta=0.1, epsilon_pps=20.0, node_limit=3_000)
            result = solve(net, cfg)
            best = _highs_optimum(net, cfg)
            assert additive_feasible(net, result.allocation, cfg)
            assert result.objective <= best, (seed, form)
            if result.optimal:
                assert result.objective == best, (seed, form)
            proven += result.optimal
            limited += not result.optimal
    assert proven and limited   # both outcomes of the search are checked
