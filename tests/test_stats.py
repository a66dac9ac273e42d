import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsamp import (Allocation, FlowSpec, SwitchSpec, build_network,
                      estimate_flow_stats, normal_quantile, violation_probability)
from flowsamp.instances import TWO_SIGMA_DELTA


def quantile_by_bisection(delta):
    """Independent oracle: bisection on the erf-based CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2)) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == 0.0


def test_quantile_frozen_values():
    # values computed with quantile_by_bisection
    assert normal_quantile(0.05) == pytest.approx(1.644854, abs=1e-6)
    assert normal_quantile(0.20) == pytest.approx(0.841621, abs=1e-6)


def test_quantile_matches_bisection_oracle():
    for delta in [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.8, 0.99]:
        assert normal_quantile(delta) == pytest.approx(quantile_by_bisection(delta),
                                                       abs=1e-6)


def test_quantile_tiny_delta():
    for delta in [1e-12, 1e-15]:
        assert normal_quantile(delta) == pytest.approx(quantile_by_bisection(delta),
                                                       abs=1e-9)


def test_quantile_two_sigma_delta_is_exactly_two():
    # apx and ds2sigma charge the same at this delta only if z is exactly 2
    assert normal_quantile(TWO_SIGMA_DELTA) == 2.0


@given(delta=st.floats(min_value=1e-4, max_value=0.5))
def test_quantile_cdf_round_trip(delta):
    z = normal_quantile(delta)
    back = 0.5 * math.erfc(z / math.sqrt(2))
    assert abs(back - delta) < 1e-6


def test_quantile_strictly_decreasing():
    grid = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5]
    values = [normal_quantile(d) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.7])
def test_quantile_rejects_out_of_range(delta):
    with pytest.raises(ValueError):
        normal_quantile(delta)


def test_violation_probability_toy(toy_network):
    det = Allocation({"f1": "S1", "f3": "S1", "f2": "S2", "f4": "S2"})
    assert violation_probability(toy_network, det, "S1") == pytest.approx(0.137, abs=5e-4)
    aware = Allocation({"f1": "S1", "f2": "S1", "f3": "S2", "f4": "S2"})
    assert violation_probability(toy_network, aware, "S1") == pytest.approx(0.079, abs=5e-4)
    assert violation_probability(toy_network, aware, "S2") == pytest.approx(0.079, abs=5e-4)


def test_violation_probability_empty_switch(toy_network):
    assert violation_probability(toy_network, Allocation({}), "S1") == 0.0


def test_violation_probability_degenerate_indicator():
    switches = [SwitchSpec("s", 3.0)]
    over = FlowSpec("f", "a", "b", ("s",), 1.0, 4.0, 0.0)
    under = FlowSpec("g", "a", "b", ("s",), 1.0, 2.0, 0.0)
    net = build_network(switches, [over, under])
    assert violation_probability(net, Allocation({"f": "s"}), "s") == 1.0
    assert violation_probability(net, Allocation({"g": "s"}), "s") == 0.0


def test_violation_probability_unknown_switch(toy_network):
    with pytest.raises(Exception):
        violation_probability(toy_network, Allocation({}), "S9")


def test_violation_probability_monotone_in_assignment():
    rng = np.random.default_rng(5)
    switches = [SwitchSpec("s", 40.0)]
    flows = [FlowSpec(f"f{i}", "a", "b", ("s",), 1.0,
                      float(rng.uniform(1, 10)), float(rng.uniform(0.1, 9)))
             for i in range(12)]
    net = build_network(switches, flows)
    assign = {}
    last = 0.0
    for f in flows:
        assign[f.id] = "s"
        now = violation_probability(net, Allocation(assign), "s")
        assert now >= last - 1e-12
        last = now


def test_violation_probability_matches_monte_carlo():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 12
        mus = rng.uniform(1, 10, n)
        sigmas = rng.uniform(0.2, 3, n)
        cap = mus.sum() + float(rng.uniform(0.0, 1.5)) * math.sqrt((sigmas ** 2).sum())
        net = build_network(
            [SwitchSpec("s", float(cap))],
            [FlowSpec(f"f{i}", "a", "b", ("s",), 1.0, float(mus[i]),
                      float(sigmas[i] ** 2)) for i in range(n)])
        alloc = Allocation({f"f{i}": "s" for i in range(n)})
        predicted = violation_probability(net, alloc, "s")
        draws = rng.normal(mus, sigmas, size=(100_000, n)).sum(axis=1)
        empirical = float((draws > cap).mean())
        assert predicted == pytest.approx(empirical, abs=0.01)


def test_estimator_constant_series():
    assert estimate_flow_stats([100.0, 100.0, 100.0], 3) == (100.0, 0.0)


def test_estimator_unbiased_variance():
    mean, var = estimate_flow_stats([90.0, 110.0], 2)
    assert mean == pytest.approx(100.0)
    assert var == pytest.approx(200.0)


def test_estimator_window_drops_old_samples():
    mean, var = estimate_flow_stats([50.0, 90.0, 110.0], 2)
    assert mean == pytest.approx(100.0)
    assert var == pytest.approx(200.0)


def test_estimator_single_sample_variance_zero():
    assert estimate_flow_stats([42.0], 5) == (42.0, 0.0)


def test_estimator_rejects_empty_and_bad_epochs():
    with pytest.raises(ValueError):
        estimate_flow_stats([], 3)
    with pytest.raises(ValueError, match="window"):
        estimate_flow_stats([1.0], 0)


@settings(max_examples=30, deadline=None)
@given(rates=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=12),
       window=st.integers(1, 12))
def test_estimator_agrees_with_numpy(rates, window):
    mean, var = estimate_flow_stats(rates, window)
    tail = np.asarray(rates[-window:])
    assert mean == pytest.approx(float(tail.mean()), rel=1e-9, abs=1e-9)
    expected_var = float(tail.var(ddof=1)) if len(tail) > 1 else 0.0
    assert var == pytest.approx(expected_var, rel=1e-9, abs=1e-6)
