"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import flowsamp.optimizer as fo  # noqa: E402
from checks import mismatches, oracle_problems, report_problems  # noqa: E402
from flowsamp.instances import model_driven_scenario  # noqa: E402
from flowsamp.model import Allocation, build_network  # noqa: E402
from flowsamp.optimizer import SolveResult, solve  # noqa: E402
from flowsamp.simulator import FlowEpochRecord  # noqa: E402
from harness import MIN_REPS, run_workload, tail  # noqa: E402
from oracle import milp_optimum  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)   # model-driven reads configs/model_driven.json


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_declared_metric(name, trace, out_dir):
    result, detail = run_workload(name, 0, 0, trace, size="smoke", out_dir=out_dir)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 1


def test_workload_names_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in BENCH["workloads"]]


def test_infeasible_allocation_is_a_failed_operation(out_dir, monkeypatch):
    def overload(network, config):
        # Every flow on the first switch of its path: far over capacity.
        alloc = Allocation({f.id: f.path[0] for f in network.flows})
        return SolveResult(alloc, len(alloc), True, 1, 0.0)

    monkeypatch.setattr(fo, "solve_apx", overload)
    result, detail = run_workload("solve-scale", 0, 0, False, size="smoke", out_dir=out_dir)
    assert not result["correct"]
    # Every repetition's surrogate solve fails the capacity check.
    assert result["failed"] >= 2
    assert any("capacity constraint violated" in p for p in detail["problems"])


def test_determinism_mismatch_is_a_failed_operation(out_dir, monkeypatch):
    workload = WORKLOADS["solve-scale"]
    calls = []

    def drifting_digest(results, reports, out_dir):
        calls.append(1)
        return f"digest-{len(calls)}", 0, 0.0

    monkeypatch.setattr(workload, "digest", drifting_digest)
    result, detail = run_workload("solve-scale", 0, 0, False, size="smoke", out_dir=out_dir)
    # Every repetition after the first differs from it.
    assert not result["correct"] and result["failed"] == MIN_REPS - 1
    assert any("differ from the first" in p for p in detail["problems"])


def test_check_helpers_count_problems():
    assert mismatches(["a", "a", "b", "c"]) == 2
    assert mismatches(["a"]) == 0
    bad = FlowEpochRecord(0, "f", "S", offered=5, sampled=7, forwarded=3, dropped=1)

    class Report:
        records = [bad]

    assert len(report_problems(Report())) == 2
    claimed = SolveResult(Allocation({}), 3, True, 1, 0.0)
    assert oracle_problems(claimed, 4) and oracle_problems(claimed, 2)
    assert not oracle_problems(dataclasses.replace(claimed, optimal=False), 4)


def test_tail_is_the_order_statistic_with_ten_samples_above():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("seed, searched, optimum", [(1, 53, 55), (2, 56, 59)])
def test_oracle_reproduces_known_model_driven_optima(seed, searched, optimum):
    """Epoch 0 of the model-driven preset: the node-limited search stops
    short of the HiGHS optimum by the margins recorded in ROADMAP.md."""
    bundle = model_driven_scenario(seed)
    queried = {q.flow_id for q in bundle.queries if q.start == 0.0}
    flows = [f for f in bundle.network.flows if f.id in queried]
    network = build_network(bundle.network.switches, flows)
    config = bundle.epoch.solver
    assert solve(network, config).objective == searched
    assert milp_optimum(network, config) == optimum
    assert milp_optimum(network, config, at_least=optimum + 1) is None
