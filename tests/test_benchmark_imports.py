"""The benchmark under perfbench/ runs outside this suite and reaches flowsamp
through module attributes and imports; these tests fail here when a rename
in flowsamp would break it."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_benchmark_targets_resolve(perfbench):
    workloads = perfbench("workloads")
    targets = workloads.common_targets() + [
        t for w in workloads.WORKLOADS.values() for t in w.solve_targets]
    assert len(targets) > len(workloads.WORKLOADS)
    missing = [f"{t.module.__name__}.{t.attr}" for t in targets
               if getattr(t.module, t.attr, None) is None]
    assert not missing


@pytest.mark.parametrize("module", ["checks", "oracle", "harness"])
def test_benchmark_modules_import(perfbench, module):
    perfbench(module)


def test_uniform_model_matches_replay_wide(perfbench):
    # replay-wide draws the traffic that uniform_rate_network declares
    from flowsamp.instances import UNIFORM_MIXTURE
    assert perfbench("workloads").ReplayWide.mixture == UNIFORM_MIXTURE
