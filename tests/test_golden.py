"""Golden outputs: the files the main commands write, byte for byte.

A change that moves one of these digests changes what a run reports. Such a
change re-records the digest and says in CHANGES.md which file moved, from
what to what, and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from flowsamp import Allocation, Distribution, RateProcess, SolveResult, save_network
from flowsamp.cli import main
from flowsamp.instances import (abilene_graph, model_driven_scenario, sensitivity_scenario,
                                trace_driven_scenario, uniform_rate_network)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _config(tmp_path: Path, name: str, **overrides) -> str:
    """The checked-in config ``name`` with its output paths (and any other
    key) replaced, written next to the outputs."""
    doc = json.loads((CONFIGS / name).read_text())
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_golden_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "model-driven", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    assert main(["simulate", "--config",
                 _config(tmp_path, "epoch_sweep.json", out_dir=str(out))]) == 0
    assert main(["simulate", "--config",
                 _config(tmp_path, "distribution_sensitivity.json", out_dir=str(out))]) == 0
    # seeds 1-2 are the benchmark's inputs; criterion 7 runs 1-5
    compare = out / "model_driven_compare.json"
    assert main(["compare", "--config",
                 _config(tmp_path, "model_driven.json", seeds=[1, 2], out=str(compare))]) == 0
    assert "wall" not in compare.read_text()
    assert {p.name: _digest(p) for p in out.iterdir()} == {
        "flow_epochs_seed3.csv": "f7bd2c264044a7bc",
        "summary_seed3.json": "bc60cae9e624a43e",
        "epoch_sweep.csv": "21d6f9818c6c0b53",
        "distribution_sensitivity.csv": "d911d6a5406f16ea",
        "model_driven_compare.json": "1fbfe0a6912ee4b8",
    }


def test_network_file_bytes(tmp_path):
    # every preset's declared moments, as save_network writes them
    rng = np.random.default_rng(5)
    process = RateProcess(0.1, 137, {f"t{i}": rng.gamma(0.5, 400.0, 137) for i in range(30)})
    networks = {
        "model-driven": model_driven_scenario(1).network,
        "sensitivity": sensitivity_scenario(Distribution.GAMMA, 0).network,
        "trace-driven": trace_driven_scenario(process, 0, epoch_length=1.0).network,
        "uniform": uniform_rate_network(abilene_graph(), 20, 70.0, seed=2),
    }
    digests = {}
    for name, network in networks.items():
        path = tmp_path / f"{name}.json"
        save_network(network, str(path))
        digests[name] = _digest(path)
    assert digests == {
        "model-driven": "a3ec687cbbabe49d",
        "sensitivity": "094ea3bbddbfc64b",
        "trace-driven": "008b4c6a12e621be",
        "uniform": "2e9535eef1d34f12",
    }


def test_solve_result_file_bytes(tmp_path):
    result = SolveResult(Allocation({"SEA-NY": "SEA", "ATL-DC": "DC", "CHI-KC": "IND"}),
                         objective=3, optimal=False, nodes_explored=40, wall_time=0.125,
                         bound=5)
    path = tmp_path / "result.json"
    result.save(str(path))
    # the file holds no wall time: this is the earlier pin's file
    # (4c0396f80a59613e) without its "wall_time_s" line
    assert _digest(path) == "6fbe828970ff0097"
