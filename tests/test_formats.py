"""Written artifacts must validate against the schemas shipped in schemas/."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from flowsamp import (EpochConfig, EstimatorMode, Formulation, FlowSpec, RateProcess,
                      SamplingQuery, SolverConfig, SwitchSpec, build_network,
                      run_simulation, save_network, solve_apx, write_summary_json)
from flowsamp.instances import two_switch_toy

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def test_network_file_validates(tmp_path):
    path = tmp_path / "net.json"
    save_network(two_switch_toy(), str(path))
    jsonschema.validate(json.loads(path.read_text()), _schema("network.schema.json"))


def test_solve_result_validates(tmp_path):
    result = solve_apx(two_switch_toy(), SolverConfig(Formulation.APX, delta=0.08))
    path = tmp_path / "res.json"
    result.save(str(path))
    jsonschema.validate(json.loads(path.read_text()),
                        _schema("solve_result.schema.json"))


def test_sim_summary_validates(tmp_path):
    net = build_network(
        [SwitchSpec("s", 100.0)],
        [FlowSpec(f"f{i}", "a", "b", ("s",), 0.5, 50.0, 25.0) for i in range(3)])
    process = RateProcess(0.1, 20, {f"f{i}": np.full(20, 50.0) for i in range(3)})
    queries = [SamplingQuery(f"f{i}", 0.0, 2.0, 0.5) for i in range(3)]
    config = EpochConfig(epoch_length=1.0, estimator_mode=EstimatorMode.DECLARED)
    report = run_simulation(net, queries, process, config, 0)
    path = tmp_path / "summary.json"
    write_summary_json(report, str(path))
    jsonschema.validate(json.loads(path.read_text()),
                        _schema("sim_summary.schema.json"))


def test_bad_network_rejected_by_schema():
    doc = {"switches": [{"id": "s", "capacity_pps": -1.0}], "flows": []}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, _schema("network.schema.json"))


@pytest.mark.parametrize("bad_id", ["", "a,b", "a\nb", "a\n", "a\r"])
@pytest.mark.parametrize("kind", ["switches", "flows"])
def test_schema_rejects_ids_the_outputs_cannot_carry(kind, bad_id):
    doc = {"switches": [{"id": "s", "capacity_pps": 1.0}],
           "flows": [{"id": "f", "src": "a", "dst": "b", "path": ["s"], "target_rate": 0.5,
                      "rate_mean_pps": 1.0, "rate_var_pps2": 0.0}]}
    jsonschema.validate(doc, _schema("network.schema.json"))
    doc[kind][0]["id"] = bad_id
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, _schema("network.schema.json"))
