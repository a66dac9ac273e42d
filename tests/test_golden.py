"""Golden outputs: the files the main commands write, byte for byte.

A change that moves one of these digests changes what a run reports. Such a
change re-records the digest and says in CHANGES.md which file moved, from
what to what, and why.
"""

import hashlib
import json
from pathlib import Path

from flowsamp.cli import main

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
