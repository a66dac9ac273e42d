"""Domain model: switches, flows, sampling loads, and allocations.

Rates are packets per second throughout. A flow's sampling load is the
rate of sampled packets it sends toward the collector when sampled at its
target rate; scaling a random rate by the target rate scales the mean by
the same factor and the standard deviation likewise.

All types are immutable after construction and safe to share across
concurrent solver or simulator runs.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping


class ModelError(ValueError):
    """Raised when a network, flow, or allocation violates an invariant."""


def require_real(obj, *names: str) -> None:
    """Refuse a field of ``obj`` named in ``names`` that is a bool or not a
    real number, with a ValueError naming it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SwitchSpec:
    """A switch with a budget for forwarding sampled packets."""

    id: str
    capacity_pps: float

    def __post_init__(self):
        if not (math.isfinite(self.capacity_pps) and self.capacity_pps >= 0):
            raise ModelError(f"switch {self.id!r}: capacity_pps must be finite and >= 0")


@dataclass(frozen=True)
class FlowSpec:
    """A flow, its path, and declared first/second rate moments.

    ``target_rate`` is the fraction of the flow's packets that must be
    sampled; ``path`` is the ordered list of switch ids the flow traverses
    (routing is an input, never computed here).
    """

    id: str
    src: str
    dst: str
    path: tuple[str, ...]
    target_rate: float
    rate_mean_pps: float
    rate_var_pps2: float

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        if not self.path:
            raise ModelError(f"flow {self.id!r}: path is empty")
        if len(set(self.path)) != len(self.path):
            raise ModelError(f"flow {self.id!r}: repeated switch on path")
        if not 0.0 < self.target_rate <= 1.0:
            raise ModelError(f"flow {self.id!r}: target_rate must be in (0, 1]")
        for name in ("rate_mean_pps", "rate_var_pps2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ModelError(f"flow {self.id!r}: {name} must be finite and >= 0")


@dataclass(frozen=True)
class LoadStats:
    """Mean and standard deviation of a flow's sampling load (pps)."""

    mu: float
    sigma: float


def load_stats(flow: FlowSpec) -> LoadStats:
    """Sampling-load moments of a flow at its target rate."""
    return LoadStats(
        mu=flow.target_rate * flow.rate_mean_pps,
        sigma=flow.target_rate * math.sqrt(flow.rate_var_pps2),
    )


class Network:
    """Switches and flows, looked up by id. Construct through
    :func:`build_network`."""

    __slots__ = ("switches", "flows", "_switch_by_id", "_flow_by_id")

    def __init__(self, switches: tuple[SwitchSpec, ...], flows: tuple[FlowSpec, ...]):
        self.switches = switches
        self.flows = flows
        self._switch_by_id = {s.id: s for s in switches}
        self._flow_by_id = {f.id: f for f in flows}

    def switch(self, switch_id: str) -> SwitchSpec:
        try:
            return self._switch_by_id[switch_id]
        except KeyError:
            raise ModelError(f"unknown switch {switch_id!r}") from None

    def flow(self, flow_id: str) -> FlowSpec:
        try:
            return self._flow_by_id[flow_id]
        except KeyError:
            raise ModelError(f"unknown flow {flow_id!r}") from None

    def has_switch(self, switch_id: str) -> bool:
        return switch_id in self._switch_by_id

    def has_flow(self, flow_id: str) -> bool:
        return flow_id in self._flow_by_id


def build_network(switches: Iterable[SwitchSpec], flows: Iterable[FlowSpec]) -> Network:
    """Validate specs and build the network.

    Rejects duplicate switch or flow ids, paths that reference unknown
    switches, and (via FlowSpec) repeated switches on a path.
    """
    switches = tuple(switches)
    flows = tuple(flows)
    seen_s = set()
    for s in switches:
        if s.id in seen_s:
            raise ModelError(f"duplicate switch id {s.id!r}")
        seen_s.add(s.id)
    seen_f = set()
    for f in flows:
        if f.id in seen_f:
            raise ModelError(f"duplicate flow id {f.id!r}")
        seen_f.add(f.id)
        for sid in f.path:
            if sid not in seen_s:
                raise ModelError(f"flow {f.id!r}: path references unknown switch {sid!r}")
    return Network(switches, flows)


@dataclass(frozen=True)
class Allocation:
    """Partial assignment of flows to sampling switches.

    A flow maps to at most one switch (it appears at most once as a key);
    unassigned flows are simply absent.
    """

    assignment: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __len__(self) -> int:
        return len(self.assignment)


def validate_allocation(network: Network, alloc: Allocation) -> None:
    """Check every assigned flow exists and its switch lies on its path."""
    for fid, sid in alloc.assignment.items():
        flow = network.flow(fid)
        if not network.has_switch(sid):
            raise ModelError(f"allocation: unknown switch {sid!r}")
        if sid not in flow.path:
            raise ModelError(f"allocation: switch {sid!r} not on path of flow {fid!r}")


def write_json(doc, path: str) -> None:
    """Write ``doc`` in the layout of every JSON file the package writes:
    one-space indents, then a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path: str):
    """The JSON document at ``path``. Text that is not UTF-8 or not JSON
    raises ModelError naming the file (and the line of a JSON syntax
    error)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ModelError(f"{path}: byte {exc.object[exc.start]:#04x} at offset "
                             f"{exc.start} is not UTF-8") from None


def _parse_int(text: str) -> int:
    """A JSON integer literal. One too long for ``int`` to convert (over
    4,300 digits) is far beyond float range, so it reads as 10**400 of its
    sign and the field checks reject it by name."""
    try:
        return int(text)
    except ValueError:
        return -10 ** 400 if text.startswith("-") else 10 ** 400


# ---------------------------------------------------------------------------
# Network file format (documented in docs/formats.md, schemas/network.schema.json)
# ---------------------------------------------------------------------------

def load_network(path: str) -> Network:
    """Read a network from its JSON document.

    Raises ModelError naming the file and the offending field; JSON syntax
    errors carry the line number from the decoder.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: top-level document must be an object")
    for key, entries in doc.items():
        if key not in ("switches", "flows"):
            raise ModelError(f"{path}: unknown key {key!r}")
        if not isinstance(entries, list):
            raise ModelError(f"{path}: {key} must be an array")
    try:
        switches = [SwitchSpec(**_entry(entry, _SWITCH_FIELDS, f"switches[{i}]"))
                    for i, entry in enumerate(doc.get("switches", []))]
        flows = []
        for i, entry in enumerate(doc.get("flows", [])):
            fields = _entry(entry, _FLOW_FIELDS, f"flows[{i}]")
            for j, sid in enumerate(fields["path"]):
                if not isinstance(sid, str):
                    raise ModelError(f"flows[{i}].path[{j}]: expected a switch id string")
            flows.append(FlowSpec(**fields))
        return build_network(switches, flows)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


def save_network(network: Network, path: str) -> None:
    write_json({"switches": [{k: getattr(s, k) for k in _SWITCH_FIELDS}
                             for s in network.switches],
                "flows": [{k: getattr(f, k) for k in _FLOW_FIELDS} for f in network.flows]},
               path)


_NUMBER = (int, float)
# The fields of a switch and of a flow entry, with their JSON types
_SWITCH_FIELDS = {"id": str, "capacity_pps": _NUMBER}
_FLOW_FIELDS = {"id": str, "src": str, "dst": str, "path": list, "target_rate": _NUMBER,
                "rate_mean_pps": _NUMBER, "rate_var_pps2": _NUMBER}


def _entry(entry, fields: dict, where: str) -> dict:
    """The entry's fields, each checked against its JSON type; an unknown
    key, a missing field, an integer too large for a float and an id that
    the output files cannot carry are rejected, naming the field."""
    if not isinstance(entry, dict):
        raise ModelError(f"{where}: expected an object")
    for key in entry:
        if key not in fields:
            raise ModelError(f"{where}: unknown key {key!r}")
    values = {}
    for name, types in fields.items():
        if name not in entry:
            raise ModelError(f"{where}: missing field {name!r}")
        value = entry[name]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ModelError(f"{where}.{name}: wrong type")
        if types is _NUMBER and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ModelError(f"{where}.{name}: integer too large for a float")
        # the flow-epoch CSV has comma-separated lines, and an empty
        # assigned_switch there means "not admitted"
        if name == "id" and (not value or any(c in value for c in ",\r\n")):
            raise ModelError(f"{where}.id: empty, or holds a comma or line break: {value!r}")
        values[name] = value
    return values
