"""Correctness checks on what the program computed, and the oracle cache.

Each check returns a list of problems; the harness counts an operation
as failed when its list is not empty.
"""

from __future__ import annotations

import hashlib
import json
import os

from flowsamp.model import ModelError, validate_allocation
from flowsamp.optimizer import Formulation, additive_feasible, effective_load, socp_feasible


def solve_problems(network, config, result) -> list[str]:
    """A solve must return a valid, capacity-feasible allocation whose
    objective is its size."""
    alloc = result.allocation
    try:
        validate_allocation(network, alloc)
    except ModelError as exc:
        return [f"invalid allocation: {exc}"]
    problems = []
    if result.objective != len(alloc.assignment):
        problems.append(f"objective {result.objective} != {len(alloc.assignment)} assigned")
    if config.formulation == Formulation.EXACT:
        feasible = socp_feasible(network, alloc, config.delta)
    else:
        feasible = additive_feasible(network, alloc, config)
    if not feasible:
        problems.append(f"{config.formulation.value} capacity constraint violated")
    return problems


def oracle_problems(result, optimum: int) -> list[str]:
    """The search may not beat a proven optimum, and may claim optimality
    only when it reaches it."""
    if result.objective > optimum:
        return [f"objective {result.objective} above the proven optimum {optimum}"]
    if result.optimal and result.objective != optimum:
        return [f"claims optimal at {result.objective}, optimum is {optimum}"]
    return []


def report_problems(report) -> list[str]:
    """Per record: offered >= sampled >= forwarded >= 0 and
    dropped == sampled - forwarded."""
    problems = []
    for r in report.records:
        if not r.offered >= r.sampled >= r.forwarded >= 0:
            problems.append(f"epoch {r.epoch} flow {r.flow_id}: counts out of order")
        if r.dropped != r.sampled - r.forwarded:
            problems.append(f"epoch {r.epoch} flow {r.flow_id}: dropped != sampled - forwarded")
    return problems


def mismatches(values: list) -> int:
    """How many entries differ from the first."""
    return sum(1 for v in values[1:] if v != values[0])


def instance_key(network, config) -> str:
    """Identifies an additive instance by what the optimum depends on."""
    doc = {
        "flows": sorted((f.id, list(f.path), repr(effective_load(f, config)))
                        for f in network.flows),
        "switches": sorted((s.id, repr(s.capacity_pps)) for s in network.switches),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:32]


class OracleCache:
    """HiGHS optima by instance. Optima found at run time are kept in a JSON
    file, so an instance is solved once per checkout rather than once per
    invocation; ``known`` is a read-only file of optima computed the same
    way for the workloads' seeds 0..20, so that first runs are quick too."""

    def __init__(self, path: str, known: str | None = None):
        self.path = path
        self.optima: dict[str, int] = {}
        self.computed = 0
        for source in (known, path):
            if source and os.path.exists(source):
                with open(source) as fh:
                    self.optima.update(json.load(fh))

    def optimum(self, network, config, feasible: int | None = None) -> int:
        """The proven optimum; ``feasible`` is the size of an allocation
        already checked feasible, so HiGHS only has to look above it."""
        key = instance_key(network, config)
        if key not in self.optima:
            from oracle import milp_optimum   # scipy loads only when needed
            if feasible is None:
                self.optima[key] = milp_optimum(network, config)
            else:
                better = milp_optimum(network, config, at_least=feasible + 1)
                self.optima[key] = feasible if better is None else better
            self.computed += 1
        return self.optima[key]

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.optima, fh, sort_keys=True)
        os.replace(tmp, self.path)
