"""Sampling-allocation solvers.

Every formulation maximizes the number of admitted flows subject to
"each flow sampled on at most one switch on its path" plus a per-switch
capacity constraint; they differ only in how a flow is charged:

  APX        mu + z(delta) * sigma        (linear surrogate of the cone)
  DS         mu                           (means only)
  DS2SIGMA   mu + 2 * sigma               (fixed two-sigma headroom)
  CSAMP_EPS  target_rate * (rate_mean + epsilon)   (worst-case inflation)
  EXACT      sum(mu) + z(delta) * sqrt(sum(sigma^2)) <= capacity per switch

The first four charge an additive per-flow weight, which makes the problem
a multiple knapsack with assignment restrictions; EXACT keeps the
second-order cone constraint and is solved by the same branch-and-bound
with a per-node cone feasibility check. Since the auxiliary pair variables
of the linearized integer program are functionally determined by the
assignment variables, searching assignments directly is equivalent to
solving that program.

All capacity checks allow a relative feasibility slack (default 1e-6, the
usual MIP convention) so instances specified at published, rounded
capacities behave as intended at the boundary.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum

from .model import Allocation, FlowSpec, LoadStats, Network, load_stats
from .stats import normal_quantile

FEAS_TOL = 1e-6
ENUMERATION_BUDGET = 10_000_000


class Formulation(str, Enum):
    APX = "apx"
    EXACT = "exact"
    DS = "ds"
    DS2SIGMA = "ds2sigma"
    CSAMP_EPS = "csamp"


@dataclass(frozen=True)
class SolverConfig:
    formulation: Formulation = Formulation.APX
    delta: float = 0.20
    epsilon_pps: float = 0.0
    time_limit: float = 600.0
    node_limit: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            # delta <= 0.5 keeps z(delta) >= 0; beyond that the capacity
            # constraint loses convexity and the squared form is invalid.
            raise ValueError(f"delta must be in (0, 0.5], got {self.delta}")
        # written so that NaN fails every check
        if not (math.isfinite(self.epsilon_pps) and self.epsilon_pps >= 0):
            raise ValueError(f"epsilon_pps must be a finite number >= 0, got {self.epsilon_pps}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if not self.node_limit >= 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")


@dataclass(frozen=True)
class SolveResult:
    allocation: Allocation
    objective: int
    optimal: bool
    nodes_explored: int
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "version": "solve-result/1",
            "objective": self.objective,
            "optimal": self.optimal,
            "nodes_explored": self.nodes_explored,
            "wall_time_s": self.wall_time,
            "assignment": dict(sorted(self.allocation.assignment.items())),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")


def load_solve_result(path: str) -> SolveResult:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != "solve-result/1":
        raise ValueError(f"{path}: unsupported result version {doc.get('version')!r}")
    alloc = Allocation(doc["assignment"])
    result = SolveResult(
        allocation=alloc,
        objective=int(doc["objective"]),
        optimal=bool(doc["optimal"]),
        nodes_explored=int(doc["nodes_explored"]),
        wall_time=float(doc["wall_time_s"]),
    )
    if result.objective != len(alloc):
        raise ValueError(f"{path}: objective does not match assignment size")
    return result


def effective_load(flow: FlowSpec, config: SolverConfig) -> float:
    """The additive per-flow capacity charge of a formulation (pps).

    Undefined for EXACT, whose per-switch charge is not additive.
    """
    stats = load_stats(flow)
    form = config.formulation
    if form == Formulation.APX:
        return stats.mu + normal_quantile(config.delta) * stats.sigma
    if form == Formulation.DS:
        return stats.mu
    if form == Formulation.DS2SIGMA:
        return stats.mu + 2.0 * stats.sigma
    if form == Formulation.CSAMP_EPS:
        return flow.target_rate * (flow.rate_mean_pps + config.epsilon_pps)
    raise ValueError(f"no additive load for formulation {form}")


def _slack(capacity: float, tol: float = FEAS_TOL) -> float:
    return tol * max(1.0, capacity)


def socp_feasible(network: Network, alloc: Allocation, delta: float,
                  tol: float = FEAS_TOL) -> bool:
    """True iff every switch satisfies
    sum(mu) + z(delta) * sqrt(sum(sigma^2)) <= capacity (within slack)."""
    z = normal_quantile(delta)
    mu_sum: dict[str, float] = {}
    var_sum: dict[str, float] = {}
    for fid, sid in alloc.assignment.items():
        stats = load_stats(network.flow(fid))
        mu_sum[sid] = mu_sum.get(sid, 0.0) + stats.mu
        var_sum[sid] = var_sum.get(sid, 0.0) + stats.sigma ** 2
    for sid, mu in mu_sum.items():
        cap = network.switch(sid).capacity_pps
        if mu + z * math.sqrt(var_sum[sid]) > cap + _slack(cap, tol):
            return False
    return True


def additive_feasible(network: Network, alloc: Allocation, config: SolverConfig,
                      tol: float = FEAS_TOL) -> bool:
    """True iff every switch's summed effective loads fit its capacity."""
    used: dict[str, float] = {}
    for fid, sid in alloc.assignment.items():
        used[sid] = used.get(sid, 0.0) + effective_load(network.flow(fid), config)
    return all(
        w <= network.switch(sid).capacity_pps + _slack(network.switch(sid).capacity_pps, tol)
        for sid, w in used.items()
    )


def min_required_capacity(flows: list[LoadStats], delta: float) -> float:
    """Smallest single-switch capacity that samples all given loads while
    keeping the violation probability at delta (normal approximation)."""
    if not flows:
        raise ValueError("flows must be non-empty")
    mu = sum(s.mu for s in flows)
    var = sum(s.sigma ** 2 for s in flows)
    return mu + normal_quantile(delta) * math.sqrt(var)


def squared_form_feasible(network: Network, alloc: Allocation, delta: float,
                          tol: float = FEAS_TOL) -> bool:
    """Feasibility of the linearized program at a given assignment.

    The pair variables are derived from the assignment (their defining
    inequalities force w = x_a * x_b), so this checks, per switch, the
    non-negative mean headroom condition and the squared capacity
    condition. Equivalent to :func:`socp_feasible` for delta <= 0.5.
    """
    z = normal_quantile(delta)
    by_switch: dict[str, list[LoadStats]] = {}
    for fid, sid in alloc.assignment.items():
        by_switch.setdefault(sid, []).append(load_stats(network.flow(fid)))
    for sid, members in by_switch.items():
        cap = network.switch(sid).capacity_pps
        mu_sum = sum(m.mu for m in members)
        if cap - mu_sum < -_slack(cap, tol):
            return False
        var_sum = sum(m.sigma ** 2 for m in members)
        sq_sum = sum(m.mu ** 2 for m in members)
        pair_sum = 0.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair_sum += members[i].mu * members[j].mu
        lhs = z * z * var_sum
        rhs = cap * cap - 2.0 * cap * mu_sum + sq_sum + 2.0 * pair_sum
        if lhs > rhs + tol * max(1.0, cap * cap):
            return False
    return True


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

class _Instance:
    """Search-ready arrays for one solve. Every flow is charged g + z*sqrt(var)
    against a switch's capacity, summed per switch as sum(g) + z*sqrt(sum(var)):
    EXACT flows have g = mu and var = sigma^2, additive formulations their
    effective load and var = 0. Flows are ordered by ascending g (flow id
    breaking ties), with per-switch membership in that order and prefix sums
    of g for the fractional-relaxation bounds; g is a floor on what a flow
    adds to any switch's load. Every number is a plain float, so the search
    does no numpy-scalar arithmetic (the values are the same either way).

    The search keeps, per switch s, first[s] (how many of its members sit at
    positions below the depth being bounded) and a cached term: how many of
    the remaining members fit in the residual capacity, cheapest first. The
    term is valid for (first[s], used_g[s]) and is refreshed whenever either
    changes: at an apply or a release on s, and when the bounded depth moves
    across a flow whose path contains s. The depth moves only when a prune
    decision gets past its first test (see _bb_solve), so it may lag the
    search; the terms stay valid because every refresh reads the current
    first[s] and used_g[s]."""

    def __init__(self, network: Network, config: SolverConfig):
        self.z = float(normal_quantile(config.delta))
        flows = network.flows
        n = len(flows)
        if config.formulation == Formulation.EXACT:
            loads = [load_stats(f) for f in flows]
            g = [s.mu for s in loads]
            var = [s.sigma ** 2 for s in loads]
        else:
            g = [effective_load(f, config) for f in flows]
            var = [0.0] * n
        order = sorted(range(n), key=lambda i: (g[i], flows[i].id))
        self.flow_ids = [flows[i].id for i in order]
        self.g = [float(g[i]) for i in order]
        self.var = [float(var[i]) for i in order]
        self.prefix = [0.0] * (n + 1)
        for k in range(n):
            self.prefix[k + 1] = self.prefix[k] + self.g[k]

        switches = network.switches
        self.switch_ids = [s.id for s in switches]
        self.capacity = [float(s.capacity_pps) for s in switches]
        self.slack = [_slack(c) for c in self.capacity]
        self.slack_total = sum(self.slack)
        sidx = {s.id: k for k, s in enumerate(switches)}
        self.on_path = [[sidx[sid] for sid in flows[i].path] for i in order]
        # Per-switch prefix sums of g over the switch's members in search
        # order; g is ascending in that order, so they give "k cheapest
        # remaining on this switch".
        self.member_prefix = [[0.0] for _ in switches]
        for pos in range(n):
            for s in self.on_path[pos]:
                acc = self.member_prefix[s]
                acc.append(acc[-1] + self.g[pos])
        self.n = n


def _bb_solve(network: Network, config: SolverConfig) -> SolveResult:
    """Depth-first branch and bound over the flows in _Instance order: each
    flow goes to one of the switches on its path that still fit it, least
    utilized first, or is left unsampled last.

    A child at depth d is pruned unless the flows at positions >= d may
    still admit more than need = best_obj - admitted. Three upper bounds on
    that count are tested, cheapest first, and the first that is <= need
    prunes: (1) rem = n - d, before any bookkeeping moves; (2) total, the
    sum of the cached per-switch terms, once first[] is moved to d; (3)
    pooled, how many of the cheapest remaining flows fit in the residual
    capacity summed over all switches plus slack, an O(switches) sum. This
    is the same decision as admitted + min(rem, max(0, pooled), total) >
    best_obj: every term is >= 0 and need >= 0 at the test (the incumbent
    is updated right after an apply), so a pooled <= 0 prunes either way.
    The search thus visits the same nodes in the same order whatever the
    test order."""
    t0 = time.perf_counter()
    inst = _Instance(network, config)
    n = inst.n
    n_switch = len(inst.capacity)
    z = inst.z
    used_g = [0.0] * n_switch
    used_var = [0.0] * n_switch
    choice = [-1] * n
    best_obj = 0
    best_choice = list(choice)           # empty allocation is always feasible
    admitted = 0
    nodes = 0
    limit_hit = False

    g, var, sqrt = inst.g, inst.var, math.sqrt
    capacity, slack, on_path = inst.capacity, inst.slack, inst.on_path
    member_prefix, prefix = inst.member_prefix, inst.prefix
    limit = [c + sl for c, sl in zip(capacity, slack)]

    # Per-switch bound terms, see _Instance; `at` is the depth first[]
    # describes and `total` the sum of the terms.
    n_members = [len(acc) - 1 for acc in member_prefix]
    first = [0] * n_switch
    term = [0] * n_switch
    at = 0
    total = 0

    def refresh(s: int) -> None:
        nonlocal total
        j = first[s]
        resid = capacity[s] - used_g[s]
        if j >= n_members[s] or resid < 0:
            t = 0
        else:
            acc = member_prefix[s]
            t = bisect_right(acc, acc[j] + resid + slack[s], j) - 1 - j
        total += t - term[s]
        term[s] = t

    for s in range(n_switch):
        refresh(s)

    def fits(pos: int, s: int) -> bool:
        return used_g[s] + g[pos] + z * sqrt(used_var[s] + var[pos]) <= limit[s]

    def apply(pos: int, s: int) -> None:
        nonlocal admitted
        used_g[s] += g[pos]
        used_var[s] += var[pos]
        choice[pos] = s
        admitted += 1
        refresh(s)

    def release(pos: int, s: int) -> None:
        nonlocal admitted
        used_g[s] -= g[pos]
        used_var[s] -= var[pos]
        if used_var[s] < 0:
            used_var[s] = 0.0
        choice[pos] = -1
        admitted -= 1
        refresh(s)

    def children(depth: int) -> list[int]:
        cands = []
        for s in on_path[depth]:
            if fits(depth, s):
                cap = capacity[s]
                used = used_g[s] + z * sqrt(used_var[s])
                util = used / cap if cap > 0 else 1.0
                cands.append((util, inst.switch_ids[s], s))
        cands.sort()
        out = [s for _, _, s in cands]
        out.append(-1)  # leave the flow unsampled
        return out

    def beats(depth: int, need: int) -> bool:
        """Stages 2 and 3 of the prune (see _bb_solve): whether the flows at
        positions >= depth may still admit more than `need` flows."""
        nonlocal at
        while at < depth:
            for s in on_path[at]:
                first[s] += 1
                refresh(s)
            at += 1
        while at > depth:
            at -= 1
            for s in on_path[at]:
                first[s] -= 1
                refresh(s)
        if total <= need:
            return False
        pool = 0.0
        for c, u in zip(capacity, used_g):
            r = c - u
            if r > 0:
                pool += r
        # Account for the per-switch feasibility slack so the relaxation
        # stays an upper bound for assignments admitted at the boundary.
        target = prefix[depth] + pool + inst.slack_total + 1e-9 * (1.0 + pool)
        return bisect_right(prefix, target, depth, n + 1) - 1 - depth > need

    # Frames: [children, next index, switch applied on the edge into the
    # frame (-2 for the root, -1 for a skip edge)].
    stack = [[children(0), 0, -2]] if n else []
    deadline = t0 + config.time_limit
    while stack:
        frame = stack[-1]
        kids, idx, _ = frame
        depth = len(stack) - 1
        if idx >= len(kids):
            stack.pop()
            if frame[2] >= 0:
                release(len(stack) - 1, frame[2])
            continue
        frame[1] += 1
        s = kids[idx]
        nodes += 1
        if nodes >= config.node_limit or (nodes % 512 == 0 and time.perf_counter() > deadline):
            limit_hit = True
            break
        applied = s >= 0
        if applied:
            apply(depth, s)
            if admitted > best_obj:
                best_obj = admitted
                best_choice = list(choice)
        nd = depth + 1
        need = best_obj - admitted       # a subtree must admit more than this
        if nd < n and n - nd > need and beats(nd, need):
            stack.append([children(nd), 0, s if applied else -1])
        elif applied:
            release(depth, s)

    assignment = {
        inst.flow_ids[pos]: inst.switch_ids[s]
        for pos, s in enumerate(best_choice) if s >= 0
    }
    return SolveResult(
        allocation=Allocation(assignment),
        objective=len(assignment),
        optimal=not limit_hit,
        nodes_explored=nodes,
        wall_time=time.perf_counter() - t0,
    )


def solve_apx(network: Network, config: SolverConfig) -> SolveResult:
    """Solve any of the additive-weight formulations to optimality by
    branch and bound (greedy-first depth-first search; the incumbent at a
    node or time limit is returned with ``optimal=False``)."""
    if config.formulation == Formulation.EXACT:
        raise ValueError("use solve_exact for the cone formulation")
    return _bb_solve(network, config)


def solve_exact(network: Network, config: SolverConfig) -> SolveResult:
    """Solve the cone-constrained formulation by branch and bound with a
    per-node cone feasibility check."""
    return _bb_solve(network, replace(config, formulation=Formulation.EXACT))


def solve(network: Network, config: SolverConfig) -> SolveResult:
    """Dispatch on the configured formulation."""
    if config.formulation == Formulation.EXACT:
        return solve_exact(network, config)
    return solve_apx(network, config)


def brute_force_optimal(network: Network, config: SolverConfig) -> SolveResult:
    """Enumerate every assignment (each flow: one on-path switch or none)
    and return a maximum-cardinality feasible one.

    Flows are scanned in declaration order and each flow's choices in the
    order (unassigned, switches ascending by id); the first assignment
    attaining the maximum in that enumeration order is returned, which
    makes ties deterministic. Intended as a testing oracle for small
    instances; refuses instances beyond the enumeration budget.
    """
    t0 = time.perf_counter()
    flows = network.flows
    n = len(flows)
    total = 1
    for f in flows:
        total *= len(f.path) + 1
        if total > ENUMERATION_BUDGET:
            raise ValueError("instance too large for exhaustive enumeration")
    exact = config.formulation == Formulation.EXACT
    z = normal_quantile(config.delta)
    loads = [load_stats(f) for f in flows]
    weights = None if exact else [effective_load(f, config) for f in flows]
    switches = {s.id: i for i, s in enumerate(network.switches)}
    caps = [s.capacity_pps for s in network.switches]
    slacks = [_slack(c) for c in caps]
    options = [[None] + sorted(f.path) for f in flows]
    used_mu = [0.0] * len(caps)
    used_var = [0.0] * len(caps)

    best_obj = -1
    best_assign: dict[str, str] = {}
    current: dict[str, str] = {}
    nodes = 0

    def feasible_add(i: int, s: int) -> bool:
        if exact:
            return (used_mu[s] + loads[i].mu
                    + z * math.sqrt(used_var[s] + loads[i].sigma ** 2)) <= caps[s] + slacks[s]
        return used_mu[s] + weights[i] <= caps[s] + slacks[s]

    def recurse(i: int, count: int):
        nonlocal best_obj, best_assign, nodes
        nodes += 1
        if i == n:
            if count > best_obj:
                best_obj = count
                best_assign = dict(current)
            return
        for opt in options[i]:
            if opt is None:
                recurse(i + 1, count)
                continue
            s = switches[opt]
            if not feasible_add(i, s):
                continue
            charge = loads[i].mu if exact else weights[i]
            used_mu[s] += charge
            if exact:
                used_var[s] += loads[i].sigma ** 2
            current[flows[i].id] = opt
            recurse(i + 1, count + 1)
            del current[flows[i].id]
            used_mu[s] -= charge
            if exact:
                used_var[s] -= loads[i].sigma ** 2

    if n == 0:
        best_obj, best_assign = 0, {}
    else:
        recurse(0, 0)
    return SolveResult(
        allocation=Allocation(best_assign),
        objective=best_obj,
        optimal=True,
        nodes_explored=nodes,
        wall_time=time.perf_counter() - t0,
    )
