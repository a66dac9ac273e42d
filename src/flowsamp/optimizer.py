"""Sampling-allocation solvers.

Every formulation maximizes the number of admitted flows subject to
"each flow sampled on at most one switch on its path" plus a per-switch
capacity constraint; they differ only in how a flow is charged:

  APX        mu + z(delta) * sigma        (linear surrogate of the cone)
  DS         mu                           (means only)
  DS2SIGMA   mu + 2 * sigma               (fixed two-sigma headroom)
  CSAMP_EPS  target_rate * (rate_mean + epsilon)   (worst-case inflation)
  EXACT      sum(mu) + z(delta) * sqrt(sum(sigma^2)) <= capacity per switch

All five are the one per-switch inequality
sum(g) + z(delta) * sqrt(sum(var)) <= capacity over the charges
(g, var) = flow_charge(flow, config): the first four charge an additive
per-flow weight with var = 0, which makes the problem a multiple knapsack
with assignment restrictions; EXACT charges (mu, sigma^2) and keeps the
second-order cone. One branch and bound and one feasibility check
(:func:`feasible`) serve all five. Since the auxiliary pair variables
of the linearized integer program are functionally determined by the
assignment variables, searching assignments directly is equivalent to
solving that program.

All capacity checks allow a slack of FEAS_TOL * max(1, capacity) (FEAS_TOL
is 1e-6, the usual MIP convention) so instances specified at published,
rounded capacities behave as intended at the boundary. A switch's limit is
its capacity plus that slack: the search admits flows up to it, and its
bounds count the room below it, the same room the fit test fills.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .model import (Allocation, FlowSpec, LoadStats, Network, load_stats, read_json,
                    write_json)
from .stats import normal_quantile

if TYPE_CHECKING:   # imported only when a compare may start workers
    from concurrent.futures import Executor, Future

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
    bound: int | None = None     # no assignment admits more flows; None if unknown

    def to_json_dict(self) -> dict:
        return {
            "version": "solve-result/1",
            "objective": self.objective,
            "optimal": self.optimal,
            "nodes_explored": self.nodes_explored,
            "bound": self.bound,
            "assignment": dict(sorted(self.allocation.assignment.items())),
        }

    def save(self, path: str) -> None:
        write_json(self.to_json_dict(), path)


# The JSON types of a solve-result file's keys. The file holds no wall time,
# so that reruns write identical bytes; an older file's wall_time_s is read.
_RESULT_TYPES = {"objective": (int,), "optimal": (bool,), "nodes_explored": (int,),
                 "bound": (int, type(None)), "wall_time_s": (int, float),
                 "assignment": (dict,)}


def load_solve_result(path: str) -> SolveResult:
    """Read a solve result; a missing or wrongly typed key raises ValueError
    naming it. An absent ``bound`` reads as unknown (None), an absent
    ``wall_time_s`` as NaN."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != "solve-result/1":
        raise ValueError(f"{path}: not a solve-result/1 document")
    doc = {"bound": None, "wall_time_s": math.nan, **doc}
    for key, kinds in _RESULT_TYPES.items():
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
        if not isinstance(doc[key], kinds) or isinstance(doc[key], bool) != (bool in kinds):
            raise ValueError(f"{path}: {key} has the wrong type: {doc[key]!r}")
    if not all(isinstance(sid, str) for sid in doc["assignment"].values()):
        raise ValueError(f"{path}: assignment must map flow ids to switch ids")
    alloc = Allocation(doc["assignment"])
    result = SolveResult(alloc, doc["objective"], doc["optimal"], doc["nodes_explored"],
                         doc["wall_time_s"], doc["bound"])
    if result.objective != len(alloc):
        raise ValueError(f"{path}: objective does not match assignment size")
    if result.bound is not None and result.bound < result.objective:
        raise ValueError(f"{path}: bound is below the objective")
    return result


def effective_load(flow: FlowSpec, config: SolverConfig) -> float:
    """The additive per-flow capacity charge of a formulation (pps).

    Undefined for EXACT, whose per-switch charge is not additive.
    """
    if config.formulation == Formulation.EXACT:
        raise ValueError(f"no additive load for formulation {config.formulation}")
    return flow_charge(flow, config)[0]


def flow_charge(flow: FlowSpec, config: SolverConfig) -> tuple[float, float]:
    """(g, var): what a flow adds to the per-switch charge
    sum(g) + z(delta) * sqrt(sum(var)). EXACT charges the load moments
    (mu, sigma^2), every additive formulation its effective load and no
    variance. The one definition of the charge, kept in :func:`_charges`:
    the search, the brute-force oracle and the feasibility checks all read
    it."""
    return _charges([flow], config)[0]


def _charges(flows: list[FlowSpec], config: SolverConfig) -> list[tuple[float, float]]:
    """:func:`flow_charge` of each of ``flows``, with z(delta) computed once
    for the list rather than once per flow."""
    form = config.formulation
    if form == Formulation.CSAMP_EPS:
        return [(f.target_rate * (f.rate_mean_pps + config.epsilon_pps), 0.0) for f in flows]
    moments = [load_stats(f) for f in flows]
    if form == Formulation.EXACT:
        return [(m.mu, m.sigma ** 2) for m in moments]
    if form == Formulation.DS:
        return [(m.mu, 0.0) for m in moments]
    if form not in (Formulation.APX, Formulation.DS2SIGMA):
        raise ValueError(f"no charge for formulation {form}")
    k = 2.0 if form == Formulation.DS2SIGMA else normal_quantile(config.delta)
    return [(m.mu + k * m.sigma, 0.0) for m in moments]


def _slack(capacity: float) -> float:
    return FEAS_TOL * max(1.0, capacity)


def feasible(network: Network, alloc: Allocation, config: SolverConfig) -> bool:
    """True iff every switch satisfies
    sum(g) + z(delta) * sqrt(sum(var)) <= capacity (within slack), each
    assigned flow charged (g, var) = flow_charge(flow, config).

    Each switch's charges are summed in the search's order, ascending g
    with flow id breaking ties, so that a load on a switch's limit rounds
    as it does in the search."""
    z = normal_quantile(config.delta)
    flows = [network.flow(fid) for fid in alloc.assignment]
    charges = dict(zip(alloc.assignment, _charges(flows, config)))
    used: dict[str, tuple[float, float]] = {}
    for fid in sorted(charges, key=lambda fid: (charges[fid][0], fid)):
        sid = alloc.assignment[fid]
        g, var = charges[fid]
        g_sum, var_sum = used.get(sid, (0.0, 0.0))
        used[sid] = (g_sum + g, var_sum + var)
    for sid, (g_sum, var_sum) in used.items():
        cap = network.switch(sid).capacity_pps
        if g_sum + z * math.sqrt(var_sum) > cap + _slack(cap):
            return False
    return True


def socp_feasible(network: Network, alloc: Allocation, delta: float) -> bool:
    """:func:`feasible` under the cone formulation at ``delta``."""
    return feasible(network, alloc, SolverConfig(Formulation.EXACT, delta=delta))


def additive_feasible(network: Network, alloc: Allocation, config: SolverConfig) -> bool:
    """:func:`feasible` under an additive formulation; EXACT is refused."""
    if config.formulation == Formulation.EXACT:
        raise ValueError("additive_feasible needs an additive formulation; use socp_feasible")
    return feasible(network, alloc, config)


def min_required_capacity(flows: list[LoadStats], delta: float) -> float:
    """Smallest single-switch capacity that samples all given loads while
    keeping the violation probability at delta (normal approximation)."""
    if not flows:
        raise ValueError("flows must be non-empty")
    mu = sum(s.mu for s in flows)
    var = sum(s.sigma ** 2 for s in flows)
    return mu + normal_quantile(delta) * math.sqrt(var)


def squared_form_feasible(network: Network, alloc: Allocation, delta: float) -> bool:
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
        if cap - mu_sum < -_slack(cap):
            return False
        var_sum = sum(m.sigma ** 2 for m in members)
        sq_sum = sum(m.mu ** 2 for m in members)
        pair_sum = 0.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair_sum += members[i].mu * members[j].mu
        lhs = z * z * var_sum
        rhs = cap * cap - 2.0 * cap * mu_sum + sq_sum + 2.0 * pair_sum
        if lhs > rhs + FEAS_TOL * max(1.0, cap * cap):
            return False
    return True


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def _bb_solve(network: Network, config: SolverConfig) -> SolveResult:
    """Depth-first branch and bound: each flow goes to one of the switches
    on its path that still fit it, least utilized first (ties in switch id
    order), or is left unsampled last.

    Every flow is charged (g, var) = flow_charge(flow, config) against a
    switch's capacity, summed per switch as sum(g) + z*sqrt(sum(var)).
    Flows are searched in ascending g (flow id breaking ties); per-switch
    membership is kept in that order, with prefix sums of g for the
    fractional-relaxation bounds, g being a floor on what a flow adds to
    any switch's load. Every number is a plain float, so the search does no
    numpy-scalar arithmetic (the values are the same either way).

    A child at depth d decides the flow at position d - 1 and is pruned
    unless the flows at positions >= d may still admit more than need =
    best_obj - admitted', admitted' counting the flows applied down to the
    child. Three upper bounds on that count are tested, cheapest first, and
    the first that is <= need prunes: (1) rem = n - d; (2) total, the sum of
    the per-switch terms with first[] at d; (3) pooled, how many of the
    cheapest remaining flows fit in the room summed over all switches. This
    is the same decision as admitted' + min(rem, max(0, pooled), total) >
    best_obj: every term is >= 0 and need >= 0 at the test (the incumbent
    is updated first), so a pooled <= 0 prunes either way.

    Both (2) and (3) read one per-switch quantity, the room limit[s] -
    used_g[s], where limit[s] is the capacity plus slack that the fit test
    admits flows up to: the flows still to come on s have g summing to at
    most the room. The per-switch terms: the search keeps, per switch s,
    first[s] (how many of its members sit at positions below the depth
    being bounded) and term[s] = fit_count(s, used_g[s]), how many of the
    remaining members fit in the room, cheapest first; 0 only if none
    remain or the room is negative. A frame at depth d bounds its children
    with first[] at d + 1: its first visit moves first[] across the flow
    at d, recomputing the terms of the switches on that flow's path.

    pooled > need is read from a running pool: each frame holds the room
    of its state summed over all switches, sum(max(0, limit - used_g)), and
    a child's is its frame's with one switch's room changed. The pool is
    within `margin` of the room summed afresh (see the comment there) and
    the count only grows with the pool, so the test counts at the pool
    plus margin. It may keep a child that the fresh sum would prune, never
    the reverse.

    A child that applies the flow to switch s is tested before it is
    applied. Without it the terms give total_0, and since a term only falls
    as used_g[s] grows, total_0 <= need already prunes; otherwise total is
    total_0 with s's term recomputed aside at used_g[s] + g (one bisect).
    Only a child that passes all three is applied and pushed; a pruned child
    leaves the state untouched. rem and total_0 do not depend on s, and the
    skip child must admit one more than an applied sibling, so if they
    prune one applied child that is not a new incumbent, they prune every
    child left in its frame. Those children are counted as nodes in one
    step and the frame is popped; on a frame's first visit this happens
    before its children are built and sorted, by counting the switches that
    fit. A node limit inside such a step stops at exactly node_limit nodes.
    The deadline is read whenever the count crosses a multiple of 512; a
    stop then reports the last multiple crossed, where the count one child
    at a time would have stopped. The search thus visits the same nodes in
    the same order as one that applies, bounds and releases every child.

    Backtracking restores the state from an undo trail, with no arithmetic.
    A frame's first visit (the move of first[]) and every apply push
    (s, first[s], term[s], used_g[s], used_var[s]) before they change s;
    an apply also appends (position, s) to `applied`, the path's only
    record of its choices. A return to a frame pops the trail to the
    height its first visit left, writing each entry back, takes total and
    admitted from the frame and cuts `applied` to admitted entries.
    used_g[s] and used_var[s] are thus always the charges of the flows
    applied on the path, added in path order, and every term equals what
    computing it afresh would give. A new incumbent is `applied` plus the
    child that beats the old one. The skip child, every frame's last,
    takes its frame's place, and a frame whose last child is pruned is
    dropped at once, so no loop pass is spent on a finished frame.

    Each test has one definition, a local function: the fit test
    `fitting`, the per-switch term `fit_count` and the pooled test
    `pool_admits`. A frame's first visit, the loop's hottest step, writes
    the first two in place, in one pass over the flow's path. bisect_right
    and time.perf_counter are read once per search.

    The root bound is the same three bounds at depth 0 with nothing
    admitted, min(rem, total, pooled): no assignment admits more flows. A
    greedy pass runs first. It is the search's first dive, taking the first
    child at every depth d and counting one node per step under
    the same node limit (it takes at most n steps and leaves the time limit
    to the search), but it keeps no per-switch terms and tests no bound.
    If its incumbent meets the root bound, that incumbent is optimal and
    is returned with the pass's steps as nodes_explored; the search would
    have found it in the same dive and could never beat it.
    Otherwise the state is reset and the search runs from the root as if
    there had been no pass, returning as soon as its incumbent meets the
    root bound. Either way optimal=True means proven: by the root bound or
    by exhausting the tree. The pass is there for speed: the search's own
    dive would find the same incumbent, but it keeps the trail and the
    terms and copies an incumbent at every step. Without the pass (measured
    on a 2-core Xeon VM) perfbench's 5,000-flow surrogate solve took 16 ms
    instead of 9.5, and a replay-wide run 0.23 s instead of 0.17."""
    clock = time.perf_counter    # read at call time, so a patched module is seen
    bisect = bisect_right
    t0 = clock()
    z = float(normal_quantile(config.delta))
    sqrt = math.sqrt
    flows = network.flows
    n = len(flows)
    charges = _charges(flows, config)
    order = sorted(range(n), key=lambda i: (charges[i][0], flows[i].id))
    g = [float(charges[i][0]) for i in order]
    var = [float(charges[i][1]) for i in order]
    prefix = [0.0] * (n + 1)
    for k in range(n):
        prefix[k + 1] = prefix[k] + g[k]

    switch_ids = [s.id for s in network.switches]
    n_switch = len(switch_ids)
    by_id = {sid: r for r, sid in enumerate(sorted(switch_ids))}
    rank = [by_id[sid] for sid in switch_ids]   # position in switch id order
    capacity = [float(s.capacity_pps) for s in network.switches]
    limit = [c + _slack(c) for c in capacity]
    sidx = {sid: k for k, sid in enumerate(switch_ids)}
    on_path = [[sidx[sid] for sid in flows[i].path] for i in order]
    # Per-switch prefix sums of g over the switch's members in search
    # order; g is ascending in that order, so they give "k cheapest
    # remaining on this switch".
    member_prefix = [[0.0] for _ in range(n_switch)]
    for pos in range(n):
        for s in on_path[pos]:
            acc = member_prefix[s]
            acc.append(acc[-1] + g[pos])
    n_members = [len(acc) - 1 for acc in member_prefix]

    used_g = [0.0] * n_switch
    used_var = [0.0] * n_switch
    # the (position, switch) pairs of the flows applied on the path, in order
    applied = []
    best_obj = 0
    best = []                            # empty allocation is always feasible
    admitted = 0
    nodes = 0
    node_limit = config.node_limit
    limit_hit = False
    # The running pool starts as the root's room sum and takes one rounded
    # update per apply on the path to a frame (at most n). With unit
    # roundoff u = 2**-53 and every room, update and partial sum at most
    # 2 * sum(limit) in size, a room sum over all switches (the root's, or
    # one summed afresh) is off the real sum by at most
    # 2u * n_switch * sum(limit) and each update by 6u * sum(limit): the
    # pool is off a fresh sum by under 8u * (n + n_switch) * sum(limit).
    # margin is twice that.
    margin = 2.0 ** -49 * (n + n_switch) * sum(limit)

    first = [0] * n_switch
    trail = []

    def fit_count(s: int, used: float) -> int:
        """The per-switch term of s at first[s] if its used charge were
        `used`: how many of its remaining members fit in the room limit[s] -
        used, cheapest first; 0 if none remain or the room is negative."""
        j = first[s]
        room = limit[s] - used
        if j >= n_members[s] or room < 0:
            return 0
        acc = member_prefix[s]
        return bisect(acc, acc[j] + room, j) - 1 - j

    term = [fit_count(s, 0.0) for s in range(n_switch)]
    total = sum(term)

    def fitting(depth: int) -> list[int]:
        """The fit test: the switches on the flow at `depth`'s path that fit it."""
        gd, vd = g[depth], var[depth]
        return [s for s in on_path[depth]
                if used_g[s] + gd + z * sqrt(used_var[s] + vd) <= limit[s]]

    def child_key(s: int) -> tuple[float, int]:
        """Children go least utilized first, ties in switch id order."""
        cap = capacity[s]
        return (used_g[s] + z * sqrt(used_var[s])) / cap if cap > 0 else 1.0, rank[s]

    def target(depth: int, pool: float) -> float:
        return prefix[depth] + pool + 1e-9 * (1.0 + pool)

    def pool_admits(depth: int, need: int, pool: float) -> bool:
        """The pooled test: pooled > need at `depth`, counted at a running
        pool plus margin; depth + need < n."""
        return prefix[depth + need + 1] <= target(depth, pool + margin)

    pool = sum(limit)    # the root's room summed; every limit is > 0
    root = min(n, total, bisect(prefix, target(0, pool), 0, n + 1) - 1)

    # The greedy pass (see above); it stops at the node limit as the search
    # does, before an apply.
    for pos in range(n):
        if admitted >= root:
            break
        nodes += 1
        if nodes >= node_limit:
            break
        kids = fitting(pos)
        if kids:
            s = min(kids, key=child_key)
            used_g[s] += g[pos]
            used_var[s] += var[pos]
            applied.append((pos, s))
            admitted += 1
    if admitted >= root:
        best = applied
        stack = []
    else:
        used_g[:] = used_var[:] = [0.0] * n_switch
        applied.clear()
        admitted = nodes = 0
        # Frames: [depth, children (None until the frame's first visit),
        # next index, running pool, and the trail height, total and
        # admitted count as the frame left them].
        stack = [[0, None, 0, pool, 0, 0, 0]]
    deadline = t0 + config.time_limit
    while stack:
        frame = stack[-1]
        depth, kids, idx, pool, height, saved, was = frame
        nd = depth + 1
        if kids is None:
            # one pass over the flow's path takes the fit test and moves
            # first[] across the flow, recomputing each term (both inlined)
            gd, vd = g[depth], var[depth]
            fits = []
            for s in on_path[depth]:
                u = used_g[s]
                if u + gd + z * sqrt(used_var[s] + vd) <= limit[s]:
                    fits.append(s)
                j, t_was = first[s], term[s]
                trail.append((s, j, t_was, u, used_var[s]))
                j += 1
                first[s] = j
                room = limit[s] - u
                if j >= n_members[s] or room < 0:
                    t = 0
                else:
                    acc = member_prefix[s]
                    t = bisect(acc, acc[j] + room, j) - 1 - j
                total += t - t_was
                term[s] = t
            frame[4] = len(trail)
            frame[5] = total
            frame[6] = admitted
        elif len(trail) > height:
            for s, j, t, u, v in reversed(trail[height:]):
                first[s], term[s], used_g[s], used_var[s] = j, t, u, v
            del trail[height:]
            del applied[was:]
            total, admitted = saved, was
        need = best_obj - admitted - 1   # an applied child must admit more than this below it
        if need >= 0 and (n - nd <= need or total <= need):
            # rem or total prunes every child left in the frame, the skip
            # child too (it must admit more than need + 1)
            step = len(fits) + 1 if kids is None else len(kids) - idx
            kids = ()
        else:
            if kids is None:
                if len(fits) > 1:
                    fits.sort(key=child_key)
                fits.append(-1)
                kids = frame[1] = fits
            frame[2] += 1
            step = 1
        nodes += step
        if nodes >= node_limit or (nodes % 512 < step and clock() > deadline):
            # report the step the per-step count would have stopped at
            nodes = node_limit if nodes >= node_limit else nodes - nodes % 512
            limit_hit = True
            break
        if not kids:
            stack.pop()
            continue
        s = kids[idx]
        if s < 0:
            # the skip child, every frame's last, takes its frame's place
            need += 1
            if n - nd > need and total > need and pool_admits(nd, need, pool):
                stack[-1] = [nd, None, 0, pool, 0, 0, 0]
            else:
                stack.pop()
            continue
        if need < 0:
            best_obj = admitted + 1
            best = applied + [(depth, s)]
            if best_obj >= root:
                break
            need = 0
        # s's term with the flow applied; first[] is at nd
        u = used_g[s]
        ug = u + g[depth]
        t = fit_count(s, ug)
        if nd >= n or total - term[s] + t <= need:
            continue
        r, rg = limit[s] - u, limit[s] - ug
        kid_pool = pool + ((rg if rg > 0 else 0.0) - (r if r > 0 else 0.0))
        if not pool_admits(nd, need, kid_pool):
            continue
        trail.append((s, first[s], term[s], u, used_var[s]))
        used_g[s] = ug
        used_var[s] += var[depth]
        applied.append((depth, s))
        admitted += 1
        total += t - term[s]
        term[s] = t
        stack.append([nd, None, 0, kid_pool, 0, 0, 0])

    # positions ascend along a path, so the flows go in search order
    assignment = {flows[order[pos]].id: switch_ids[s] for pos, s in best}
    return SolveResult(
        allocation=Allocation(assignment),
        objective=len(assignment),
        optimal=not limit_hit,
        nodes_explored=nodes,
        wall_time=clock() - t0,
        bound=root,
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


@dataclass
class SearchReuse:
    """The searches of one :func:`reused_searches` block, by what they read:
    ``searches`` maps each :func:`_search_key` to the result kept for it,
    or to the future of a search submitted to ``pool`` that no solve has
    taken yet. ``searched`` counts the block's searches, in this process or
    a worker, and ``reused`` the solves an earlier solve's result served."""
    searches: dict[bytes, SolveResult | Future] = field(default_factory=dict)
    pool: Executor | None = None
    searched: int = 0
    reused: int = 0


_reuse: ContextVar[SearchReuse | None] = ContextVar("flowsamp_search_reuse", default=None)


@contextmanager
def reused_searches(instances=()):
    """Within the block, :func:`solve` runs each distinct search once.

    As the block opens, the distinct searches among ``instances``,
    (network, config) pairs, go in order to a pool of worker processes, one
    per usable CPU. A solve of one of them waits for that result alone,
    uncounted as reused, so the caller replays while the workers search. A
    worker's ``wall_time`` can include time spent sharing a core with the
    caller. With one usable CPU, fewer than two distinct searches, no
    ``fork`` start method or other threads running (a forked child would
    inherit their locks; a pool runs one), nothing is submitted and every
    solve searches in turn. ``instances`` is read only if a pool may start.

    Yields the block's :class:`SearchReuse`, which is dropped when the
    block exits: no solve after the block is served from it. On any exit
    the searches no worker has started are cancelled, and every worker has
    exited when the block ends."""
    reuse = SearchReuse()
    token = _reuse.set(reuse)
    try:
        _submit(reuse, instances)
        yield reuse
    finally:
        _reuse.reset(token)
        if reuse.pool is not None:
            reuse.pool.shutdown(wait=True, cancel_futures=True)


def _search_key(network: Network, config: SolverConfig) -> bytes:
    """A SHA-256 digest of everything :func:`_bb_solve` reads: z(delta), the
    limits, each flow's id, path and charge, and each switch's id and
    capacity, in declaration order. The formulation reaches the search only
    through the charges, so formulations that charge alike share a key.

    Every number enters as the repr of a Python float, which round-trips
    exactly, so equal digests mean equal inputs. A block keeps 32 bytes per
    search rather than its inputs, which would hold more memory than the
    results do."""
    inputs = (float(normal_quantile(config.delta)), config.node_limit,
              float(config.time_limit),
              [(f.id, f.path, float(g), float(var))
               for f, (g, var) in zip(network.flows, _charges(network.flows, config))],
              [(s.id, float(s.capacity_pps)) for s in network.switches])
    return hashlib.sha256(repr(inputs).encode()).digest()


def _repeatable(result: SolveResult, config: SolverConfig) -> bool:
    """Whether a rerun of the search would return ``result``: it is proven
    optimal or explored exactly node_limit nodes, rather than stopping at
    its deadline."""
    return result.optimal or result.nodes_explored == config.node_limit


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _submit(reuse: SearchReuse, instances) -> None:
    """Start ``reuse``'s pool on the distinct searches among ``instances``
    when the conditions of :func:`reused_searches` allow one."""
    cpus = usable_cpus()
    if cpus < 2:
        return
    import multiprocessing
    import threading
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return
    pending = {}
    for network, config in instances:
        pending.setdefault(_search_key(network, config), (network, config))
    if len(pending) < 2:
        return
    from concurrent.futures import ProcessPoolExecutor
    searches = list(pending.values())
    # forked workers inherit the instances, so only an index and the result
    # cross between processes
    reuse.pool = ProcessPoolExecutor(min(cpus, len(searches)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(searches,))
    for index, key in enumerate(pending):
        reuse.searches[key] = reuse.pool.submit(_search_one, index)
    reuse.searched += len(searches)


_adopted: list[tuple[Network, SolverConfig]] = []   # a worker's instances


def _adopt(searches: list[tuple[Network, SolverConfig]]) -> None:
    _adopted[:] = searches


def _search_one(index: int) -> SolveResult:
    return _bb_solve(*_adopted[index])


def solve(network: Network, config: SolverConfig) -> SolveResult:
    """Solve the configured formulation by branch and bound.

    Inside a :func:`reused_searches` block, a solve whose search reads the
    same inputs as an earlier solve in the block (see :func:`_search_key`)
    is given that solve's result, wall_time included, and counted in the
    block's ``reused``. The first solve of a search that the block
    submitted waits for that search and is given its result uncounted.
    Only a search that did not stop at its deadline is kept: it is proven
    optimal or explored exactly node_limit nodes, so a rerun would return
    the same result; a worker's search that stopped at its deadline is
    searched again here. Outside a block every call searches."""
    reuse = _reuse.get()
    if reuse is None:
        return _bb_solve(network, config)
    key = _search_key(network, config)
    kept = reuse.searches.get(key)
    if isinstance(kept, SolveResult):
        reuse.reused += 1
        return kept
    result = None if kept is None else kept.result()
    if result is None or not _repeatable(result, config):
        result = _bb_solve(network, config)
        reuse.searched += 1
    if _repeatable(result, config):
        reuse.searches[key] = result
    else:
        reuse.searches.pop(key, None)
    return result


def brute_force_optimal(network: Network, config: SolverConfig) -> SolveResult:
    """Enumerate every assignment (each flow: one on-path switch or none)
    and return a maximum-cardinality one that passes :func:`feasible`.

    Flows are scanned in declaration order and each flow's choices in the
    order (unassigned, switches ascending by id); the first assignment
    attaining the maximum in that enumeration order is returned, which
    makes ties deterministic. ``nodes_explored`` counts the enumerated
    assignments. Intended as a testing oracle for small instances; refuses
    instances beyond the enumeration budget.
    """
    t0 = time.perf_counter()
    flows = network.flows
    total = 1
    for f in flows:
        total *= len(f.path) + 1
        if total > ENUMERATION_BUDGET:
            raise ValueError("instance too large for exhaustive enumeration")
    best: dict[str, str] = {}
    for combo in itertools.product(*([None] + sorted(f.path) for f in flows)):
        assign = {f.id: s for f, s in zip(flows, combo) if s is not None}
        if len(assign) > len(best) and feasible(network, Allocation(assign), config):
            best = assign
    return SolveResult(
        allocation=Allocation(best),
        objective=len(best),
        optimal=True,
        nodes_explored=total,
        wall_time=time.perf_counter() - t0,
        bound=len(best),
    )
