"""Independent optimum for the additive formulations, from HiGHS.

The additive problem is a multiple knapsack with assignment restrictions.
Flows with equal effective load are interchangeable in every capacity row,
so each switch is described by its maximal packings: how many flows of
each load class fit together within its capacity (plus the same relative
feasibility slack the branch and bound allows). The MILP picks at most one
packing per switch; which flows fill the chosen counts is a bipartite
matching per class, whose polytope is integral, so the per-(flow, switch)
variables stay continuous; their sum is tied to one integer variable so
HiGHS can round its dual bound down. This is the Dantzig-Wolfe form of the problem:
its relaxation is far tighter than the plain knapsack rows, which leave
HiGHS unable to close some model-driven epochs in minutes. The model
shares no code with the search in ``flowsamp.optimizer``.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from flowsamp.model import Network
from flowsamp.optimizer import FEAS_TOL, Formulation, SolverConfig, effective_load

PACKING_BUDGET = 200_000   # enumeration nodes per switch


def maximal_packings(weights: list[float], counts: list[int], capacity: float) -> list[tuple]:
    """Every count vector n with n <= counts and sum(n * weights) <= capacity
    to which no further item fits."""
    out: list[tuple] = []
    picked = [0] * len(weights)
    suffix = [0.0] * (len(weights) + 1)
    for t in range(len(weights) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[t] * counts[t]
    nodes = 0

    def visit(t: int, room: float) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > PACKING_BUDGET:
            raise RuntimeError("too many packings for the oracle")
        if suffix[t] <= room:          # everything left fits: one completion
            out.append(tuple(picked[:t]) + tuple(counts[t:]))
            return
        most = min(counts[t], int(room // weights[t]))
        for k in range(most, -1, -1):
            picked[t] = k
            visit(t + 1, room - k * weights[t])
        picked[t] = 0

    visit(0, capacity)
    # Keep the maximal ones: nothing left out that would still fit.
    return [p for p in out
            if not any(p[t] < counts[t] and
                       sum(w * n for w, n in zip(weights, p)) + weights[t] <= capacity
                       for t in range(len(weights)))]


def milp_optimum(network: Network, config: SolverConfig, at_least: int = 0,
                 time_limit: float = 60.0) -> int | None:
    """Maximum number of admitted flows, proven optimal by HiGHS; None when
    no allocation admits ``at_least`` flows.

    Asking for one flow more than a known feasible allocation admits is the
    fast way to confirm it: HiGHS usually proves infeasibility at the root.
    """
    if config.formulation == Formulation.EXACT:
        raise ValueError("the cone formulation has no linear oracle")
    flows = network.flows
    if not flows:
        return 0 if at_least <= 0 else None
    sidx = {s.id: k for k, s in enumerate(network.switches)}
    load = [effective_load(f, config) for f in flows]
    cls = {w: k for k, w in enumerate(sorted(set(load)))}
    x_pairs = [(i, sidx[sid]) for i, f in enumerate(flows) for sid in f.path]
    # Per switch: the classes present and how many flows of each.
    present: list[dict[int, int]] = [{} for _ in sidx]
    for i, s in x_pairs:
        c = cls[load[i]]
        present[s][c] = present[s].get(c, 0) + 1
    weights = sorted(cls, key=cls.get)
    quota_row: dict[tuple[int, int], int] = {}
    for s, members in enumerate(present):
        for c in sorted(members):
            quota_row[(c, s)] = len(flows) + len(sidx) + len(quota_row)
    n_rows = len(flows) + len(sidx) + len(quota_row)

    entries = [(i, k, 1.0) for k, (i, _) in enumerate(x_pairs)]        # flow once
    entries += [(quota_row[(cls[load[i]], s)], k, 1.0)                  # class quota
                for k, (i, s) in enumerate(x_pairs)]
    col = len(x_pairs)
    for s, members in enumerate(present):
        order = sorted(members)
        cap = network.switches[s].capacity_pps
        cap += FEAS_TOL * max(1.0, cap)
        for packing in maximal_packings([weights[c] for c in order],
                                        [members[c] for c in order], cap):
            entries.append((len(flows) + s, col, 1.0))                  # one packing
            entries += [(quota_row[(c, s)], col, -float(n))
                        for c, n in zip(order, packing) if n]
            col += 1
    total_row = n_rows                                                 # z <= sum x
    entries += [(total_row, k, -1.0) for k in range(len(x_pairs))]
    entries.append((total_row, col, 1.0))
    r, c, v = zip(*entries)
    a = csr_array((v, (r, c)), shape=(n_rows + 1, col + 1))
    lo = np.full(n_rows + 1, -np.inf)
    hi = np.concatenate([np.ones(len(flows) + len(sidx)), np.zeros(len(quota_row) + 1)])
    objective = np.zeros(col + 1)
    objective[col] = -1.0
    integrality = np.zeros(col + 1)
    integrality[len(x_pairs):] = 1
    lower = np.zeros(col + 1)
    lower[col] = at_least
    upper = np.ones(col + 1)
    upper[col] = len(flows)
    with warnings.catch_warnings():
        # "threads" is passed to HiGHS verbatim; scipy warns that it does so.
        # Presolve spends about 17 s on the 5000-flow instance, which HiGHS
        # then closes in 2 s without it.
        warnings.simplefilter("ignore", RuntimeWarning)
        res = milp(c=objective, integrality=integrality, bounds=Bounds(lower, upper),
                   constraints=LinearConstraint(a, lo, hi),
                   options={"time_limit": time_limit, "presolve": False,
                            "threads": os.cpu_count() or 1})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(-res.fun))
