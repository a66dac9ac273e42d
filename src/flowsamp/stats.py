"""Normal-distribution machinery and the windowed traffic estimator.

The solvers and the capacity-violation check both ride on the standard
normal upper tail: a switch's aggregate sampling load is treated as
Normal(sum of means, sum of variances) and the violation probability is
the mass above the switch capacity.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

from .model import Allocation, Network, load_stats

_SQRT2 = math.sqrt(2.0)
_STANDARD = NormalDist()


def standard_normal_sf(x: float) -> float:
    """Upper tail P(Z > x); erfc keeps precision for large x (``NormalDist.cdf``
    takes 1 + erf before Python 3.12, which rounds a far tail to 0)."""
    return 0.5 * math.erfc(x / _SQRT2)


def normal_quantile(delta: float) -> float:
    """The (1 - delta)-quantile of the standard normal: minus the delta-quantile
    (Wichura's AS 241), which keeps full precision for a tiny delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return -_STANDARD.inv_cdf(delta)


def violation_probability(network: Network, alloc: Allocation, switch: str) -> float:
    """Probability the aggregate sampling load assigned to a switch exceeds
    its capacity, under the normal approximation.

    With nothing assigned the probability is 0; with all assigned loads
    deterministic it degenerates to the 0/1 overload indicator.
    """
    spec = network.switch(switch)
    mu_sum = 0.0
    var_sum = 0.0
    assigned = False
    for fid, sid in alloc.assignment.items():
        if sid != switch:
            continue
        assigned = True
        stats = load_stats(network.flow(fid))
        mu_sum += stats.mu
        var_sum += stats.sigma * stats.sigma
    if not assigned:
        return 0.0
    if var_sum == 0.0:
        return 1.0 if mu_sum > spec.capacity_pps else 0.0
    return standard_normal_sf((spec.capacity_pps - mu_sum) / math.sqrt(var_sum))


def estimate_flow_stats(rates: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (flow, epoch) ``rates``, oldest epoch first: the sample
    mean and unbiased sample variance of the last ``window`` columns; the
    variance is 0 when only one column exists.

    The columns are added left to right, in the order ``sum`` adds a list.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    recent = np.asarray(rates, dtype=float)[:, -window:]
    n = recent.shape[1]
    if n == 0:
        raise ValueError("no rates to estimate from")
    mean = functools.reduce(np.add, recent.T) / n
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, functools.reduce(np.add, (recent - mean[:, None]).T ** 2) / (n - 1)
