"""Normal-distribution machinery and the windowed traffic estimator.

The solvers and the capacity-violation check both ride on the standard
normal upper tail: a switch's aggregate sampling load is treated as
Normal(sum of means, sum of variances) and the violation probability is
the mass above the switch capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Allocation, Network, load_stats

_SQRT2 = math.sqrt(2.0)

# Rational approximation coefficients for the inverse standard normal CDF
# (Acklam), accurate to ~1.15e-9 before refinement.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def standard_normal_sf(x: float) -> float:
    """Upper tail P(Z > x); erfc keeps precision for large x."""
    return 0.5 * math.erfc(x / _SQRT2)


def standard_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _inv_cdf_rational(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def normal_quantile(delta: float) -> float:
    """The (1 - delta)-quantile of the standard normal.

    Rational approximation refined by one Newton step on the erf-based CDF;
    absolute error is well under 1e-6 across (0, 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    p = 1.0 - delta
    x = _inv_cdf_rational(p)
    # One Newton step: solve sf(x) = delta; the sf form keeps the residual
    # accurate when delta is tiny.
    x = x + (standard_normal_sf(x) - delta) / standard_normal_pdf(x)
    return x


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


@dataclass
class RateHistory:
    """Per-epoch observed mean rates of a single flow, in epoch order."""

    samples: list[tuple[int, float]] = field(default_factory=list)

    def append(self, epoch: int, mean_rate_pps: float) -> None:
        if self.samples and epoch <= self.samples[-1][0]:
            raise ValueError(f"epoch {epoch} not after {self.samples[-1][0]}")
        self.samples.append((epoch, mean_rate_pps))

    def __len__(self) -> int:
        return len(self.samples)


def estimate_flow_stats(history: RateHistory, window: int) -> tuple[float, float]:
    """Sample mean and unbiased sample variance of the last ``window``
    per-epoch rates; variance is 0 when only one observation exists.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not history.samples:
        raise ValueError("history is empty")
    recent = [r for _, r in history.samples[-window:]]
    n = len(recent)
    mean = sum(recent) / n
    if n == 1:
        return mean, 0.0
    var = sum((r - mean) ** 2 for r in recent) / (n - 1)
    return mean, var
