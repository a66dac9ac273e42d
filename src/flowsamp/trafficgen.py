"""Time-varying per-flow rate generation: synthetic models and trace files.

A rate process holds one rate value per flow per bucket (default 100 ms).
Synthetic generation is a pure function of (config, seed): every flow gets
its own generator stream derived from the run seed and the flow id, so
flows can be generated independently and in any order.

Distribution parameters are solved from (mean, cov) so the pre-truncation
draws carry exactly the requested first two moments; truncation at zero is
by rejection for the normal and t models and by construction for gamma and
uniform.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Network

TRACE_HEADER = "#dsamp-trace v1"
UPDATE_INTERVAL = 0.1   # seconds between synthetic rate redraws: one bucket
_T_DOF = 5  # fixed degrees of freedom for the location-scale t model


class Distribution(str, Enum):
    TRUNC_NORMAL = "trunc_normal"
    GAMMA = "gamma"
    UNIFORM = "uniform"
    T_LOCATION_SCALE = "t"


@dataclass(frozen=True)
class RateModel:
    """Single-flow rate model: bucket rates are redrawn i.i.d. from the
    distribution with the given mean and coefficient of variation."""

    distribution: Distribution
    mean_pps: float
    cov: float

    def __post_init__(self):
        if self.mean_pps <= 0:
            raise ValueError("mean_pps must be positive")
        if self.cov < 0:
            raise ValueError("cov must be >= 0")


def sample_rates(model: RateModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` bucket rates; never negative."""
    if model.cov == 0.0:
        return np.full(n, model.mean_pps)
    mean, sigma = model.mean_pps, model.cov * model.mean_pps
    dist = model.distribution
    if dist == Distribution.TRUNC_NORMAL:
        return _reject_negative(lambda size: rng.normal(mean, sigma, size), n)
    if dist == Distribution.GAMMA:
        shape = 1.0 / (model.cov * model.cov)
        return rng.gamma(shape, mean / shape, n)
    if dist == Distribution.UNIFORM:
        half = math.sqrt(3.0) * sigma
        lo = mean - half
        if lo < 0:
            warnings.warn(
                f"uniform rate model with cov {model.cov} needs a negative lower "
                "bound; clamping at 0 (moments no longer exact)")
            lo = 0.0
        return rng.uniform(lo, mean + half, n)
    if dist == Distribution.T_LOCATION_SCALE:
        scale = sigma * math.sqrt((_T_DOF - 2) / _T_DOF)
        return _reject_negative(lambda size: mean + scale * rng.standard_t(_T_DOF, size), n)
    raise ValueError(f"unknown distribution {dist}")


def _reject_negative(draw, n: int) -> np.ndarray:
    out = draw(n)
    bad = out < 0
    while bad.any():
        out[bad] = draw(int(bad.sum()))
        bad = out < 0
    return out


@dataclass
class RateProcess:
    """Per-flow bucket rate series over a contiguous horizon."""

    bucket: float
    n_buckets: int
    rates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for fid, series in self.rates.items():
            series = np.asarray(series, dtype=float)
            if series.shape != (self.n_buckets,):
                raise ValueError(f"flow {fid!r}: series length {series.shape} != {self.n_buckets}")
            # min and max both propagate NaN, so two reductions find every
            # NaN, infinite or negative rate
            if series.size and not (series.min() >= 0 and series.max() < math.inf):
                if not np.isfinite(series).all():
                    raise ValueError(f"flow {fid!r}: rate is not finite")
                raise ValueError(f"flow {fid!r}: negative rate")
            self.rates[fid] = series

    @property
    def horizon(self) -> float:
        return self.n_buckets * self.bucket

    def series(self, flow_id: str) -> np.ndarray:
        """Bucket rates for a flow; all zeros if the flow never appears."""
        got = self.rates.get(flow_id)
        return got if got is not None else np.zeros(self.n_buckets)


@dataclass(frozen=True)
class MixtureConfig:
    """Synthetic scenario knobs: each flow draws its mean rate from a small
    set of byte rates and is bursty (high cov) or smooth (low cov)."""

    distribution: Distribution = Distribution.TRUNC_NORMAL
    mean_choices_kbps: tuple[float, ...] = (200.0, 300.0, 500.0)
    cov_low: float = 0.2
    cov_low_prob: float = 0.3
    cov_high: float = 2.0
    packet_bytes: int = 1000


def kbps_to_pps(kbps: float, packet_bytes: int = 1000) -> float:
    """Kilobytes-per-second to packets-per-second at a fixed packet size."""
    return kbps * 1000.0 / packet_bytes


def _flow_rng(seed: int, flow_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(flow_id.encode())])


def _draw_model(config: MixtureConfig, rng: np.random.Generator) -> RateModel:
    mean_kbps = config.mean_choices_kbps[rng.integers(len(config.mean_choices_kbps))]
    cov = config.cov_low if rng.random() < config.cov_low_prob else config.cov_high
    return RateModel(config.distribution, kbps_to_pps(mean_kbps, config.packet_bytes), cov)


def draw_flow_model(config: MixtureConfig, seed: int, flow_id: str) -> RateModel:
    """The rate model a given flow receives under (config, seed).

    Uses the same derivation as :func:`generate_model_driven`, so scenario
    builders can declare matching flow statistics.
    """
    return _draw_model(config, _flow_rng(seed, flow_id))


def generate_model_driven(network: Network, config: MixtureConfig, horizon: float,
                          seed: int) -> RateProcess:
    """Generate ``UPDATE_INTERVAL`` bucket rates for every flow in the network."""
    n_buckets = int(round(horizon / UPDATE_INTERVAL))
    if abs(n_buckets * UPDATE_INTERVAL - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon must be a whole number of {UPDATE_INTERVAL:g} s buckets, "
                         f"got {horizon:g} s")
    rates = {}
    for f in network.flows:
        rng = _flow_rng(seed, f.id)
        model = _draw_model(config, rng)
        rates[f.id] = sample_rates(model, n_buckets, rng)
    return RateProcess(UPDATE_INTERVAL, n_buckets, rates)


# ---------------------------------------------------------------------------
# Trace files (see docs/formats.md): a version header line, then
# "bucket_start_ms,flow_id,rate_pps" rows. Missing (flow, bucket) pairs read
# as rate 0.
# ---------------------------------------------------------------------------

def load_trace(path: str, scale_divisor: float, bucket: float,
               known_flows: set[str] | None = None) -> RateProcess:
    """Load a bucketed rate trace, dividing every rate by ``scale_divisor``.

    Scaling preserves each flow's coefficient of variation. Flow ids not in
    ``known_flows`` are rejected; with ``known_flows=None`` any flow id is
    accepted.
    """
    for name, value in (("scale_divisor", scale_divisor), ("bucket", bucket)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    bucket_ms = bucket * 1000.0
    entries: dict[str, dict[int, float]] = {}
    n_buckets = 0
    with open(path) as fh:
        first = fh.readline().strip()
        if first != TRACE_HEADER:
            raise ValueError(f"{path}:1: expected header {TRACE_HEADER!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 comma-separated fields")
            try:
                start_ms = float(parts[0])
                rate = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number") from None
            for name, value in (("bucket_start_ms", start_ms), ("rate_pps", rate)):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: {name} {value} is not finite")
            if start_ms < 0:
                raise ValueError(f"{path}:{lineno}: bucket_start_ms {start_ms:g} is negative")
            fid = parts[1]
            if not fid:
                raise ValueError(f"{path}:{lineno}: empty flow id")
            if rate < 0:
                raise ValueError(f"{path}:{lineno}: negative rate")
            if known_flows is not None and fid not in known_flows:
                raise ValueError(f"{path}:{lineno}: unknown flow {fid!r}")
            idx = start_ms / bucket_ms
            if abs(idx - round(idx)) > 1e-6:
                raise ValueError(f"{path}:{lineno}: bucket start {parts[0]} ms not on the "
                                 f"{bucket_ms:g} ms grid")
            idx = int(round(idx))
            per_flow = entries.setdefault(fid, {})
            if idx in per_flow:
                raise ValueError(f"{path}:{lineno}: duplicate entry for flow {fid!r}")
            per_flow[idx] = rate / scale_divisor
            n_buckets = max(n_buckets, idx + 1)
    rates = {}
    for fid, per_flow in entries.items():
        series = np.zeros(n_buckets)
        for idx, rate in per_flow.items():
            series[idx] = rate
        rates[fid] = series
    return RateProcess(bucket, n_buckets, rates)


def save_trace(process: RateProcess, path: str) -> None:
    """Write a rate process in the trace format (zero rates are implicit)."""
    bucket_ms = process.bucket * 1000.0
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for fid in sorted(process.rates):
            series = process.rates[fid]
            for idx in np.nonzero(series)[0]:
                fh.write(f"{idx * bucket_ms:g},{fid},{float(series[idx])!r}\n")
