"""Time-varying per-flow rate generation: synthetic models and trace files.

A rate process holds one rate value per flow per bucket (default 100 ms).
Synthetic generation is a pure function of (config, seed): every flow gets
its own generator stream derived from the run seed and the flow id, so
flows can be generated independently and in any order.

Distribution parameters are solved from (mean, cov) so the pre-truncation
draws carry exactly the requested first two moments. Truncation at zero is
by rejection for the normal and t models; gamma draws are never negative.
The uniform law's lower end is clamped at 0 when cov > 1/sqrt(3), and its
moments are then not exact, as :func:`sample_rates` warns.
"""

from __future__ import annotations

import math
import warnings
import zlib
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, field
from decimal import Decimal, DecimalException, InvalidOperation
from enum import Enum

import numpy as np

from .model import Network

TRACE_HEADER = "#dsamp-trace v1"
BUCKET_LINE = "# bucket_ms="  # a writer's record of the bucket, checked on load
UPDATE_INTERVAL = 0.1   # seconds between synthetic rate redraws: one bucket
PACKET_BYTES = 1000     # the fixed packet size that turns byte rates into packet rates
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
        # written so that NaN fails both checks
        if not (math.isfinite(self.mean_pps) and self.mean_pps > 0):
            raise ValueError(f"mean_pps must be finite and positive, got {self.mean_pps}")
        if not (math.isfinite(self.cov) and self.cov >= 0):
            raise ValueError(f"cov must be finite and >= 0, got {self.cov}")

    @property
    def sigma_pps(self) -> float:
        """Standard deviation of the draws before truncation: cov times the mean."""
        return self.cov * self.mean_pps

    def moments(self) -> tuple[float, float]:
        """The rate mean and variance that a flow of this model declares.

        These are the moments before truncation at zero. The draws carry them
        at a low cov, but not at a high one: for the truncated normal at cov
        2.0, generated over declared is 2.02 for the mean and 0.49 for the
        variance.
        """
        return self.mean_pps, self.sigma_pps ** 2


def sample_rates(model: RateModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` bucket rates; never negative."""
    if model.cov == 0.0:
        return np.full(n, model.mean_pps)
    mean, sigma = model.mean_pps, model.sigma_pps
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


def kbps_to_pps(kbps: float) -> float:
    """Kilobytes-per-second to packets-per-second at PACKET_BYTES per packet."""
    return kbps * 1000.0 / PACKET_BYTES


def _flow_rng(seed: int, flow_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(flow_id.encode())])


def _draw_model(config: MixtureConfig, rng: np.random.Generator) -> RateModel:
    mean_kbps = config.mean_choices_kbps[rng.integers(len(config.mean_choices_kbps))]
    cov = config.cov_low if rng.random() < config.cov_low_prob else config.cov_high
    return RateModel(config.distribution, kbps_to_pps(mean_kbps), cov)


def draw_flow_model(config: MixtureConfig, seed: int, flow_id: str) -> RateModel:
    """The rate model a given flow receives under (config, seed).

    Uses the same derivation as :func:`generate_model_driven`, so scenario
    builders can declare matching flow statistics.
    """
    return _draw_model(config, _flow_rng(seed, flow_id))


def generate_model_driven(network: Network, config: MixtureConfig, horizon: float,
                          seed: int) -> RateProcess:
    """Generate ``UPDATE_INTERVAL`` bucket rates for every flow in the network."""
    buckets = horizon / UPDATE_INTERVAL
    if not math.isfinite(buckets):
        raise ValueError(f"horizon {horizon:g} s is not a finite number of "
                         f"{UPDATE_INTERVAL:g} s buckets")
    n_buckets = int(round(buckets))
    if abs(n_buckets * UPDATE_INTERVAL - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon must be a whole number of {UPDATE_INTERVAL:g} s buckets, "
                         f"got {horizon:g} s")
    rates = {}
    for f in network.flows:
        rng = _flow_rng(seed, f.id)
        model = _draw_model(config, rng)
        try:
            rates[f.id] = sample_rates(model, n_buckets, rng)
        except (MemoryError, ValueError):   # numpy's ValueError: past its largest dimension
            raise ValueError(f"horizon {horizon:g} s needs {n_buckets} buckets per flow, "
                             "more than can be allocated") from None
    return RateProcess(UPDATE_INTERVAL, n_buckets, rates)


# ---------------------------------------------------------------------------
# Trace files (see docs/formats.md): a version header line, a
# "# bucket_ms=<ms>" line, then "bucket_start_ms,flow_id,rate_pps" rows.
# Missing (flow, bucket) pairs read as rate 0. They are written from a rate
# process (save_trace) or from a packet log (count_packets, then
# write_trace).
# ---------------------------------------------------------------------------

def load_trace(path: str, scale_divisor: float, bucket: float,
               known_flows: set[str] | None = None) -> RateProcess:
    """Load a bucketed rate trace, dividing every rate by ``scale_divisor``.

    Scaling preserves each flow's coefficient of variation. Flow ids not in
    ``known_flows`` are rejected; with ``known_flows=None`` any flow id is
    accepted. A trace that records its bucket is refused at any other one.
    """
    for name, value in (("scale_divisor", scale_divisor), ("bucket", bucket)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    bucket_ms = bucket * 1000.0
    if not math.isfinite(bucket_ms):
        raise ValueError(f"bucket {bucket:g} s is too wide: {bucket_ms:g} ms is not finite")
    entries: dict[str, dict[int, float]] = {}
    n_buckets = 0
    with closing(_utf8_lines(path)) as lines:
        first = next(lines, "").strip()
        if first != TRACE_HEADER:
            raise ValueError(f"{path}:1: expected header {TRACE_HEADER!r}")
        for lineno, line in enumerate(lines, start=2):
            line = line.strip()
            if line.startswith(BUCKET_LINE):
                written = line[len(BUCKET_LINE):]
                try:
                    written_ms = float(written)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed bucket_ms {written!r}") from None
                if not math.isclose(written_ms, bucket_ms, rel_tol=1e-9):
                    raise ValueError(f"{path}:{lineno}: trace written on the {written_ms:g} ms "
                                     f"grid, read at bucket {bucket:g} s")
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
            if not math.isfinite(idx):
                raise ValueError(f"{path}:{lineno}: bucket start {parts[0]} ms is too many "
                                 f"{bucket_ms:g} ms buckets to index")
            if abs(idx - round(idx)) > 1e-6:
                raise ValueError(f"{path}:{lineno}: bucket start {parts[0]} ms not on the "
                                 f"{bucket_ms:g} ms grid")
            idx = int(round(idx))
            per_flow = entries.setdefault(fid, {})
            if idx in per_flow:
                raise ValueError(f"{path}:{lineno}: duplicate entry for flow {fid!r} in "
                                 f"bucket {idx} of {bucket_ms:g} ms")
            per_flow[idx] = rate / scale_divisor
            if not math.isfinite(per_flow[idx]):
                raise ValueError(f"{path}:{lineno}: rate_pps {parts[2]} over scale_divisor "
                                 f"{scale_divisor} is not finite")
            if idx >= n_buckets:
                n_buckets, farthest = idx + 1, f"{path}:{lineno}: bucket_start_ms {parts[0]}"
    rates = {}
    for fid, per_flow in entries.items():
        try:
            series = np.zeros(n_buckets)
        except (MemoryError, ValueError):
            raise ValueError(f"{farthest} needs {n_buckets} buckets of {bucket_ms:g} ms, "
                             "more than can be allocated") from None
        for idx, rate in per_flow.items():
            series[idx] = rate
        rates[fid] = series
    return RateProcess(bucket, n_buckets, rates)


def _utf8_lines(path: str):
    """The lines of a UTF-8 text file, split as ``open`` splits them; a byte
    that is not UTF-8 raises ValueError naming the file and its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass    # the decoder reads ahead; find the line on a second pass
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            for c in line:
                if "\udc80" <= c <= "\udcff":
                    raise ValueError(f"{path}:{lineno}: byte {ord(c) - 0xdc00:#04x} "
                                     "is not UTF-8")
    raise ValueError(f"{path}: not UTF-8")


def count_packets(path: str, bucket_ms: float) -> dict[tuple[int, str], int]:
    """Packets per (bucket, flow id) in a packet log of ``bucket_ms`` wide
    buckets (a finite positive number), counted from the first line's
    timestamp.

    Lines are ``timestamp_s,flow_id`` or ``timestamp_s,src,dst`` (the flow
    id then becomes ``src-dst``); blank lines and ``#`` comments are
    skipped, and a malformed line, or one whose bucket start is past the
    float range, raises ``ValueError`` naming it.
    Timestamps are read as exact decimals, so a packet on a bucket boundary
    opens that bucket (binary floats would put ``10.2 - 10.0`` just below
    0.2 s)."""
    counts: dict[tuple[int, str], int] = defaultdict(int)
    width_ms = Decimal(repr(bucket_ms))
    t0 = None
    with closing(_utf8_lines(path)) as lines:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields")
            try:
                ts = Decimal(parts[0])
            except InvalidOperation:
                ts = Decimal("NaN")
            if not ts.is_finite():
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]!r} is not a finite "
                                 "number")
            if not all(parts[1:]):
                raise ValueError(f"{path}:{lineno}: empty flow id field")
            fid = "-".join(parts[1:])
            if t0 is None:
                t0 = ts
            if ts < t0:
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]} is before the first "
                                 f"line's {float(t0)!r}")
            try:
                idx = int((ts - t0) * 1000 // width_ms)
            except DecimalException:   # past the 28-digit context or its exponent range
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]} is too many "
                                 f"{bucket_ms!r} ms buckets after the first line's") from None
            if not math.isfinite(idx * bucket_ms):
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]} starts a bucket past "
                                 "the float range")
            counts[(idx, fid)] += 1
    return counts


def write_trace(path: str, bucket_ms: float, rows) -> None:
    """Write a trace of ``bucket_ms`` wide buckets whose rows are the
    (bucket index, flow id, rate) triples ``rows``, in their order. The
    bucket and the bucket starts keep 17 significant digits, so each
    reloads exactly."""
    with open(path, "w") as fh:
        fh.write(f"{TRACE_HEADER}\n{BUCKET_LINE}{bucket_ms:.17g}\n")
        for idx, fid, rate in rows:
            fh.write(f"{idx * bucket_ms:.17g},{fid},{float(rate)!r}\n")


def save_trace(process: RateProcess, path: str) -> None:
    """Write a rate process in the trace format, flow by flow, zero rates
    implicit except in a flow's last bucket, so that every flow and the
    horizon reload."""
    def rows():
        for fid in sorted(process.rates):
            series = process.rates[fid]
            written = series != 0
            written[-1:] = True
            for idx in np.nonzero(written)[0]:
                yield idx, fid, series[idx]

    write_trace(path, process.bucket * 1000.0, rows())
