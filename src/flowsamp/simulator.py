"""Epoch-driven discrete-time simulation of coordinated flow sampling.

Each epoch the control loop batches the queries that have arrived by the
epoch boundary, estimates per-flow rate moments from the mean rates of
the last ``ESTIMATOR_WINDOW`` epochs, solves for a sampling schedule, and
then replays the epoch's buckets as one batch of whole-array passes:
offered packets are the differences of the floored running sum of each
flow's arrivals, started from the fraction left over by the previous
epoch (so long-run counts are exact), one binomial draw over the
(bucket, flow) matrix samples each offered packet independently with the
flow's target probability (the generator yields the same variates in the
same order as one draw per bucket), and each switch forwards at most its
per-bucket budget of sampled packets, dropping the excess and flagging a
capacity violation.

Queries arriving mid-epoch wait for the next boundary. Drops on an
overloaded switch are split across its flows proportionally to their
sampled counts (largest-remainder rounding, ties to the earlier flow),
for every overloaded (bucket, switch) cell of the epoch at once.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Network, build_network
from .optimizer import SolverConfig, solve
from .stats import estimate_flow_stats
from .trafficgen import RateProcess

ESTIMATOR_WINDOW = 5   # past epochs the windowed estimator averages over


class EstimatorMode(str, Enum):
    WINDOWED = "windowed"   # sliding-window moments of past per-epoch rates
    DECLARED = "declared"   # pass through the declared flow moments


@dataclass(frozen=True)
class SamplingQuery:
    """A request to sample one flow at a rate over a time span."""

    flow_id: str
    start: float
    duration: float
    sampling_rate: float

    def __post_init__(self):
        if not math.isfinite(self.start):
            raise ValueError(f"query for {self.flow_id!r}: start must be finite")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"query for {self.flow_id!r}: duration must be positive and finite")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(f"query for {self.flow_id!r}: sampling_rate must be in (0, 1]")


@dataclass(frozen=True)
class EpochConfig:
    epoch_length: float = 5.0
    bucket: float = 0.1
    solver: SolverConfig = field(default_factory=SolverConfig)
    fully_sampled_tolerance: float = 0.05
    estimator_mode: EstimatorMode = EstimatorMode.WINDOWED

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.bucket) and self.bucket > 0):
            raise ValueError(f"bucket must be positive and finite, got {self.bucket}")
        if not (math.isfinite(self.epoch_length) and self.epoch_length > 0):
            raise ValueError(f"epoch_length must be positive and finite, got {self.epoch_length}")
        ratio = self.epoch_length / self.bucket
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("epoch_length must be a whole number of buckets")
        if not 0.0 <= self.fully_sampled_tolerance < 1.0:
            raise ValueError("fully_sampled_tolerance must be in [0, 1)")

    @property
    def buckets_per_epoch(self) -> int:
        return int(round(self.epoch_length / self.bucket))


@dataclass(frozen=True)
class FlowEpochRecord:
    epoch: int
    flow_id: str
    assigned_switch: str | None
    offered: int
    sampled: int
    forwarded: int
    dropped: int


@dataclass(frozen=True)
class FlowOutcome:
    """What one flow got over the whole run."""

    measured_rate: float | None   # forwarded / offered; None if nothing offered
    ever_admitted: bool           # assigned in at least one epoch
    fully_sampled: bool


_NO_OUTCOME = FlowOutcome(None, False, False)


@dataclass
class SimReport:
    """Raw per-epoch outcomes plus per-switch per-bucket load/violation."""

    records: list[FlowEpochRecord]
    switch_ids: list[str]
    switch_loads: np.ndarray        # (n_switches, n_buckets) sampled packets
    switch_violations: np.ndarray   # (n_switches, n_buckets) bool
    targets: dict[str, float]       # flow id -> target sampling rate
    active_epochs: dict[str, list[int]]
    solves: list[dict]
    n_epochs: int
    epoch_length: float
    bucket: float
    fully_sampled_tolerance: float

    @functools.cached_property
    def outcomes(self) -> dict[str, FlowOutcome]:
        """Every flow with a record, by sorted flow id, from one pass over
        ``records`` on first use.

        A flow is fully sampled when it was admitted in every epoch its
        query was active and measured at the target rate within the
        configured tolerance.
        """
        offered: dict[str, int] = {}
        forwarded: dict[str, int] = {}
        admitted_in: dict[str, set[int]] = {}
        for r in self.records:
            offered[r.flow_id] = offered.get(r.flow_id, 0) + r.offered
            forwarded[r.flow_id] = forwarded.get(r.flow_id, 0) + r.forwarded
            epochs = admitted_in.setdefault(r.flow_id, set())
            if r.assigned_switch is not None:
                epochs.add(r.epoch)
        table = {}
        for fid in sorted(offered):
            rate = forwarded[fid] / offered[fid] if offered[fid] > 0 else None
            active = self.active_epochs.get(fid, [])
            fully = (bool(active) and admitted_in[fid].issuperset(active)
                     and rate is not None
                     and rate >= self.targets[fid] * (1.0 - self.fully_sampled_tolerance))
            table[fid] = FlowOutcome(rate, bool(admitted_in[fid]), fully)
        return table

    def measured_rate(self, flow_id: str) -> float | None:
        return self.outcomes.get(flow_id, _NO_OUTCOME).measured_rate

    def ever_admitted(self, flow_id: str) -> bool:
        return self.outcomes.get(flow_id, _NO_OUTCOME).ever_admitted

    def fully_sampled(self, flow_id: str) -> bool:
        return self.outcomes.get(flow_id, _NO_OUTCOME).fully_sampled

    def violation_fraction(self, switch_id: str | None = None) -> float:
        if switch_id is None:
            return float(self.switch_violations.mean()) if self.switch_violations.size else 0.0
        idx = self.switch_ids.index(switch_id)
        row = self.switch_violations[idx]
        return float(row.mean()) if row.size else 0.0


def run_simulation(network: Network, queries: list[SamplingQuery], rates: RateProcess,
                   config: EpochConfig, seed: int) -> SimReport:
    for q in queries:
        if not network.has_flow(q.flow_id):
            raise ValueError(f"query references unknown flow {q.flow_id!r}")
    if abs(rates.bucket - config.bucket) > 1e-12:
        raise ValueError(f"rate process bucket {rates.bucket:g} s differs from "
                         f"simulation bucket {config.bucket:g} s")
    bpe = config.buckets_per_epoch
    span = max((q.start + q.duration for q in queries), default=0.0)
    # no epoch boundary t_e >= 0 falls in spans that end at or before 0
    n_epochs = max(0, math.ceil(span / config.epoch_length - 1e-9))
    n_buckets = n_epochs * bpe
    if n_buckets > rates.n_buckets:
        raise ValueError(
            f"rate process horizon {rates.horizon:g} s is shorter than the "
            f"{n_epochs} whole epochs ({n_epochs * config.epoch_length:g} s) "
            "spanned by the queries")

    flows = network.flows
    nf = len(flows)
    flow_ids = [f.id for f in flows]
    fidx = {fid: i for i, fid in enumerate(flow_ids)}
    switch_ids = [s.id for s in network.switches]
    ns = len(switch_ids)
    sidx = {sid: i for i, sid in enumerate(switch_ids)}
    series = [rates.series(fid) for fid in flow_ids]
    # (flow, epoch) rate means, each column filled when its epoch is
    # replayed; the estimator reads only past epochs
    epoch_means = np.zeros((nf, n_epochs))
    cap_bucket = np.array([math.floor(s.capacity_pps * config.bucket) for s in network.switches],
                          dtype=np.int64)

    rng = np.random.default_rng(seed)
    carry = np.zeros(nf)
    records: list[FlowEpochRecord] = []
    loads = np.zeros((ns, n_buckets), dtype=np.int64)
    violations = np.zeros((ns, n_buckets), dtype=bool)
    targets: dict[str, float] = {}
    active_epochs: dict[str, list[int]] = {}
    solves: list[dict] = []
    bucket_base = np.arange(bpe)[:, None] * ns

    queries_at: list[list[SamplingQuery]] = [[] for _ in range(n_epochs)]
    for q in queries:
        for e in range(*_active_epoch_range(q, config.epoch_length, n_epochs)):
            queries_at[e].append(q)

    for e in range(n_epochs):
        alpha = np.zeros(nf)
        for q in queries_at[e]:
            i = fidx[q.flow_id]
            alpha[i] = max(alpha[i], q.sampling_rate)
            targets[q.flow_id] = max(targets.get(q.flow_id, 0.0), q.sampling_rate)
        active = [i for i in range(nf) if alpha[i] > 0]
        for i in active:
            active_epochs.setdefault(flow_ids[i], []).append(e)

        windowed = config.estimator_mode == EstimatorMode.WINDOWED and e > 0
        if windowed:
            past = epoch_means[:, max(0, e - ESTIMATOR_WINDOW):e].tolist()
        epoch_flows = []
        for i in active:
            f = flows[i]
            if windowed:
                mean, var = estimate_flow_stats(past[i], ESTIMATOR_WINDOW)
            else:
                mean, var = f.rate_mean_pps, f.rate_var_pps2
            epoch_flows.append(dataclasses.replace(
                f, target_rate=float(alpha[i]), rate_mean_pps=mean, rate_var_pps2=var))
        epoch_net = build_network(network.switches, epoch_flows)
        result = solve(epoch_net, config.solver)
        solves.append({
            "epoch": e, "objective": result.objective, "optimal": result.optimal,
            "nodes_explored": result.nodes_explored, "bound": result.bound,
            "wall_time_s": result.wall_time,
        })
        assigned = np.full(nf, -1, dtype=np.int64)
        for fid, sid in result.allocation.assignment.items():
            assigned[fidx[fid]] = sidx[sid]
        admit_mask = assigned >= 0

        # the whole epoch as (bucket, flow) arrays, bucket-major: one binomial
        # call draws the same variates in the same order as one call per bucket
        k0 = e * bpe
        rate_e = np.concatenate([r[k0:k0 + bpe] for r in series]).reshape(nf, bpe)
        epoch_means[:, e] = rate_e.mean(axis=1)
        offered, carry = _offered_counts((rate_e * config.bucket).T, carry)
        sampled = rng.binomial(np.where(admit_mask, offered, 0), alpha)
        admitted = np.nonzero(admit_mask)[0]
        totals = np.bincount((bucket_base + assigned[admitted]).ravel(),
                             weights=sampled[:, admitted].ravel(),
                             minlength=bpe * ns).astype(np.int64).reshape(bpe, ns)
        loads[:, k0:k0 + bpe] = totals.T
        over = totals > cap_bucket
        violations[:, k0:k0 + bpe] = over.T
        forwarded = _split_overloads(sampled, totals, over, assigned, cap_bucket)

        off_sum = offered.sum(axis=0)
        smp_sum = sampled.sum(axis=0)
        fwd_sum = forwarded.sum(axis=0)
        for i in active:
            records.append(FlowEpochRecord(
                epoch=e, flow_id=flow_ids[i],
                assigned_switch=switch_ids[assigned[i]] if admit_mask[i] else None,
                offered=int(off_sum[i]), sampled=int(smp_sum[i]),
                forwarded=int(fwd_sum[i]), dropped=int(smp_sum[i] - fwd_sum[i]),
            ))

    return SimReport(
        records=records, switch_ids=switch_ids, switch_loads=loads,
        switch_violations=violations, targets=targets, active_epochs=active_epochs,
        solves=solves, n_epochs=n_epochs, epoch_length=config.epoch_length,
        bucket=config.bucket, fully_sampled_tolerance=config.fully_sampled_tolerance,
    )


def _active_epoch_range(q: SamplingQuery, epoch_length: float,
                        n_epochs: int) -> tuple[int, int]:
    """The epochs [lo, hi) whose boundary t_e = e * epoch_length falls in the
    query's span: start <= t_e + 1e-9 and t_e < start + duration - 1e-9.
    Both halves are monotone in e, so a ceil guess adjusted by the exact
    predicate gives the same epochs as testing every one."""
    def started(e):
        return q.start <= e * epoch_length + 1e-9

    def running(e):
        return e * epoch_length < q.start + q.duration - 1e-9

    lo = min(max(math.ceil((q.start - 1e-9) / epoch_length), 0), n_epochs)
    while lo > 0 and started(lo - 1):
        lo -= 1
    while lo < n_epochs and not started(lo):
        lo += 1
    hi = min(max(math.ceil((q.start + q.duration - 1e-9) / epoch_length), lo), n_epochs)
    while hi > lo and not running(hi - 1):
        hi -= 1
    while hi < n_epochs and running(hi):
        hi += 1
    return lo, hi


def _offered_counts(arrivals: np.ndarray, carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole packets offered per (bucket, flow) from fractional ``arrivals``
    of shape (buckets, flows), and the fraction each flow carries on.

    The counts are the differences of the floored running sums, started
    from ``carry``; the 1e-9 nudge lets a sum that lands a rounding error
    short of a whole packet count it. Over consecutive calls the counts add
    up to the floor of all arrivals so far.
    """
    # two (buckets + 1, flows) buffers, reused in place: on wide runs the
    # replay's peak memory is set here
    sums = np.vstack((carry, arrivals))
    np.cumsum(sums, axis=0, out=sums)
    floors = sums + 1e-9
    np.floor(floors, out=floors)
    carry = sums[-1] - floors[-1]
    floors[0] = 0.0   # the carried fraction: its whole packets were offered already
    np.subtract(floors[1:], floors[:-1], out=sums[1:])
    return sums[1:].astype(np.int64), carry


def _split_overloads(sampled: np.ndarray, totals: np.ndarray, over: np.ndarray,
                    assigned: np.ndarray, cap_bucket: np.ndarray) -> np.ndarray:
    """Forwarded counts per (bucket, flow): ``sampled``, except that each
    overloaded (bucket, switch) cell splits the switch's budget across its
    flows proportionally to their sampled counts. The largest fractional
    remainders get the leftovers, earlier flows winning ties.

    ``totals`` and ``over`` are (bucket, switch); ``assigned`` holds each
    flow's switch index, or -1 for a flow that is not admitted.
    """
    # the (bucket, flow) pairs that sampled in an overloaded cell, bucket-major
    admitted = np.nonzero(assigned >= 0)[0]
    b, j = np.nonzero(over[:, assigned[admitted]] & (sampled > 0)[:, admitted])
    f = admitted[j]
    s = assigned[f]
    cell = b * len(cap_bucket) + s
    cap = cap_bucket[s]
    quotas = cap * sampled[b, f] / totals[b, s]
    base = np.floor(quotas).astype(np.int64)
    leftover = cap - np.bincount(cell, weights=base, minlength=over.size).astype(np.int64)[cell]
    # rank each cell's pairs by remainder, the earlier flow first on ties;
    # the first ``leftover`` of them forward one packet more
    order = np.lexsort((f, -(quotas - base), cell))
    ranked = cell[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked, ranked)
    base[order[rank < leftover[order]]] += 1
    forwarded = sampled.copy()
    forwarded[b, f] = base
    return forwarded


# ---------------------------------------------------------------------------
# Metrics and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSummary:
    admitted_flows: int
    fully_sampled_flows: int
    rate_quartiles: tuple[float, float, float] | None  # over ever-admitted flows
    violation_fraction: float
    per_switch_violation: dict[str, float]
    mean_solver_wall_time: float
    measured_rates: tuple[float, ...]  # of ever-admitted flows by flow id; not serialized

    def to_json_dict(self) -> dict:
        return {
            "version": "sim-summary/1",
            "admitted_flows": self.admitted_flows,
            "fully_sampled_flows": self.fully_sampled_flows,
            "rate_quartiles": list(self.rate_quartiles) if self.rate_quartiles else None,
            "violation_fraction": self.violation_fraction,
            "per_switch_violation": self.per_switch_violation,
            "mean_solver_wall_time_s": self.mean_solver_wall_time,
        }


def measure_metrics(report: SimReport) -> MetricSummary:
    """Admitted flows (assigned in at least one epoch), fully sampled flows,
    and the quartiles of measured sampling rates excluding never-admitted
    flows."""
    outcomes = report.outcomes.values()
    measured = tuple(o.measured_rate for o in outcomes
                     if o.ever_admitted and o.measured_rate is not None)
    quartiles = tuple(float(q) for q in np.percentile(measured, [25, 50, 75])) \
        if measured else None
    per_switch = {sid: report.violation_fraction(sid) for sid in report.switch_ids}
    times = [s["wall_time_s"] for s in report.solves]
    return MetricSummary(
        admitted_flows=sum(o.ever_admitted for o in outcomes),
        fully_sampled_flows=sum(o.fully_sampled for o in outcomes),
        rate_quartiles=quartiles,
        violation_fraction=report.violation_fraction(),
        per_switch_violation=per_switch,
        mean_solver_wall_time=float(np.mean(times)) if times else 0.0,
        measured_rates=measured,
    )


def write_flow_epochs_csv(report: SimReport, path: str) -> None:
    """One row per (flow, epoch); see docs/formats.md."""
    with open(path, "w") as fh:
        fh.write("#flow-epochs v1\n")
        fh.write("epoch,flow,assigned_switch,offered,sampled,forwarded,dropped,measured_rate\n")
        for r in report.records:
            rate = f"{r.forwarded / r.offered:.6f}" if r.offered else ""
            fh.write(f"{r.epoch},{r.flow_id},{r.assigned_switch or ''},"
                     f"{r.offered},{r.sampled},{r.forwarded},{r.dropped},{rate}\n")


def write_summary_json(report: SimReport, path: str) -> None:
    """Reproducible run summary: byte-identical for identical (inputs, seed).
    Wall-clock timings are excluded for that reason; they live in the
    compare tables and on stdout."""
    doc = measure_metrics(report).to_json_dict()
    doc.pop("mean_solver_wall_time_s", None)
    doc["n_epochs"] = report.n_epochs
    doc["epoch_length_s"] = report.epoch_length
    doc["solves"] = [{k: v for k, v in s.items() if k != "wall_time_s"}
                     for s in report.solves]
    doc["flows"] = {
        fid: {"target": report.targets.get(fid), "measured_rate": o.measured_rate,
              "fully_sampled": o.fully_sampled, "ever_admitted": o.ever_admitted}
        for fid, o in report.outcomes.items()
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
