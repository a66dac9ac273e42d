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

The run fills one (epoch, flow) table, a row per epoch; the records,
per-flow outcomes and metrics are all read from its columns.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import FlowSpec, Network, build_network, write_json
from .optimizer import SolverConfig, solve
from .stats import estimate_flow_stats
from .trafficgen import UPDATE_INTERVAL, RateProcess

ESTIMATOR_WINDOW = 5   # past epochs the windowed estimator averages over
# A fully sampled flow's measured rate is at least 1 - this times its target.
FULLY_SAMPLED_TOLERANCE = 0.05


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
    bucket: float = UPDATE_INTERVAL
    solver: SolverConfig = field(default_factory=SolverConfig)
    estimator_mode: EstimatorMode = EstimatorMode.WINDOWED

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.bucket) and self.bucket > 0):
            raise ValueError(f"bucket must be positive and finite, got {self.bucket}")
        if not (math.isfinite(self.epoch_length) and self.epoch_length > 0):
            raise ValueError(f"epoch_length must be positive and finite, got {self.epoch_length}")
        ratio = self.epoch_length / self.bucket
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"epoch_length must be a whole number of buckets "
                             f"({self.bucket:g} s), got {self.epoch_length:g}")

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
    target: float                 # highest target rate asked; 0 if never queried


_NO_OUTCOME = FlowOutcome(None, False, False, 0.0)


@dataclass
class SimReport:
    """What each epoch did to each flow, as one (epoch, flow) table of
    columns, plus per-switch per-bucket load and violation.

    A cell is active when a query asked for the flow at that epoch's
    boundary: its ``target`` is the highest rate asked, and 0 in an inactive
    cell, whose counts are 0 too. ``assigned`` is the switch index the
    solve chose, or -1. Records, outcomes and metrics are all read from
    these columns.
    """

    flow_ids: list[str]
    target: np.ndarray              # (epoch, flow) target sampling rate
    assigned: np.ndarray            # (epoch, flow) switch index, -1 if not admitted
    offered: np.ndarray             # (epoch, flow) packets
    sampled: np.ndarray             # (epoch, flow) packets
    forwarded: np.ndarray           # (epoch, flow) packets
    switch_ids: list[str]
    switch_loads: np.ndarray        # (n_switches, n_buckets) sampled packets
    switch_violations: np.ndarray   # (n_switches, n_buckets) bool
    solves: list[dict]
    epoch_length: float
    bucket: float

    @property
    def n_epochs(self) -> int:
        return len(self.target)

    def _active_cells(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        """(epoch, flow index, switch index, offered, sampled, forwarded) of
        each active cell, in epoch order and then flow order."""
        epochs, flows = np.nonzero(self.target > 0)
        return zip(epochs.tolist(), flows.tolist(),
                   *(c[epochs, flows].tolist()
                     for c in (self.assigned, self.offered, self.sampled, self.forwarded)))

    @functools.cached_property
    def records(self) -> list[FlowEpochRecord]:
        """The active cells, in epoch order and then flow order."""
        return [FlowEpochRecord(e, self.flow_ids[i], self.switch_ids[s] if s >= 0 else None,
                                offered, sampled, forwarded, sampled - forwarded)
                for e, i, s, offered, sampled, forwarded in self._active_cells()]

    @functools.cached_property
    def outcomes(self) -> dict[str, FlowOutcome]:
        """Every flow with an active cell, by sorted flow id.

        A flow is fully sampled when it was admitted in every epoch its
        query was active and measured at no less than its target rate
        times 1 - ``FULLY_SAMPLED_TOLERANCE``.
        """
        active = self.target > 0
        admitted = self.assigned >= 0
        # initial=0.0 lets a run of zero epochs reduce its empty columns
        target = self.target.max(axis=0, initial=0.0).tolist()
        offered = self.offered.sum(axis=0).tolist()
        forwarded = self.forwarded.sum(axis=0).tolist()
        ever = admitted.any(axis=0).tolist()
        always = (admitted | ~active).all(axis=0).tolist()
        table = {}
        for i in sorted(np.nonzero(active.any(axis=0))[0].tolist(),
                        key=self.flow_ids.__getitem__):
            rate = forwarded[i] / offered[i] if offered[i] > 0 else None
            fully = (always[i] and rate is not None
                     and rate >= target[i] * (1.0 - FULLY_SAMPLED_TOLERANCE))
            table[self.flow_ids[i]] = FlowOutcome(rate, ever[i], fully, target[i])
        return table

    def measured_rate(self, flow_id: str) -> float | None:
        return self.outcomes.get(flow_id, _NO_OUTCOME).measured_rate

    def ever_admitted(self, flow_id: str) -> bool:
        return self.outcomes.get(flow_id, _NO_OUTCOME).ever_admitted

    def fully_sampled(self, flow_id: str) -> bool:
        return self.outcomes.get(flow_id, _NO_OUTCOME).fully_sampled

    def violation_fraction(self, switch_id: str | None = None) -> float:
        flags = self.switch_violations if switch_id is None else \
            self.switch_violations[self.switch_ids.index(switch_id)]
        return float(flags.mean()) if flags.size else 0.0


def epoch_instances(network: Network, queries: list[SamplingQuery], rates: RateProcess,
                    config: EpochConfig) -> Iterator[tuple[Network, SolverConfig]]:
    """Each epoch's solve, epoch by epoch: the network of the flows queried
    at the epoch boundary, each at its target rate and with the moments the
    estimator gives it, and the solver configuration. These are the
    (network, config) pairs :func:`run_simulation` passes to ``solve``, in
    order; neither depends on a solve's result."""
    for instance, _ in _epochs(network, _epoch_targets(network, queries, rates, config),
                               rates, config):
        yield instance


def _epoch_targets(network: Network, queries: list[SamplingQuery], rates: RateProcess,
                   config: EpochConfig) -> np.ndarray:
    """The run's (epoch, flow) target rates (see :func:`_query_targets`),
    after checking that the queries name the network's flows and that the
    rate process covers their whole epochs in the run's buckets."""
    for q in queries:
        if not network.has_flow(q.flow_id):
            raise ValueError(f"query references unknown flow {q.flow_id!r}")
    if abs(rates.bucket - config.bucket) > 1e-12:
        raise ValueError(f"rate process bucket {rates.bucket:g} s differs from "
                         f"simulation bucket {config.bucket:g} s")
    span = max((q.start + q.duration for q in queries), default=0.0)
    # no epoch boundary t_e >= 0 falls in spans that end at or before 0
    n_epochs = max(0, math.ceil(span / config.epoch_length - 1e-9))
    if n_epochs * config.buckets_per_epoch > rates.n_buckets:
        raise ValueError(
            f"rate process horizon {rates.horizon:g} s is shorter than the "
            f"{n_epochs} whole epochs ({n_epochs * config.epoch_length:g} s) "
            "spanned by the queries")
    return _query_targets(queries, {f.id: i for i, f in enumerate(network.flows)},
                          config.epoch_length, n_epochs)


def _epochs(network: Network, target: np.ndarray, rates: RateProcess, config: EpochConfig
            ) -> Iterator[tuple[tuple[Network, SolverConfig], np.ndarray]]:
    """Per epoch of ``target``: the (network, solver config) its solve
    reads, and its (flow, bucket) rates, which the replay reads and the
    windowed estimator averages in later epochs."""
    flows = network.flows
    bpe = config.buckets_per_epoch
    series = [rates.series(f.id) for f in flows]
    # (flow, epoch) rate means, each column filled as its epoch is reached;
    # the estimator reads only past epochs
    epoch_means = np.zeros((len(flows), len(target)))
    declared = [f.rate_mean_pps for f in flows], [f.rate_var_pps2 for f in flows]
    for e, alpha in enumerate(target):
        means, variances = declared
        if config.estimator_mode == EstimatorMode.WINDOWED and e > 0:
            means, variances = (m.tolist() for m in
                                estimate_flow_stats(epoch_means[:, :e], ESTIMATOR_WINDOW))
        targets = alpha.tolist()
        epoch_flows = [FlowSpec(f.id, f.src, f.dst, f.path, targets[i], means[i], variances[i])
                       for i in np.nonzero(alpha > 0)[0].tolist() for f in [flows[i]]]
        k0 = e * bpe
        rate_e = np.concatenate([r[k0:k0 + bpe] for r in series]).reshape(len(flows), bpe)
        epoch_means[:, e] = rate_e.mean(axis=1)
        yield (build_network(network.switches, epoch_flows), config.solver), rate_e


def run_simulation(network: Network, queries: list[SamplingQuery], rates: RateProcess,
                   config: EpochConfig, seed: int) -> SimReport:
    target = _epoch_targets(network, queries, rates, config)
    n_epochs = len(target)
    bpe = config.buckets_per_epoch
    n_buckets = n_epochs * bpe
    nf = len(network.flows)
    flow_ids = [f.id for f in network.flows]
    fidx = {fid: i for i, fid in enumerate(flow_ids)}
    switch_ids = [s.id for s in network.switches]
    ns = len(switch_ids)
    sidx = {sid: i for i, sid in enumerate(switch_ids)}
    cap_bucket = np.array([math.floor(s.capacity_pps * config.bucket) for s in network.switches],
                          dtype=np.int64)
    report = SimReport(
        flow_ids=flow_ids, target=target,
        assigned=np.full((n_epochs, nf), -1, dtype=np.int64),
        offered=np.zeros((n_epochs, nf), dtype=np.int64),
        sampled=np.zeros((n_epochs, nf), dtype=np.int64),
        forwarded=np.zeros((n_epochs, nf), dtype=np.int64),
        switch_ids=switch_ids, switch_loads=np.zeros((ns, n_buckets), dtype=np.int64),
        switch_violations=np.zeros((ns, n_buckets), dtype=bool), solves=[],
        epoch_length=config.epoch_length, bucket=config.bucket,
    )

    rng = np.random.default_rng(seed)
    carry = np.zeros(nf)
    bucket_base = np.arange(bpe)[:, None] * ns
    # the instances are read one epoch at a time, so a wide run holds one
    # epoch's network and rates at once
    for e, (instance, rate_e) in enumerate(_epochs(network, target, rates, config)):
        alpha = target[e]
        active = alpha > 0
        result = solve(*instance)
        report.solves.append({
            "epoch": e, "objective": result.objective, "optimal": result.optimal,
            "nodes_explored": result.nodes_explored, "bound": result.bound,
            "wall_time_s": result.wall_time,
        })
        assigned = report.assigned[e]
        for fid, sid in result.allocation.assignment.items():
            assigned[fidx[fid]] = sidx[sid]
        admit_mask = assigned >= 0

        # the whole epoch as (bucket, flow) arrays, bucket-major: one binomial
        # call draws the same variates in the same order as one call per bucket
        k0 = e * bpe
        offered, carry = _offered_counts((rate_e * config.bucket).T, carry)
        sampled = rng.binomial(np.where(admit_mask, offered, 0), alpha)
        admitted = np.nonzero(admit_mask)[0]
        totals = np.bincount((bucket_base + assigned[admitted]).ravel(),
                             weights=sampled[:, admitted].ravel(),
                             minlength=bpe * ns).astype(np.int64).reshape(bpe, ns)
        report.switch_loads[:, k0:k0 + bpe] = totals.T
        over = totals > cap_bucket
        report.switch_violations[:, k0:k0 + bpe] = over.T
        forwarded = _split_overloads(sampled, totals, over, assigned, cap_bucket)
        report.offered[e] = np.where(active, offered.sum(axis=0), 0)
        report.sampled[e] = sampled.sum(axis=0)
        report.forwarded[e] = forwarded.sum(axis=0)
    return report


def _query_targets(queries: list[SamplingQuery], fidx: dict[str, int], epoch_length: float,
                   n_epochs: int) -> np.ndarray:
    """The (epoch, flow) target rates: the highest rate of the queries whose
    span holds the epoch boundary t_e = e * epoch_length, that is
    start <= t_e + 1e-9 and t_e < start + duration - 1e-9; 0 where none does.
    Both halves are monotone in e, so each query's epochs are one run [lo, hi).
    """
    bounds = np.arange(n_epochs) * epoch_length
    start = np.array([q.start for q in queries])
    lo = np.searchsorted(bounds + 1e-9, start)
    hi = np.searchsorted(bounds, start + np.array([q.duration for q in queries]) - 1e-9)
    runs = np.maximum(hi - lo, 0)
    # every (query, epoch) pair, query by query: epoch lo + j at position
    # first + j, where first is the query's first position
    epochs = np.repeat(lo - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
    flows = np.repeat(np.array([fidx[q.flow_id] for q in queries], dtype=np.int64), runs)
    target = np.zeros((n_epochs, len(fidx)))
    np.maximum.at(target, (epochs, flows),
                  np.repeat(np.array([q.sampling_rate for q in queries]), runs))
    return target


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
    measured_rates: tuple[float, ...]  # of ever-admitted flows by flow id; not serialized

    def to_json_dict(self) -> dict:
        return {
            "version": "sim-summary/1",
            "admitted_flows": self.admitted_flows,
            "fully_sampled_flows": self.fully_sampled_flows,
            "rate_quartiles": list(self.rate_quartiles) if self.rate_quartiles else None,
            "violation_fraction": self.violation_fraction,
            "per_switch_violation": self.per_switch_violation,
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
    violations = report.switch_violations
    per_switch = violations.mean(axis=1) if violations.shape[1] else np.zeros(len(violations))
    return MetricSummary(
        admitted_flows=sum(o.ever_admitted for o in outcomes),
        fully_sampled_flows=sum(o.fully_sampled for o in outcomes),
        rate_quartiles=quartiles,
        violation_fraction=report.violation_fraction(),
        per_switch_violation=dict(zip(report.switch_ids, per_switch.tolist())),
        measured_rates=measured,
    )


def write_flow_epochs_csv(report: SimReport, path: str) -> None:
    """One row per active (epoch, flow) cell; see docs/formats.md."""
    switch_ids = report.switch_ids + [""]   # switch index -1, not admitted, reads ""
    flow_ids = report.flow_ids
    with open(path, "w") as fh:
        fh.write("#flow-epochs v1\n")
        fh.write("epoch,flow,assigned_switch,offered,sampled,forwarded,dropped,measured_rate\n")
        for e, i, s, offered, sampled, forwarded in report._active_cells():
            rate = f"{forwarded / offered:.6f}" if offered else ""
            fh.write(f"{e},{flow_ids[i]},{switch_ids[s]},"
                     f"{offered},{sampled},{forwarded},{sampled - forwarded},{rate}\n")


def write_summary_json(report: SimReport, path: str) -> None:
    """Reproducible run summary: byte-identical for identical (inputs, seed).
    Wall-clock timings are excluded for that reason; they live in the
    compare tables and on stdout."""
    doc = measure_metrics(report).to_json_dict()
    doc["n_epochs"] = report.n_epochs
    doc["epoch_length_s"] = report.epoch_length
    doc["solves"] = [{k: v for k, v in s.items() if k != "wall_time_s"}
                     for s in report.solves]
    doc["flows"] = {
        fid: {"target": o.target, "measured_rate": o.measured_rate,
              "fully_sampled": o.fully_sampled, "ever_admitted": o.ever_admitted}
        for fid, o in report.outcomes.items()
    }
    write_json(doc, path)
