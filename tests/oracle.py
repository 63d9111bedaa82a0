"""Per-flow reference evaluation of the first / threshold / sampling algorithms.

The library evaluates whole populations at once (``flowtab.algorithms.
evaluate_batch``).  This module walks one flow at a time, packet by packet,
exactly as the algorithms are defined, and is the oracle the batch path is
tested against.  Each evaluator returns a FlowOutcome relative to the
reactive baseline (every flow gets an entry at its first packet).
Occupancy uses the equal-flow-duration model by default: a flow's entry
occupies the table for the fraction of the flow's packets from the
triggering packet onward.  ``aggregate`` folds outcomes into the three
report metrics.

``reference_trigger`` keeps the whole-population formulas of the
triggering packet, one array operation over every flow per step, as the
reference the blocked kernels of ``evaluate_batch`` must match bit for
bit; ``packet_over`` places a size threshold's packet, counting in int64
as the kernels do, and ``bytes_before`` counts a flow's bytes ahead of a
packet.  ``expand`` turns the sparse entries that ``evaluate_batch``
returns into per-flow arrays.  Each reads the population, the flows'
lengths and sizes and their packets, from its ``PacketLayout``, as the
library does.

``expected_covered_fraction`` is the checked, per-flow form of the
covered-share closed form that ``flowtab.analytic`` weights sampling with.

``expected_sampling`` is the exact law of sampling over a fixed
population: each flow's expected entry, covered bytes and occupancy, in
closed form over its lead and tail runs, against which the simulated
sampling mean is tested with no model error.

``reference_weights`` keeps the analytic weights as whole-array
expressions, each operation a fresh array, as the reference the in-place
weights of ``flowtab.analytic`` must match bit for bit.

``reference_remainder`` keeps the Abel-summed tail remainder on fresh
per-octave quadrature nodes from its own start, the reference for the
analytic tail sums past a mixture's survival table.

``reference_quantile`` keeps the plain search of a mixture's integer
quantile: one binary search over the whole survival table, then integer
bisection of each grid bracket past it.  The guided search and the
interpolation rounds of ``Mixture.quantile`` must return its answers bit
for bit.

``reference_guide`` keeps the one-shot build of a mixture's guide, every
bucket's key searched at once, which the blocked build must match bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from flowtab.algorithms import (
    DURATION_MODELS,
    AlgorithmSpec,
    DegenerateError,
    MetricsReport,
    PacketLayout,
)
from flowtab.analytic import _WEIGHTS
from flowtab.model import DEFAULT_MAX_PACKET, GUIDE_BUCKETS, SUPPORT_CAP, Mixture, TrafficModel


class PacketizeError(ValueError):
    """Flow cannot be split into packets within [1, max_packet_size]."""


@dataclass(frozen=True)
class FlowRecord:
    """One flow."""

    length: int
    size: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("flow length must be >= 1 packet")
        if self.size < self.length:
            raise ValueError("flow size must allow >= 1 byte per packet")


def packetize(flow: FlowRecord, max_packet_size: int = DEFAULT_MAX_PACKET) -> list[int]:
    """Split a flow into exactly ``flow.length`` packet sizes summing to
    ``flow.size``, each within [1, max_packet_size], by even split:
    floor(size/length) per packet with the remainder on the last packet
    (spread one byte per trailing packet if the last would otherwise
    exceed max_packet_size)."""
    n, s = flow.length, flow.size
    if s < n or s > n * max_packet_size:
        raise PacketizeError(
            f"size {s} not packetizable into {n} packets of 1..{max_packet_size} bytes"
        )
    base, rem = divmod(s, n)
    sizes = [base] * n
    if rem:
        if base + rem <= max_packet_size:
            sizes[-1] += rem
        else:
            for i in range(rem):
                sizes[-1 - i] += 1
    return sizes


@dataclass(frozen=True)
class FlowOutcome:
    entry_created: bool
    covered_bytes: int
    occupancy_fraction: float
    flow_bytes: int
    flow_packets: int

    def __post_init__(self) -> None:
        if not self.entry_created and (self.covered_bytes or self.occupancy_fraction):
            raise ValueError("uncreated entry cannot cover traffic or occupy the table")
        if self.covered_bytes > self.flow_bytes or self.occupancy_fraction > 1.0:
            raise ValueError("outcome exceeds the flow it belongs to")


def eval_first(flow: FlowRecord, spec: AlgorithmSpec) -> FlowOutcome:
    """Oracle classification at the first packet: entry iff the flow's final
    length/size strictly exceeds the threshold; covered from packet one."""
    if spec.kind != "first":
        raise ValueError("spec.kind must be 'first'")
    value = flow.length if spec.axis == "length" else flow.size
    if value > spec.threshold:
        return FlowOutcome(True, flow.size, 1.0, flow.size, flow.length)
    return FlowOutcome(False, 0, 0.0, flow.size, flow.length)


def eval_threshold(flow: FlowRecord, spec: AlgorithmSpec,
                   max_packet_size: int = DEFAULT_MAX_PACKET) -> FlowOutcome:
    """Per-flow counter: the entry is created at the first packet whose
    arrival pushes the counter (packets or cumulative bytes) above the
    threshold; that packet and all later ones are covered."""
    if spec.kind != "threshold":
        raise ValueError("spec.kind must be 'threshold'")
    sizes = packetize(flow, max_packet_size)
    counter = 0.0
    for i, pkt in enumerate(sizes):
        counter += 1 if spec.axis == "length" else pkt
        if counter > spec.threshold:
            covered = sum(sizes[i:])
            occupancy = (flow.length - i) / flow.length
            return FlowOutcome(True, covered, occupancy, flow.size, flow.length)
    return FlowOutcome(False, 0, 0.0, flow.size, flow.length)


def eval_sampling(flow: FlowRecord, spec: AlgorithmSpec, rng: np.random.Generator,
                  max_packet_size: int = DEFAULT_MAX_PACKET) -> FlowOutcome:
    """Random per-packet sampling until the first success creates the entry.

    On the length axis every packet is sampled with probability p; on the
    size axis with p * packet_size / max_packet_size.  Deterministic given the RNG
    state.
    """
    if spec.kind != "sampling":
        raise ValueError("spec.kind must be 'sampling'")
    p = spec.probability
    sizes = packetize(flow, max_packet_size)
    for i, pkt in enumerate(sizes):
        if spec.axis == "size":
            p_i = p * pkt / max_packet_size
        else:
            p_i = p
        if rng.random() < p_i:
            covered = sum(sizes[i:])
            occupancy = (flow.length - i) / flow.length
            return FlowOutcome(True, covered, occupancy, flow.size, flow.length)
    return FlowOutcome(False, 0, 0.0, flow.size, flow.length)


def aggregate(outcomes: Iterable[FlowOutcome], duration_model: str = "equal") -> MetricsReport:
    """Fold per-flow outcomes into coverage and reduction factors.

    Raises DegenerateError when no entry was created (coverage 0, both
    reductions unbounded).
    """
    if duration_model not in DURATION_MODELS:
        raise ValueError(f"unknown duration_model {duration_model!r}")
    n = 0
    entries = 0
    covered = 0
    total_bytes = 0
    occ = 0.0
    total_packets = 0
    occ_packets = 0.0
    for o in outcomes:
        n += 1
        total_bytes += o.flow_bytes
        total_packets += o.flow_packets
        if o.entry_created:
            entries += 1
            covered += o.covered_bytes
            occ += o.occupancy_fraction
            occ_packets += o.occupancy_fraction * o.flow_packets
    if n == 0:
        raise ValueError("aggregate requires a non-empty outcome stream")
    if entries == 0:
        raise DegenerateError("no flow created an entry; reductions are infinite")
    coverage = 100.0 * covered / total_bytes
    ops = n / entries
    if duration_model == "equal":
        occ_reduction = n / occ
    else:
        occ_reduction = total_packets / occ_packets
    return MetricsReport(coverage, ops, occ_reduction)


# -- whole-population reference of the batch kernels -------------------------------


def bytes_before(layout: PacketLayout, k: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Bytes in the first k packets of each of the ``flows`` (indices into
    the population)."""
    lead, base, tail = layout.lead[flows], layout.base[flows], layout.tail[flows]
    return k * base + np.maximum(k - lead, 0) * (tail - base)


def whole_threshold(threshold: float) -> np.int64:
    """floor(T), at most 2^63 - 1: a count of packets or bytes, an
    integer, exceeds T iff it exceeds floor(T)."""
    return np.int64(min(math.floor(threshold), 2 ** 63 - 1))


def packet_over(layout: PacketLayout, threshold: float, flows: np.ndarray) -> np.ndarray:
    """Index, from 1, of the packet that takes the byte count of each of
    the ``flows`` (indices into the population) above the threshold, in
    int64; meaningful for flows of more bytes than the threshold."""
    t = whole_threshold(threshold)
    lead, base, tail = layout.lead[flows], layout.base[flows], layout.tail[flows]
    lead_bytes = lead * base
    return np.where(t < lead_bytes, t // base, lead + (t - lead_bytes) // tail) + 1


def reference_sampling_trigger(layout: PacketLayout, spec: AlgorithmSpec,
                               log_u: np.ndarray) -> np.ndarray:
    """Packet, from 1, that sampling with log-uniforms ``log_u`` first
    samples in each flow (0 for none), by inversion of the per-packet law."""
    p, lengths = spec.probability, layout.lengths
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.axis == "length":
            trigger = np.floor(log_u / np.log1p(-p)) + 1
            trigger = np.where(trigger <= lengths, trigger, 0)
        else:
            scale = p / layout.max_packet_size
            log_q_lead = np.log1p(-scale * layout.base)
            log_q_tail = np.log1p(-scale * layout.tail)
            k_lead = np.floor(log_u / log_q_lead) + 1
            # at least lead + 1: a draw the lead run rejects, by a rounding at its
            # edge too, is never sampled in it
            k_tail = layout.lead + np.maximum(
                np.floor((log_u - layout.lead * log_q_lead) / log_q_tail), 0) + 1
            trigger = np.where(k_lead <= layout.lead, k_lead,
                               np.where(k_tail <= lengths, k_tail, 0))
    return trigger.astype(np.int64)


def reference_trigger(layout: PacketLayout, spec: AlgorithmSpec,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Packet, from 1, that creates each flow's entry under a spec (0 for
    none), over the whole population at once."""
    lengths, sizes = layout.lengths, layout.sizes
    if spec.kind == "sampling":
        log_u = np.log(np.maximum(rng.random(len(lengths)), 2.0 ** -53))
        return reference_sampling_trigger(layout, spec, log_u)
    t = whole_threshold(spec.threshold)
    if spec.kind == "first":
        value = lengths if spec.axis == "length" else sizes
        return np.where(value > t, 1, 0).astype(np.int64)
    if spec.axis == "length":
        return np.where(lengths > t, t, -1) + 1  # t + 1 <= n for the flows over it
    over = np.flatnonzero(sizes > t)
    trigger = np.zeros(len(sizes), dtype=np.int64)
    trigger[over] = packet_over(layout, spec.threshold, over)
    return trigger


def expand(layout: PacketLayout, flows: np.ndarray, trigger: np.ndarray):
    """Per-flow (created, covered_bytes, occupancy_fraction) of the entries
    (flows, trigger) that evaluate_batch returns: the triggering packet and
    every later one are covered, the occupancy is that of the
    equal-duration model, and every other flow keeps zeros."""
    lengths, sizes = layout.lengths, layout.sizes
    created = np.zeros(len(lengths), dtype=bool)
    covered = np.zeros(len(lengths), dtype=np.int64)
    occ = np.zeros(len(lengths))
    created[flows] = True
    covered[flows] = sizes[flows] - bytes_before(layout, trigger - 1, flows)
    occ[flows] = (lengths[flows] + 1 - trigger) / lengths[flows]
    return created, covered, occ


def expected_covered_fraction(p: float, length) -> np.ndarray | float:
    """Expected covered share of an n-packet flow under per-packet sampling
    with probability p (triggering packet included):

        sum_{k=1..n} p q^(k-1) (n-k+1)/n  =  1 - q (1 - q^n) / (p n),  q = 1-p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    scalar = np.isscalar(length)
    n = np.atleast_1d(np.asarray(length, dtype=float))
    if np.any(n < 1):
        raise ValueError("length must be >= 1")
    # the library's length-axis weights, which read nothing of a model; at
    # p = 1 they are the indicator, None
    _, _, covered = _WEIGHTS["sampling"](None, AlgorithmSpec("sampling", "length", probability=p))
    out = np.ones_like(n) if covered is None else covered[0](n)
    return float(out[0]) if scalar else out


# -- the exact sampling law over a fixed population -----------------------------------


@dataclass(frozen=True)
class SamplingExpectation:
    """Per-flow float arrays: the chance of an entry, the expected covered
    bytes, the expected packets the entry is held for (the occupancy of the
    proportional-duration model) and their share of the flow's packets (that
    of the equal-duration model)."""

    entries: np.ndarray
    covered: np.ndarray
    held: np.ndarray
    occupancy: np.ndarray


def _log_pass(runs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log q^R, q = 1 - x: the log-chance that no packet of a run of R, each
    sampled at odds x, is sampled; 0 for an empty run, at x = 1 too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(runs > 0, runs * np.log1p(-x), 0.0)


def _run_packets(runs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V(R, x) = sum_{i<R} (R - i) q^i x = R - q (1 - q^R) / x, q = 1 - x:
    the expected packets of a run of R, each sampled at odds x, from the
    first sampled one to the run's end, 0 when none is.  Where R x <= 1 the
    closed form cancels, so it is summed as its series
    sum_{r>=2} C(R+1, r) (-1)^r x^(r-1), whose terms fall by a factor
    R x / (r + 1) <= 1 / (r + 1) each: its first 20 reach double precision."""
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = runs + (1.0 - x) * np.expm1(_log_pass(runs, x)) / x
    term = runs * (runs + 1.0) / 2.0 * x
    series = term.copy()
    for r in range(2, 21):
        term = term * -x * (runs + 1.0 - r) / (r + 1.0)
        series += term
    return np.where(runs * x <= 1.0, series, closed)


def expected_sampling(layout: PacketLayout, spec: AlgorithmSpec) -> SamplingExpectation:
    """The exact expectations of a sampling spec over the layout's flows,
    with no noise and no model error.

    A flow of n packets sends a lead run of L packets of ``base`` bytes,
    sampled at odds x_b each, then a tail run of m = n - L packets of
    ``tail`` bytes, at odds x_t: p on the length axis, p * packet /
    max_packet_size on the size axis.  With q = 1 - x, the entry is created
    at lead packet i + 1 with chance q_b^i x_b and at tail packet L + j + 1
    with chance q_b^L q_t^j x_t, and it covers the bytes and holds the
    packets from there on.  Summed over both runs, with V(R, x) of
    ``_run_packets`` the expected packets of a run from its trigger on:

        entries = 1 - q_b^L q_t^m
        held    = m (1 - q_b^L) + V(L, x_b) + q_b^L V(m, x_t)
        covered = m tail (1 - q_b^L) + base V(L, x_b) + q_b^L tail V(m, x_t)

    At p = 1 on the length axis q = 0, and the entry is the first packet's.
    """
    if spec.kind != "sampling":
        raise ValueError("spec.kind must be 'sampling'")
    n = layout.lengths.astype(float)
    lead, base, tail = (a.astype(float) for a in (layout.lead, layout.base, layout.tail))
    m, p = n - lead, spec.probability
    if spec.axis == "length":
        x_b = x_t = np.full(len(n), p)
    else:
        x_b, x_t = p / layout.max_packet_size * base, p / layout.max_packet_size * tail
    log_pass_b = _log_pass(lead, x_b)
    pass_b, hit_b = np.exp(log_pass_b), -np.expm1(log_pass_b)
    v_b, v_t = _run_packets(lead, x_b), _run_packets(m, x_t)
    held = m * hit_b + v_b + pass_b * v_t
    covered = m * tail * hit_b + base * v_b + pass_b * tail * v_t
    entries = -np.expm1(log_pass_b + _log_pass(m, x_t))
    return SamplingExpectation(entries, covered, held, held / n)


def expected_sampling_per_packet(flow: FlowRecord, spec: AlgorithmSpec,
                                 max_packet_size: int = DEFAULT_MAX_PACKET):
    """(entries, covered, held) of ``expected_sampling`` for one flow, summed
    packet by packet over the chance that each packet is the first sampled."""
    sizes = packetize(flow, max_packet_size)
    survive, entries, covered, held = 1.0, 0.0, 0.0, 0.0
    for i, pkt in enumerate(sizes):
        odds = spec.probability * pkt / max_packet_size if spec.axis == "size" \
            else spec.probability
        first = survive * odds
        entries, covered, held = entries + first, covered + first * sum(sizes[i:]), \
            held + first * (flow.length - i)
        survive *= 1.0 - odds
    return entries, covered, held


# -- the analytic weights on fresh arrays --------------------------------------------


def reference_weights(model: TrafficModel, spec: AlgorithmSpec):
    """The (created, covered) weights of a threshold or sampling spec as
    whole-array functions; an indicator weight is None: threshold's
    created, and both of sampling at p = 1 on the length axis."""
    if spec.kind == "threshold":
        t = float(spec.threshold)
        return None, lambda x: 1.0 - t / x
    p = spec.probability
    if spec.axis == "length":
        if p == 1.0:
            return None, None
        lq = math.log1p(-p)

        def covered_fraction(n):
            created = -np.expm1(n * math.log1p(-p))
            return 1.0 - (1.0 - p) * created / (p * n)

        return (lambda x: -np.expm1(x * lq)), covered_fraction
    lam = p / model.max_packet_size

    def covered(s):
        x = lam * s
        return 1.0 + np.expm1(-x) / x

    return (lambda s: -np.expm1(-lam * s)), covered


# -- the tail remainder on fresh nodes ----------------------------------------------


def reference_remainder(mix: Mixture, g, gstep, x0: int) -> tuple[float, float]:
    """Sum of pmass(k) * g(k) over integers k > x0, x0 < SUPPORT_CAP with
    sf(x0) > 0, with its truncation bound: the Abel-summed remainder
    sf(x0) g(x0 + 1) + sum over x > x0 of sf(x) gstep(x), the sum read as
    the integral over [x0 + 1, SUPPORT_CAP] plus half its first term.  The
    integral takes the 64-point Gauss-Legendre rule on equal pieces of at
    most an octave on the log axis, its error the gap to the 32-point rule."""
    x1 = np.array([x0 + 1.0])
    ta, tb = math.log(x0 + 1.0), math.log(SUPPORT_CAP)
    edges = np.linspace(ta, tb, max(1, math.ceil((tb - ta) / math.log(2.0))) + 1)
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    sums = []
    for points in (64, 32):
        nodes, w = np.polynomial.legendre.leggauss(points)
        x = np.exp(mid + half * nodes[None, :])
        sums.append(float(np.sum(mix._raw_sf(x) * gstep(x) * x * w[None, :] * half)) if tb > ta else 0.0)
    v64, v32 = sums
    h0 = float((mix.sf(x1) * gstep(x1))[0])
    value = mix.sf(float(x0)) * float(g(x1)[0]) + v64 + 0.5 * h0
    return value, 0.5 * abs(h0) + abs(v64 - v32) + 2.0 * mix.sf(float(SUPPORT_CAP))


# -- the integer quantile by bisection ----------------------------------------------


def reference_guide(mix: Mixture) -> np.ndarray:
    """The first survival-table index where 1 - sf is at or above each
    b / GUIDE_BUCKETS, as int32."""
    keys = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    return np.searchsorted(1.0 - mix._sf_table, keys).astype(np.int32)


def reference_quantile(mix: Mixture, u) -> np.ndarray:
    """Smallest integer x >= domain_min with 1 - sf(x) >= u, for u in [0, 1).

    u is looked up in the survival table, then in the grid past it; a grid
    bracket is bisected on the integers, and past 2^53, where floats are
    sparser than the integers, until no float lies strictly inside it."""
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    base = mix._ends[0]
    cdf = 1.0 - mix._sf_table
    k = np.searchsorted(cdf, uu, "left")
    out = np.where(uu > 0.0, float(base) + k, float(mix.domain_min))
    past = np.flatnonzero(k == len(cdf))
    if past.size:
        up = uu[past]
        grid, grid_cdf = mix._tail_grid[:2]
        j = np.searchsorted(grid_cdf, up, "left")
        lo, hi = grid[j - 1], grid[j]
        live = np.arange(len(up))
        while live.size:
            mid = np.floor(lo[live] / 2.0 + hi[live] / 2.0)
            inside = (lo[live] < mid) & (mid < hi[live])
            live, mid = live[inside], mid[inside]
            above = 1.0 - mix._raw_sf(mid) >= up[live]
            hi[live[above]] = mid[above]
            lo[live[~above]] = mid[~above]
        out[past] = hi
    return out
