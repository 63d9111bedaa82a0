"""Population-wide evaluation of the first / threshold / sampling algorithms.

``evaluate_batch`` finds, relative to the reactive baseline (every flow
gets an entry at its first packet), the flows that gain an entry and the
packet, from 1, that creates each one: first creates it at packet 1,
threshold and sampling where their counter or draw fires.  The triggering
packet and every later one are covered.  ``aggregate_batch`` folds those
entries into occupancy and, with their covered bytes, into the three
report metrics.  Packet sizes follow the even-split layout of
``PacketLayout``.

``evaluate_batch`` walks the population in blocks of ``BLOCK_FLOWS``
flows.  In each block one predicate picks the flows that can gain an
entry (exactly those, but for the size-sampling bound below, which keeps
a superset) and the per-flow arithmetic runs on those alone, summing their
covered bytes exactly from the sizes and lead/base/tail values it holds
(first needs the sizes alone); ``aggregate_batch`` reads only the entries'
lengths, in blocks of the same size.  So a cell's working memory is its
entries and a few blocks, never an array the length of the population, and
the layout, built in blocks too, holds 16 B per flow.  The predicates, for
a flow of n packets and s bytes:

- first and threshold, length axis: n > T;
- first and threshold, size axis: s > T (for threshold the lead/tail
  byte counts then place the packet);
- sampling, length axis: with x = log u / log(1 - p), the entry exists iff
  floor(x) + 1 <= n, which for an integer n is x < n;
- sampling, size axis, with M = max_packet_size: those with
  (u - 1) * (M / p - tail) > -(1 + 1e-6) * s.  The entry exists iff log u
  exceeds the log-survival sum log(1 - x_i) of all n packets, where
  x_i = p * packet_i / M <= x = p * tail / M (tail >= base).  As
  log(1 - x_i) >= -x_i / (1 - x) and the packets sum to s exactly, that
  log-survival is at least -s / (M / p - tail), and log u <= u - 1: a
  flow at or below the bound gains no entry, and the 1e-6 margin keeps
  rounding from dropping one that does.  At p = 1 a full-size packet,
  surely sampled, makes M / p = tail and keeps its flow.  The candidates
  alone then take log u and run the exact lead/tail formulas.

Sampling draws one uniform per flow, the blocks in turn from one stream,
so the draws do not depend on the block size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateError",
    "AlgorithmSpec",
    "PacketLayout",
    "PathProfile",
    "MetricsReport",
    "p_total",
    "p_eff_paths",
    "p_eff_avg",
    "evaluate_batch",
    "aggregate_batch",
]

ALGORITHM_KINDS = ("first", "threshold", "sampling")
AXES = ("length", "size")
DURATION_MODELS = ("equal", "proportional")

# flows per block of the threshold and sampling kernels
BLOCK_FLOWS = 2 ** 16


def check_algorithms(kinds) -> None:
    """Each name is one of ALGORITHM_KINDS, none is named twice, and there is one at least."""
    bad = [kind for kind in kinds if kind not in ALGORITHM_KINDS]
    if bad:
        raise ValueError(f"unknown algorithm(s) {bad}")
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"an algorithm is named twice in {list(kinds)}")
    if not kinds:
        raise ValueError("at least one algorithm is required")


class DegenerateError(ValueError):
    """No flow created an entry; reductions are unbounded."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which algorithm to run and with what parameter.

    ``threshold`` is packets (length axis) or bytes (size axis) and applies
    to the first/threshold kinds; ``probability`` applies to sampling.
    The axis sets the sampling odds: every packet with probability p on
    the length axis, p * packet bytes / max_packet_size on the size axis.
    """

    kind: str
    axis: str = "length"
    threshold: float | None = None
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.kind in ("first", "threshold"):
            if self.threshold is None or not 0 <= self.threshold < math.inf:  # NaN included
                raise ValueError(f"{self.kind} requires a finite threshold >= 0")
        else:
            if self.probability is None or not (0.0 < self.probability <= 1.0):
                raise ValueError("sampling requires probability in (0, 1]")

    @classmethod
    def of(cls, kind: str, axis: str, parameter: float) -> AlgorithmSpec:
        """The spec of a kind at its parameter: sampling's probability, else a threshold."""
        if kind == "sampling":
            return cls(kind, axis, probability=parameter)
        return cls(kind, axis, threshold=parameter)

    @property
    def parameter(self) -> float:
        return self.probability if self.kind == "sampling" else self.threshold


@dataclass(frozen=True)
class PathProfile:
    """Per-path routing probabilities with per-switch sampling probabilities."""

    paths: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        total = math.fsum(p for p, _ in self.paths)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"path probabilities sum to {total!r}, expected 1")
        for p, switch_ps in self.paths:
            if not (0.0 <= p <= 1.0) or any(not (0.0 <= q <= 1.0) for q in switch_ps):
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class MetricsReport:
    coverage_pct: float
    operations_reduction: float
    occupancy_reduction: float
    flow_count: int
    entries_created: int


def p_total(p: float, n: float) -> float:
    """Probability that an n-packet flow has an entry under per-packet
    sampling with probability p: 1 - (1 - p)^n, computed stably."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def p_eff_paths(profile: PathProfile) -> float:
    """Effective sampling probability when every switch on the path samples
    independently, averaged over path choice."""
    total = 0.0
    for path_p, switch_ps in profile.paths:
        miss = math.fsum(math.log1p(-q) for q in switch_ps if q < 1.0)
        hit = 1.0 if any(q >= 1.0 for q in switch_ps) else -math.expm1(miss)
        total += path_p * hit
    return total


def p_eff_avg(p: float, l_avg: float) -> float:
    """Effective sampling probability for an average path of l_avg switches."""
    if not l_avg >= 1:  # NaN included
        raise ValueError("l_avg must be >= 1")
    return p_total(p, l_avg)


# -- batch evaluation ------------------------------------------------------------


class PacketLayout:
    """Even-split packet sizes of a population of flows, in closed form.

    A flow of n packets and s bytes sends ``lead`` leading packets of
    base = s // n bytes, then n - lead trailing packets of ``tail`` bytes
    that carry the remainder rem = s - n * base:

    - rem = 0: every packet carries base bytes (lead = n, no trailing run);
    - base + rem <= max_packet_size: the last packet carries the remainder
      (lead = n - 1, tail = base + rem);
    - otherwise the remainder is spread, one extra byte on each of the last
      rem packets (lead = n - rem, tail = base + 1).

    ``base`` and ``tail`` are int32, as no packet exceeds max_packet_size,
    below 2^31.  ``max_packet_size`` also sets the odds of size-scaled
    sampling, and ``total_bytes`` is the flows' byte total, below 2^63.
    The arrays are built a block of BLOCK_FLOWS flows at a time, each block
    checked first to split into packets of 1..max_packet_size bytes, with
    length * max_packet_size in int64, as read_flow_csv checks its rows.
    Build a layout once per population and pass it to every call over that
    population.
    """

    def __init__(self, lengths: np.ndarray, sizes: np.ndarray, max_packet_size: int):
        self.lead, self.base, self.tail = (np.empty(len(lengths), dtype=t)
                                           for t in (np.int64, np.int32, np.int32))
        for start, block in _blocks(len(lengths)):
            l, s = lengths[block], sizes[block]
            bad = np.flatnonzero((l < 1) | (l > (2 ** 63 - 1) // max_packet_size)  # l * M fits
                                 | (s < l) | (s > l * max_packet_size))
            if len(bad):
                i = start + bad[0]
                raise ValueError(f"flow {i} of {lengths[i]} packets and {sizes[i]} bytes does "
                                 f"not split into packets of 1..{max_packet_size} bytes")
            base, rem = np.divmod(s, l)
            spread = base + rem > max_packet_size
            np.subtract(l, np.where(spread, rem, rem > 0), out=self.lead[block])
            self.tail[block] = base + np.where(spread, 1, rem)
            self.base[block] = base
        # a float64 sum errs by far less than 2^62: only near 2^63 is it redone exactly
        if float(sizes.sum(dtype=float)) >= 2.0 ** 62 and sum(sizes.tolist()) >= 2 ** 63:
            raise ValueError("the flows' byte total overflows int64")
        self.total_bytes = int(sizes.sum())
        self.max_packet_size = max_packet_size

    def of(self, flows: np.ndarray):
        """(lead, base, tail) of each of the ``flows``, indices into the population."""
        return self.lead[flows], self.base[flows], self.tail[flows]


def _blocks(n: int):
    """(start, slice) of each block of BLOCK_FLOWS flows, the last partial;
    one empty block when there are none."""
    for start in range(0, max(n, 1), BLOCK_FLOWS):
        yield start, slice(start, min(start + BLOCK_FLOWS, n))


def _covered(trigger: np.ndarray, size: np.ndarray, lead: np.ndarray, base: np.ndarray,
             tail: np.ndarray) -> int:
    """Bytes from packet ``trigger`` on, summed exactly over flows of these
    sizes and layouts: the bytes their entries cover."""
    k = trigger - 1
    return int((size - k * base - np.maximum(k - lead, 0) * (tail - base)).sum())


def _threshold_triggers(lengths: np.ndarray, sizes: np.ndarray, spec: AlgorithmSpec,
                        layout: PacketLayout):
    T = spec.threshold
    value = lengths if spec.axis == "length" else sizes
    for start, block in _blocks(len(lengths)):
        flows = start + np.flatnonzero(value[block] > T)
        size = sizes[flows]
        if spec.kind == "first":
            yield flows, np.ones(len(flows), dtype=np.int64), int(size.sum())
            continue
        lead, base, tail = layout.of(flows)
        if spec.axis == "length":
            trigger = np.full(len(flows), np.floor(T) + 1)
        else:
            # the packet that takes the flow's byte count above the threshold
            t = np.floor(T)  # byte counts are integers
            lead_bytes = lead * base
            trigger = np.where(t < lead_bytes, np.floor(t / base),
                               lead + np.floor((t - lead_bytes) / tail)) + 1
        trigger = trigger.astype(np.int64)
        yield flows, trigger, _covered(trigger, size, lead, base, tail)


def _size_candidates(u: np.ndarray, sizes: np.ndarray, tail: np.ndarray, p: float,
                     max_packet_size: int) -> np.ndarray:
    """Indices of the flows that size-scaled sampling at probability p can
    give an entry, by the bound of the module docstring."""
    return np.flatnonzero((u - 1.0) * (max_packet_size / p - tail) > -(1.0 + 1e-6) * sizes)


def _sampling_triggers(lengths: np.ndarray, sizes: np.ndarray, spec: AlgorithmSpec,
                       layout: PacketLayout, rng: np.random.Generator):
    # The first sampled packet is drawn from its exact law by inversion: with
    # u uniform, packet k is the first success when the log-survival of the
    # packets before it is >= log u and that of packets 1..k is < log u.
    # This matches a per-packet Bernoulli loop in distribution.
    p = spec.probability
    scale = p / layout.max_packet_size
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)  # -inf at p = 1
    for start, block in _blocks(len(lengths)):
        u = rng.random(block.stop - start)  # the blocks draw in turn from one stream
        if spec.axis == "length":
            x = np.log(np.maximum(u, 2.0 ** -53)) / log_q
            cand = np.flatnonzero(x < lengths[block])
            flows = start + cand
            trigger = (np.floor(x[cand]) + 1).astype(np.int64)
            yield flows, trigger, _covered(trigger, sizes[flows], *layout.of(flows))
            continue
        cand = _size_candidates(u, sizes[block], layout.tail[block], p, layout.max_packet_size)
        # a run of leading packets sampled alike, then a run of trailing ones
        flows = start + cand
        log_u = np.log(np.maximum(u[cand], 2.0 ** -53))
        lead, base, tail = layout.of(flows)
        # a full-size packet at p = 1 is surely sampled: log(1 - 1) = -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q_lead = np.log1p(-scale * base)
            log_q_tail = np.log1p(-scale * tail)
            k_lead = np.floor(log_u / log_q_lead) + 1
            k_tail = lead + np.floor((log_u - lead * log_q_lead) / log_q_tail) + 1
        trigger = np.where(k_lead <= lead, k_lead,
                           np.where(k_tail <= lengths[flows], k_tail, 0))
        hit = np.flatnonzero(trigger > 0)
        flows, trigger = flows[hit], trigger[hit].astype(np.int64)
        yield flows, trigger, _covered(trigger, sizes[flows], lead[hit], base[hit], tail[hit])


def evaluate_batch(lengths: np.ndarray, sizes: np.ndarray, spec: AlgorithmSpec,
                   layout: PacketLayout, rng: np.random.Generator | None = None):
    """The entries a spec creates over a population, as (flows, trigger,
    covered): the increasing indices of the flows that gain an entry and
    the packet, from 1, that creates each one, both int64, and the exact
    integer byte total the entries cover, each flow's bytes from its
    triggering packet on.

    ``layout`` is the population's PacketLayout, which carries the model's
    max_packet_size.  Sampling draws from ``rng``.
    """
    if spec.kind != "sampling":
        triggers = _threshold_triggers(lengths, sizes, spec, layout)
    elif rng is None:
        raise ValueError("sampling evaluation requires an RNG")
    else:
        triggers = _sampling_triggers(lengths, sizes, spec, layout, rng)
    flows, trigger, covered = zip(*triggers)
    return np.concatenate(flows), np.concatenate(trigger), sum(covered)


def aggregate_batch(lengths: np.ndarray, layout: PacketLayout, flows: np.ndarray,
                    trigger: np.ndarray, covered: int,
                    duration_model: str = "equal") -> MetricsReport:
    """Fold the entries of evaluate_batch, and the bytes they cover, into
    coverage and reduction factors, a block of entries at a time.  An entry
    created at packet t of an n-packet flow occupies the table for
    n + 1 - t packets: the fraction (n + 1 - t) / n of the flow's duration
    under the equal-duration model, n + 1 - t packet times under the
    proportional one, whose sum is an exact integer.

    Raises DegenerateError when no entry was created (coverage 0, both
    reductions unbounded).
    """
    if duration_model not in DURATION_MODELS:
        raise ValueError(f"unknown duration_model {duration_model!r}")
    n = len(lengths)
    entries = len(flows)
    if n == 0:
        raise ValueError("aggregate requires a non-empty population")
    if entries == 0:
        raise DegenerateError("no flow created an entry; reductions are infinite")
    equal = duration_model == "equal"
    occupied = 0
    for _, block in _blocks(entries):
        packets = lengths[flows[block]]
        held = packets + 1 - trigger[block]
        occupied += float((held / packets).sum()) if equal else int(held.sum())
    coverage = 100.0 * float(covered) / float(layout.total_bytes)
    # the baseline holds every flow's entry for the flow's whole duration
    baseline = n if equal else float(lengths.sum())
    return MetricsReport(coverage, n / entries, baseline / occupied, n, entries)
