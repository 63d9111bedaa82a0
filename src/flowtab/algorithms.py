"""Population-wide evaluation of the first / threshold / sampling algorithms.

``evaluate_batch`` finds, relative to the reactive baseline (every flow
gets an entry at its first packet), the flows that gain an entry and the
packet, from 1, that creates each one: first creates it at packet 1,
threshold and sampling where their counter or draw fires.  The triggering
packet and every later one are covered.  ``aggregate_batch`` folds those
entries into occupancy and, with their covered bytes, into the three
report metrics.  A population is one ``PacketLayout``: the flows' lengths
and sizes and the even-split sizes of their packets, so no call can pair
a layout with another population's arrays.

``evaluate_batch`` walks the population in blocks of ``BLOCK_FLOWS``
flows.  In each block one predicate picks the flows that can gain an entry
(exactly those, but for the size-sampling bound below, which keeps a
superset) and the per-flow arithmetic runs on those alone, summing their
covered bytes exactly from the sizes and lead/base/tail values it holds
(first needs the sizes alone); ``aggregate_batch`` reads only the entries'
lengths, in blocks of the same size.  The layout also owns both the scratch
each intermediate is written into and the ``entries`` pair the entries are
written into, so the results are views of that pair until the next call
over the population.  A cell allocates one block of indices at a time, and
the layout, built in blocks too, holds 16 B per flow beside its scratch
and pair.  The predicates, for a flow of n packets and s bytes:

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
  surely sampled, makes M / p = tail and keeps its flow.

One kernel, ``_block``, places every entry by first passage, as its
docstring states.  Sampling draws one uniform per flow, the blocks in turn
from one stream, so the draws do not depend on the block size, and takes
the first sampled packet from its exact law by inversion: packet k is the
first success when the log-survival of the packets before it is >= log u
and that of packets 1..k is < log u.  This matches a per-packet Bernoulli
loop in distribution.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = ["DegenerateError", "AlgorithmSpec", "PacketLayout", "PathProfile", "MetricsReport",
           "p_total", "p_eff_paths", "p_eff_avg", "evaluate_batch", "aggregate_batch"]

ALGORITHM_KINDS = ("first", "threshold", "sampling")
AXES = ("length", "size")
DURATION_MODELS = ("equal", "proportional")

# flows per block of the kernel
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
            if not isinstance(self.threshold, numbers.Real) or not 0 <= self.threshold < math.inf:
                raise ValueError(f"{self.kind} requires a finite threshold >= 0")
        elif not isinstance(self.probability, numbers.Real) or not 0.0 < self.probability <= 1.0:
            raise ValueError("sampling requires probability in (0, 1]")

    @classmethod
    def of(cls, kind: str, axis: str, parameter: float) -> AlgorithmSpec:
        """The spec of a kind at its parameter: sampling's probability, else a threshold."""
        return cls(kind, axis, **{"probability" if kind == "sampling" else "threshold": parameter})

    @property
    def parameter(self) -> float:
        return self.probability if self.kind == "sampling" else self.threshold


@dataclass(frozen=True)
class PathProfile:
    """Per-path routing probabilities with per-switch sampling probabilities."""

    paths: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if any(not isinstance(q, numbers.Real) or not 0.0 <= q <= 1.0  # NaN included
               for p, switch_ps in self.paths for q in (p, *switch_ps)):
            raise ValueError("probabilities must lie in [0, 1]")
        total = math.fsum(p for p, _ in self.paths)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"path probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class MetricsReport:
    """Coverage and both reductions, simulated or analytic, and the bound on
    the analytic sums' truncation, flagged above FLAG_LEVEL; a simulation
    sums every flow exactly, so its ``truncation_error`` is 0."""

    FLAG_LEVEL = 1e-6  # a class constant, not a field
    coverage_pct: float
    operations_reduction: float
    occupancy_reduction: float
    truncation_error: float = 0.0

    @property
    def flagged(self) -> bool:
        return self.truncation_error > self.FLAG_LEVEL


def p_total(p: float, n: float) -> float:
    """Probability that an n-packet flow has an entry under per-packet
    sampling with probability p: 1 - (1 - p)^n, computed stably."""
    if not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not isinstance(n, numbers.Real) or not n >= 0:  # NaN included
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
    if not isinstance(l_avg, numbers.Real) or not l_avg >= 1:  # NaN included
        raise ValueError("l_avg must be >= 1")
    return p_total(p, l_avg)


# -- batch evaluation ------------------------------------------------------------


class PacketLayout:
    """A population of flows: their ``lengths`` and ``sizes``, 1-D int64
    arrays, and the even-split sizes of their packets, in closed form.

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
    length * max_packet_size in int64, as read_flow_csv checks its rows, and
    then written in place, beside a few bool masks of one block.
    Build a layout once per population and pass it to every call over that
    population: they write its ``scratch`` and ``entries``, so they run one
    at a time.  The layout makes the arrays it keeps read-only, the caller's
    lengths and sizes too, uncopied; a write through another view of their
    memory is not caught.
    """

    def __init__(self, lengths: np.ndarray, sizes: np.ndarray, max_packet_size: int):
        self.lengths, self.sizes = lengths, sizes = np.asarray(lengths), np.asarray(sizes)
        if not (lengths.ndim == 1 and lengths.shape == sizes.shape and len(lengths)
                and lengths.dtype == sizes.dtype == np.int64):
            raise ValueError(f"lengths {lengths.dtype}{lengths.shape} and sizes {sizes.dtype}"
                             f"{sizes.shape} are not equal-length, non-empty 1-D int64 arrays")
        self.lead, self.base, self.tail = (np.empty(len(lengths), dtype=t)
                                           for t in (np.int64, np.int32, np.int32))
        for start, block in _blocks(len(lengths)):
            l, s = lengths[block], sizes[block]
            lead, base, tail = self.lead[block], self.base[block], self.tail[block]
            bad = (l < 1) | (l > (2 ** 63 - 1) // max_packet_size)  # l * M fits
            bad |= (s < l) | (s > np.multiply(l, max_packet_size, out=lead))
            if bad.any():
                i = start + np.flatnonzero(bad)[0]
                raise ValueError(f"flow {i} of {lengths[i]} packets and {sizes[i]} bytes does "
                                 f"not split into packets of 1..{max_packet_size} bytes")
            np.divmod(s, l, out=(base, lead))  # the remainder in lead, until lead is written
            spread = np.greater(lead, np.subtract(max_packet_size, base, out=tail))
            np.add(base, lead, out=tail)  # past M where spread, and rewritten there
            np.add(base, 1, out=tail, where=spread)
            np.minimum(lead, 1, out=lead, where=~spread)  # rem > 0 where not spread
            np.subtract(l, lead, out=lead)
        # a float64 sum errs by far less than 2^62: only near 2^63 is it redone exactly
        if float(sizes.sum(dtype=float)) >= 2.0 ** 62 and sum(sizes.tolist()) >= 2 ** 63:
            raise ValueError("the flows' byte total overflows int64")
        self.total_bytes = int(sizes.sum())
        self.max_packet_size = max_packet_size
        for array in (lengths, sizes, self.lead, self.base, self.tail):
            array.flags.writeable = False

    @functools.cached_property
    def scratch(self) -> SimpleNamespace:
        """The kernel's intermediates for a block of BLOCK_FLOWS flows, by name."""
        return SimpleNamespace(**{name: np.empty(BLOCK_FLOWS, dtype) for names, dtype in (
            ("lead i0 i1", np.int64), ("base tail", np.int32), ("f0 f1 f2", np.float64),
            ("mask hit", bool)) for name in names.split()})

    @functools.cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The int64 (flows, trigger) pair evaluate_batch writes, allocated
        where first used, in a sweep worker after its fork: pages no entry
        reaches stay absent."""
        return np.empty(len(self.lead), dtype=np.int64), np.empty(len(self.lead), dtype=np.int64)

    def _of(self, flows: np.ndarray):
        """(lead, base, tail) of each of the ``flows``, gathered into the
        scratch, where the next gather overwrites them."""
        s = self.scratch
        return _take(self.lead, flows, s.lead), _take(self.base, flows, s.base), \
            _take(self.tail, flows, s.tail)


def _blocks(n: int, size: int = BLOCK_FLOWS):
    """(start, slice) of each block of ``size`` flows, the last partial."""
    for start in range(0, n, size):
        yield start, slice(start, min(start + size, n))


def _take(values: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[indices], in range, into the head of ``out``: "raise" would copy ``out`` first."""
    return np.take(values, indices, out=out[:len(indices)], mode="clip")


def _covered(size, trigger, lead, base, tail, tmp) -> int:
    """Bytes from packet ``trigger`` on, summed exactly over flows of these
    layouts and of ``size`` bytes in all: the bytes their entries cover,
    size - sum(k * base + max(k - lead, 0) * (tail - base)), k = trigger - 1.
    Overwrites lead and ``tmp``."""
    k = np.subtract(trigger, 1, out=tmp[:len(trigger)])
    np.maximum(np.subtract(k, lead, out=lead), 0, out=lead)
    size -= int(np.multiply(k, base, out=k).sum())
    return size - int(np.multiply(lead, np.subtract(tail, base, out=k), out=lead).sum())


def _size_candidates(u: np.ndarray, p: float, layout: PacketLayout, block: slice) -> np.ndarray:
    """Indices, from the block's start, of its flows that size-scaled sampling
    at probability p can give an entry, by the bound of the module docstring."""
    s, n, tail = layout.scratch, len(u), layout.tail[block]
    lhs = np.subtract(u, 1.0, out=s.f1[:n])
    np.multiply(lhs, np.subtract(layout.max_packet_size / p, tail, out=s.f2[:n]), out=lhs)
    bound = np.multiply(-(1.0 + 1e-6), layout.sizes[block], out=s.f2[:n])
    return np.flatnonzero(np.greater(lhs, bound, out=s.mask[:n]))


@np.errstate(divide="ignore", invalid="ignore")  # at p = 1 a full-size packet: log1p(-1) = -inf
def _block(layout, spec, rng, start, block, flows, trigger):
    """A block's entries, written into the heads of flows and trigger: their
    count and the bytes they cover.  A candidate spends a budget b over a
    lead run of ``lead`` packets at c_lead each, then a tail run at c_tail
    each: its entry is created at k_lead = floor(b / c_lead) + 1 if k_lead
    <= lead, else at k_tail = lead + max(floor((b - lead * c_lead) / c_tail),
    0) + 1 if k_tail <= n, the max keeping a rounded edge draw out of the
    lead run.  Threshold spends b = floor(T) at a packet's bytes, or 1 on the
    length axis, exactly in int64; sampling spends b = log u at log1p(-p *
    bytes / M), or log1p(-p) on the length axis, where a flow is one lead run
    of n packets.  First creates every candidate's entry at packet 1."""
    s, m, lengths, sizes = layout.scratch, block.stop - start, layout.lengths, layout.sizes
    one_run, sampling = spec.axis == "length", spec.kind == "sampling"
    if sampling:  # floor(b / c) rounded as the per-packet law's inversion rounds it
        p, u, c_lead = spec.probability, rng.random(out=s.f0[:m]), np.log1p(-spec.probability)
        quotient = lambda b, c, out: np.floor(np.divide(b, c, out=out), out=out)
        if one_run:  # the exact test x < n, over log u
            x = np.divide(np.log(np.maximum(u, 2.0 ** -53, out=u), out=u), c_lead, out=s.f1[:m])
            cand = np.flatnonzero(np.less(x, lengths[block], out=s.mask[:m]))
        else:
            cand = _size_candidates(u, p, layout, block)
        budget = _take(u, cand, s.f1)
    else:  # whole packets or bytes: an integer exceeds T iff it exceeds floor(T)
        budget, c_lead = np.int64(min(math.floor(spec.threshold), 2 ** 63 - 1)), 1
        value, quotient = lengths if one_run else sizes, np.floor_divide
        cand = np.flatnonzero(np.greater(value[block], budget, out=s.mask[:m]))
    n = len(cand)
    # every threshold candidate gains its entry, written in place: only sampling compacts
    cand = np.add(cand, start, out=(s.i1 if sampling else flows)[:n])
    k, size = (s.f0 if sampling else trigger)[:n], int(_take(sizes, cand, s.i0).sum())
    if spec.kind == "first":
        k.fill(1)
        return n, size
    (lead, base, tail), in_lead = layout._of(cand), s.hit[:n]
    if sampling and not one_run:  # the candidates alone take log u
        scale = p / layout.max_packet_size
        np.log(np.maximum(budget, 2.0 ** -53, out=budget), out=budget)
        c_lead = np.log1p(np.multiply(-scale, base, out=s.f2[:n]), out=s.f2[:n])
    elif not one_run:  # a packet's cost is its bytes
        c_lead = base
    np.add(quotient(budget, c_lead, out=k), 1, out=k)
    # x < n gives floor(x) + 1 <= n, as n > floor(T) does: no length-axis candidate passes its run
    if one_run or np.less_equal(k, lead, out=in_lead).all():
        if sampling:
            np.copyto(trigger[:n], k, casting="unsafe"), np.copyto(flows[:n], cand)
        return n, _covered(size, trigger[:n], lead, base, tail, s.i0)
    k_tail = (s.f2 if sampling else s.i0)[:n]
    np.subtract(budget, np.multiply(lead, c_lead, out=k_tail), out=k_tail)
    c_tail = np.log1p(np.multiply(-scale, tail, out=s.f1[:n]), out=s.f1[:n]) if sampling else tail
    np.maximum(quotient(k_tail, c_tail, out=k_tail), 0, out=k_tail)
    np.add(np.add(lead, k_tail, out=k_tail), 1, out=k_tail)
    np.copyto(k, k_tail, where=np.logical_not(in_lead, out=in_lead))
    if not sampling:
        return n, _covered(size, k, lead, base, tail, s.i0)
    # trig = k if k < n + 1, else n + 1, which covers nothing
    trig = np.add(_take(lengths, cand, s.i0), 1, out=s.i0[:n])
    np.copyto(trig, k, where=np.less(k, trig, out=in_lead), casting="unsafe")
    hits = np.flatnonzero(in_lead)  # in_lead now marks the hits
    _take(cand, hits, flows), _take(trig, hits, trigger)
    return len(hits), _covered(size, trig, lead, base, tail, cand)


def evaluate_batch(layout: PacketLayout, spec: AlgorithmSpec,
                   rng: np.random.Generator | None = None):
    """The entries a spec creates over a population, as (flows, trigger,
    covered): the increasing indices of the flows that gain an entry and
    the packet, from 1, that creates each one, both int64, and the exact
    integer byte total the entries cover, each flow's bytes from its
    triggering packet on.

    ``layout`` is the population, which carries the model's
    max_packet_size and the kernel's scratch.  flows and trigger are views
    of the heads of its ``entries`` pair, valid until the next call over
    the population writes them.  Sampling draws from ``rng``.
    """
    if spec.kind == "sampling" and rng is None:
        raise ValueError("sampling evaluation requires an RNG")
    (flows, trigger), entries, covered = layout.entries, 0, 0
    for start, block in _blocks(len(layout.lengths)):
        count, bytes_ = _block(layout, spec, rng, start, block, flows[entries:], trigger[entries:])
        entries, covered = entries + count, covered + bytes_
    return flows[:entries], trigger[:entries], covered


def aggregate_batch(layout: PacketLayout, flows: np.ndarray, trigger: np.ndarray, covered: int,
                    duration_model: str = "equal") -> MetricsReport:
    """Fold the entries of evaluate_batch, and the bytes they cover, into
    coverage and reduction factors, a block of entries at a time in the
    layout's scratch.  An entry created at packet t of an n-packet flow
    occupies the table for n + 1 - t packets: the fraction (n + 1 - t) / n
    of the flow's duration under the equal-duration model, n + 1 - t
    packet times under the proportional one, whose sum is an exact integer.

    Raises DegenerateError when no entry was created (coverage 0, both
    reductions unbounded).
    """
    if duration_model not in DURATION_MODELS:
        raise ValueError(f"unknown duration_model {duration_model!r}")
    lengths, n, entries = layout.lengths, len(layout.lengths), len(flows)
    if entries == 0:
        raise DegenerateError("no flow created an entry; reductions are infinite")
    if flows[0] < 0 or flows[-1] >= n:  # increasing, so its ends bound every index
        raise IndexError(f"flow index out of range for a population of {n} flows")
    equal, s, occupied = duration_model == "equal", layout.scratch, 0
    for _, block in _blocks(entries):
        packets, held = _take(lengths, flows[block], s.i0), s.i1[:block.stop - block.start]
        np.subtract(np.add(packets, 1, out=held), trigger[block], out=held)
        occupied += float(np.divide(held, packets, out=s.f0[:len(held)]).sum()) if equal \
            else int(held.sum())
    coverage = 100.0 * float(covered) / float(layout.total_bytes)
    # the baseline holds every flow's entry for the flow's whole duration
    baseline = n if equal else float(lengths.sum())
    return MetricsReport(coverage, n / entries, baseline / occupied)
