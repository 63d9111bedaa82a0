"""Closed-form / numerical evaluation of the three algorithms over a model.

Metrics are expectations against the model's flow- and octet-weighted
mixtures.  Flows are whole packets and whole bytes, so on both axes an
expectation is a sum over the integer law the generator draws, which
Mixture.expect computes with its truncation bound.  A report's coverage
is the one sum a coverage probe of the inversion makes, and the report at
an inversion's answer reads its probe's sum; first, a step in T, is
inverted through the integer quantile.  Every report carries the
truncation bound; reports above 1e-6 are flagged.  This module holds only
the weights, the reports and the inversion.
"""
from __future__ import annotations

import math

import numpy as np

from .algorithms import AlgorithmSpec, DegenerateError, MetricsReport
from .model import SUPPORT_CAP, TrafficModel

__all__ = [
    "UnreachableError",
    "analytic_for_spec",
    "invert_for_coverage",
]

P_BRACKET = (1e-12, 1.0)


class UnreachableError(ValueError):
    """Requested traffic coverage exceeds what the algorithm can achieve."""


# -- weight table -----------------------------------------------------------------
#
# A flow of magnitude x (packets on the length axis, bytes on the size axis)
# gains an entry with probability created(x), and the entry covers an
# expected covered(x) share of the flow's bytes and of its packets.  Coverage
# is the octets-weighted expectation of covered; the operations and occupancy
# reductions invert the flows-weighted expectations of created and covered.
# A weight over the flows above the spec's start point is a (g, gstep) pair
# as Mixture.expect takes it, g computing in place in its formula's operand
# order, or None, the indicator of x > start.


def _threshold(model: TrafficModel, spec: AlgorithmSpec):
    """first and threshold create an entry for every flow above the
    threshold T.  The first-packet oracle covers such a flow whole; the
    counter, assuming bytes spread evenly over a flow's packets, covers
    (and occupies the table for) a 1 - T/x share of it."""
    t = float(spec.threshold)
    if spec.kind == "first":
        return t, None, None

    def covered(x, out=None, tmp=None):
        return np.subtract(1.0, np.divide(t, x, out=out), out=out)

    def covered_step(x: np.ndarray) -> np.ndarray:
        return t / (x * (x + 1.0))

    return t, None, (covered, covered_step)


def _sampling(model: TrafficModel, spec: AlgorithmSpec):
    """Sampling with probability p per packet.  Each of a flow's x units
    escapes at log-rate r, so the flow gains an entry with probability
    created(x) = 1 - e^(r x) and the entry covers an expected
    1 - a created(x) / (b x) of it, the triggering unit included.  On the
    length axis the unit is a packet and the law is exact: r = log(1 - p),
    a = 1 - p, b = p; at p = 1 every flow gets an entry at its first
    packet.  On the size axis the unit is a byte at rate
    lam = p / max_packet_size, the small-packet limit of the per-packet
    odds p b / max_packet_size: r = -lam, a = 1, b = lam.  Flows are whole
    units, so the weights carry their forward differences over one unit,
    created's being rise e^(r x), rise = 1 - e^r (p on the length axis)."""
    p = spec.probability
    if spec.axis == "length":
        if p == 1.0:
            return 0.0, None, None
        r, a, b, rise = math.log1p(-p), 1.0 - p, p, p
    else:
        lam = p / model.max_packet_size
        r, a, b, rise = -lam, 1.0, lam, -math.expm1(-lam)

    def created(x, out=None, tmp=None):
        return np.negative(np.expm1(np.multiply(x, r, out=out), out=out), out=out)

    def created_step(x: np.ndarray) -> np.ndarray:
        return rise * np.exp(x * r)

    def covered(x, out=None, tmp=None):
        # 1 - a created(x) / (b x), created's negation folded into the signs
        out = np.multiply(a, np.expm1(np.multiply(x, r, out=out), out=out), out=out)
        return np.add(1.0, np.divide(out, np.multiply(b, x, out=tmp), out=out), out=out)

    def covered_step(x: np.ndarray) -> np.ndarray:
        return (created(x) / x - created(x + 1.0) / (x + 1.0)) / (b / a)

    return 0.0, (created, created_step), (covered, covered_step)


# kind -> builder of the spec's (start, created, covered) on either axis
_WEIGHTS = {"first": _threshold, "threshold": _threshold, "sampling": _sampling}


def _coverage(model: TrafficModel, spec: AlgorithmSpec) -> tuple[float, float]:
    """The octets sum of the spec's covered weight, coverage as a share,
    with its truncation bound: what a report and a coverage probe sum.
    The model keeps each spec's pair, so each is summed once."""
    if spec not in model.coverage_sums:
        start, _, covered = _WEIGHTS[spec.kind](model, spec)
        model.coverage_sums[spec] = model.axis(spec.axis).octets.expect(covered, start)
    return model.coverage_sums[spec]


def analytic_for_spec(model: TrafficModel, spec: AlgorithmSpec) -> MetricsReport:
    """Coverage and both reductions of one algorithm over a model, from the
    weights of the spec's kind.

    Raises DegenerateError when no flow gains an entry.
    """
    ax = model.axis(spec.axis)
    cov, cov_err = _coverage(model, spec)
    start, created, covered = _WEIGHTS[spec.kind](model, spec)
    entries, entries_err = ax.flows.expect(created, start)
    if entries <= 0.0:
        raise DegenerateError(f"no flow gains an entry under {spec}")
    occupied, occ_err = ax.flows.expect(covered, start)
    # far in the tail the occupancy sum underflows while entries remain
    occupancy = 1.0 / occupied if occupied > 0.0 else math.inf
    return MetricsReport(
        100.0 * cov, 1.0 / entries, occupancy, cov_err + entries_err + occ_err
    )


# -- coverage inversion ---------------------------------------------------------


def invert_for_coverage(model: TrafficModel, kind: str, axis: str,
                        target_pct: float) -> tuple[float, MetricsReport]:
    """Find the threshold/probability achieving the target traffic coverage.

    Returns the parameter together with the achieved analytic metrics.
    first covers 100 * sf(floor(T)) %, a step function, so its threshold is
    read off the octets' integer quantile, clamped to the generator's largest
    draw 1 - 2^-53: the first integer k covering at most the target, or
    k - 1, whichever is nearer.  threshold and sampling coverage are smooth,
    and the Illinois false-position rule (Dowell & Jarratt 1971) finds them
    on the log of the parameter, to 1e-9 in it, within 80 steps: threshold
    between k and a halving of k, sampling over p in P_BRACKET.  The end of
    the final bracket whose coverage is closest to the target is returned,
    never a threshold past every flow, whose coverage is 0.

    A probe's coverage sum is kept on the model, so the report at the
    returned parameter reads it, and inversions over one model sum each
    (kind, parameter) once.
    """
    if target_pct > 100.0:
        raise UnreachableError(f"coverage {target_pct:g}% exceeds 100%")
    if not target_pct > 0.0:  # NaN included
        raise ValueError("target coverage must lie in (0, 100]")

    def cov(param: float) -> float:
        return 100.0 * _coverage(model, AlgorithmSpec.of(kind, axis, param))[0]

    def report(param: float) -> tuple[float, MetricsReport]:
        return param, analytic_for_spec(model, AlgorithmSpec.of(kind, axis, param))

    def nearest(*params: float) -> float:
        return min((q for q in params if cov(q) > 0.0), key=lambda q: abs(cov(q) - target_pct))

    if kind in ("first", "threshold"):
        if target_pct == 100.0:
            return report(0.0)
        k = model.axis(axis).octets.quantile(min(1.0 - target_pct / 100.0, 1.0 - 2.0 ** -53))
        if kind == "first":
            return report(nearest(k - 1.0, k))
        # threshold covers a 1 - T/x share of first's flows: at k at most the
        # target, unless clamped.  Just under 100% rounding may leave no
        # threshold covering more, so the halving stops at 1/SUPPORT_CAP.
        sign, hi = -1.0, k
        while cov(hi) > target_pct and hi < SUPPORT_CAP:
            hi = min(2.0 * hi, float(SUPPORT_CAP))
        lo = hi / 2.0
        while cov(lo) <= target_pct and lo > 1.0 / SUPPORT_CAP:
            lo, hi = lo / 2.0, lo
    else:
        sign, (lo, hi) = 1.0, P_BRACKET
        top = cov(hi)
        if target_pct > top + 1e-9:
            raise UnreachableError(
                f"coverage {target_pct:g}% unreachable; sampling tops out at {top:.6g}%"
            )

    def f(param: float) -> float:
        return sign * (cov(param) - target_pct)

    # false position on the log parameter while f(lo) < 0 < f(hi); an end
    # kept twice in a row has its f halved (the Illinois rule)
    f_lo, f_hi = f(lo), f(hi)
    kept = None  # the end the last probe left in place
    for _ in range(80):
        a, b = math.log(lo), math.log(hi)
        if b - a <= 1e-9 or not f_lo < 0.0 < f_hi:
            break
        # past every flow coverage has no slope for the secant: bisect there
        mid = math.exp(0.5 * (a + b) if cov(hi) == 0.0 else b - f_hi * (b - a) / (f_hi - f_lo))
        f_mid = f(mid)
        if f_mid >= 0.0:
            f_lo *= 0.5 if kept == "lo" else 1.0
            hi, f_hi, kept = mid, f_mid, "lo"
        else:
            f_hi *= 0.5 if kept == "hi" else 1.0
            lo, f_lo, kept = mid, f_mid, "hi"
    return report(nearest(lo, hi))
