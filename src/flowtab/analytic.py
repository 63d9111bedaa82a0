"""Closed-form / numerical evaluation of the three algorithms over a model.

Metrics are expectations against the model's flow- and octet-weighted
mixtures.  Flows are whole packets and whole bytes, so on both axes an
expectation is a sum over the integer law pmass(k) = sf(k - 1) - sf(k) that
the generator draws: exact over the mixture's survival table
(ceil(domain_min) .. ceil(domain_min) + 2^16), then an Abel-summed remainder
beyond it whose summand S(x) * (g(x+1) - g(x)) decays monotonically and is
sandwiched between integrals, giving a computable truncation bound; an
indicator weight is the closed form sf(floor(T)).  Reports and the coverage
probes of the inversion sum the same terms, except that first, a step in T,
is inverted through the integer quantile.  Every report carries the
truncation bound; reports above 1e-6 are flagged.

What these sums read of a mixture is built once, on the mixture's first
probe, into its tail table, which lives as long as the mixture does: the
clipped pmass over the survival table, up to its last nonzero mass, with
its integers, sf at the table's end, one past it and at the
support cap, and sf at the quadrature nodes of the remainder.  A probe then
evaluates only its weight at those points.  A start past the survival table
evaluates sf afresh only on one piece, up to the first of the remainder's
piece edges past it, and reads the table's nodes from there on.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .algorithms import AlgorithmSpec, DegenerateError
from .model import SUPPORT_CAP, Mixture, TrafficModel

__all__ = [
    "UnreachableError",
    "AnalyticReport",
    "analytic_for_spec",
    "invert_for_coverage",
    "expected_covered_fraction",
]

FLAG_LEVEL = 1e-6
P_BRACKET = (1e-12, 1.0)

_GL64 = np.polynomial.legendre.leggauss(64)
_GL32 = np.polynomial.legendre.leggauss(32)


class UnreachableError(ValueError):
    """Requested traffic coverage exceeds what the algorithm can achieve."""


@dataclass(frozen=True)
class AnalyticReport:
    coverage_pct: float
    operations_reduction: float
    occupancy_reduction: float
    truncation_error: float = 0.0

    @property
    def flagged(self) -> bool:
        return self.truncation_error > FLAG_LEVEL


# -- quadrature ----------------------------------------------------------------

# per rule (64 then 32 points): nodes x shaped (pieces, points), the rule's
# weights, and each piece's half-width on the log axis
_Rules = tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _log_rules(edges: np.ndarray) -> _Rules:
    """Gauss-Legendre nodes of the 64- and the 32-point rule on each piece
    between consecutive edges on the log axis; none for a single edge."""
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    return tuple((np.exp(mid + half * nodes[None, :]), weights, half)
                 for nodes, weights in (_GL64, _GL32))


def _log_sum(rules: _Rules, values) -> tuple[float, float]:
    """Integral of fn from its values at each rule's nodes; the error
    estimate is the 64- vs 32-node gap.  Keep the product order
    ((fn(x) * x) * w) * half: the golden outputs pin its rounding."""
    v64, v32 = (float(np.sum(f * x * w[None, :] * half))
                for (x, w, half), f in zip(rules, values))
    return v64, abs(v64 - v32)


# -- per-mixture tail tables ----------------------------------------------------


@dataclass(frozen=True)
class _DiscreteTable:
    """The clipped pmass of the survival table's integers lo + 1 .. end, up
    to the last nonzero one; sf at end, end + 1 and the support cap; and
    the remainder's pieces over [end + 1, SUPPORT_CAP], their log-axis
    edges, nodes and the smooth interpolant of sf at the nodes."""

    lo: int
    end: int
    pmass: np.ndarray
    ks: np.ndarray
    sf_end: tuple[float, float]
    sf_cap: float
    edges: np.ndarray
    rules: _Rules
    sf_nodes: tuple[np.ndarray, ...]


# keyed by the mixture object itself, so a table lives exactly as long as
# its mixture; an id() key could be reused by a later mixture
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tail_table(mix: Mixture) -> _DiscreteTable:
    """The mixture's tail table, built on its first probe.  The survival
    table starts at ceil(domain_min) - 1, where sf is 1, so its first
    difference is the atom at ceil(domain_min)."""
    tab = _TABLES.get(mix)
    if tab is not None:
        return tab
    sf = mix._sf_table
    lo = math.ceil(mix.domain_min) - 1
    end = lo + len(sf) - 1
    pm = np.trim_zeros(np.maximum(sf[:-1] - sf[1:], 0.0), "b")
    ta, tb = math.log(end + 1.0), math.log(SUPPORT_CAP)
    edges = np.linspace(ta, tb, max(1, math.ceil((tb - ta) / math.log(2.0))) + 1)
    rules = _log_rules(edges)
    tab = _DiscreteTable(lo, end, pm, np.arange(lo + 1, lo + 1 + len(pm), dtype=float),
                         (float(sf[-1]), mix.sf(end + 1.0)), float(mix.sf(SUPPORT_CAP)),
                         edges, rules, tuple(mix._raw_sf(x) for x, _, _ in rules))
    _TABLES[mix] = tab
    return tab


def _pieces(mix: Mixture, tab: _DiscreteTable, x0: int) -> tuple[_Rules, tuple[np.ndarray, ...]]:
    """The remainder's pieces over [x0 + 1, SUPPORT_CAP], x0 >= end, and sf
    at their nodes: the table's own at end; past it one fresh piece up to
    the first edge beyond x0 + 1, then the table's pieces from that edge."""
    if x0 == tab.end:
        return tab.rules, tab.sf_nodes
    i = int(np.searchsorted(tab.edges, math.log(x0 + 1.0), "right"))
    fresh = _log_rules(np.append(math.log(x0 + 1.0), tab.edges[i:i + 1]))
    rules = tuple((np.vstack((x, tx[i:])), w, np.vstack((half, th[i:])))
                  for (x, w, half), (tx, _, th) in zip(fresh, tab.rules))
    return rules, tuple(np.vstack((mix._raw_sf(x), s[i:]))
                        for (x, _, _), s in zip(fresh, tab.sf_nodes))


# -- tail sums ------------------------------------------------------------------


def _discrete_tail_sum(mix: Mixture, g, gstep, start: float) -> tuple[float, float]:
    """Sum pmass(k) * g(k) over integers k > start, with a truncation bound.

    The terms up to the end of the mixture's survival table, if any, are
    summed exactly from its tail table, and the rest is Abel-summed.  g and
    gstep (the forward difference g(x+1) - g(x)) must be vectorized;
    |sf(x) * gstep(x)| is assumed monotone decreasing beyond the table,
    which holds for the monotone weight functions used here, all bounded by 1.
    """
    tab = _tail_table(mix)
    start_i = max(math.floor(start), tab.lo)
    # np.sum, not a BLAS dot, whose rounding follows its thread count
    i = start_i - tab.lo
    value = float(np.sum(tab.pmass[i:] * g(tab.ks[i:])))
    x0 = max(start_i, tab.end)
    if x0 >= SUPPORT_CAP:
        return value, 2.0 * tab.sf_cap
    sf0, sf1 = tab.sf_end if x0 == tab.end else mix.sf(np.array([x0, x0 + 1.0])).tolist()
    if sf0 == 0.0:
        return value, 0.0

    rules, sf_nodes = _pieces(mix, tab, x0)
    integral, int_err = _log_sum(
        rules, [s * gstep(x) for (x, _, _), s in zip(rules, sf_nodes)]
    )
    x1 = np.array([x0 + 1.0])
    h0 = sf1 * float(gstep(x1)[0])
    value += sf0 * float(g(x1)[0]) + integral + 0.5 * h0
    bound = 0.5 * abs(h0) + int_err + 2.0 * tab.sf_cap
    return value, bound


# -- weight table -----------------------------------------------------------------
#
# A flow of magnitude x (packets on the length axis, bytes on the size axis)
# gains an entry with probability created(x), and the entry covers an
# expected covered(x) share of the flow's bytes and of its packets.  Coverage
# is the octets-weighted expectation of covered; the operations and occupancy
# reductions invert the flows-weighted expectations of created and covered.
# A weight is a (g, gstep) pair over the flows above the spec's start point,
# gstep being the forward difference g(x+1) - g(x) that the Abel-summed tail
# of the integer sums needs.  A weight of None is the indicator of
# x > start, whose expectation under the integer law is sf(floor(start)).


def _threshold(model: TrafficModel, spec: AlgorithmSpec):
    """first and threshold create an entry for every flow above the
    threshold T.  The first-packet oracle covers such a flow whole; the
    counter, assuming bytes spread evenly over a flow's packets, covers
    (and occupies the table for) a 1 - T/x share of it."""
    t = float(spec.threshold)
    if spec.kind == "first":
        return t, None, None

    def covered(x: np.ndarray) -> np.ndarray:
        return 1.0 - t / x

    def covered_step(x: np.ndarray) -> np.ndarray:
        return t / (x * (x + 1.0))

    return t, None, (covered, covered_step)


def _uniform_sampling(model: TrafficModel, spec: AlgorithmSpec):
    """Per-packet sampling with probability p, decided by flow length: an
    n-packet flow gains an entry with probability 1 - q^n, q = 1 - p.  At
    p = 1 every flow gets an entry at its first packet."""
    p = spec.probability
    start = model.length_axis.flows.floor
    if p == 1.0:
        return start, None, None
    lq = math.log1p(-p)
    q = 1.0 - p

    def created(x: np.ndarray) -> np.ndarray:
        return -np.expm1(x * lq)

    def created_step(x: np.ndarray) -> np.ndarray:
        return p * np.exp(x * lq)

    def covered(x: np.ndarray) -> np.ndarray:
        return _covered_fraction(p, x)

    def covered_step(x: np.ndarray) -> np.ndarray:
        return (q / p) * (created(x) / x - created(x + 1.0) / (x + 1.0))

    return start, (created, created_step), (covered, covered_step)


def _size_scaled_sampling(model: TrafficModel, spec: AlgorithmSpec):
    """Size-scaled sampling in the continuous-byte approximation: with
    per-byte rate lam = p / max_packet_size, a flow of s bytes gains an
    entry with probability 1 - exp(-lam s) and covers an expected
    1 - (1 - exp(-lam s)) / (lam s) of itself.  The per-packet Bernoulli
    process is the exact reference; this closed form is its small-packet
    limit.  Sizes are whole bytes, so the weights carry their forward
    differences over one byte."""
    lam = spec.probability / model.max_packet_size
    step = -math.expm1(-lam)

    def created(s: np.ndarray) -> np.ndarray:
        return -np.expm1(-lam * s)

    def created_step(s: np.ndarray) -> np.ndarray:
        return step * np.exp(-lam * s)

    def covered(s: np.ndarray) -> np.ndarray:
        x = lam * s
        return 1.0 + np.expm1(-x) / x

    def covered_step(s: np.ndarray) -> np.ndarray:
        return (created(s) / s - created(s + 1.0) / (s + 1.0)) / lam

    return 0.0, (created, created_step), (covered, covered_step)


# (kind, axis) -> builder of the spec's (start, created, covered)
_WEIGHTS = {
    ("first", "length"): _threshold,
    ("first", "size"): _threshold,
    ("threshold", "length"): _threshold,
    ("threshold", "size"): _threshold,
    ("sampling", "length"): _uniform_sampling,
    ("sampling", "size"): _size_scaled_sampling,
}


def _expect(mix: Mixture, weight, start: float) -> tuple[float, float]:
    """Expectation of a weight over the flows of the mixture above start,
    with its truncation bound."""
    if weight is None:
        return mix.sf(math.floor(start)), 0.0
    return _discrete_tail_sum(mix, *weight, start)


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
    out = np.ones_like(n) if p == 1.0 else _covered_fraction(p, n)
    return float(out[0]) if scalar else out


def _covered_fraction(p: float, n: np.ndarray) -> np.ndarray:
    """expected_covered_fraction without its argument checks, for
    0 < p < 1 and float lengths n >= 1."""
    created = -np.expm1(n * math.log1p(-p))
    return 1.0 - (1.0 - p) * created / (p * n)


def analytic_for_spec(model: TrafficModel, spec: AlgorithmSpec) -> AnalyticReport:
    """Coverage and both reductions of one algorithm over a model, from the
    spec's (kind, axis) weights.

    Raises DegenerateError when no flow gains an entry.
    """
    ax = model.axis(spec.axis)
    start, created, covered = _WEIGHTS[spec.kind, spec.axis](model, spec)
    entries, entries_err = _expect(ax.flows, created, start)
    if entries <= 0.0:
        raise DegenerateError(f"no flow gains an entry under {spec}")
    cov, cov_err = _expect(ax.octets, covered, start)
    occupied, occ_err = _expect(ax.flows, covered, start)
    return AnalyticReport(
        100.0 * cov, 1.0 / entries, 1.0 / occupied, cov_err + entries_err + occ_err
    )


# -- coverage inversion ---------------------------------------------------------


def invert_for_coverage(model: TrafficModel, kind: str, axis: str,
                        target_pct: float) -> tuple[float, AnalyticReport]:
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
    """
    if target_pct > 100.0:
        raise UnreachableError(f"coverage {target_pct:g}% exceeds 100%")
    if not target_pct > 0.0:  # NaN included
        raise ValueError("target coverage must lie in (0, 100]")

    octets = model.axis(axis).octets

    def spec(param: float) -> AlgorithmSpec:
        if kind == "sampling":
            return AlgorithmSpec(kind, axis, probability=param)
        return AlgorithmSpec(kind, axis, threshold=param)

    @functools.cache
    def cov(param: float) -> float:
        # coverage alone, summed exactly as the report sums it; memoized,
        # since the final choice re-reads probes the search made
        probe = spec(param)  # first, so that an unknown kind raises its ValueError
        start, _, covered = _WEIGHTS[kind, axis](model, probe)
        return 100.0 * _expect(octets, covered, start)[0]

    def nearest(*params: float) -> float:
        return min((q for q in params if cov(q) > 0.0), key=lambda q: abs(cov(q) - target_pct))

    if kind in ("first", "threshold"):
        if target_pct == 100.0:
            return 0.0, analytic_for_spec(model, spec(0.0))
        k = octets.quantile(min(1.0 - target_pct / 100.0, 1.0 - 2.0 ** -53))
        if kind == "first":
            param = nearest(k - 1.0, k)
            return param, analytic_for_spec(model, spec(param))
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
            if kept == "lo":
                f_lo *= 0.5
            hi, f_hi, kept = mid, f_mid, "lo"
        else:
            if kept == "hi":
                f_hi *= 0.5
            lo, f_lo, kept = mid, f_mid, "hi"
    param = nearest(lo, hi)
    return param, analytic_for_spec(model, spec(param))
