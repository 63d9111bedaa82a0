"""Closed-form / numerical evaluation of the three algorithms over a model.

Metrics are expectations against the model's flow- and octet-weighted
mixtures.  Length-axis expectations are sums over the integer support:
an exact block after the evaluation point, then an Abel-summed remainder
whose summand S(x) * (g(x+1) - g(x)) decays monotonically and is
sandwiched between integrals, giving a computable truncation bound.
Size-axis expectations are integrals evaluated per mixture component by
Gauss-Legendre quadrature on the log axis.  Every report carries the
truncation bound; reports above 1e-6 are flagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algorithms import AlgorithmSpec, DegenerateError
from .model import SUPPORT_CAP, Mixture, TrafficModel

__all__ = [
    "UnreachableError",
    "AnalyticReport",
    "analytic_first",
    "analytic_threshold",
    "analytic_sampling_length",
    "analytic_sampling_size",
    "analytic_for_spec",
    "invert_for_coverage",
    "expected_covered_fraction",
]

EXACT_SPAN = 65536
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


def _integrate_log(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Integrate fn over [a, b] (0 < a < b) with per-octave Gauss-Legendre
    nodes on the log axis; the error estimate is the 64- vs 32-node gap."""
    if b <= a:
        return 0.0, 0.0
    ta, tb = math.log(a), math.log(b)
    pieces = max(1, math.ceil((tb - ta) / math.log(2.0)))
    edges = np.linspace(ta, tb, pieces + 1)

    def rule(nodes: np.ndarray, weights: np.ndarray) -> float:
        mid = 0.5 * (edges[:-1, None] + edges[1:, None])
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        t = mid + half * nodes[None, :]
        x = np.exp(t)
        vals = fn(x.ravel()).reshape(x.shape) * x
        return float(np.sum(vals * weights[None, :] * half))

    v64 = rule(*_GL64)
    v32 = rule(*_GL32)
    return v64, abs(v64 - v32)


def _discrete_tail_sum(mix: Mixture, g, gstep, start: float, gmax: float = 1.0,
                       exact_span: int = EXACT_SPAN) -> tuple[float, float]:
    """Sum pmass(k) * g(k) over integers k > start, with a truncation bound.

    g and gstep (the forward difference g(x+1) - g(x)) must be vectorized;
    |sf(x) * gstep(x)| is assumed monotone decreasing beyond the exact block,
    which holds for the bounded monotone weight functions used here.
    """
    start_i = math.floor(start)
    hi_exact = min(start_i + exact_span, SUPPORT_CAP)
    edges = np.arange(start_i, hi_exact + 1, dtype=float)
    sf_edges = mix.sf(edges)
    pm = np.maximum(sf_edges[:-1] - sf_edges[1:], 0.0)
    value = float(np.dot(pm, g(edges[1:])))
    tail_sf = float(sf_edges[-1])
    if hi_exact >= SUPPORT_CAP or tail_sf == 0.0:
        residual = float(mix.sf(SUPPORT_CAP)) if hi_exact >= SUPPORT_CAP else 0.0
        return value, 2.0 * residual * gmax

    x0 = float(hi_exact)

    def h(x: np.ndarray) -> np.ndarray:
        return mix.sf(x) * gstep(x)

    integral, int_err = _integrate_log(h, x0 + 1.0, float(SUPPORT_CAP))
    h0 = float(h(np.array([x0 + 1.0]))[0])
    g0 = float(g(np.array([x0 + 1.0]))[0])
    value += tail_sf * g0 + integral + 0.5 * h0
    residual = float(mix.sf(SUPPORT_CAP))
    bound = 0.5 * abs(h0) + int_err + 2.0 * residual * gmax
    return value, bound


def _continuous_tail_integral(mix: Mixture, g, lower: float, gmax: float = 1.0) -> tuple[float, float]:
    """Integral of g against the mixture law over (lower, cap]."""
    lo = max(float(lower), mix.floor)
    value = 0.0
    bound = 0.0
    for pc in mix._prepared:
        a, b = pc.support()
        a = max(float(a), lo)
        b = min(float(b), float(SUPPORT_CAP))
        if b <= a:
            continue
        scale = pc.weight / pc.keep

        def fn(x: np.ndarray, comp=pc) -> np.ndarray:
            return comp.pdf(x) * g(x)

        v, e = _integrate_log(fn, a, b)
        value += scale * v
        bound += scale * e
    residual = float(mix.sf(SUPPORT_CAP))
    return value, bound + residual * gmax


# -- per-algorithm reports -------------------------------------------------------


def analytic_first(model: TrafficModel, axis: str, threshold: float) -> AnalyticReport:
    """Oracle first-packet classification: coverage is the octet share of
    flows above the threshold; both reductions equal 1/P(flow above it)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    ax = model.axis(axis)
    surviving = ax.flows.sf(threshold)
    if surviving <= 0.0:
        raise DegenerateError(f"no flow exceeds threshold {threshold:g} on the {axis} axis")
    coverage = 100.0 * ax.octets.sf(threshold)
    reduction = 1.0 / surviving
    return AnalyticReport(coverage, reduction, reduction, 0.0)


def analytic_threshold(model: TrafficModel, axis: str, threshold: float) -> AnalyticReport:
    """Counter-based detection, assuming bytes spread evenly over a flow's
    packets: a flow of magnitude x above the threshold T is covered (and
    occupies the table) for a 1 - T/x share of itself."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    ax = model.axis(axis)
    t = float(threshold)

    def g(x: np.ndarray) -> np.ndarray:
        return 1.0 - t / x

    surviving = ax.flows.sf(t)
    if surviving <= 0.0:
        raise DegenerateError(f"no flow exceeds threshold {t:g} on the {axis} axis")
    if ax.flows.discrete:
        def gstep(x: np.ndarray) -> np.ndarray:
            return t / (x * (x + 1.0))

        cov, cov_err = _discrete_tail_sum(ax.octets, g, gstep, t)
        occ_den, occ_err = _discrete_tail_sum(ax.flows, g, gstep, t)
    else:
        cov, cov_err = _continuous_tail_integral(ax.octets, g, t)
        occ_den, occ_err = _continuous_tail_integral(ax.flows, g, t)
    return AnalyticReport(
        100.0 * cov, 1.0 / surviving, 1.0 / occ_den, cov_err + occ_err
    )


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
    if p == 1.0:
        out = np.ones_like(n)
    else:
        created = -np.expm1(n * math.log1p(-p))
        out = 1.0 - (1.0 - p) * created / (p * n)
    return float(out[0]) if scalar else out


def analytic_sampling_length(model: TrafficModel, p: float) -> AnalyticReport:
    """Uniform per-packet sampling, decided by flow length."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return AnalyticReport(100.0, 1.0, 1.0, 0.0)
    ax = model.length_axis
    lq = math.log1p(-p)
    q = 1.0 - p

    def created(x: np.ndarray) -> np.ndarray:
        return -np.expm1(x * lq)

    def created_step(x: np.ndarray) -> np.ndarray:
        return p * np.exp(x * lq)

    def covered(x: np.ndarray) -> np.ndarray:
        return 1.0 - q * created(x) / (p * x)

    def covered_step(x: np.ndarray) -> np.ndarray:
        return (q / p) * (created(x) / x - created(x + 1.0) / (x + 1.0))

    start = ax.flows.domain_min - 1.0
    cov, cov_err = _discrete_tail_sum(ax.octets, covered, covered_step, start)
    ops_den, ops_err = _discrete_tail_sum(ax.flows, created, created_step, start)
    occ_den, occ_err = _discrete_tail_sum(ax.flows, covered, covered_step, start)
    return AnalyticReport(
        100.0 * cov, 1.0 / ops_den, 1.0 / occ_den, cov_err + ops_err + occ_err
    )


def analytic_sampling_size(model: TrafficModel, p: float) -> AnalyticReport:
    """Size-scaled sampling in the continuous-byte approximation: with
    per-byte rate lam = p / max_packet_size, a flow of s bytes gains an
    entry with probability 1 - exp(-lam s) and covers an expected
    1 - (1 - exp(-lam s)) / (lam s) of itself.  The per-packet Bernoulli
    process is the exact reference; this closed form is its small-packet
    limit."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    ax = model.size_axis
    lam = p / model.max_packet_size

    def created(s: np.ndarray) -> np.ndarray:
        return -np.expm1(-lam * s)

    def covered(s: np.ndarray) -> np.ndarray:
        x = lam * s
        return 1.0 + np.expm1(-x) / x

    cov, cov_err = _continuous_tail_integral(ax.octets, covered, 0.0)
    ops_den, ops_err = _continuous_tail_integral(ax.flows, created, 0.0)
    occ_den, occ_err = _continuous_tail_integral(ax.flows, covered, 0.0)
    return AnalyticReport(
        100.0 * cov, 1.0 / ops_den, 1.0 / occ_den, cov_err + ops_err + occ_err
    )


def analytic_for_spec(model: TrafficModel, spec: AlgorithmSpec) -> AnalyticReport:
    """Dispatch an AlgorithmSpec to the matching analytic evaluation."""
    if spec.kind == "first":
        return analytic_first(model, spec.axis, spec.threshold)
    if spec.kind == "threshold":
        return analytic_threshold(model, spec.axis, spec.threshold)
    if spec.sampling_mode == "size-scaled":
        return analytic_sampling_size(model, spec.probability)
    return analytic_sampling_length(model, spec.probability)


# -- coverage inversion ---------------------------------------------------------


def _coverage_only(model: TrafficModel, kind: str, axis: str, param: float) -> float:
    """Coverage alone, at reduced tail precision: plenty for bracketing the
    monotone curve, an order of magnitude cheaper than a full report."""
    ax = model.axis(axis)
    if kind == "first":
        return 100.0 * ax.octets.sf(param)
    if kind == "threshold":
        t = float(param)

        def g(x: np.ndarray) -> np.ndarray:
            return 1.0 - t / x

        if ax.flows.discrete:
            cov, _ = _discrete_tail_sum(ax.octets, g, lambda x: t / (x * (x + 1.0)), t,
                                        exact_span=8192)
        else:
            cov, _ = _continuous_tail_integral(ax.octets, g, t)
        return 100.0 * cov
    p = float(param)
    if axis == "size":
        lam = p / model.max_packet_size

        def covered_bytes(s: np.ndarray) -> np.ndarray:
            x = lam * s
            return 1.0 + np.expm1(-x) / x

        cov, _ = _continuous_tail_integral(ax.octets, covered_bytes, 0.0)
        return 100.0 * cov
    if p == 1.0:
        return 100.0
    q = 1.0 - p
    lq = math.log1p(-p)

    def covered(x: np.ndarray) -> np.ndarray:
        return 1.0 + q * np.expm1(x * lq) / (p * x)

    def covered_step(x: np.ndarray) -> np.ndarray:
        e0 = -np.expm1(x * lq)
        e1 = -np.expm1((x + 1.0) * lq)
        return (q / p) * (e0 / x - e1 / (x + 1.0))

    cov, _ = _discrete_tail_sum(ax.octets, covered, covered_step,
                                ax.octets.domain_min - 1.0, exact_span=8192)
    return 100.0 * cov


def invert_for_coverage(model: TrafficModel, kind: str, axis: str,
                        target_pct: float) -> tuple[float, AnalyticReport]:
    """Find the threshold/probability achieving the target traffic coverage.

    Bisects the monotone coverage curve to relative tolerance 1e-6 and
    returns the parameter together with the achieved analytic metrics.
    On the integer length axis coverage is a step function; the end of the
    final bracket whose coverage is closest to the target is returned.
    """
    if kind not in ("first", "threshold", "sampling"):
        raise ValueError(f"unknown algorithm kind {kind!r}")
    if target_pct > 100.0:
        raise UnreachableError(f"coverage {target_pct:g}% exceeds 100%")
    if target_pct <= 0.0:
        raise ValueError("target coverage must lie in (0, 100]")

    def cov(param: float) -> float:
        return _coverage_only(model, kind, axis, param)

    def report(param: float) -> AnalyticReport:
        if kind == "sampling":
            return analytic_for_spec(model, AlgorithmSpec(kind, axis, probability=param))
        return analytic_for_spec(model, AlgorithmSpec(kind, axis, threshold=param))

    if kind in ("first", "threshold"):
        if target_pct == 100.0:
            return 0.0, report(0.0)
        # strict predicate so that on flat coverage regions (integer length
        # axis) the bracket settles on the smallest equivalent parameter
        lo, hi = 0.0, max(float(model.axis(axis).flows.domain_min), 1.0)
        while cov(hi) > target_pct and hi < SUPPORT_CAP:
            lo, hi = hi, hi * 2.0
        for _ in range(80):
            if hi - lo <= 1e-6 * max(hi, 1.0):
                break
            mid = 0.5 * (lo + hi)
            if cov(mid) > target_pct:
                lo = mid
            else:
                hi = mid
        param = min((hi, lo), key=lambda t: abs(cov(t) - target_pct))
    else:
        lo, hi = P_BRACKET
        top = cov(hi)
        if target_pct > top + 1e-9:
            raise UnreachableError(
                f"coverage {target_pct:g}% unreachable; sampling tops out at {top:.6g}%"
            )
        if cov(lo) >= target_pct:
            return lo, report(lo)
        for _ in range(80):
            if hi / lo <= 1.0 + 1e-9:
                break
            mid = math.sqrt(lo * hi)
            if cov(mid) >= target_pct:
                hi = mid
            else:
                lo = mid
        param = min((lo, hi), key=lambda q: abs(cov(q) - target_pct))
    return param, report(param)
