"""Flow length/size distribution-mixture models.

A traffic model carries, for each decision axis (flow length in packets,
flow size in bytes), three weightings of the same quantity: the share of
flows, of packets, and of octets attributable to flows up to a given
length/size.  Each weighting is a mixture of uniform, lognormal and
generalized-Pareto components.  Flows are drawn whole on both axes, from
the integer law pmass(k) = sf(k - 1) - sf(k) of the mixture's survival
function, and the mean and the analytic sums read that same law.  On the
length axis sf is itself a step function; on the size axis it is the
continuous byte law, and the integer law takes its differences at whole
bytes.  Each mixture is the one home of its integer law: the components
evaluate their own sf, and the mixture keeps the tables its quantile, mean
and expectations read.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ModelError",
    "SchemaError",
    "WeightError",
    "DominanceError",
    "MixtureComponent",
    "Mixture",
    "AxisModel",
    "TrafficModel",
    "parse_model",
    "load_model",
    "resolve_model_path",
]

WEIGHT_TOLERANCE = 1e-9
DOMINANCE_TOLERANCE = 1e-9
SUPPORT_FLOOR_TOLERANCE = 1e-9
SUPPORT_CAP = 2 ** 40
DEFAULT_MAX_PACKET = 1518
DEFAULT_SIZE_DOMAIN_MIN = 64
# integers above domain_min in each mixture's survival table
TABLE_SPAN = 2 ** 16
GUIDE_BUCKETS = 2 ** 16  # equal slices of [0, 1] in the survival table's guide
QUANTILE_BLOCK = 2 ** 13  # u per block of the in-table quantile search: 64 KiB of float64

_COMPONENT_PARAMS = {
    "uniform": ("low", "high"),
    "lognormal": ("mu", "sigma"),
    "generalized-pareto": ("shape", "location", "scale"),
}


class ModelError(ValueError):
    """Base class for traffic-model validation failures."""


class SchemaError(ModelError):
    """Malformed model document: missing/extra fields or invalid parameters."""


class WeightError(ModelError):
    """Mixture weights out of range or not summing to one."""


class DominanceError(ModelError):
    """flows/packets/octets CDF ordering violated on the validation grid."""


# -- the standard normal CDF ------------------------------------------------------
#
# A numpy port of cephes ndtr, erf and erfc, the routine scipy.special.ndtr
# runs: the same coefficients, branch points and operation order, with
# numpy's exp in place of libm's, which moves a result by a few ulp at most.
# Each numerator is evaluated by polevl and each denominator, whose leading
# coefficient 1 is implicit, by p1evl, on Python floats or in place on arrays.

_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
# inputs up to this many points take the Python-float path
_NDTR_FLOAT_POINTS = 8


def _polevl(x, coefs: tuple[float, ...]):
    acc = coefs[0] * x
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x, coefs: tuple[float, ...]):
    acc = x + coefs[0]
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _ndtr_float(a: float) -> float:
    """ndtr at one point, on Python floats."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        # erf(x); when |x| >= sqrt(1/2), erfc(z) = 1 - erf(z) = 1 - |erf(x)|
        w = x * x
        r = x * _polevl(w, _NDTR_T) / _p1evl(w, _NDTR_U)
        if z < _SQRT1_2:
            return 0.5 + 0.5 * r
        e = 1.0 - abs(r)
    elif z * z > _MAXLOG:
        e = 0.0
    else:
        num, den = (_NDTR_P, _NDTR_Q) if z < 8.0 else (_NDTR_R, _NDTR_S)
        e = float(np.exp(-z * z)) * _polevl(z, num) / _p1evl(z, den)
    y = 0.5 * e
    return 1.0 - y if x > 0.0 else y


def _erfc_tail(z: np.ndarray, num: tuple[float, ...], den: tuple[float, ...]) -> np.ndarray:
    """erfc(z) = (exp(-z^2) * num(z)) / den(z) at z >= 1, into a new array."""
    out = np.multiply(z, z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= _polevl(z, num)
    out /= _p1evl(z, den)
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF at each point of a (cephes ndtr).

    Up to _NDTR_FLOAT_POINTS points are evaluated on Python floats, whose
    per-point cost is far below a numpy call's; larger inputs evaluate each
    branch only on the points that fall in it.  Both paths agree bit for bit.
    """
    a = np.asarray(a, dtype=float)
    if a.size <= _NDTR_FLOAT_POINTS:
        return np.array([_ndtr_float(v) for v in a.ravel().tolist()]).reshape(a.shape)
    x = np.multiply(a, _SQRT1_2)
    z = np.abs(x)
    e = np.empty_like(x)  # erfc(|x|)
    erf = z < 1.0
    far = z >= 8.0
    r = None
    if erf.any():
        r = x[erf]
        w = r * r
        r *= _polevl(w, _NDTR_T)
        r /= _p1evl(w, _NDTR_U)
        e[erf] = 1.0 - np.abs(r)
    mid = ~(erf | far)  # NaN lands here and stays NaN
    if mid.any():
        e[mid] = _erfc_tail(z[mid], _NDTR_P, _NDTR_Q)
    if far.any():
        e[far] = 0.0  # erfc underflows where z^2 > MAXLOG
        far &= ~(z * z > _MAXLOG)
        e[far] = _erfc_tail(z[far], _NDTR_R, _NDTR_S)
    e *= 0.5
    np.subtract(1.0, e, out=e, where=x > 0.0)
    if r is not None:
        small = z < _SQRT1_2
        e[small] = 0.5 + 0.5 * r[small[erf]]
    return e


def _lognormal_sf(x: np.ndarray, mu, sigma) -> np.ndarray:
    """P(X > x) for lognormal(mu, sigma).  mu and sigma broadcast against
    x, so one call evaluates a stack of components with a single _ndtr."""
    with np.errstate(divide="ignore"):
        z = (np.log(np.maximum(x, 0.0)) - mu) / -sigma  # negated: _ndtr holds no second copy
    return np.where(x > 0.0, _ndtr(z), 1.0)


def _gpd_sf(z, shape: float):
    """Generalized-Pareto survival function at the standardized excess z >= 0."""
    if shape == 0.0:
        return np.exp(-z)
    base = np.maximum(1.0 + shape * z, 0.0)
    with np.errstate(divide="ignore"):
        out = base ** (-1.0 / shape)
    return np.where(base > 0.0, out, 0.0)


@dataclass(frozen=True)
class MixtureComponent:
    """One parametric component of a mixture.

    ``params`` holds kind-specific values: uniform(low, high),
    lognormal(mu, sigma), generalized-pareto(shape, location, scale).
    """

    kind: str
    weight: float
    params: dict[str, float]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _COMPONENT_PARAMS:
            raise SchemaError(f"unknown component kind {self.kind!r}")
        expected = _COMPONENT_PARAMS[self.kind]
        got = tuple(sorted(self.params))
        if got != tuple(sorted(expected)):
            raise SchemaError(
                f"{self.kind} component expects params {expected}, got {got}"
            )
        if not (0.0 <= self.weight <= 1.0):
            raise WeightError(f"component weight {self.weight} outside [0, 1]")
        p = self.params
        if self.kind == "uniform" and not (p["high"] > p["low"]):
            raise SchemaError("uniform component requires high > low")
        if self.kind == "lognormal" and not (p["sigma"] > 0):
            raise SchemaError("lognormal component requires sigma > 0")
        if self.kind == "generalized-pareto" and not (p["scale"] > 0):
            raise SchemaError("generalized-pareto component requires scale > 0")

    def mean_is_finite(self) -> bool:
        return not (self.kind == "generalized-pareto" and self.params["shape"] >= 1.0)

    def partial_expectation(self, a: float) -> float:
        """E[X * 1{X > a}] under the untruncated component law.

        Requires a finite mean; closed forms per family.
        """
        if not self.mean_is_finite():
            raise ValueError("partial expectation undefined for shape >= 1")
        p = self.params
        if self.kind == "uniform":
            lo, hi = p["low"], p["high"]
            a = min(max(a, lo), hi)
            return (hi * hi - a * a) / (2.0 * (hi - lo))
        if self.kind == "lognormal":
            mu, s = p["mu"], p["sigma"]
            full = math.exp(mu + 0.5 * s * s)
            if a <= 0:
                return full
            return full * _ndtr_float(-(math.log(a) - mu - s * s) / s)
        xi, loc, sc = p["shape"], p["location"], p["scale"]
        if a <= loc:
            return loc + sc / (1.0 - xi)
        # conditional excess beyond a is generalized-Pareto(xi, sc + xi*(a - loc))
        return float(_gpd_sf((a - loc) / sc, xi)) * (a + (sc + xi * (a - loc)) / (1.0 - xi))

    def sf(self, x: np.ndarray) -> np.ndarray:
        """P(X > x) under the untruncated component law, vectorized.

        Direct numpy math, the normal CDF included (_ndtr), cheap enough
        for the tables and bisections; the tests cross-check it against
        scipy.stats.  It is the component's one distribution function:
        every CDF value is 1 - sf.
        """
        p = self.params
        if self.kind == "uniform":
            return np.clip((p["high"] - x) / (p["high"] - p["low"]), 0.0, 1.0)
        if self.kind == "lognormal":
            return _lognormal_sf(x, p["mu"], p["sigma"])
        return _gpd_sf(np.maximum((x - p["location"]) / p["scale"], 0.0), p["shape"])


# -- per-mixture tail tables ----------------------------------------------------

# built on first use: only a process that sums a tail loads numpy.polynomial and LAPACK
_leggauss = functools.cache(lambda points: np.polynomial.legendre.leggauss(points))

# per rule (64 then 32 points): nodes x shaped (pieces, points), the rule's
# weights, and each piece's half-width on the log axis
_Rules = tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _log_rules(edges: np.ndarray) -> _Rules:
    """Gauss-Legendre nodes of the 64- and the 32-point rule on each piece
    between consecutive edges on the log axis; none for a single edge."""
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    return tuple((np.exp(mid + half * nodes[None, :]), weights, half)
                 for nodes, weights in map(_leggauss, (64, 32)))


@dataclass(frozen=True)
class _DiscreteTable:
    """The clipped pmass of the survival table's integers lo + 1 .. end, up
    to the last nonzero one; sf at end, end + 1 and the support cap; the
    remainder's pieces over [end + 1, SUPPORT_CAP], their log-axis edges,
    nodes and the smooth interpolant of sf at the nodes; and two scratch
    arrays as long as pmass, which Mixture.expect owns while it runs."""

    lo: int
    end: int
    pmass: np.ndarray
    ks: np.ndarray
    sf_end: tuple[float, float]
    sf_cap: float
    edges: np.ndarray
    rules: _Rules
    sf_nodes: tuple[np.ndarray, ...]
    out: np.ndarray
    tmp: np.ndarray


@dataclass(frozen=True, eq=False)
class Mixture:
    """Weighted mixture of components over one axis weighting.

    ``discrete`` mixtures (length axis) are integer valued: the continuous
    mixture is discretized via survival-function differences, with any
    component mass in (domain_min - 1, domain_min] folded into the atom at
    ``domain_min``.  Continuous mixtures (size axis) are lower-truncated at
    ``domain_min`` and renormalized component-wise; their flows are still
    whole bytes, so both axes follow the integer law sf(k - 1) - sf(k).

    Every mixture holds one table of sf at the integers from
    ceil(domain_min) - 1, the last where sf is 1, up to ceil(domain_min) +
    TABLE_SPAN, built on first use.  The quantile searches 1 - sf there,
    through an int32 guide into it, and the tail table, from which the mean
    and expect read the integer law, reads it too.
    """

    components: tuple[MixtureComponent, ...]
    domain_min: float
    discrete: bool
    # each component's mass above the floor, by which it is renormalized
    _keep: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # the lognormal components' mu and sigma, which _raw_sf evaluates at once
    _normal: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise SchemaError("mixture requires at least one component")
        if self.domain_min <= 0:
            raise SchemaError("domain_min must be positive")
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise WeightError(
                f"mixture weights sum to {total!r}, expected 1 within {WEIGHT_TOLERANCE}"
            )
        keep = []
        for c in self.components:
            below = 1.0 - float(c.sf(np.asarray([self.floor]))[0])
            if self.discrete and below > SUPPORT_FLOOR_TOLERANCE:
                raise SchemaError(
                    f"{c.kind} component carries probability {below:.3g} below the "
                    f"domain floor {self.floor}; discrete-axis support must start at "
                    f"{self.floor + 1} or above"
                )
            if below >= 1.0:
                raise SchemaError(f"{c.kind} component has no mass above domain_min")
            keep.append(1.0 - below)
        object.__setattr__(self, "_keep", tuple(keep))
        normal = [c.params for c in self.components if c.kind == "lognormal"]
        object.__setattr__(self, "_normal", (np.array([p["mu"] for p in normal]),
                                             np.array([p["sigma"] for p in normal])))

    @property
    def floor(self) -> float:
        """Lower edge of the support: domain_min - 1 (discrete) or domain_min."""
        return self.domain_min - 1.0 if self.discrete else float(self.domain_min)

    @property
    def _ends(self) -> tuple[int, int]:
        """The survival table's first and last integers: ceil(domain_min) -
        1 and ceil(domain_min) + TABLE_SPAN."""
        lo = math.ceil(self.domain_min) - 1
        return lo, lo + TABLE_SPAN + 1

    # -- survival / CDF ----------------------------------------------------

    def _raw_sf(self, x: np.ndarray) -> np.ndarray:
        """The renormalized mixture sf at x >= floor.  One _lognormal_sf
        call, stacked along a leading axis, serves every lognormal
        component; the sum runs in component order."""
        mu, sigma = self._normal
        if mu.size:
            col = (-1,) + (1,) * np.ndim(x)
            normal = iter(_lognormal_sf(x, mu.reshape(col), sigma.reshape(col)))
        out = np.zeros_like(x, dtype=float)
        for c, keep in zip(self.components, self._keep):
            sf = next(normal) if c.kind == "lognormal" else c.sf(x)
            out += c.weight * (sf / keep)
        return np.clip(out, 0.0, 1.0)

    @functools.cached_property
    def _sf_table(self) -> np.ndarray:
        """sf at the integers of _ends, both included, evaluated in blocks
        of 12,288 component values (3,072 integers for four components):
        sf is elementwise, and each block's temporaries stay within 96 KiB.
        The allocator reuses blocks that small, where it maps larger ones
        (from 128 KiB with glibc's defaults) afresh and faults them in."""
        lo, end = self._ends
        step = max(1, 12288 // len(self.components))
        out = np.empty(end + 1 - lo)
        for a in range(lo, end + 1, step):
            out[a - lo:a - lo + step] = self.sf(np.arange(a, min(a + step, end + 1), dtype=float))
        return out

    @functools.cached_property
    def _guide(self) -> np.ndarray:
        """The survival table's int32 guide: the first index where 1 - sf is
        at or above each b / GUIDE_BUCKETS.  The keys are searched 4,096 at a
        time into the guide, so no full-length key or int64 index array is
        made."""
        cdf, guide = 1.0 - self._sf_table, np.empty(GUIDE_BUCKETS + 1, dtype=np.int32)
        for b in range(0, GUIDE_BUCKETS + 1, 4096):
            keys = np.arange(b, min(b + 4096, GUIDE_BUCKETS + 1)) / GUIDE_BUCKETS
            guide[b:b + len(keys)] = np.searchsorted(cdf, keys)
        return guide

    def sf(self, x):
        """P(X > x), evaluated via component survival functions for tail
        accuracy; 1 below domain_min."""
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        pts = np.floor(xx) if self.discrete else xx
        out = self._raw_sf(np.maximum(pts, self.floor))
        out[xx < self.domain_min] = 1.0
        return float(out[0]) if np.isscalar(x) else out

    def cdf(self, x):
        """P(X <= x) = 1 - sf(x); 0 below domain_min, -> 1 at infinity."""
        return 1.0 - self.sf(x)

    def pmass(self, k):
        """Probability mass of the integer cell k: cdf(k) - cdf(k - 1)."""
        scalar = np.isscalar(k)
        kk = np.atleast_1d(np.asarray(k, dtype=float))
        if not np.all(kk >= self.domain_min):  # NaN included
            raise ValueError("pmass requires k >= domain_min")
        out = np.maximum(self.sf(kk - 1.0) - self.sf(kk), 0.0)
        return float(out[0]) if scalar else out

    # -- the integer law's tail ----------------------------------------------

    @functools.cached_property
    def _tail_table(self) -> _DiscreteTable:
        """What the integer sums read of the mixture.  The survival table
        starts where sf is 1, so its first difference is the atom at
        ceil(domain_min)."""
        sf = self._sf_table
        lo, end = self._ends
        pm = np.trim_zeros(np.maximum(sf[:-1] - sf[1:], 0.0), "b")
        ta, tb = math.log(end + 1.0), math.log(SUPPORT_CAP)
        edges = np.linspace(ta, tb, max(1, math.ceil((tb - ta) / math.log(2.0))) + 1)
        rules = _log_rules(edges)
        return _DiscreteTable(lo, end, pm, np.arange(lo + 1, lo + 1 + len(pm), dtype=float),
                              (float(sf[-1]), self.sf(end + 1.0)), float(self.sf(SUPPORT_CAP)),
                              edges, rules, tuple(self._raw_sf(x) for x, _, _ in rules),
                              np.empty(len(pm)), np.empty(len(pm)))

    @functools.cached_property
    def _tail_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The survival table's end and the integers floor(end * 2^(j/64)),
        j >= 1, past it, with cdf and log sf at each: octave by octave up to
        the first whose cdf reaches 1 - 2^-53, the largest u a quantile
        takes, or whose x overflows, where every component's sf is 0."""
        steps = np.exp2(np.arange(1, 65) / 64.0)
        scale = float(self._ends[1])
        xs, sfs = [np.array([scale])], [self._sf_table[-1:]]
        with np.errstate(over="ignore", divide="ignore"):
            while 1.0 - sfs[-1][-1] < 1.0 - 2.0 ** -53:
                xs.append(np.floor(scale * steps))
                sfs.append(self._raw_sf(xs[-1]))
                scale *= 2.0
            sf = np.concatenate(sfs)
            return np.concatenate(xs), 1.0 - sf, np.log(sf)

    # -- quantiles -----------------------------------------------------------

    def quantile(self, u, out=None):
        """Smallest integer x >= domain_min with cdf(x) >= u, for u in [0, 1).

        In the survival table u bisects on 1 - sf between the guide's
        entries at the ends of its bucket (Chen & Asau 1974).  Past it, u's
        grid bracket is narrowed by regula falsi on (log x, log sf), then
        bisected from the sixth round on.  Each probe is an integer, past
        2^53 a float, strictly inside the bracket, and at or above u when
        1 - sf(x) >= u; the search ends when no float lies inside.  Where
        1 - sf(x) is monotone in x that is plain bisection's answer, bit for
        bit; where sf is flat to its rounding it need not be, but the answer
        passes the test and the integer float before it fails it.  The float
        ``out`` may be u itself.  By convention quantile(0) == domain_min.
        """
        scalar = np.isscalar(u)
        uu = np.atleast_1d(np.asarray(u, dtype=float))
        if uu.size and not (uu.min() >= 0.0 and uu.max() < 1.0):  # NaN included
            raise ValueError("quantile requires u in [0, 1)")
        out = np.empty_like(uu) if out is None else out
        past, up = self._table_quantile(uu, out)
        if past.size:
            # in increasing u the probes increase too, so each branch of _ndtr
            # gathers a contiguous run of them, cheaper than a scattered one
            order = np.argsort(up)
            past, up = past[order], up[order]
            grid, grid_cdf, grid_log_sf = self._tail_grid
            j = np.searchsorted(grid_cdf, up, "left")
            # per u: log sf where 1 - sf rounds to u, the bracket, and log sf
            # less that at its ends
            t = np.log((1.0 - up) + 0.5 * (up - np.nextafter(up, 0.0)))
            lo, hi = grid[j - 1], grid[j]
            f_lo, f_hi = grid_log_sf[j - 1] - t, grid_log_sf[j] - t
            live = np.arange(len(up))
            for rounds in itertools.count():
                a = np.maximum(lo[live] + 1.0, np.nextafter(lo[live], np.inf))
                b = np.minimum(hi[live] - 1.0, np.nextafter(hi[live], 0.0))
                inside = (a <= b) & (hi[live] < np.inf)
                live, a, b = live[inside], a[inside], b[inside]
                if not live.size:
                    break
                l, h, fl, fh = lo[live], hi[live], f_lo[live], f_hi[live]
                with np.errstate(divide="ignore", invalid="ignore"):
                    # sf flat to its rounding stalls interpolation: from round 6, bisect
                    w = fl / (fl - fh)
                    w = np.where((w >= 0.0) & (fh > -np.inf) & (rounds < 6), w, 0.5)
                    x = np.clip(np.floor(l * np.exp(w * np.log(h / l))), a, b)
                    # blocks of at most 2,048 probes: _raw_sf holds temporaries per component
                    step = len(x) // (len(x) // 2048 + 1) + 1
                    sf = np.concatenate([self._raw_sf(x[i:i + step]) for i in range(0, len(x), step)])
                    f = np.log(sf) - t[live]
                above = 1.0 - sf >= up[live]
                f_lo[live], f_hi[live] = np.where(above, fl, f), np.where(above, f, fh)
                lo[live], hi[live] = np.where(above, l, x), np.where(above, x, h)
            out[past] = hi
        return float(out[0]) if scalar else out

    def _table_quantile(self, uu: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Writes each u's quantile in the table to out and returns the positions and
        u of those past it.  Per QUANTILE_BLOCK u, the guide answers where u's bucket
        holds one integer; the other u are kept aside and bisected a block at a time."""
        table, guide, floor = self._sf_table, self._guide, float(self._ends[0])
        wide, wide_u = [np.empty(0, np.intp)], [np.empty(0)]
        for a in range(0, len(uu), QUANTILE_BLOCK):
            ub = uu[a:a + QUANTILE_BLOCK]
            bucket = (ub * GUIDE_BUCKETS).astype(np.intp)
            k, hi = guide[bucket], guide[1:][bucket]
            bisect = np.flatnonzero(np.minimum(k, len(table) - 1) < hi)  # or at the table's end
            wide.append(a + bisect)
            wide_u.append(ub[bisect])
            np.add(k, floor, out=out[a:a + QUANTILE_BLOCK])
        wide, wide_u = np.concatenate(wide), np.concatenate(wide_u)
        for c in range(0, len(wide), QUANTILE_BLOCK):
            at, uv = wide[c:c + QUANTILE_BLOCK], wide_u[c:c + QUANTILE_BLOCK]
            bucket = (uv * GUIDE_BUCKETS).astype(np.intp)
            k, hi = guide[bucket], guide[1:][bucket]
            while (k < hi).any():
                # a closed bracket stays: its probe is masked, and its mid is its end
                mid = (k + hi) >> 1
                below = (1.0 - table.take(mid, mode="clip") < uv) & (k < hi)
                k, hi = np.where(below, mid + 1, k), np.where(below, hi, mid)
            # u = 0, always in the first bucket, finds the table's first integer
            out[at] = np.maximum(floor + k, self.domain_min)
        past = out[wide] == floor + len(table)
        return wide[past], wide_u[past]

    # -- moments ---------------------------------------------------------------

    def mean(self) -> float | None:
        """Mean of the integer law; ``None`` when a component's mean diverges.

        The tail table's terms are summed exactly, and past its end each
        component's closed-form partial expectation adds the continuous
        values, whose integer cells exceed them by half a unit on average.
        """
        if any(not c.mean_is_finite() for c in self.components):
            return None
        tab = self._tail_table
        # np.sum, not a BLAS dot, whose rounding follows its thread count
        head = float(np.sum(tab.ks * tab.pmass))
        tail = sum(c.weight * c.partial_expectation(tab.end) / keep
                   for c, keep in zip(self.components, self._keep))
        return head + tail + 0.5 * tab.sf_end[0]

    # -- expectations --------------------------------------------------------

    def expect(self, weight, start: float) -> tuple[float, float]:
        """Sum of pmass(k) * g(k) over the integers k > start, with its
        truncation bound.

        weight is None, the indicator of x > start, whose sum is
        sf(floor(start)), or a pair (g, gstep) of vectorized functions,
        gstep(x) = g(x + 1) - g(x).  g(x, out, tmp) writes its values into
        out, tmp being scratch of x's shape, and returns out; g(x) returns
        a fresh array.

        The terms up to the survival table's end are summed exactly from the
        tail table, and the call owns the table's scratch arrays out and tmp
        while it runs: g writes the head's weights there with numpy out=
        ufuncs in its formula's operand order, and the product with pmass is
        taken in place and np.sum-med (a BLAS dot rounds by its thread
        count).  So a call allocates no head-length array, and each sum is
        bit for bit that of the formula's fresh arrays.  Past the table's end
        x0 the sum is Abel-summed: sf(x0) g(x0 + 1) plus the sum over x > x0
        of sf(x) gstep(x), assumed monotone decreasing (true of monotone
        weights bounded by 1), read as its integral over [x0 + 1,
        SUPPORT_CAP] plus half its first term.  The integral takes the
        64-point Gauss-Legendre rule on the table's pieces, about an octave
        each on the log axis, its error the gap to the 32-point rule.  A
        start past the end evaluates sf afresh on one piece, up to the next
        piece edge, and reads the table's pieces from there on.
        """
        if weight is None:
            return self.sf(math.floor(start)), 0.0
        g, gstep = weight
        tab = self._tail_table
        start_i = max(math.floor(start), tab.lo)
        k = start_i - tab.lo
        head = g(tab.ks[k:], tab.out[k:], tab.tmp[k:])
        value = float(np.sum(np.multiply(tab.pmass[k:], head, out=head)))
        x0 = max(start_i, tab.end)
        if x0 >= SUPPORT_CAP:
            return value, 2.0 * tab.sf_cap
        rules, sf_nodes = tab.rules, tab.sf_nodes
        if x0 == tab.end:
            sf0, sf1 = tab.sf_end
        else:
            i = int(np.searchsorted(tab.edges, math.log(x0 + 1.0), "right"))
            fresh = _log_rules(np.append(math.log(x0 + 1.0), tab.edges[i:i + 1]))
            # sf at x0, x0 + 1 and both rules' fresh nodes in one evaluation
            (x64, _, _), (x32, _, _) = fresh
            sf = self._raw_sf(np.concatenate(([x0, x0 + 1.0], x64.ravel(), x32.ravel())))
            sf0, sf1 = sf[:2].tolist()
            fresh_sf = (sf[2:2 + x64.size].reshape(x64.shape), sf[2 + x64.size:].reshape(x32.shape))
            sf_nodes = tuple(np.vstack((f, s[i:])) for f, s in zip(fresh_sf, sf_nodes))
            rules = tuple((np.vstack((x, tx[i:])), w, np.vstack((half, th[i:])))
                          for (x, w, half), (tx, _, th) in zip(fresh, rules))
        if sf0 == 0.0:
            return value, 0.0
        # keep the product order ((sf * gstep(x)) * x) * w * half: the golden
        # outputs pin its rounding
        v64, v32 = (float(np.sum(s * gstep(x) * x * w[None, :] * half))
                    for (x, w, half), s in zip(rules, sf_nodes))
        x1 = np.array([x0 + 1.0])
        h0 = sf1 * float(gstep(x1)[0])
        value += sf0 * float(g(x1)[0]) + v64 + 0.5 * h0
        return value, 0.5 * abs(h0) + abs(v64 - v32) + 2.0 * tab.sf_cap


@dataclass(frozen=True)
class AxisModel:
    """flows/packets/octets weightings for one decision axis."""

    axis: str
    flows: Mixture
    packets: Mixture
    octets: Mixture

    def __post_init__(self) -> None:
        """Checks flows.CDF >= packets.CDF >= octets.CDF pointwise on a
        257-point geometric grid from domain_min to the support cap, floored
        on a discrete axis, where a point may repeat."""
        if self.axis not in ("length", "size"):
            raise SchemaError(f"unknown axis {self.axis!r}")
        grid = np.geomspace(float(self.flows.domain_min), SUPPORT_CAP, 257)
        if self.flows.discrete:
            grid = np.floor(grid)
        cdf = {name: getattr(self, name).cdf(grid) for name in ("flows", "packets", "octets")}
        for upper, lower in (("flows", "packets"), ("packets", "octets")):
            bad = cdf[upper] + DOMINANCE_TOLERANCE < cdf[lower]
            if np.any(bad):
                x = grid[np.argmax(bad)]
                raise DominanceError(
                    f"{self.axis} axis: CDF dominance {upper} >= {lower} violated at x={x:g}"
                )


@dataclass(frozen=True)
class TrafficModel:
    """Parsed and validated traffic model."""

    name: str
    length_axis: AxisModel
    size_axis: AxisModel
    max_packet_size: int = DEFAULT_MAX_PACKET
    declared_avg_flow_length: float | None = None
    declared_avg_flow_size: float | None = None
    declared_avg_packet_size: float | None = None
    # AlgorithmSpec -> its coverage sum and truncation bound, kept by analytic._coverage
    coverage_sums: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def axis(self, name: str) -> AxisModel:
        if name not in ("length", "size"):
            raise ValueError(f"unknown axis {name!r}")
        return getattr(self, f"{name}_axis")

    @staticmethod
    def _average(declared: float | None, flows: Mixture, what: str) -> float:
        """The declared average, else the flows' mean, which may diverge."""
        m = declared if declared is not None else flows.mean()
        if m is None:
            raise ModelError(f"average {what} diverges for this model")
        return m

    @property
    def avg_flow_length(self) -> float:
        return self._average(self.declared_avg_flow_length, self.length_axis.flows, "flow length")

    @property
    def avg_flow_size(self) -> float:
        return self._average(self.declared_avg_flow_size, self.size_axis.flows, "flow size")

    @property
    def avg_packet_size(self) -> float:
        if self.declared_avg_packet_size is not None:
            return self.declared_avg_packet_size
        return self.avg_flow_size / self.avg_flow_length


# -- parsing ------------------------------------------------------------------


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _check_keys(obj: Any, required: Sequence[str], optional: Sequence[str], where: str) -> dict:
    """obj, an object holding every required field and no other but the optional ones."""
    obj = _require_mapping(obj, where)
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing field(s) {missing}")
    extra = sorted(set(obj) - set(required) - set(optional))
    if extra:
        raise SchemaError(f"{where}: unexpected field(s) {extra}")
    return obj


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer past the largest float
        x = math.inf
    if not math.isfinite(x):  # json reads NaN and Infinity
        raise SchemaError(f"{where}.{key}: expected a finite number")
    return x


def _built(where: str, cls, **fields):
    """cls(**fields), where prefixed to the ModelError its checks raise."""
    try:
        return cls(**fields)
    except ModelError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _component_from_json(obj: Any, where: str) -> MixtureComponent:
    obj = _check_keys(obj, ("kind", "weight", "params"), (), where)
    # the component judges the kind and the param names
    params_obj = _require_mapping(obj["params"], f"{where}.params")
    params = {k: _number(params_obj, k, f"{where}.params") for k in params_obj}
    return _built(where, MixtureComponent, kind=obj["kind"],
                  weight=_number(obj, "weight", where), params=params)


def _mixture_from_json(obj: Any, discrete: bool, where: str) -> Mixture:
    obj = _check_keys(obj, ("components",), ("domain_min",), where)
    comps_obj = obj["components"]
    if not isinstance(comps_obj, list):
        raise SchemaError(f"{where}.components: expected a list")
    comps = tuple(
        _component_from_json(c, f"{where}.components[{i}]") for i, c in enumerate(comps_obj)
    )
    default_min = 1.0 if discrete else float(DEFAULT_SIZE_DOMAIN_MIN)
    domain_min = _number(obj, "domain_min", where) if "domain_min" in obj else default_min
    if discrete and domain_min != int(domain_min):
        raise SchemaError(f"{where}.domain_min: length axis requires an integer")
    return _built(where, Mixture, components=comps, domain_min=domain_min, discrete=discrete)


def _axis_from_json(obj: Any, axis: str, where: str) -> AxisModel:
    obj = _check_keys(obj, ("flows", "packets", "octets"), (), where)
    mixes = {name: _mixture_from_json(obj[name], axis == "length", f"{where}.{name}")
             for name in ("flows", "packets", "octets")}
    return AxisModel(axis=axis, **mixes)


def parse_model(document: str) -> TrafficModel:
    """Parse and validate a JSON traffic-model document."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    obj = _check_keys(obj, ("name", "axes"),
                      ("max_packet_size", "avg_flow_length", "avg_flow_size", "avg_packet_size"),
                      "model")
    if not isinstance(obj["name"], str):
        raise SchemaError("model.name: expected a string")
    axes = _check_keys(obj["axes"], ("length", "size"), (), "model.axes")
    length_axis = _axis_from_json(axes["length"], "length", "model.axes.length")
    size_axis = _axis_from_json(axes["size"], "size", "model.axes.size")

    max_packet = _number(obj, "max_packet_size", "model") if "max_packet_size" in obj else DEFAULT_MAX_PACKET
    if max_packet != int(max_packet):
        raise SchemaError(f"model.max_packet_size: expected a whole number, got {max_packet!r}")
    max_packet = int(max_packet)
    if not 0 < max_packet < 2 ** 31:  # packet layouts hold packet sizes as int32
        raise SchemaError(f"model.max_packet_size: expected 1..{2 ** 31 - 1}, got {max_packet}")

    afl, afs, aps = (_number(obj, key, "model") if key in obj else None
                     for key in ("avg_flow_length", "avg_flow_size", "avg_packet_size"))
    if afl is not None and afs is not None and aps is not None:
        implied = afs / afl
        if abs(aps - implied) > 0.01 * implied:
            raise SchemaError(
                f"declared avg_packet_size {aps:g} disagrees with "
                f"avg_flow_size/avg_flow_length = {implied:g} by more than 1%"
            )

    model = TrafficModel(name=obj["name"], length_axis=length_axis, size_axis=size_axis,
                         max_packet_size=max_packet, declared_avg_flow_length=afl,
                         declared_avg_flow_size=afs, declared_avg_packet_size=aps)
    if model.max_packet_size < model.avg_packet_size:
        raise SchemaError(
            f"max_packet_size {model.max_packet_size} below average packet size "
            f"{model.avg_packet_size:.1f}"
        )
    return model


def resolve_model_path(name: str) -> str:
    """Resolve a model reference: a path as given, else relative to
    $FLOWTAB_MODEL_DIR, else relative to ./models."""
    candidates = [name]
    env_dir = os.environ.get("FLOWTAB_MODEL_DIR")
    if env_dir:
        candidates.append(os.path.join(env_dir, name))
    candidates.append(os.path.join("models", name))
    for cand in candidates:
        if os.path.isfile(cand):
            return cand
    raise FileNotFoundError(f"model file not found: {name!r} (searched {candidates})")


def load_model(path: str) -> TrafficModel:
    with open(resolve_model_path(path), "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
