from __future__ import annotations

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from flowtab.algorithms import AlgorithmSpec, DegenerateError
from flowtab.analytic import (
    _WEIGHTS,
    UnreachableError,
    analytic_for_spec,
    expected_covered_fraction,
    invert_for_coverage,
)
from flowtab.cli import DEFAULT_COVERAGES
from flowtab.model import Mixture, MixtureComponent
from flowtab.sweep import SweepSpec, run_sweep
from oracle import reference_remainder, reference_weights


def first(model, axis, t):
    return analytic_for_spec(model, AlgorithmSpec("first", axis, threshold=t))


def threshold(model, axis, t):
    return analytic_for_spec(model, AlgorithmSpec("threshold", axis, threshold=t))


def sampling(model, axis, p):
    return analytic_for_spec(model, AlgorithmSpec("sampling", axis, probability=p))


# -- hand-derived values on the two-point model ----------------------------------


def test_first_toy_exact(toy_model):
    rep = first(toy_model, "length", 1)
    assert rep.coverage_pct == pytest.approx(100 * 10 / 11, abs=1e-9)
    assert rep.operations_reduction == pytest.approx(2.0, abs=1e-9)
    assert rep.occupancy_reduction == pytest.approx(2.0, abs=1e-9)
    assert rep.truncation_error == 0.0


def test_first_reductions_always_equal(heavytail_model):
    for axis, ts in (("length", (1, 7, 800, 65536)), ("size", (64, 999, 2 ** 22))):
        for t in ts:
            rep = first(heavytail_model, axis, t)
            assert rep.operations_reduction == rep.occupancy_reduction


def test_first_size_reads_the_integer_law(toy_model):
    # toy flows are 100 or 1000 whole bytes, so a 999.99-byte threshold keeps
    # every 1000-byte flow: first covers 100 * sf(999) %, as simulated
    res = run_sweep(SweepSpec(model=toy_model, axis="size", algorithms=("first",),
                              thresholds=(999.99,), flow_count=20_000))
    cell = res.cell("first", 999.99)
    assert cell.analytic.coverage_pct == 100.0 * toy_model.size_axis.octets.sf(999.0)
    assert cell.analytic.coverage_pct == pytest.approx(100 * 10 / 11, abs=1e-9)
    assert cell.mean[0] == pytest.approx(cell.analytic.coverage_pct, rel=0.02)  # A4's floor


def test_first_baseline_and_degenerate(toy_model):
    rep = first(toy_model, "length", 0)
    assert (rep.coverage_pct, rep.operations_reduction) == (100.0, 1.0)
    with pytest.raises(DegenerateError):
        first(toy_model, "length", 11)


def test_threshold_toy_exact(toy_model):
    rep = threshold(toy_model, "length", 1)
    assert rep.coverage_pct == pytest.approx(100 * 9 / 11, abs=1e-9)
    assert rep.operations_reduction == pytest.approx(2.0, abs=1e-9)
    assert rep.occupancy_reduction == pytest.approx(1 / (0.5 * 0.9), abs=1e-9)
    assert rep.truncation_error < 1e-9


def test_threshold_zero_equals_first(toy_model):
    a = first(toy_model, "length", 0)
    b = threshold(toy_model, "length", 0)
    assert b.coverage_pct == pytest.approx(a.coverage_pct, abs=1e-9)
    assert b.occupancy_reduction == pytest.approx(a.occupancy_reduction, abs=1e-9)


def test_sampling_toy_exact(toy_model):
    rep = sampling(toy_model, "length", 1.0)
    assert (rep.coverage_pct, rep.operations_reduction, rep.occupancy_reduction) == (100.0, 1.0, 1.0)
    rep = sampling(toy_model, "length", 0.5)
    want_ops = 1 / (0.5 * 0.5 + 0.5 * (1 - 0.5 ** 10))
    assert rep.operations_reduction == pytest.approx(want_ops, rel=1e-12)
    with pytest.raises(ValueError):
        sampling(toy_model, "length", 0.0)
    with pytest.raises(ValueError):
        sampling(toy_model, "size", 1.5)


# -- covered-fraction closed form ---------------------------------------------------


def brute_force_covered_fraction(p: float, n: int) -> float:
    q = 1.0 - p
    return math.fsum(p * q ** (k - 1) * (n - k + 1) / n for k in range(1, n + 1))


@pytest.mark.parametrize("p", [1e-4, 1e-2, 0.1, 0.5, 1.0])
def test_covered_fraction_matches_brute_force(p):
    for n in (1, 2, 3, 7, 10, 64, 501, 4096, 10_000):
        closed = expected_covered_fraction(p, n)
        assert abs(closed - brute_force_covered_fraction(p, n)) < 1e-12


def test_covered_fraction_edge_values():
    assert expected_covered_fraction(1.0, 17) == 1.0
    assert expected_covered_fraction(0.25, 1) == pytest.approx(0.25, abs=1e-15)
    grid = expected_covered_fraction(0.01, np.array([1.0, 10.0, 100.0, 1e6]))
    assert np.all(np.diff(grid) > 0)  # longer flows are better covered


# -- tail machinery against direct summation -----------------------------------------


# ad-hoc weights in the tail sums' contract: g(x, out, tmp) writes into out
def counter(t):
    """The covered share 1 - t/x of a counter at threshold t, with its step."""
    return (lambda x, out=None, tmp=None: np.subtract(1.0, np.divide(t, x, out=out), out=out),
            lambda x: t / (x * (x + 1.0)))


def ones(x, out=None, tmp=None):
    return np.power(x, 0.0, out=out)  # exactly 1.0


def zeros(x):
    return np.zeros_like(x)


def chunked_brute_sum(mix, g, start, stop):
    total = 0.0
    for lo in range(start + 1, stop + 1, 1 << 20):
        hi = min(lo + (1 << 20) - 1, stop)
        sf = mix.sf(np.arange(lo - 1, hi + 1, dtype=float))
        pm = sf[:-1] - sf[1:]
        ks = np.arange(lo, hi + 1, dtype=float)
        total += float(np.dot(pm.astype(np.longdouble), g(ks).astype(np.longdouble)))
    return total


# (mu, sigma, threshold, brute-force stop, relative error allowed)
@pytest.mark.parametrize("mu, sigma, threshold, stop, rel", [
    (1.0, 1.4, 1, 4_000_000, None),  # sf(4e6) ~ 1e-20
    (1.0, 1.4, 3, 4_000_000, None),
    (1.0, 1.4, 700, 4_000_000, None),
    # the remainder past the survival table carries a share of the sum: its
    # quadrature must read the smooth interpolant of the step function sf
    (5.0, 1.2, 70_000, 3_000_000, 1e-8),  # sf(3e6) ~ 7e-17
])
def test_discrete_tail_sum_lognormal_oracle(mu, sigma, threshold, stop, rel):
    mix = Mixture(
        components=(MixtureComponent("lognormal", 1.0, {"mu": mu, "sigma": sigma}),),
        domain_min=1, discrete=True,
    )
    t = float(threshold)
    g, gstep = counter(t)
    value, bound = mix.expect((g, gstep), t)
    brute = chunked_brute_sum(mix, g, threshold, stop)
    assert bound < 1e-6
    assert value == pytest.approx(brute, abs=max(bound, 1e-12), rel=1e-9)
    if rel is not None:
        assert abs(value - brute) <= rel * brute, (value, brute)


def test_discrete_tail_sum_heavy_pareto_oracle():
    mix = Mixture(
        components=(MixtureComponent("generalized-pareto", 1.0,
                                     {"shape": 0.5, "location": 0.0, "scale": 5.0}),),
        domain_min=1, discrete=True,
    )
    t = 10.0
    g, gstep = counter(t)
    value, bound = mix.expect((g, gstep), t)
    brute = chunked_brute_sum(mix, g, 10, 200_000_000)  # residual ~ 4e-8 relative
    assert value == pytest.approx(brute, rel=1e-6)
    assert abs(value - brute) <= bound + 2 * float(mix.sf(200_000_000.0))


def size_mixture(domain_min, *components):
    return Mixture(components=tuple(MixtureComponent(kind, w, params)
                                    for kind, w, params in components),
                   domain_min=domain_min, discrete=False)


# size mixtures whose whole integer law a brute-force sum reaches: the toy
# model's, one with a generalized-Pareto tail truncated at 1e6 + 64 bytes
# (past the survival table, so its remainder is summed too), and one whose
# domain_min is not an integer, so its first atom, at 65, carries the mass
# of (64.5, 65]
SIZE_LAWS = {
    "toy-flows": (lambda toy: toy.size_axis.flows, 1000),
    "toy-octets": (lambda toy: toy.size_axis.octets, 1000),
    "truncated-heavy-tail": (lambda toy: size_mixture(
        64, ("lognormal", 0.7, {"mu": 5.0, "sigma": 1.1}),
        ("generalized-pareto", 0.3, {"shape": -0.2, "location": 64.0, "scale": 2e5})),
        1_000_064),
    "lognormal-64.5": (lambda toy: size_mixture(
        64.5, ("lognormal", 1.0, {"mu": 4.0, "sigma": 1.0})), 1_000_000),  # sf ~ 5e-23
}


@pytest.mark.parametrize("law", sorted(SIZE_LAWS))
def test_size_tail_sum_matches_brute_force(toy_model, law):
    # the size axis sums the integer law the generator draws, with the
    # weights' own forward differences
    make, stop = SIZE_LAWS[law]
    mix = make(toy_model)
    lo = math.ceil(mix.domain_min) - 1
    total, bound = mix.expect((ones, zeros), 0.0)
    assert total == pytest.approx(1.0, abs=max(bound, 1e-12))
    specs = [AlgorithmSpec("threshold", "size", threshold=t) for t in (0.0, 120.5, 999.0, 70_000.0)]
    specs += [AlgorithmSpec("sampling", "size", probability=p) for p in (1e-4, 0.05, 1.0)]
    for spec in specs:
        start, created, covered = _WEIGHTS[spec.kind, "size"](toy_model, spec)
        for weight in filter(None, (created, covered)):
            value, bound = mix.expect(weight, start)
            brute = chunked_brute_sum(mix, weight[0], max(math.floor(start), lo), stop)
            assert abs(value - brute) <= max(bound, 1e-12), (spec, value, brute, bound)


@pytest.mark.parametrize("kind, axis", sorted(k for k in _WEIGHTS if k[0] != "first"))
def test_weight_steps_are_forward_differences(heavytail_model, kind, axis):
    # the Abel-summed remainder reads each weight's step g(x + 1) - g(x)
    xs = np.array([1.0, 2.0, 7.0, 64.0, 999.0, 4096.0, 65_537.0])
    params = (0.0, 3.0, 500.0) if kind == "threshold" else (1e-5, 0.05, 0.7)
    for param in params:
        spec = (AlgorithmSpec(kind, axis, threshold=param) if kind == "threshold"
                else AlgorithmSpec(kind, axis, probability=param))
        start, *weights = _WEIGHTS[kind, axis](heavytail_model, spec)
        x = xs[xs > start]
        for g, gstep in filter(None, weights):
            assert np.allclose(gstep(x), g(x + 1.0) - g(x), rtol=1e-7, atol=1e-15), (spec, g)


@pytest.mark.parametrize("axis", ["length", "size"])
def test_remainder_past_the_table_matches_fresh_nodes(heavytail_model, axis):
    # a start past the survival table reads one fresh piece up to the
    # table's next piece edge, then the table's own pieces: it agrees with
    # fresh nodes from the start on, at the edges and at the support cap
    for weighting in ("flows", "octets"):
        mix = getattr(heavytail_model.axis(axis), weighting)
        tab = mix._tail_table
        edges = np.floor(np.exp(tab.edges[1:-1]))
        starts = {tab.end, tab.end + 1, 2 ** 40 - 2, 2 ** 40 - 1}
        starts |= {2 ** k for k in range(17, 40)}
        starts |= {int(e) + d for e in edges for d in (-2, -1, 0)}
        for x0 in sorted(starts):
            t = float(x0)
            weight = counter(t)
            value, bound = mix.expect(weight, t)
            ref_value, ref_bound = reference_remainder(mix, *weight, x0)
            assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0), (weighting, x0)
            assert bound == pytest.approx(ref_bound, rel=1e-3, abs=0.0), (weighting, x0)


# thresholds and sampling rates at the edges of the weights' arithmetic
WEIGHT_SPECS = [("threshold", t) for t in (0.5, 1.0, 2.0 ** 16, 2.0 ** 30)]
WEIGHT_SPECS += [("sampling", p) for p in (1.0 - 2.0 ** -53, 0.5, 1e-6, 1e-12)]


@pytest.mark.parametrize("kind, param", WEIGHT_SPECS)
def test_in_place_weights_match_fresh_arrays(toy_model, heavytail_model, kind, param):
    # each weight writes over a head into the tail table's scratch arrays in
    # its formula's operand order: its values, and the tail sums over them,
    # are those of the formula's whole-array expression, bit for bit
    for model in (toy_model, heavytail_model):
        for axis in ("length", "size"):
            spec = (AlgorithmSpec(kind, axis, threshold=param) if kind == "threshold"
                    else AlgorithmSpec(kind, axis, probability=param))
            start, *weights = _WEIGHTS[kind, axis](model, spec)
            for mix in (model.axis(axis).flows, model.axis(axis).octets):
                tab = mix._tail_table
                for weight, ref in zip(weights, reference_weights(model, spec)):
                    if weight is None:
                        continue
                    g, gstep = weight
                    expected = ref(tab.ks)
                    assert np.array_equal(g(tab.ks), expected), (spec, g)
                    assert np.array_equal(g(tab.ks, tab.out, tab.tmp), expected), (spec, g)
                    fresh = (lambda x, out=None, tmp=None: ref(x), gstep)
                    assert mix.expect(weight, start) == mix.expect(fresh, start), (spec, g)
    if kind == "sampling":
        n = heavytail_model.length_axis.flows._tail_table.ks
        covered = expected_covered_fraction(param, n)
        assert not np.shares_memory(covered, heavytail_model.length_axis.flows._tail_table.out)
        assert np.array_equal(covered, reference_weights(
            heavytail_model, AlgorithmSpec("sampling", "length", probability=param))[1](n))


def test_coverage_probe_allocates_no_head_array(heavytail_model):
    # a probe writes its weight into its table's scratch arrays: its peak
    # allocation stays far below one 65,537-term head array (512 KiB)
    specs = [AlgorithmSpec("threshold", axis, threshold=t)
             for axis in ("length", "size") for t in (0.0, 3.0, 500.0, 20_000.0)]
    specs += [AlgorithmSpec("sampling", axis, probability=p)
              for axis in ("length", "size") for p in (1e-6, 0.05, 0.5)]

    def probe(spec):
        start, _, covered = _WEIGHTS[spec.kind, spec.axis](heavytail_model, spec)
        return heavytail_model.axis(spec.axis).octets.expect(covered, start)

    for spec in specs:  # builds the tail tables
        probe(spec)
    tracemalloc.start()
    try:
        for spec in specs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            probe(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 64 * 1024, (spec, peak)
    finally:
        tracemalloc.stop()


def test_tail_tables_live_and_die_with_their_mixture():
    # each mixture's tail table is held by the mixture itself: a table keyed
    # by id() elsewhere would be handed to a later mixture that reuses a
    # dropped one's id, and the table keeps no reference to its mixture
    for i in range(200):
        mix = Mixture(
            components=(MixtureComponent("lognormal", 1.0, {"mu": 0.02 * i, "sigma": 1.0}),),
            domain_min=1, discrete=True,
        )
        value, _ = mix.expect((ones, zeros), 3.0)
        assert value == pytest.approx(mix.sf(3.0), abs=1e-12), i
        ref = weakref.ref(mix)
        del mix
        assert ref() is None, i


def test_reports_digest_over_default_cells(toy_model, heavytail_model):
    # every report field of every default sweep cell, bit for bit, on both
    # shipped models and both axes
    digest = hashlib.sha256()
    for name, model in (("toy_twopoint.json", toy_model),
                        ("example_heavytail.json", heavytail_model)):
        for axis in ("length", "size"):
            for spec in SweepSpec(model=model, axis=axis).cells():
                param = spec.probability if spec.kind == "sampling" else spec.threshold
                try:
                    rep = analytic_for_spec(model, spec)
                    fields = [float(v).hex() for v in (rep.coverage_pct, rep.operations_reduction,
                                                       rep.occupancy_reduction, rep.truncation_error)]
                except DegenerateError:
                    fields = ["degenerate"]
                line = ",".join([name, axis, spec.kind, float(param).hex(), *fields])
                digest.update((line + "\n").encode())
    assert digest.hexdigest() == (
        "7eb96b8427a8ed8dd08e2da4ab794017305b429c6684c0f0faf32e4742829ef2"
    )


def test_truncation_flagging_at_the_support_cap():
    heavy = Mixture(
        components=(MixtureComponent("generalized-pareto", 1.0,
                                     {"shape": 0.99, "location": 0.0, "scale": 1e7}),),
        domain_min=1, discrete=False,
    )
    value, bound = heavy.expect((ones, zeros), 1.0)
    assert bound > 1e-6  # byte mass beyond the 2^40 cap is reported, not hidden


# -- sampling-size closed form ----------------------------------------------------


def test_sampling_size_limits(heavytail_model):
    rep = sampling(heavytail_model, "size", 1.0)
    assert rep.coverage_pct < 100.0  # the continuous approximation never reaches 1 exactly
    # small-rate limit: a flow of s bytes gains an entry with probability
    # ~ (p / max_packet_size) * s, so the entry share is that rate times the mean size
    p = 1e-8
    rep = sampling(heavytail_model, "size", p)
    rate = p / heavytail_model.max_packet_size
    mean_size = heavytail_model.size_axis.flows.mean()
    assert 1.0 / rep.operations_reduction == pytest.approx(rate * mean_size, rel=1e-4)


def test_analytic_for_spec_dispatch(toy_model):
    # the axis selects the sampling law: uniform per packet by length,
    # size-scaled by bytes over the integer size law
    rep = sampling(toy_model, "length", 0.5)
    assert rep.operations_reduction == pytest.approx(1 / (0.5 * 0.5 + 0.5 * (1 - 0.5 ** 10)),
                                                     rel=1e-12)
    lam = 0.5 / toy_model.max_packet_size
    flows = toy_model.size_axis.flows
    entries = chunked_brute_sum(flows, lambda s: -np.expm1(-lam * s), 63, 1000)
    rep = sampling(toy_model, "size", 0.5)
    assert rep.operations_reduction == pytest.approx(1 / entries, rel=1e-12)


# -- inversion -----------------------------------------------------------------------


def test_invert_toy_first(toy_model):
    param, rep = invert_for_coverage(toy_model, "first", "length", 100 * 10 / 11)
    assert param == pytest.approx(1.0, abs=1e-3)
    assert rep.operations_reduction == pytest.approx(2.0, abs=1e-6)


def test_invert_boundaries(toy_model):
    assert invert_for_coverage(toy_model, "first", "length", 100.0)[0] == 0.0
    p, _ = invert_for_coverage(toy_model, "sampling", "length", 100.0)
    assert p == 1.0
    with pytest.raises(UnreachableError):
        invert_for_coverage(toy_model, "first", "length", 100.5)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            invert_for_coverage(toy_model, "first", "length", bad)
    with pytest.raises(ValueError, match="unknown algorithm kind"):
        invert_for_coverage(toy_model, "firts", "length", 50.0)


def test_invert_achieves_target_on_smooth_model(heavytail_model):
    for kind in ("first", "threshold", "sampling"):
        for axis in ("length", "size"):
            param, rep = invert_for_coverage(heavytail_model, kind, axis, 75.0)
            assert rep.coverage_pct == pytest.approx(75.0, abs=0.01)
            assert param > 0


def test_inversion_probe_count(monkeypatch, toy_model, heavytail_model):
    # first reads the integer quantile and at most two coverages.  The
    # Illinois rule never takes more coverage probes for sampling than the
    # geometric bisection over the same bracket and stop did (37); threshold,
    # bracketed by first's quantile, takes at most 24 and 12 on average.  The
    # report on the chosen parameter is not a probe.
    import flowtab.analytic as analytic

    expect, report = Mixture.expect, analytic.analytic_for_spec
    probes, reporting = {}, [False]
    cell = [None]

    def counted(mix, *args):
        probes[cell[0]][-1] += not reporting[0]
        return expect(mix, *args)

    def uncounted(*args):
        reporting[0] = True
        try:
            return report(*args)
        finally:
            reporting[0] = False

    monkeypatch.setattr(Mixture, "expect", counted)
    monkeypatch.setattr(analytic, "analytic_for_spec", uncounted)
    for model in (toy_model, heavytail_model):
        for axis in ("length", "size"):
            for kind in ("first", "threshold", "sampling"):
                cell[0] = kind, model.name, axis
                counts = probes.setdefault(cell[0], [])
                for target in DEFAULT_COVERAGES:
                    counts.append(0)
                    try:
                        analytic.invert_for_coverage(model, kind, axis, target)
                    except UnreachableError:
                        counts.pop()
    sampling = [n for key, counts in probes.items() if key[0] == "sampling" for n in counts]
    assert len(sampling) == 321 and max(sampling) <= 37
    assert sum(sampling) / len(sampling) < 20
    for key, counts in probes.items():
        if key[0] == "first":
            assert max(counts) <= 2, key
        elif key[0] == "threshold":
            assert max(counts) <= 24 and sum(counts) / len(counts) <= 12, key


def test_invert_first_reads_the_integer_quantile(toy_model, heavytail_model):
    # first covers 100 * sf(floor T) %: its inversion returns the smallest
    # integer k with 100 * sf(k) <= target, found here by integer bisection,
    # or k - 1
    for model in (toy_model, heavytail_model):
        for axis in ("length", "size"):
            octets = model.axis(axis).octets
            for target in DEFAULT_COVERAGES:
                lo, hi = math.ceil(octets.domain_min) - 1, 2 ** 40  # sf(lo) == 1
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if 100.0 * octets.sf(float(mid)) <= target:
                        hi = mid
                    else:
                        lo = mid
                param, _ = invert_for_coverage(model, "first", axis, target)
                assert param in (hi - 1, hi), (model.name, axis, target, param, hi)


EDGE_TARGETS = (1e-300, 1e-20, 1e-9, 1e-3, 99.99, 99.9999999, math.nextafter(100.0, 0.0), 100.0)


@pytest.mark.parametrize("kind", ["first", "threshold"])
def test_invert_edge_targets(toy_model, heavytail_model, kind):
    # targets below 100 * 2^-54 % clamp first's quantile to the generator's
    # largest draw; targets a rounding below 100% need threshold's halving
    # to stop; coverage past every flow must not steer the search
    for model in (toy_model, heavytail_model):
        for axis in ("length", "size"):
            for target in EDGE_TARGETS:
                param, rep = invert_for_coverage(model, kind, axis, target)
                assert rep.coverage_pct > 0.0 and 0.0 <= param <= 2 ** 40, (model.name, axis, target)
                if model is heavytail_model and kind == "threshold" and target >= 1e-20:
                    assert abs(rep.coverage_pct - target) <= 1e-6 * target, (axis, target, rep)


def test_invert_unreachable_sampling_size(heavytail_model):
    top = sampling(heavytail_model, "size", 1.0).coverage_pct
    with pytest.raises(UnreachableError):
        invert_for_coverage(heavytail_model, "sampling", "size", (top + 100) / 2)


def test_coverage_monotone_in_parameters(heavytail_model):
    covs = [threshold(heavytail_model, "length", t).coverage_pct
            for t in (1, 4, 16, 64, 256)]
    assert all(a > b for a, b in zip(covs, covs[1:]))
    covs = [sampling(heavytail_model, "length", p).coverage_pct
            for p in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    assert all(a < b for a, b in zip(covs, covs[1:]))


def test_reports_unflagged_on_shipped_model(heavytail_model):
    reports = [
        first(heavytail_model, "length", 1024),
        threshold(heavytail_model, "length", 1024),
        threshold(heavytail_model, "size", 2 ** 20),
        sampling(heavytail_model, "length", 1e-3),
        sampling(heavytail_model, "size", 1e-3),
    ]
    for rep in reports:
        assert not rep.flagged
