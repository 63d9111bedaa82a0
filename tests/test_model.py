from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from flowtab import model as model_module
from flowtab.generator import MIN_UNIFORM, SHARD_SIZE, _rng
from flowtab.model import (
    DominanceError,
    Mixture,
    MixtureComponent,
    QUANTILE_BLOCK,
    TABLE_SPAN,
    SchemaError,
    WeightError,
    load_model,
    parse_model,
)
from oracle import reference_guide, reference_quantile

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


def lognormal_mixture(mu=0.0, sigma=1.0, domain_min=1, discrete=True):
    return Mixture(
        components=(MixtureComponent("lognormal", 1.0, {"mu": mu, "sigma": sigma}),),
        domain_min=domain_min,
        discrete=discrete,
    )


def point_mass_at(k: int) -> Mixture:
    comp = MixtureComponent("uniform", 1.0, {"low": k - 0.5, "high": float(k)})
    return Mixture(components=(comp,), domain_min=1, discrete=True)


# -- parsing ---------------------------------------------------------------


def test_parse_toy_has_expected_moments(toy_model):
    assert toy_model.name == "toy_twopoint"
    assert toy_model.length_axis.flows.mean() == pytest.approx(5.5, abs=1e-9)
    assert toy_model.avg_flow_length == 5.5
    assert toy_model.avg_packet_size == 100.0


def test_parse_single_component_point_mass():
    doc = {
        "name": "point",
        "axes": {
            "length": {
                w: {"components": [{"kind": "uniform", "weight": 1.0,
                                    "params": {"low": 0.5, "high": 1.0}}], "domain_min": 1}
                for w in ("flows", "packets", "octets")
            },
            "size": {
                w: {"components": [{"kind": "uniform", "weight": 1.0,
                                    "params": {"low": 64.0, "high": 64.5}}], "domain_min": 64}
                for w in ("flows", "packets", "octets")
            },
        },
    }
    model = parse_model(json.dumps(doc))
    assert model.length_axis.flows.pmass(1) == pytest.approx(1.0)
    assert model.length_axis.flows.quantile(0.9) == 1.0


def test_parse_rejects_bad_weight_sum(toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["axes"]["length"]["flows"]["components"][0]["weight"] = 0.6
    with pytest.raises(WeightError):
        parse_model(json.dumps(doc))


def test_parse_rejects_extra_and_missing_fields(toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="unexpected"):
        parse_model(json.dumps(doc))
    doc = json.loads(json.dumps(toy_document))
    del doc["axes"]["size"]["octets"]
    with pytest.raises(SchemaError, match="missing"):
        parse_model(json.dumps(doc))


def test_parse_rejects_dominance_violation(toy_document):
    # octet mass concentrated below the flow mass inverts the CDF ordering
    doc = json.loads(json.dumps(toy_document))
    doc["axes"]["length"]["octets"]["components"][0]["weight"] = 0.9090909090909091
    doc["axes"]["length"]["octets"]["components"][1]["weight"] = 0.09090909090909091
    with pytest.raises(DominanceError):
        parse_model(json.dumps(doc))


def test_parse_rejects_inconsistent_declared_averages(toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["avg_packet_size"] = 120.0  # declared 550 / 5.5 = 100
    with pytest.raises(SchemaError, match="avg_packet_size"):
        parse_model(json.dumps(doc))


def test_parse_rejects_max_packet_below_average(toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["max_packet_size"] = 80
    with pytest.raises(SchemaError, match="max_packet_size"):
        parse_model(json.dumps(doc))


def test_parse_bounds_max_packet_by_int32(toy_document):
    # packet layouts hold packet sizes as int32
    doc = json.loads(json.dumps(toy_document))
    doc["max_packet_size"] = 2 ** 31 - 1
    assert parse_model(json.dumps(doc)).max_packet_size == 2 ** 31 - 1
    for bad in (2 ** 31, 0):
        doc["max_packet_size"] = bad
        with pytest.raises(SchemaError, match=r"max_packet_size: expected 1\.\.2147483647"):
            parse_model(json.dumps(doc))


def test_component_param_validation():
    with pytest.raises(SchemaError):
        MixtureComponent("lognormal", 1.0, {"mu": 0.0, "sigma": -1.0})
    with pytest.raises(SchemaError):
        MixtureComponent("uniform", 1.0, {"low": 5.0, "high": 5.0})
    with pytest.raises(SchemaError):
        MixtureComponent("generalized-pareto", 1.0, {"shape": 0.5, "location": 0.0, "scale": 0.0})
    with pytest.raises(WeightError):
        MixtureComponent("uniform", 1.3, {"low": 0.0, "high": 1.0})
    with pytest.raises(SchemaError, match="unknown"):
        MixtureComponent("weibull", 1.0, {})


@pytest.mark.parametrize("kind", [[], {}, None, 3])
def test_component_rejects_a_kind_that_is_no_string(kind):
    # an unhashable kind is a SchemaError too, not a TypeError from the lookup
    with pytest.raises(SchemaError, match="unknown component kind"):
        MixtureComponent(kind, 1.0, {"low": 0.0, "high": 1.0})


def test_discrete_mixture_rejects_mass_below_floor():
    comp = MixtureComponent("generalized-pareto", 1.0,
                            {"shape": 0.5, "location": -5.0, "scale": 2.0})
    with pytest.raises(SchemaError, match="below the"):
        Mixture(components=(comp,), domain_min=1, discrete=True)


# -- cdf / pmass ------------------------------------------------------------


def test_cdf_toy_values(toy_model):
    flows = toy_model.length_axis.flows
    assert flows.cdf(1) == pytest.approx(0.5, abs=1e-12)
    assert flows.cdf(0.9) == 0.0
    assert flows.cdf(1e9) == pytest.approx(1.0, abs=1e-9)


def test_cdf_below_domain_is_zero(heavytail_model):
    for mix in (heavytail_model.length_axis.flows, heavytail_model.size_axis.flows):
        assert mix.cdf(mix.domain_min - 1.0) == 0.0
        assert mix.cdf(mix.domain_min - 0.25) == 0.0


def test_pmass_toy(toy_model):
    flows = toy_model.length_axis.flows
    assert flows.pmass(10) == pytest.approx(0.5, abs=1e-12)
    assert point_mass_at(1).pmass(1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        flows.pmass(0)


def test_pmass_sums_to_one_lognormal():
    mix = lognormal_mixture()
    ks = np.arange(1, 10 ** 6 + 1, dtype=float)
    assert mix.pmass(ks).sum() == pytest.approx(1.0, abs=1e-6)


def test_continuous_truncation_renormalizes():
    mix = Mixture(
        components=(MixtureComponent("lognormal", 1.0, {"mu": 4.0, "sigma": 1.5}),),
        domain_min=64,
        discrete=False,
    )
    assert mix.cdf(63.999) == 0.0
    assert mix.sf(64.0) == pytest.approx(1.0, rel=1e-12)
    assert mix.quantile(0.0) == 64.0
    # match a scipy-truncated reference at a few points
    ref = stats.lognorm(1.5, scale=math.exp(4.0))
    keep = ref.sf(64.0)
    for x in (80.0, 200.0, 5000.0):
        assert mix.cdf(x) == pytest.approx((ref.cdf(x) - ref.cdf(64.0)) / keep, rel=1e-10)


# -- quantile ----------------------------------------------------------------


def test_quantile_toy(toy_model):
    flows = toy_model.length_axis.flows
    assert flows.quantile(0.25) == 1.0
    assert flows.quantile(0.75) == 10.0
    assert flows.quantile(0.0) == 1.0
    with pytest.raises(ValueError):
        flows.quantile(1.0)


def test_nan_is_rejected(heavytail_model):
    # NaN fails every range check: it is an error, not the domain floor
    flows = heavytail_model.size_axis.flows
    for u in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match="quantile requires"):
            flows.quantile(u)
    for k in (math.nan, [300.0, math.nan]):
        with pytest.raises(ValueError, match="pmass requires"):
            flows.pmass(k)


def assert_integer_quantile(mix, u):
    # q is the smallest integer >= domain_min with cdf(q) >= u, checked exactly
    q = mix.quantile(u)
    assert np.all(q == np.floor(q))
    assert np.all(mix.cdf(q) >= u)
    assert np.all((mix.cdf(q - 1.0) < u) | (q == mix.domain_min))


def test_quantile_cdf_round_trip(heavytail_model):
    rng = np.random.default_rng(5)
    for axis, weighting in itertools.product(("length", "size"), ("flows", "packets", "octets")):
        mix = getattr(heavytail_model.axis(axis), weighting)
        u = rng.random(512)
        assert np.all(np.diff(mix.quantile(np.sort(u))) >= 0.0)
        assert_integer_quantile(mix, u)
        # u past the end of the survival table is bisected
        edge = mix.cdf(mix.domain_min + TABLE_SPAN)
        beyond = np.concatenate([edge + (1.0 - edge) * rng.random(2048),
                                 1.0 - 2.0 ** -np.arange(20.0, 54.0)])
        beyond = beyond[(beyond > edge) & (beyond < 1.0)]
        assert len(beyond) > 2000
        assert_integer_quantile(mix, beyond)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999999))
def test_quantile_postconditions_lognormal(u):
    mix = lognormal_mixture(mu=1.0, sigma=2.0)
    q = mix.quantile(u)
    assert q >= mix.domain_min
    assert mix.cdf(q) >= u


def test_quantile_of_cdf_round_trip(heavytail_model):
    # quantile(cdf(k)) == k on every integer k whose cdf step shows in float
    # (cdf(k - 1) < cdf(k)), inside the survival table and past it
    for mix, top in ((heavytail_model.size_axis.flows, 1e8),
                     (heavytail_model.length_axis.flows, 1e7)):
        ks = np.unique(np.concatenate([np.arange(1.0, 101.0),
                                       np.round(np.geomspace(101.0, top, 60))]))
        ks = ks[(mix.cdf(ks - 1.0) < mix.cdf(ks)) | (ks == mix.domain_min)]
        assert np.count_nonzero(ks > mix.domain_min + TABLE_SPAN) >= 5
        assert np.array_equal(mix.quantile(mix.cdf(ks)), ks)


# a shape-5 generalized Pareto, whose quantiles pass 2^53
SHAPE5 = Mixture(components=(MixtureComponent(
    "generalized-pareto", 1.0, {"shape": 5.0, "location": 64.0, "scale": 64.0}),),
    domain_min=64.0, discrete=False)


def quantile_mixtures():
    """Every shipped mixture, and SHAPE5."""
    for name in ("toy_twopoint", "example_heavytail"):
        model = load_model(str(MODELS / f"{name}.json"))
        for axis, weighting in itertools.product(("length", "size"), ("flows", "packets", "octets")):
            yield pytest.param(getattr(model.axis(axis), weighting), id=f"{name}-{axis}-{weighting}")
    yield pytest.param(SHAPE5, id="shape5")


@pytest.mark.parametrize("mix", quantile_mixtures())
def test_quantile_is_the_bisection_answer(mix):
    # the guided search and the interpolation rounds return plain
    # bisection's answers bit for bit, on 10^5 u past the survival table,
    # on the largest u and on the table's top and its float neighbours;
    # bisection's answer is also checked to be valid: it passes the test
    # cdf(q) >= u, and the integer float before it fails it
    cdf, guide = 1.0 - mix._sf_table, mix._guide
    assert np.all(np.diff(cdf) >= 0.0)  # the guide relies on it
    assert guide.dtype == np.int32
    top = cdf[-1]
    u = top + (1.0 - top) * np.random.default_rng(17).random(100_000)
    u = np.concatenate([u, [1.0 - 2.0 ** -53, top, np.nextafter(top, 0.0), np.nextafter(top, 1.0)]])
    u = u[u < 1.0]
    assert top == 1.0 or np.count_nonzero(u > top) > 99_000
    q = mix.quantile(u)
    assert np.array_equal(q, reference_quantile(mix, u))
    assert np.all(mix.cdf(q) >= u)
    assert np.all(mix.cdf(np.minimum(q - 1.0, np.nextafter(q, 0.0))) < u)


@pytest.mark.parametrize("mix", quantile_mixtures())
def test_quantile_into_its_own_u(mix):
    # out may be u itself, over several blocks, wide buckets, the table's end
    # and u = 0: each u is read before its answer is written over it
    u = np.random.default_rng(23).random(3 * QUANTILE_BLOCK + 5)
    u[:3] = 0.0, 1.0 - 2.0 ** -53, min(1.0 - mix._sf_table[-1], 1.0 - 2.0 ** -53)
    expected = reference_quantile(mix, u)
    assert mix.quantile(u, out=u) is u
    assert np.array_equal(u, expected)


@pytest.mark.parametrize("mix", quantile_mixtures())
def test_guide_blocks_match_one_search(mix):
    # the guide is searched in blocks of keys; each key's index does not
    # depend on the others, so it equals the one-shot search bit for bit
    guide = mix._guide
    assert guide.dtype == np.int32
    assert np.array_equal(guide, reference_guide(mix))


def test_guide_build_peak_stays_near_its_result(heavytail_model):
    # the 256 KiB guide and the 512 KiB 1 - sf it searches, plus one block
    # of keys and indices: no full-length float64 keys or int64 indices
    for mix in (heavytail_model.length_axis.octets, heavytail_model.size_axis.flows):
        mix._sf_table  # built first: the table is not the guide's to pay for
        vars(mix).pop("_guide", None)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mix._guide
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, peak


@pytest.mark.parametrize("axis", ["length", "size"])
def test_guided_index_is_searchsorted(heavytail_model, axis):
    # inside the survival table the guided search finds the index a binary
    # search over the whole table finds, on every shard of a million flows
    # of seeds 1 to 3
    mix = heavytail_model.axis(axis).flows
    cdf = 1.0 - mix._sf_table
    for seed, shard in itertools.product((1, 2, 3), range(16)):
        u = np.maximum(_rng(seed, shard).random(SHARD_SIZE), MIN_UNIFORM)
        k = np.searchsorted(cdf, u, "left")
        inside = k < len(cdf)
        assert np.count_nonzero(inside) > 60_000
        assert np.array_equal(mix.quantile(u)[inside], mix._ends[0] + k[inside])


@pytest.mark.parametrize("axis", ["length", "size"])
def test_quantile_past_the_table_takes_few_rounds(monkeypatch, heavytail_model, axis):
    # each round evaluates sf once on the u still open past the table, in
    # blocks that are views of the round's probes
    mix = heavytail_model.axis(axis).flows
    mix.quantile(np.array([0.5, 1.0 - 2.0 ** -53]))  # builds the tables
    raw_sf, rounds, probes = mix._raw_sf, [], [None]

    def counted(x):
        if x.base is None or x.base is not probes[-1]:
            probes.append(x.base)
            rounds[-1] += 1
        return raw_sf(x)

    monkeypatch.setitem(vars(mix), "_raw_sf", counted)
    for shard in range(16):
        rounds.append(0)
        mix.quantile(np.maximum(_rng(1, shard).random(SHARD_SIZE), MIN_UNIFORM))
    assert 0 < max(rounds) <= 8, rounds


def test_quantile_where_sf_is_flat_to_rounding_does_not_crawl(monkeypatch):
    # past 2^53 the shape-5 sf changes by less than its rounding from one
    # float to the next, where interpolation crawls a float at a time (196
    # rounds at u = 1 - 2^-53); the u still open after a few rounds are
    # bisected, which takes up to 48 rounds here
    u = 1.0 - 2.0 ** -np.arange(20.0, 54.0)
    want = SHAPE5.quantile(u)  # builds the tables
    raw_sf, rounds = SHAPE5._raw_sf, []

    def counted(x):
        rounds[-1] += 1
        return raw_sf(x)

    monkeypatch.setitem(vars(SHAPE5), "_raw_sf", counted)
    for v, q in zip(u, want):
        rounds.append(0)
        assert SHAPE5.quantile(v) == q
    assert max(rounds) <= 56, rounds


@pytest.mark.parametrize("name", ["toy_twopoint.json", "example_heavytail.json"])
def test_load_model_builds_no_table(name):
    # every table is built on first use, so loading a model, which
    # validates it on a 257-point grid, pays for none of them
    model = load_model(str(MODELS / name))
    for ax in (model.length_axis, model.size_axis):
        for mix in (ax.flows, ax.packets, ax.octets):
            assert not {"_sf_table", "_guide", "_tail_grid", "_tail_table"} & set(vars(mix))
            mix.mean()
            assert {"_sf_table", "_tail_table"} <= set(vars(mix))


def test_load_model_leaves_numpy_ma_unloaded():
    # numpy imports numpy.ma on the first np.unique, which would cost a load
    # about 26 ms and every run about 1.5 MiB; loading either model calls none
    probe = (
        "import sys\n"
        "from flowtab.model import load_model\n"
        "for path in sys.argv[1:]:\n"
        "    load_model(path)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    models = [str(MODELS / name) for name in ("toy_twopoint.json", "example_heavytail.json")]
    out = subprocess.run([sys.executable, "-c", probe, *models], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_survival_table_blocks_match_one_pass(toy_model, heavytail_model):
    # the survival table is built in blocks of integers; sf is elementwise,
    # so it equals sf over all of them at once, bit for bit
    mixes = [getattr(ax, w) for model in (toy_model, heavytail_model)
             for ax in (model.length_axis, model.size_axis) for w in ("flows", "packets", "octets")]
    mixes.append(Mixture(components=(MixtureComponent(
        "generalized-pareto", 1.0, {"shape": 0.3, "location": 64.0, "scale": 900.0}),),
        domain_min=64.5, discrete=False))
    for mix in mixes:
        lo, end = mix._ends
        assert np.array_equal(mix._sf_table, mix.sf(np.arange(lo, end + 1, dtype=float)))


def test_repeated_quantile_allocates_no_table(heavytail_model):
    # quantile searches the survival table through its guide, both kept, so
    # a call allocates only arrays as long as its u
    for mix in (heavytail_model.length_axis.flows, heavytail_model.size_axis.flows):
        u = np.linspace(0.01, 0.99, 64)
        first = mix.quantile(u)
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert np.array_equal(mix.quantile(u), first)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 16 * 1024, peak
        finally:
            tracemalloc.stop()


# -- the standard normal CDF -------------------------------------------------------

# the branch points of cephes ndtr on its argument a: |a| sqrt(1/2) at
# sqrt(1/2), 1 and 8, and a^2 / 2 at MAXLOG
NDTR_EDGES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)]


def ndtr_grid() -> np.ndarray:
    edges = [e for b in NDTR_EDGES for e in (b, np.nextafter(b, 0.0), np.nextafter(b, np.inf))]
    edges = np.array(edges)
    return np.concatenate([np.linspace(-40.0, 40.0, 160_001), edges, -edges,
                           [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]])


def libm_exp(x, out=None):
    """np.exp's signature on libm's exp, elementwise."""
    values = np.array([math.exp(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))
    if out is None:
        return values
    out[...] = values
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ndtr_is_within_4_ulp_of_scipy():
    a = ndtr_grid()
    got, want = model_module._ndtr(a), special.ndtr(a)
    ulp = np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))
    assert np.all(np.abs(got - want) <= 4 * ulp)
    for n in (1, 9):
        assert np.isnan(model_module._ndtr(np.full(n, np.nan))).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ndtr_on_libm_exp_is_scipy_bit_for_bit(monkeypatch):
    # only exp differs from the routine scipy runs, so with libm's exp back
    # in place every coefficient and the operation order show bit for bit
    a = ndtr_grid()
    monkeypatch.setattr(np, "exp", libm_exp)
    assert np.array_equal(model_module._ndtr(a), special.ndtr(a))
    few = a[::20_001][:8]
    assert np.array_equal(model_module._ndtr(few), special.ndtr(few))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ndtr_float_path_matches_array_path():
    a = ndtr_grid()
    whole = model_module._ndtr(a)
    assert model_module._NDTR_FLOAT_POINTS == 8
    for n in (1, 2, 8):
        parts = np.concatenate([model_module._ndtr(a[i:i + n]) for i in range(0, len(a), n)])
        assert np.array_equal(parts, whole), n
    assert np.array_equal(model_module._ndtr(a[:8].reshape(2, 4)), whole[:8].reshape(2, 4))


def component_sum_sf(mix: Mixture, x: np.ndarray) -> np.ndarray:
    """The mixture's renormalized sf, summed one component at a time."""
    out = np.zeros_like(x, dtype=float)
    for c, keep in zip(mix.components, mix._keep):
        out += c.weight * (c.sf(x) / keep)
    return np.clip(out, 0.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_sf_matches_component_sum(toy_model, heavytail_model):
    mixed = Mixture(components=(
        MixtureComponent("lognormal", 0.3, {"mu": 2.0, "sigma": 1.1}),
        MixtureComponent("uniform", 0.2, {"low": 63.0, "high": 900.0}),
        MixtureComponent("lognormal", 0.3, {"mu": 9.0, "sigma": 1.6}),
        MixtureComponent("generalized-pareto", 0.2, {"shape": 0.4, "location": 64.0, "scale": 500.0}),
    ), domain_min=64, discrete=False)
    mixes = [getattr(ax, w) for model in (toy_model, heavytail_model)
             for ax in (model.length_axis, model.size_axis) for w in ("flows", "packets", "octets")]
    rng = np.random.default_rng(15)
    x = np.concatenate([np.arange(64.0, 5000.0), np.geomspace(5000.0, 2.0 ** 40, 3000),
                        np.exp(rng.uniform(4.2, 27.0, 2000))])
    for mix in mixes + [mixed]:
        assert np.array_equal(mix._raw_sf(x), component_sum_sf(mix, x))
        nodes = x[:192].reshape(3, 64)
        assert np.array_equal(mix._raw_sf(nodes), component_sum_sf(mix, nodes))
        # stacked, one and two points take the float path and three the
        # array path; each component alone takes the float path
        for n in (1, 2, 3):
            for i in range(0, 90, n):
                assert np.array_equal(mix._raw_sf(x[i:i + n]), component_sum_sf(mix, x[i:i + n]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scalar_sf_reads_the_survival_table(heavytail_model):
    mix = heavytail_model.size_axis.octets
    fresh = Mixture(components=mix.components, domain_min=mix.domain_min, discrete=mix.discrete)
    lo, end = mix._ends
    table = mix._sf_table
    ks = [lo, lo + 1, 100, 4097, end - 1, end]
    for k in ks + [float(k) for k in ks] + [np.float64(k) for k in ks]:
        assert mix.sf(k) == float(table[int(k) - lo]) == fresh.sf(k), k
    assert "_sf_table" not in vars(fresh)
    # off the table's integers sf is evaluated afresh
    for x in (end + 1, 100.5, lo - 1, -3.0, 2.0 ** 40, math.inf, math.nan):
        assert np.array_equal(mix.sf(x), fresh.sf(x), equal_nan=True), x


# -- mean ----------------------------------------------------------------------


def test_mean_examples(toy_model):
    assert toy_model.length_axis.flows.mean() == pytest.approx(5.5, abs=1e-9)
    assert point_mass_at(1).mean() == pytest.approx(1.0, abs=1e-9)
    undefined = Mixture(
        components=(MixtureComponent("generalized-pareto", 1.0,
                                     {"shape": 1.2, "location": 1.0, "scale": 2.0}),),
        domain_min=1,
        discrete=True,
    )
    assert undefined.mean() is None


def test_discrete_mean_matches_brute_force():
    comp = MixtureComponent("uniform", 1.0, {"low": 0.5, "high": 20.49})
    mix = Mixture(components=(comp,), domain_min=1, discrete=True)
    ks = np.arange(1, 22, dtype=float)
    brute = float(np.dot(ks, mix.pmass(ks)))
    assert mix.mean() == pytest.approx(brute, rel=1e-12)


def test_discrete_mean_lognormal_against_sampled():
    mix = lognormal_mixture(mu=1.0, sigma=1.0)
    ks = np.arange(1, 2_000_001, dtype=float)
    brute = float(np.dot(ks, mix.pmass(ks)))
    assert mix.mean() == pytest.approx(brute, rel=1e-7)


def test_continuous_mean_matches_scipy_truncated_expectation():
    # the mean of a size mixture is that of the whole bytes the generator
    # draws: each integer k > 64 carries the truncated law's mass of
    # (k - 1, k].  The reference sums that from scipy's laws up to N, then
    # adds scipy's expectation past N and half of sf(N): a byte count past N
    # exceeds its continuous value by less than 1, so that errs by < sf(N)/2
    mix = Mixture(
        components=(
            MixtureComponent("lognormal", 0.6, {"mu": 5.0, "sigma": 1.0}),
            MixtureComponent("generalized-pareto", 0.4,
                             {"shape": 0.4, "location": 64.0, "scale": 900.0}),
        ),
        domain_min=64,
        discrete=False,
    )
    ln = stats.lognorm(1.0, scale=math.exp(5.0))
    gp = stats.genpareto(0.4, 64.0, 900.0)
    ks = np.arange(65.0, 2.0 ** 20 + 1)
    n = ks[-1]
    expected = 0.0
    for w, dist in ((0.6, ln), (0.4, gp)):
        head = np.sum(ks * (dist.sf(ks - 1.0) - dist.sf(ks)))
        tail = dist.mean() - dist.expect(lambda x: x, ub=n) + 0.5 * dist.sf(n)
        expected += w * (head + tail) / dist.sf(64.0)
    assert mix.mean() == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("domain_min,want", [(64, 457.690968), (64.5, 457.693821)])
def test_size_mean_is_the_integer_laws_mean(domain_min, want):
    # the mean sums the same law the generator draws, not the continuous
    # byte law (whose mean is 457.19 at domain_min 64)
    mix = Mixture(
        components=(MixtureComponent("lognormal", 1.0, {"mu": 6.0, "sigma": 0.5}),),
        domain_min=domain_min,
        discrete=False,
    )
    ks = np.arange(math.ceil(domain_min), 2 ** 20 + 1, dtype=float)
    brute = float(np.sum(ks * mix.pmass(ks)))
    assert mix.mean() == pytest.approx(brute, rel=1e-12)
    assert mix.mean() == pytest.approx(want, abs=5e-7)


def test_partial_expectation_closed_forms_match_quadrature():
    cases = [
        MixtureComponent("uniform", 1.0, {"low": 2.0, "high": 9.0}),
        MixtureComponent("lognormal", 1.0, {"mu": 1.5, "sigma": 0.8}),
        MixtureComponent("generalized-pareto", 1.0,
                         {"shape": 0.3, "location": 5.0, "scale": 7.0}),
    ]
    dists = [stats.uniform(2.0, 7.0), stats.lognorm(0.8, scale=math.exp(1.5)),
             stats.genpareto(0.3, 5.0, 7.0)]
    for comp, dist in zip(cases, dists):
        for a in (0.0, 4.0, 25.0):
            want = dist.expect(lambda x: x, lb=a)
            assert comp.partial_expectation(a) == pytest.approx(want, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("comp,dist,domain_min", [
    (MixtureComponent("uniform", 1.0, {"low": 2.0, "high": 9.0}), stats.uniform(2.0, 7.0), 2.0),
    (MixtureComponent("lognormal", 1.0, {"mu": 1.5, "sigma": 0.8}),
     stats.lognorm(0.8, scale=math.exp(1.5)), 1e-9),
    (MixtureComponent("generalized-pareto", 1.0, {"shape": 0.3, "location": 5.0, "scale": 7.0}),
     stats.genpareto(0.3, 5.0, 7.0), 5.0),
])
def test_component_sf_is_the_one_distribution_function(comp, dist, domain_min):
    # each component has only a survival function; the CDF is 1 - sf
    mix = Mixture(components=(comp,), domain_min=domain_min, discrete=False)
    xs = np.array([2.5, 5.5, 8.9, 30.0, 400.0])
    assert np.allclose(mix.sf(xs), dist.sf(xs), rtol=1e-12, atol=1e-300)
    assert np.allclose(mix.cdf(xs), dist.cdf(xs), rtol=0.0, atol=1e-15)
    # the edges exactly, and NaN as it always read, all without a
    # floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = np.array([-1.0, 0.0, np.inf])
        assert np.array_equal(mix.sf(edges), dist.sf(edges))
        assert np.array_equal(mix.components[0].sf(edges), dist.sf(edges))
        sf_nan = {"uniform": math.nan, "lognormal": 1.0, "generalized-pareto": 0.0}[comp.kind]
        np.testing.assert_array_equal(mix.components[0].sf(np.array([np.nan])), [sf_nan])


def test_gpd_shape_zero_is_the_exponential_law():
    comp = MixtureComponent("generalized-pareto", 1.0, {"shape": 0.0, "location": 5.0, "scale": 7.0})
    dist = stats.genpareto(c=0.0, loc=5.0, scale=7.0)
    xs = np.array([0.0, 5.0, 5.5, 12.0, 40.0, 400.0])
    assert np.allclose(comp.sf(xs), dist.sf(xs), rtol=1e-14, atol=0.0)
    for a in (0.0, 5.0, 9.0, 60.0):
        want = dist.expect(lambda x: x, lb=a)
        assert comp.partial_expectation(a) == pytest.approx(want, rel=1e-9)


def test_gpd_partial_expectation_past_a_negative_shape_endpoint():
    # shape -0.5 bounds the support at location - scale / shape = 19
    comp = MixtureComponent("generalized-pareto", 1.0,
                            {"shape": -0.5, "location": 5.0, "scale": 7.0})
    dist = stats.genpareto(c=-0.5, loc=5.0, scale=7.0)
    for a in (5.0, 10.0, 18.5):
        want = dist.expect(lambda x: x, lb=a, ub=19.0)
        assert comp.partial_expectation(a) == pytest.approx(want, rel=1e-9)
    for a in (19.0, 25.0, 1e9):
        assert comp.partial_expectation(a) == 0.0
