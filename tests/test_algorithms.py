from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from flowtab.algorithms import (
    AlgorithmSpec,
    DegenerateError,
    MetricsReport,
    PacketLayout,
    PathProfile,
    aggregate_batch,
    evaluate_batch,
    p_eff_avg,
    p_eff_paths,
    p_total,
)
from flowtab.model import DEFAULT_MAX_PACKET
from oracle import (
    FlowOutcome,
    FlowRecord,
    PacketizeError,
    aggregate,
    eval_first,
    eval_sampling,
    eval_threshold,
    expand,
    expected_sampling,
    expected_sampling_per_packet,
    packetize,
)


def batch(lengths, sizes, spec, rng=None):
    """Per-flow (created, covered, occ) of evaluate_batch with the
    population's layout at the default 1518-byte max_packet_size of the
    oracle and the shipped models."""
    layout = PacketLayout(lengths, sizes, DEFAULT_MAX_PACKET)
    flows, trigger, _ = evaluate_batch(layout, spec, rng=rng)
    return expand(layout, flows, trigger)


def outcomes(lengths, sizes, spec, rng=None, duration_model="equal"):
    layout = PacketLayout(lengths, sizes, DEFAULT_MAX_PACKET)
    entries = evaluate_batch(layout, spec, rng=rng)
    return aggregate_batch(layout, *entries, duration_model)


# -- eval_first ---------------------------------------------------------------


def test_first_covers_whole_flow():
    spec = AlgorithmSpec("first", "length", threshold=1)
    out = eval_first(FlowRecord(10, 1000), spec)
    assert out == FlowOutcome(True, 1000, 1.0, 1000, 10)


def test_first_threshold_is_strict():
    spec = AlgorithmSpec("first", "length", threshold=1)
    assert not eval_first(FlowRecord(1, 100), spec).entry_created


def test_first_zero_threshold_covers_everything(toy_population):
    lengths, sizes = toy_population
    rep = outcomes(lengths, sizes, AlgorithmSpec("first", "length", threshold=0))
    assert rep.coverage_pct == 100.0
    assert rep.operations_reduction == 1.0


# -- eval_threshold -------------------------------------------------------------


def test_threshold_length_trace():
    spec = AlgorithmSpec("threshold", "length", threshold=1)
    out = eval_threshold(FlowRecord(10, 1000), spec)
    assert out.entry_created and out.covered_bytes == 900
    assert out.occupancy_fraction == pytest.approx(0.9)


def test_threshold_never_triggers_on_short_flow():
    spec = AlgorithmSpec("threshold", "length", threshold=1)
    out = eval_threshold(FlowRecord(1, 100), spec)
    assert not out.entry_created and out.covered_bytes == 0


def test_threshold_size_hand_trace():
    spec = AlgorithmSpec("threshold", "size", threshold=50)
    out = eval_threshold(FlowRecord(4, 100), spec)
    assert out.entry_created
    assert out.covered_bytes == 50
    assert out.occupancy_fraction == pytest.approx(0.5)


# -- eval_sampling ---------------------------------------------------------------


def test_sampling_p_one_covers_first_packet():
    spec = AlgorithmSpec("sampling", "length", probability=1.0)
    rng = np.random.default_rng(0)
    out = eval_sampling(FlowRecord(7, 700), spec, rng)
    assert out.entry_created and out.covered_bytes == 700
    assert out.occupancy_fraction == 1.0


def test_sampling_creation_frequency_matches_p_total():
    spec = AlgorithmSpec("sampling", "length", probability=0.05)
    rng = np.random.default_rng(1)
    n = 20_000
    hits = sum(
        eval_sampling(FlowRecord(10, 1000), spec, rng).entry_created for _ in range(n)
    )
    expect = p_total(0.05, 10)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert hits / n == pytest.approx(expect, abs=4 * sigma)


def test_size_scaled_full_packet_always_sampled():
    # a packet of exactly max_packet_size has scaled probability 1
    spec = AlgorithmSpec("sampling", "size", probability=1.0)
    flow = FlowRecord(2, 3036)  # packets [1518, 1518]
    out = eval_sampling(flow, spec, np.random.default_rng(2))
    assert out.entry_created and out.covered_bytes == 3036
    assert out.occupancy_fraction == 1.0
    created, covered, occ = batch(np.array([2]), np.array([3036]), spec,
                                  np.random.default_rng(2))
    assert created[0] and covered[0] == 3036 and occ[0] == 1.0
    # the odds scale by the layout's max_packet_size: a 9000-byte jumbo
    # packet is full, so it is sampled at p = 1
    jumbo = (np.full(1000, 2), np.full(1000, 18000))
    layout = PacketLayout(*jumbo, 9000)
    flows, trigger, _ = evaluate_batch(layout, spec, rng=np.random.default_rng(2))
    created, covered, _ = expand(layout, flows, trigger)
    assert created.all() and (covered == 18000).all()


def test_size_scaled_rejects_oversized_packet():
    spec = AlgorithmSpec("sampling", "size", probability=0.5)
    with pytest.raises(PacketizeError, match="1..512 bytes"):
        eval_sampling(FlowRecord(1, 900), spec, np.random.default_rng(0), max_packet_size=512)
    with pytest.raises(ValueError, match="1..512 bytes"):
        PacketLayout(np.array([1]), np.array([900]), max_packet_size=512)
    with pytest.raises(ValueError, match="1..1518 bytes"):
        batch(np.array([1]), np.array([1519]), spec, np.random.default_rng(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgorithmSpec("first", "length")  # missing threshold
    with pytest.raises(ValueError):
        AlgorithmSpec("sampling", "length", probability=0.0)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite threshold"):
            AlgorithmSpec("threshold", "size", threshold=t)


# -- probability helpers -----------------------------------------------------------


def test_p_total_values():
    assert p_total(0.5, 2) == pytest.approx(0.75, abs=1e-15)
    assert p_total(1.0, 5) == 1.0
    assert p_total(0.0, 10) == 0.0
    assert p_total(0.3, 0) == 0.0
    for n in (-1, math.nan):
        with pytest.raises(ValueError, match="n must be >= 0"):
            p_total(0.5, n)


def test_p_total_against_high_precision():
    mpmath.mp.dps = 60
    for p in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.999):
        for n in (1, 10, 1000, 10 ** 6, 10 ** 9):
            want = float(1 - (1 - mpmath.mpf(p)) ** n)
            assert p_total(p, n) == pytest.approx(want, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=0, max_value=10 ** 9),
)
def test_p_total_stays_in_unit_interval(p, n):
    v = p_total(p, n)
    assert 0.0 <= v <= 1.0
    if n >= 1:
        assert v >= p_total(p, n - 1) - 1e-15


def test_p_eff_paths():
    single = PathProfile(paths=((1.0, (0.3,)),))
    assert p_eff_paths(single) == pytest.approx(0.3, abs=1e-15)
    three = PathProfile(paths=((1.0, (0.1, 0.1, 0.1)),))
    assert p_eff_paths(three) == pytest.approx(1 - 0.9 ** 3, abs=1e-15)
    two = PathProfile(paths=((0.5, (0.1,)), (0.5, (0.2,))))
    assert p_eff_paths(two) == pytest.approx(0.15, abs=1e-15)
    with pytest.raises(ValueError):
        PathProfile(paths=((0.7, (0.1,)),))


def test_p_eff_avg():
    assert p_eff_avg(0.1, 3) == pytest.approx(1 - 0.9 ** 3, abs=1e-15)
    assert p_eff_avg(0.37, 1) == pytest.approx(0.37, abs=1e-15)
    assert p_eff_avg(0.0, 5) == 0.0
    for l_avg in (0.5, math.nan):
        with pytest.raises(ValueError, match="l_avg must be >= 1"):
            p_eff_avg(0.5, l_avg)


# -- aggregate -------------------------------------------------------------------


def test_aggregate_toy_first(toy_population):
    lengths, sizes = toy_population
    rep = outcomes(lengths, sizes, AlgorithmSpec("first", "length", threshold=1))
    assert rep.coverage_pct == pytest.approx(100 * 1000 / 1100, abs=1e-12)
    assert rep.operations_reduction == 2.0
    assert rep.occupancy_reduction == 2.0


def test_aggregate_toy_threshold(toy_population):
    lengths, sizes = toy_population
    rep = outcomes(lengths, sizes, AlgorithmSpec("threshold", "length", threshold=1))
    assert rep.coverage_pct == pytest.approx(100 * 900 / 1100, abs=1e-12)
    assert rep.operations_reduction == 2.0
    assert rep.occupancy_reduction == pytest.approx(1 / (0.5 * 0.9), rel=1e-12)


def test_aggregate_sampling_p_one_is_baseline(toy_population):
    lengths, sizes = toy_population
    rng = np.random.default_rng(0)
    rep = outcomes(lengths, sizes, AlgorithmSpec("sampling", "length", probability=1.0), rng)
    assert rep == MetricsReport(100.0, 1.0, 1.0)


def test_aggregate_degenerate(toy_population):
    lengths, sizes = toy_population
    with pytest.raises(DegenerateError):
        outcomes(lengths, sizes, AlgorithmSpec("first", "length", threshold=100))
    for axis in ("length", "size"):  # beyond the int64 range
        with pytest.raises(DegenerateError):
            outcomes(lengths, sizes, AlgorithmSpec("threshold", axis, threshold=1e20))
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_scalar_stream_matches_batch(toy_population):
    lengths, sizes = toy_population
    spec = AlgorithmSpec("threshold", "length", threshold=2)
    stream = (eval_threshold(FlowRecord(int(l), int(s)), spec) for l, s in zip(lengths, sizes))
    rep = aggregate(stream)
    batch = outcomes(lengths, sizes, spec)
    assert rep.coverage_pct == batch.coverage_pct
    assert rep.operations_reduction == batch.operations_reduction
    # occupancy sums accumulate in different orders between the two paths
    assert rep.occupancy_reduction == pytest.approx(batch.occupancy_reduction, rel=1e-12)


def test_aggregate_proportional_duration(toy_population):
    lengths, sizes = toy_population
    spec = AlgorithmSpec("first", "length", threshold=1)
    rep = outcomes(lengths, sizes, spec, duration_model="proportional")
    # long flows occupy for their whole (length-proportional) lifetime
    assert rep.occupancy_reduction == pytest.approx(5500 / 5000, rel=1e-12)
    assert rep.operations_reduction == 2.0


# -- batch vs scalar equivalence ----------------------------------------------------


def random_flows(n=300, seed=8):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 200, size=n)
    per_packet = rng.integers(64, 1400, size=n)
    sizes = lengths * per_packet + rng.integers(0, lengths)
    return lengths.astype(np.int64), sizes.astype(np.int64)


@pytest.mark.parametrize(
    "spec",
    [
        AlgorithmSpec("first", "length", threshold=17),
        AlgorithmSpec("first", "size", threshold=30_000),
        AlgorithmSpec("threshold", "length", threshold=17),
        AlgorithmSpec("threshold", "size", threshold=30_000),
    ],
)
def test_batch_matches_scalar_evaluators(spec):
    lengths, sizes = random_flows()
    created, covered, occ = batch(lengths, sizes, spec)
    evaluator = eval_first if spec.kind == "first" else eval_threshold
    for i in range(len(lengths)):
        out = evaluator(FlowRecord(int(lengths[i]), int(sizes[i])), spec)
        assert out.entry_created == bool(created[i])
        assert out.covered_bytes == covered[i]
        assert out.occupancy_fraction == pytest.approx(occ[i], abs=1e-12)


def test_batch_sampling_matches_scalar_law():
    # same distribution, different draw order: compare creation rate and
    # mean occupancy of the constant-shape population
    lengths = np.full(40_000, 6, dtype=np.int64)
    sizes = np.full(40_000, 1800, dtype=np.int64)
    for spec in (
        AlgorithmSpec("sampling", "length", probability=0.2),
        AlgorithmSpec("sampling", "size", probability=0.4),
    ):
        created, _, occ = batch(lengths, sizes, spec, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        flow = FlowRecord(6, 1800)
        scalar = [eval_sampling(flow, spec, rng) for _ in range(40_000)]
        rate_b = created.mean()
        rate_s = np.mean([o.entry_created for o in scalar])
        sigma = math.sqrt(rate_s * (1 - rate_s) / 40_000)
        assert rate_b == pytest.approx(rate_s, abs=5 * sigma)
        occ_b = occ.sum() / created.sum()
        occ_s = np.mean([o.occupancy_fraction for o in scalar if o.entry_created])
        assert occ_b == pytest.approx(occ_s, abs=0.01)


@st.composite
def edge_flows(draw):
    """A flow aimed at an edge of the even-split layout."""
    case = draw(st.sampled_from(["spread", "low", "high", "single", "any"]))
    if case == "single":
        return FlowRecord(1, draw(st.integers(1, 1518)))
    n = draw(st.integers(3 if case == "spread" else 2, 60))
    if case == "spread":  # base + rem > 1518: one extra byte on each of the last rem packets
        rem = draw(st.integers(2, n - 1))
        base = draw(st.integers(1519 - rem, 1517))
        return FlowRecord(n, n * base + rem)
    if case == "low":
        return FlowRecord(n, 64 * n)
    if case == "high":
        return FlowRecord(n, 1518 * n)
    return FlowRecord(n, draw(st.integers(n, 1518 * n)))


@st.composite
def flows_and_thresholds(draw):
    """Flows, plus a packet and a byte threshold whose trigger lands in the
    trailing run (the packets after the leading equal ones) of one flow."""
    flows = draw(st.lists(edge_flows(), min_size=1, max_size=12))
    flow = draw(st.sampled_from(flows))
    sizes = packetize(flow)
    trailing = [i for i in range(flow.length) if sizes[i] != sizes[0]] or [flow.length - 1]
    j = draw(st.sampled_from(trailing))  # 0-based index of the triggering packet
    if draw(st.booleans()):
        packets = j
        octets = sum(sizes[:j]) + draw(st.integers(0, sizes[j] - 1))
    else:
        packets = draw(st.integers(0, 64))
        octets = draw(st.integers(0, 100_000))
    return flows, packets, octets


@settings(max_examples=300, deadline=None)
@given(case=flows_and_thresholds())
def test_batch_equals_oracle_on_layout_edges(case):
    flows, packets, octets = case
    lengths = np.array([f.length for f in flows], dtype=np.int64)
    sizes = np.array([f.size for f in flows], dtype=np.int64)
    layout = PacketLayout(lengths, sizes, DEFAULT_MAX_PACKET)
    for kind, evaluator in (("first", eval_first), ("threshold", eval_threshold)):
        for axis, T in (("length", packets), ("size", octets)):
            spec = AlgorithmSpec(kind, axis, threshold=float(T))
            index, trigger, total = evaluate_batch(layout, spec)
            created, covered, occ = expand(layout, index, trigger)
            assert total == covered.sum(), spec
            for i, flow in enumerate(flows):
                out = evaluator(flow, spec)
                assert (bool(created[i]), int(covered[i]), float(occ[i])) == \
                    (out.entry_created, out.covered_bytes, out.occupancy_fraction), (flow, spec)


@pytest.mark.parametrize("length,size", [(5, 7588), (3, 4553), (40, 60717)])
def test_batch_sampling_matches_oracle_on_spread_flows(length, size):
    # the covered-bytes law of a spread flow: same support as the oracle's
    # and frequencies that a two-sample chi-square test cannot tell apart
    n = 6000
    flow = FlowRecord(length, size)
    lengths = np.full(n, length, dtype=np.int64)
    sizes = np.full(n, size, dtype=np.int64)
    for spec in (
        AlgorithmSpec("sampling", "length", probability=1.0 / length),
        AlgorithmSpec("sampling", "size", probability=1.5 / length),
    ):
        _, covered, _ = batch(lengths, sizes, spec, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        oracle = [eval_sampling(flow, spec, rng).covered_bytes for _ in range(n)]
        assert set(np.unique(covered)) <= set(oracle), spec
        values = np.unique(np.concatenate([covered, oracle]))
        table = np.array([[np.count_nonzero(covered == v) for v in values],
                          [oracle.count(v) for v in values]])
        assert chi2_contingency(table).pvalue > 1e-3, spec


# -- the exact sampling law -----------------------------------------------------------


def assert_exact_law(flows, spec, max_packet_size=DEFAULT_MAX_PACKET):
    lengths = np.array([f.length for f in flows], dtype=np.int64)
    sizes = np.array([f.size for f in flows], dtype=np.int64)
    law = expected_sampling(PacketLayout(lengths, sizes, max_packet_size), spec)
    for i, flow in enumerate(flows):
        entries, covered, held = expected_sampling_per_packet(flow, spec, max_packet_size)
        got = (law.entries[i], law.covered[i], law.held[i], law.occupancy[i])
        want = (entries, covered, held, held / flow.length)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (flow, spec)


# p = 1 (q = 0 on the length axis) and tiny p, where the closed forms cancel
SAMPLING_ODDS = st.one_of(st.sampled_from([1.0, 0.5, 2.0 ** -10, 1e-9, 1e-15]),
                          st.floats(min_value=1e-15, max_value=1.0))


@settings(max_examples=200, deadline=None)
@given(flows=st.lists(edge_flows(), min_size=1, max_size=12), p=SAMPLING_ODDS,
       axis=st.sampled_from(["length", "size"]))
def test_expected_sampling_matches_per_packet_sum_on_layout_edges(flows, p, axis):
    assert_exact_law(flows, AlgorithmSpec("sampling", axis, probability=p))


def test_expected_sampling_on_jumbo_and_zero_odds_edges():
    # 9000-byte packets: full ones sampled surely at p = 1; a spread and a
    # last-packet remainder under the jumbo size, and runs far past 1 / x
    jumbo = [FlowRecord(2, 18000), FlowRecord(3, 17000), FlowRecord(5, 44998),
             FlowRecord(1, 9000), FlowRecord(400, 400 * 8999 + 7)]
    for p in (1.0, 0.3, 2.0 ** -20):
        for axis in ("length", "size"):
            assert_exact_law(jumbo, AlgorithmSpec("sampling", axis, probability=p), 9000)
    law = expected_sampling(PacketLayout(np.array([1, 7]), np.array([9000, 63000]), 9000),
                            AlgorithmSpec("sampling", "size", probability=1.0))
    assert (law.entries == 1.0).all() and list(law.covered) == [9000.0, 63000.0]


# The simulated sampling mean against the exact law, fixed before the first
# run and not re-picked since: the heavy-tail model's population of seed 1
# and 2^15 flows; K = 100 sampling seeds, 0..99; p = 2^-k for k = 0..14 on
# the length axis and 0..12 on the size axis, each cell at least 100 exact
# entries per seed; in each, the mean of the entries, covered bytes, held
# packets and equal-duration occupancy within Z = 4 standard errors of the
# exact expectation.  Over these 112 comparisons, a t statistic of 99
# degrees of freedom beyond 4 gives about a 1.4% family-wise false alarm.
LAW_FLOWS, LAW_SEEDS, LAW_Z = 2 ** 15, 100, 4.0
LAW_EXPONENTS = {"length": range(15), "size": range(13)}


def sampling_law_misses(layout, axis):
    """The (p, quantity, z) of every comparison of an axis's cells farther
    than LAW_Z standard errors from the exact law.  The slack of 1e-9 of the
    expectation covers float summation alone: at p = 1 on the length axis
    every seed gives the same entries, and the standard error is 0."""
    lengths, misses = layout.lengths, []
    for k in LAW_EXPONENTS[axis]:
        spec = AlgorithmSpec("sampling", axis, probability=2.0 ** -k)
        law = expected_sampling(layout, spec)
        want = np.array([law.entries.sum(), law.covered.sum(), law.held.sum(),
                         law.occupancy.sum()])
        got = np.empty((LAW_SEEDS, 4))
        for seed in range(LAW_SEEDS):
            flows, trigger, covered = evaluate_batch(layout, spec, rng=np.random.default_rng(seed))
            packets = lengths[flows]
            held = packets + 1 - trigger
            got[seed] = len(flows), covered, held.sum(), (held / packets).sum()
        se = got.std(axis=0, ddof=1) / math.sqrt(LAW_SEEDS)
        gap = got.mean(axis=0) - want
        for name, g, e, w in zip(("entries", "covered", "held", "occupancy"), gap, se, want):
            if abs(g) > LAW_Z * e + 1e-9 * w:
                misses.append((spec.probability, name, g / e if e else math.inf))
    return misses


@pytest.fixture(scope="module")
def law_layout(ht_population):
    return PacketLayout(*ht_population(1, LAW_FLOWS), DEFAULT_MAX_PACKET)


@pytest.mark.parametrize("axis", ["length", "size"])
def test_simulated_sampling_mean_matches_exact_law(law_layout, axis):
    assert sampling_law_misses(law_layout, axis) == []


# the kernel samples each lead-run packet at raised odds: those of base + 1
# bytes on the size axis, p * (1 + 2^-4) on the length axis
LEAD_ODDS_MUTATIONS = {
    "size": ("np.multiply(-scale, base,", "np.multiply(-scale, base + 1,"),
    "length": ("np.log1p(-spec.probability)", "np.log1p(-spec.probability * (1 + 2 ** -4))"),
}


@pytest.mark.parametrize("axis", ["length", "size"])
def test_exact_law_catches_raised_lead_run_odds(law_layout, mutate, axis):
    mutate("_block", *LEAD_ODDS_MUTATIONS[axis])
    assert sampling_law_misses(law_layout, axis) != []


# -- structural invariants -----------------------------------------------------------


def test_first_and_threshold_share_entry_set():
    lengths, sizes = random_flows(seed=12)
    for axis, T in (("length", 9), ("size", 20_000)):
        first = outcomes(lengths, sizes, AlgorithmSpec("first", axis, threshold=T))
        thr = outcomes(lengths, sizes, AlgorithmSpec("threshold", axis, threshold=T))
        assert first.operations_reduction == thr.operations_reduction  # bit-exact
        assert first.operations_reduction == first.occupancy_reduction
        assert thr.occupancy_reduction >= thr.operations_reduction


def test_sampling_occupancy_exceeds_operations():
    lengths, sizes = random_flows(seed=13)
    rep = outcomes(
        lengths, sizes,
        AlgorithmSpec("sampling", "length", probability=0.05),
        np.random.default_rng(5),
    )
    assert rep.occupancy_reduction >= rep.operations_reduction


def test_byte_total_is_checked_at_the_int64_edge():
    # a total of 2^63 - 1 bytes is kept exactly, and one byte more is refused
    lengths = np.full(4, 2 ** 52, dtype=np.int64)
    sizes = np.full(4, 2 ** 61, dtype=np.int64)
    sizes[-1] -= 1
    layout = PacketLayout(lengths, sizes.copy(), DEFAULT_MAX_PACKET)  # it makes its sizes read-only
    assert layout.total_bytes == 2 ** 63 - 1
    # aggregate_batch reads the layout's total, not a sum of its own
    entries = evaluate_batch(layout, AlgorithmSpec("first", threshold=0.0))
    assert entries[2] == 2 ** 63 - 1
    assert aggregate_batch(layout, *entries).coverage_pct == 100.0
    layout.total_bytes *= 4
    assert aggregate_batch(layout, *entries).coverage_pct == 25.0
    sizes[-1] += 1
    with pytest.raises(ValueError, match="byte total overflows int64"):
        PacketLayout(lengths, sizes, DEFAULT_MAX_PACKET)


def test_layout_arrays_are_read_only_after_the_build():
    # a write into the arrays the layout keeps would change its population
    # behind its lead/base/tail and its byte total: 1490% coverage below
    lengths = np.array([10, 20, 30], dtype=np.int64)
    sizes = np.array([1000, 2000, 3000], dtype=np.int64)
    layout = PacketLayout(lengths, sizes, DEFAULT_MAX_PACKET)
    with pytest.raises(ValueError, match="read-only"):
        sizes[:] = [15000, 30000, 45000]
    for name in ("lengths", "sizes", "lead", "base", "tail"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(layout, name)[0] = 1
    spec = AlgorithmSpec("threshold", "length", threshold=2)
    assert outcomes(lengths, sizes, spec).coverage_pct == pytest.approx(90.0, rel=1e-12)
