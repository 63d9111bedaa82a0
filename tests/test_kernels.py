"""The blocked kernels of ``evaluate_batch`` against the whole-population
formulas of ``oracle.reference_trigger``: the same entries bit for bit,
the same covered byte total as the per-flow arrays of ``oracle.expand``,
and working memory of a few blocks; the fold of ``aggregate_batch``
against sums over the per-flow arrays; and the population set-up,
generation, ``PacketLayout`` and the ingest of ``read_flow_csv``, built a
block at a time: the one-shot formulas at the block edges, and a few
blocks beyond their outputs."""
from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import flowtab
from flowtab.algorithms import (
    BLOCK_FLOWS,
    AlgorithmSpec,
    DegenerateError,
    PacketLayout,
    _size_candidates,
    aggregate_batch,
    evaluate_batch,
)
from flowtab.generator import (
    SHARD_SIZE,
    GeneratorConfig,
    generate_arrays,
    read_flow_csv,
    write_flow_csv,
)
from flowtab.sweep import default_probabilities, default_thresholds
from oracle import expand, reference_sampling_trigger, reference_trigger

POPULATION_SIZES = (1, BLOCK_FLOWS - 1, BLOCK_FLOWS, 3 * BLOCK_FLOWS + 77)
EXTRA_THRESHOLDS = (0.0, 0.5, 1517.0, 1518.0, 1519.0)
EXTRA_PROBABILITIES = (1.0, 0.999999, 0.3, 1e-12)


def kernel_population(count: int, max_packet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed lengths up to 2^22 packets (past the largest default
    length threshold) with sizes that take every layout: a remainder on
    the last packet, a spread remainder, exact multiples and flows of
    full-size packets only."""
    rng = np.random.default_rng(max_packet_size)
    lengths = np.minimum(np.floor(rng.pareto(0.6, count)) + 1, 2 ** 22).astype(np.int64)
    per_packet = rng.integers(1, max_packet_size + 1, count)
    sizes = lengths * per_packet + rng.integers(0, lengths)
    sizes = np.where(rng.random(count) < 0.1, lengths * max_packet_size, sizes)
    sizes = np.where(rng.random(count) < 0.1, lengths * per_packet, sizes)
    return lengths, np.minimum(sizes, lengths * max_packet_size)


def kernel_specs(axis: str) -> list[AlgorithmSpec]:
    thresholds = sorted(set(default_thresholds(axis)) | set(EXTRA_THRESHOLDS))
    probabilities = sorted(set(default_probabilities(axis)) | set(EXTRA_PROBABILITIES))
    return ([AlgorithmSpec(kind, axis, threshold=t)
             for kind in ("first", "threshold") for t in thresholds]
            + [AlgorithmSpec("sampling", axis, probability=p) for p in probabilities])


@pytest.mark.parametrize("max_packet_size", [1518, 9000])
@pytest.mark.parametrize("axis", ["length", "size"])
def test_blocked_kernels_match_whole_population_formulas(axis, max_packet_size):
    lengths, sizes = kernel_population(POPULATION_SIZES[-1], max_packet_size)
    for count in POPULATION_SIZES:
        ls, ss = lengths[:count], sizes[:count]
        layout = PacketLayout(ls, ss, max_packet_size)
        for spec in kernel_specs(axis):
            flows, trigger, total = evaluate_batch(layout, spec, rng=np.random.default_rng(count))
            want = reference_trigger(layout, spec, rng=np.random.default_rng(count))
            assert flows.dtype == trigger.dtype == np.int64, (count, spec)
            assert np.array_equal(flows, np.flatnonzero(want)), (count, spec)
            assert np.array_equal(trigger, want[flows]), (count, spec)
            _, covered, _ = expand(layout, flows, trigger)
            assert type(total) is int and total == int(covered.sum()), (count, spec)


def even_split(n: int, s: int, max_packet_size: int) -> tuple[int, int, int]:
    """(lead, base, tail) of a flow of n packets and s bytes, in Python ints."""
    base, rem = divmod(s, n)
    if rem == 0:
        return n, base, base
    if base + rem <= max_packet_size:
        return n - 1, base, base + rem
    return n - rem, base, base + 1


def test_size_threshold_is_exact_past_two_to_the_53():
    # flows of 2^53 to 2^56 bytes, where a float64 byte count or quotient
    # rounds, at t = lead * base - 2 .. + 2 of each: the switch from the lead
    # run to the tail run.  The first flows put t / base within half an ulp
    # of the next integer: an odd lead of 2^43 or more packets of an odd base
    # above 1024 bytes, then one packet of a byte more.  Every flow's trigger
    # and the covered total against the integer rule
    rng = np.random.default_rng(53)
    flows = [(lead + 1, (lead + 1) * base + 1) for base in (1025, 1217, 1517)
             for lead in (2 ** 43 + 1, 2 ** 43 + 12345, 2 ** 44 - 3)]
    for _ in range(30):  # at least 2^54 bytes, half of them or more in the lead run
        base = int(rng.integers(1, 1518))
        n = int(rng.integers(2 ** 54, 2 ** 56)) // base
        rem = rng.integers(0, 1519 - base) if rng.random() < 0.5 else rng.integers(0, n // 2)
        flows.append((n, n * base + int(rem)))
    layout = PacketLayout(*(np.array(column, dtype=np.int64) for column in zip(*flows)), 1518)
    splits = [even_split(n, s, 1518) for n, s in flows]
    assert [list(column) for column in zip(*splits)] == \
        [layout.lead.tolist(), layout.base.tolist(), layout.tail.tolist()]
    assert all(lead * base > 2 ** 53 for lead, base, _ in splits)
    edges = {int(float(lead * base + d)) for lead, base, _ in splits for d in range(-2, 3)}
    for t in sorted(edges):
        want, covered = [], 0
        for (n, s), (lead, base, tail) in zip(flows, splits):
            k = 0 if s <= t else t // base + 1 if t < lead * base else \
                lead + (t - lead * base) // tail + 1
            want.append(k)
            covered += k and s - (k - 1) * base - max(k - 1 - lead, 0) * (tail - base)
        spec = AlgorithmSpec("threshold", "size", threshold=float(t))
        got, trigger, total = evaluate_batch(layout, spec)
        assert np.flatnonzero(want).tolist() == got.tolist(), t
        assert [want[i] for i in got] == trigger.tolist() and total == covered, t


@pytest.mark.parametrize("axis", ["length", "size"])
def test_fold_equals_sums_over_per_flow_arrays(axis):
    # the fold walks several blocks of entries, the last partial
    count = 3 * BLOCK_FLOWS + 77
    lengths, sizes = kernel_population(count, 1518)
    layout = PacketLayout(lengths, sizes, 1518)
    for spec in kernel_specs(axis):
        flows, trigger, total = evaluate_batch(layout, spec, rng=np.random.default_rng(2))
        if len(flows) == 0:
            continue
        created, covered, _ = expand(layout, flows, trigger)
        equal = aggregate_batch(layout, flows, trigger, total)
        assert equal.operations_reduction == count / np.count_nonzero(created), spec
        assert equal.coverage_pct == 100.0 * float(covered.sum()) / float(sizes.sum()), spec
        proportional = aggregate_batch(layout, flows, trigger, total, "proportional")
        assert proportional.occupancy_reduction == \
            lengths.sum() / (lengths[flows] + 1 - trigger).sum(), spec


def edge_draws(layout: PacketLayout, spec: AlgorithmSpec):
    """Uniforms of every flow: random ones, then those at, just above and
    just below the survival of the flow's lead run (up to 3 ulps away) and
    of all its packets (1 ulp), where the entry turns on and off and where
    the kernel moves from the lead run to the tail run.  On the length axis
    every packet's odds are p."""
    p, lengths = spec.probability, layout.lengths
    scale = p / layout.max_packet_size
    lead_odds, tail_odds = (p, p) if spec.axis == "length" else \
        (scale * layout.base, scale * layout.tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the exact log-survival, -inf with a surely sampled packet at p = 1
        lead_run = layout.lead * np.log1p(-lead_odds)
        trailing = lengths - layout.lead
        survival = lead_run + np.where(trailing > 0, trailing * np.log1p(-tail_odds), 0.0)
    yield np.random.default_rng(4).random(len(lengths))
    for log_edge, ulps in ((lead_run, 3), (survival, 1)):
        edge = [np.exp(np.maximum(log_edge, -745.0))]
        for _ in range(ulps):
            edge = [np.nextafter(edge[0], 1.0), *edge, np.nextafter(edge[-1], 0.0)]
        for u in (edge[0] * (1 + 1e-12), *edge, edge[-1] * (1 - 1e-12)):
            yield np.minimum(u, np.nextafter(1.0, 0.0))


def edge_probabilities(axis: str) -> list[float]:
    # below 1e-15 the size bound is within rounding of the log-survival of
    # full-size packets
    return sorted(set(default_probabilities(axis)) | set(EXTRA_PROBABILITIES)
                  | {1e-15, 1e-16, 1e-17})


@pytest.mark.parametrize("max_packet_size", [1518, 9000])
def test_size_prefilter_keeps_every_created_flow(max_packet_size):
    lengths, sizes = kernel_population(BLOCK_FLOWS, max_packet_size)
    layout = PacketLayout(lengths, sizes, max_packet_size)
    # flows whose largest packet is full-size, which p = 1 surely samples:
    # every packet full, and one full packet carrying the remainder
    full = np.flatnonzero(layout.tail == max_packet_size)
    assert np.any(layout.base[full] == max_packet_size)
    assert np.any(layout.base[full] < max_packet_size)
    for p in edge_probabilities("size"):
        spec = AlgorithmSpec("sampling", "size", probability=p)
        for u in edge_draws(layout, spec):
            log_u = np.log(np.maximum(u, 2.0 ** -53))
            created = reference_sampling_trigger(layout, spec, log_u) > 0
            kept = np.zeros(len(lengths), dtype=bool)
            kept[_size_candidates(u, p, layout, slice(0, len(lengths)))] = True
            assert not np.any(created & ~kept), spec
            assert kept[full].all() or p < 1.0, spec


class Draws:
    """A stand-in generator whose random(out=) hands out fixed uniforms in
    turn, as evaluate_batch asks for them a block at a time."""

    def __init__(self, uniforms: np.ndarray):
        self.uniforms, self.used = uniforms, 0

    def random(self, out: np.ndarray) -> np.ndarray:
        out[:] = self.uniforms[self.used:self.used + len(out)]
        self.used += len(out)
        return out


@pytest.mark.parametrize("max_packet_size", [1518, 9000])
@pytest.mark.parametrize("axis", ["length", "size"])
def test_edge_draws_give_the_reference_entries(axis, max_packet_size):
    # a block and a partial one, with the edge draws of every flow run
    # through the whole kernel: its candidate filter, its lead run and its
    # tail run, against the whole-population formulas bit for bit
    count = BLOCK_FLOWS + 77
    layout = PacketLayout(*kernel_population(count, max_packet_size), max_packet_size)
    # flows of one run, every flow on the length axis: what their lead run
    # rejects gains no entry, however the draw rounds at the run's edge
    one_run = layout.lead == layout.lengths
    for p in edge_probabilities(axis):
        spec = AlgorithmSpec("sampling", axis, probability=p)
        lead_odds = p if axis == "length" else p / max_packet_size * layout.base
        with np.errstate(divide="ignore"):
            log_q_lead = np.log1p(-lead_odds)
        for u in edge_draws(layout, spec):
            rng = Draws(u)
            flows, trigger, total = evaluate_batch(layout, spec, rng=rng)
            log_u = np.log(np.maximum(u, 2.0 ** -53))
            want = reference_sampling_trigger(layout, spec, log_u)
            assert rng.used == count, spec
            assert np.array_equal(flows, np.flatnonzero(want)), spec
            assert np.array_equal(trigger, want[flows]), spec
            assert total == int(expand(layout, flows, trigger)[1].sum()), spec
            with np.errstate(divide="ignore", invalid="ignore"):
                rejected = one_run & (np.floor(log_u / log_q_lead) + 1 > layout.lead)
            assert not np.any(rejected[flows]), spec


# One-text mutants of the kernel, each with the existing check that kills it:
# (function, text, replacement, check).
KERNEL_MUTANTS = {
    # x <= n keeps a length-axis flow whose draw x = n first samples packet
    # n + 1, past its end
    "length-candidates-x-le-n": (
        "_block", "np.less(x, lengths[block]", "np.less_equal(x, lengths[block]",
        lambda: test_edge_draws_give_the_reference_entries("length", 1518)),
    # a size bound that drops flows at the whole-flow survival edge
    "size-bound-margin-below-one": (
        "_size_candidates", "-(1.0 + 1e-6)", "-(1.0 - 1e-6)",
        lambda: test_edge_draws_give_the_reference_entries("size", 1518)),
    # the tail step skipped when any candidate, not every one, stops in its lead run
    "tail-step-skipped-when-any-stops-in-lead": (
        "_block", "out=in_lead).all()", "out=in_lead).any()",
        lambda: test_edge_draws_give_the_reference_entries("size", 1518)),
    # the size-axis threshold counts tail packets at base bytes
    "size-threshold-tail-cost-base": (
        "_block", "if sampling else tail", "if sampling else base",
        lambda: test_blocked_kernels_match_whole_population_formulas("size", 1518)),
}


@pytest.mark.parametrize("name", KERNEL_MUTANTS)
def test_kernel_mutants_fail_their_check(mutate, name):
    function, text, replacement, check = KERNEL_MUTANTS[name]
    mutate(function, text, replacement)
    with pytest.raises(AssertionError):
        check()


def traced_peak(call):
    """Peak bytes that call() held at once, as numpy reports them to
    tracemalloc, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [
    AlgorithmSpec("threshold", "length", threshold=1.0),
    AlgorithmSpec("threshold", "size", threshold=1.0),
    AlgorithmSpec("sampling", "length", probability=1.0),
    AlgorithmSpec("sampling", "size", probability=1.0),
    AlgorithmSpec("threshold", "size", threshold=65536.0),
    AlgorithmSpec("sampling", "size", probability=2.0 ** -10),
], ids=lambda spec: f"{spec.kind}-{spec.axis}-{spec.threshold or spec.probability}")
def test_kernel_memory_is_outputs_plus_a_few_blocks(spec):
    count = 4 * BLOCK_FLOWS + 77
    lengths, sizes = kernel_population(count, 1518)
    layout = PacketLayout(lengths, sizes, 1518)
    peak, _ = traced_peak(
        lambda: evaluate_batch(layout, spec, rng=np.random.default_rng(1)))
    # the layout's entry pair, which the call allocates, its scratch of 8 1/8 blocks and
    # a block of candidate indices
    pair = 2 * 8 * count
    assert peak < pair + 10 * 8 * BLOCK_FLOWS, (peak, pair)


def interleaved_specs(axis: str) -> list[AlgorithmSpec]:
    """kernel_specs(axis), the kinds taking turns, then a degenerate cell."""
    specs = kernel_specs(axis)
    by_kind = [[spec for spec in specs if spec.kind == kind]
               for kind in ("first", "threshold", "sampling")]
    turns = [spec for turn in itertools.zip_longest(*by_kind) for spec in turn if spec]
    return turns + [AlgorithmSpec("threshold", axis, threshold=2.0 ** 62)]


@pytest.mark.parametrize("axis", ["length", "size"])
def test_a_reused_pair_holds_the_fresh_results(axis):
    # one layout runs the kinds in turn through its pair and scratch; each
    # cell's results equal those of a fresh layout, whose pair is new
    lengths, sizes = kernel_population(3 * BLOCK_FLOWS + 77, 1518)
    for count in (1, BLOCK_FLOWS - 1, BLOCK_FLOWS + 1, 3 * BLOCK_FLOWS + 77):
        ls, ss = lengths[:count], sizes[:count]
        layout = PacketLayout(ls, ss, 1518)
        for spec in interleaved_specs(axis):
            fresh_layout = PacketLayout(ls, ss, 1518)
            fresh = evaluate_batch(fresh_layout, spec, rng=np.random.default_rng(count))
            reused = evaluate_batch(layout, spec, rng=np.random.default_rng(count))
            # views of the pair's heads
            assert all(got.base is head and got.ctypes.data == head.ctypes.data
                       for got, head in zip(reused, layout.entries)), (count, spec)
            assert all(np.array_equal(got, want) for got, want in zip(reused[:2], fresh[:2]))
            assert reused[2] == fresh[2], (count, spec)
            if len(fresh[0]) == 0:
                with pytest.raises(DegenerateError):
                    aggregate_batch(layout, *reused)
                continue
            for model in ("equal", "proportional"):
                assert aggregate_batch(layout, *reused, model) == \
                    aggregate_batch(fresh_layout, *fresh, model), (count, spec)
        assert len(reused[0]) == 0  # the degenerate cell, last


def test_an_index_past_the_population_is_refused():
    lengths, sizes = kernel_population(10, 1518)
    layout = PacketLayout(lengths, sizes, 1518)
    for flows in ([0, 10], [-1, 3], [10]):
        flows = np.array(flows, dtype=np.int64)
        with pytest.raises(IndexError, match="out of range"):
            aggregate_batch(layout, flows, np.ones(len(flows), dtype=np.int64), 0)


@pytest.mark.parametrize("kind", ["first", "threshold", "sampling"])
@pytest.mark.parametrize("axis", ["length", "size"])
def test_a_warm_cell_allocates_less_than_two_blocks(kind, axis):
    # after a first cell has allocated the layout's scratch and pair, a
    # second cell holds at most its candidates' indices beyond them
    count = 4 * BLOCK_FLOWS + 77
    lengths, sizes = kernel_population(count, 1518)
    layout = PacketLayout(lengths, sizes, 1518)
    first, second = (1.0, 0.5) if kind == "sampling" else (4.0, 1.0)
    for parameter in first, second:
        spec = AlgorithmSpec.of(kind, axis, parameter)
        peak, report = traced_peak(lambda: aggregate_batch(layout, *evaluate_batch(
            layout, spec, rng=np.random.default_rng(3))))
    assert report.operations_reduction < count / BLOCK_FLOWS, report  # entries > BLOCK_FLOWS
    assert peak < 2 * 8 * BLOCK_FLOWS, peak


SERIES_FAULTS = """
import resource, sys
import numpy as np
from flowtab.model import load_model
from flowtab.algorithms import PacketLayout
from flowtab.sweep import SweepSpec, _flows, _metrics_tuple
spec = SweepSpec(model=load_model(sys.argv[1]), flow_count=262144)
layout = PacketLayout(*_flows(spec, 1), spec.model.max_packet_size)
if sys.argv[2] == "freed":
    np.ones(2 ** 19)  # 4 MiB allocated, written and freed
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for cell in spec.cells():
    _metrics_tuple(layout, cell, 1, spec.duration_model)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_series_faults_do_not_depend_on_what_was_freed_before():
    # a default length series of 262,144 heavy-tail flows, each in a fresh
    # interpreter: the kernels fault in their scratch and entry pair once,
    # whatever the allocator's thresholds were left at
    pytest.importorskip("resource")
    model = pathlib.Path(__file__).resolve().parent.parent / "models" / "example_heavytail.json"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(flowtab.__file__).parents[1])}
    faults = [int(subprocess.run([sys.executable, "-c", SERIES_FAULTS, str(model), prior],
                                 capture_output=True, text=True, check=True, env=env).stdout)
              for prior in ("none", "freed")]
    assert abs(faults[0] - faults[1]) < 0.25 * max(faults), faults


# -- population set-up: the layout and the CSV ingest, a block at a time ---------


def one_shot_layout(lengths: np.ndarray, sizes: np.ndarray, max_packet_size: int):
    """(lead, base, tail) of every flow at once, by PacketLayout's formulas."""
    base, rem = np.divmod(sizes, lengths)
    spread = base + rem > max_packet_size
    return lengths - np.where(spread, rem, rem > 0), base, base + np.where(spread, 1, rem)


# (length, size) -> (lead, base, tail): the remainder spread over the last
# packets, carried by the last packet alone, and none
EDGE_FLOWS = {
    "spread": ((10, 10 * 1517 + 9), (1, 1517, 1518)),
    "last-carries": ((10, 10 * 1500 + 9), (9, 1500, 1509)),
    "even": ((10, 15000), (10, 1500, 1500)),
}


@pytest.mark.parametrize("case", EDGE_FLOWS)
def test_layout_at_block_edges_equals_the_one_shot_formula(case):
    count = 3 * BLOCK_FLOWS + 77
    lengths, sizes = kernel_population(count, 1518)
    (length, size), want = EDGE_FLOWS[case]
    # either side of the first block edge, and in the partial last block
    edges = [BLOCK_FLOWS - 1, BLOCK_FLOWS, 3 * BLOCK_FLOWS + 5, count - 1]
    lengths[edges], sizes[edges] = length, size
    layout = PacketLayout(lengths, sizes, 1518)
    assert (layout.lead.dtype, layout.base.dtype, layout.tail.dtype) == (np.int64, np.int32,
                                                                         np.int32)
    for got, expected in zip((layout.lead, layout.base, layout.tail),
                             one_shot_layout(lengths, sizes, 1518)):
        assert np.array_equal(got, expected)
    for i in edges:
        assert (layout.lead[i], layout.base[i], layout.tail[i]) == want, i


def test_layout_names_a_bad_flow_by_its_global_index():
    lengths, sizes = kernel_population(3 * BLOCK_FLOWS + 77, 1518)
    bad = 2 * BLOCK_FLOWS + 123  # in the third block alone
    sizes[bad] = lengths[bad] * 1518 + 1
    with pytest.raises(ValueError, match=f"^flow {bad} of {lengths[bad]} packets and "
                                         f"{sizes[bad]} bytes does not split into packets"):
        PacketLayout(lengths, sizes, 1518)


def _refuses(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("max_packet_size", [1518, 9000, 2 ** 31 - 1])
def test_layout_refuses_a_length_whose_envelope_overflows_as_ingest_does(tmp_path,
                                                                        max_packet_size):
    # one byte a packet: the flow splits, but length * max_packet_size
    # overflows int64 past `longest`, where the wrapped product once decided
    longest = (2 ** 63 - 1) // max_packet_size
    rng = np.random.default_rng(max_packet_size)
    wrapped = rng.integers(longest + 1, 2 ** 62, 50, dtype=np.int64).tolist()
    path = str(tmp_path / "flow.csv")
    for length in [longest, longest + 1] + wrapped:
        lengths = sizes = np.array([length], dtype=np.int64)
        write_flow_csv(path, lengths, sizes)
        refused = _refuses(lambda: PacketLayout(lengths, sizes, max_packet_size))
        assert refused == _refuses(lambda: read_flow_csv(path, max_packet_size)), length
        assert refused == (length > longest), length


def test_a_bad_flow_wins_over_an_overflowing_byte_total():
    # four flows of 2^61 bytes overflow int64, and the second block holds a
    # flow of no packets: the flow is named, as the check of each flow comes first
    lengths = np.ones(BLOCK_FLOWS + 1, dtype=np.int64)
    sizes = np.ones(BLOCK_FLOWS + 1, dtype=np.int64)
    lengths[:4], sizes[:4] = 2 ** 52, 2 ** 61
    lengths[-1] = 0
    with pytest.raises(ValueError, match=f"^flow {BLOCK_FLOWS} of 0 packets"):
        PacketLayout(lengths, sizes, 1518)
    lengths[-1] = 1
    with pytest.raises(ValueError, match="byte total overflows int64"):
        PacketLayout(lengths, sizes, 1518)


def test_layout_memory_is_its_arrays_plus_a_few_blocks():
    lengths, sizes = kernel_population(8 * BLOCK_FLOWS + 77, 1518)
    peak, layout = traced_peak(lambda: PacketLayout(lengths, sizes, 1518))
    arrays = layout.lead.nbytes + layout.base.nbytes + layout.tail.nbytes
    assert arrays == 16 * len(lengths)
    # each block is written in place: its temporaries are a few bool masks
    assert peak < arrays + 1 * 8 * BLOCK_FLOWS, (peak, arrays)


def test_generation_memory_is_its_outputs_plus_two_blocks(heavytail_model):
    # the uniforms and both quantiles are written into the output arrays;
    # beside them generation holds a few arrays of 8,192 flows (QUANTILE_BLOCK,
    # CLAMP_BLOCK) and some of the flows whose search goes on past the guide
    generate_arrays(heavytail_model, GeneratorConfig(seed=2, flow_count=10))  # builds the tables
    config = GeneratorConfig(seed=1, flow_count=4 * SHARD_SIZE + 77)
    peak, (lengths, sizes) = traced_peak(lambda: generate_arrays(heavytail_model, config))
    outputs = lengths.nbytes + sizes.nbytes
    assert peak <= outputs + 2 * 8 * SHARD_SIZE, (peak, outputs)


GENERATION_FAULTS = """
import resource, sys
import numpy as np
from flowtab.generator import GeneratorConfig, generate_arrays
from flowtab.model import load_model
model = load_model(sys.argv[1])
generate_arrays(model, GeneratorConfig(seed=2, flow_count=10))  # builds the tables
if sys.argv[2] == "freed":
    np.ones(2 ** 19)  # 4 MiB allocated, written and freed
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
generate_arrays(model, GeneratorConfig(seed=1, flow_count=262144))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_generation_faults_are_its_outputs_and_a_few_blocks():
    # 262,144 heavy-tail flows, each run in a fresh interpreter: the outputs
    # are 1,024 pages of 4 KiB, and the blocks beside them are small enough
    # for the allocator to reuse, whatever its thresholds were left at
    pytest.importorskip("resource")
    model = pathlib.Path(__file__).resolve().parent.parent / "models" / "example_heavytail.json"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(flowtab.__file__).parents[1])}
    for prior in ("none", "freed"):
        faults = int(subprocess.run([sys.executable, "-c", GENERATION_FAULTS, str(model), prior],
                                    capture_output=True, text=True, check=True, env=env).stdout)
        assert faults <= 1500, (prior, faults)


def test_ingest_memory_is_twice_its_outputs_plus_a_few_blocks(tmp_path, monkeypatch):
    lengths, sizes = kernel_population(8 * BLOCK_FLOWS + 77, 1518)
    path = str(tmp_path / "flows.csv")
    write_flow_csv(path, lengths, sizes)
    monkeypatch.setattr("flowtab.generator._read_rows", None)  # the bulk parse alone
    peak, (back_l, back_s) = traced_peak(lambda: read_flow_csv(path, 1518))
    assert np.array_equal(back_l, lengths) and np.array_equal(back_s, sizes)
    outputs = back_l.nbytes + back_s.nbytes
    assert peak <= 2 * outputs + 3 * 8 * BLOCK_FLOWS, (peak, outputs)


def test_ingest_names_a_bad_row_in_the_third_block(tmp_path):
    lengths, sizes = kernel_population(3 * BLOCK_FLOWS + 77, 1518)
    bad = 2 * BLOCK_FLOWS + 123
    sizes[bad] = lengths[bad] * 1518 + 1
    path = str(tmp_path / "flows.csv")
    write_flow_csv(path, lengths, sizes)
    with pytest.raises(ValueError, match=f"row {bad + 2}: flow of {lengths[bad]} packets"):
        read_flow_csv(path, 1518)
