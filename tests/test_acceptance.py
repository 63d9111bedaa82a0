"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with `pytest -s`).  A7 is
conditional on a user-supplied traffic model reproducing the agh_2015
fits (point FLOWTAB_AGH_MODEL at the file, or drop it at
models/agh_2015.json); without it the criterion is reported as SKIP.
"""
from __future__ import annotations

import math
import os
import pathlib
import time

import mpmath
import numpy as np
import pytest

from flowtab.algorithms import AlgorithmSpec, PacketLayout, aggregate_batch, evaluate_batch, p_total
from flowtab.analytic import UnreachableError, analytic_for_spec, invert_for_coverage
from flowtab.cli import main as cli_main
from flowtab.generator import GeneratorConfig, generate_arrays
from flowtab.model import load_model
from flowtab.sweep import SweepSpec, _sampling_rng, run_sweep
from oracle import expand, expected_covered_fraction

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


class criterion:
    """Prints '[A#] PASS/FAIL <detail>' around a block of assertions."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        self.start = 0.0

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        took = time.time() - self.start
        print(f"[{self.name}] {status} ({took:.1f}s) {self.detail}")
        return False


def simulate(layout, spec, seed, duration_model="equal"):
    rng = _sampling_rng(seed, spec) if spec.kind == "sampling" else None
    entries = evaluate_batch(layout, spec, rng=rng)
    rep = aggregate_batch(layout, *entries, duration_model)
    return np.array([rep.coverage_pct, rep.operations_reduction, rep.occupancy_reduction])


# -- A1: within-row reduction identities, bit-exact ------------------------------


def test_a1_reduction_identities_bit_exact(heavytail_model):
    with criterion("A1", "first.ops == first.occ == threshold.ops, bit-exact at 1e6 flows"):
        t0 = time.time()
        spec = SweepSpec(
            model=heavytail_model,
            axis="length",
            seeds=(1,),
            flow_count=10 ** 6,
        )
        result = run_sweep(spec)
        for t in spec.thresholds:
            first = result.cell("first", t)
            thr = result.cell("threshold", t)
            for s in range(len(spec.seeds)):
                assert first.per_seed[s][1] == first.per_seed[s][2]
                assert thr.per_seed[s][1] == first.per_seed[s][1]
        assert time.time() - t0 < 60.0


# -- A2: sampling at p = 1 is exactly the reactive baseline ------------------------


def test_a2_sampling_p_one_exact(toy_model, heavytail_model):
    with criterion("A2", "sampling p=1.00 -> (100.00%, 1.00, 1.00) on every model"):
        spec = AlgorithmSpec("sampling", "length", probability=1.0)
        for model in (toy_model, heavytail_model):
            lengths, sizes = generate_arrays(model, GeneratorConfig(seed=3, flow_count=10 ** 5))
            layout = PacketLayout(lengths, sizes, model.max_packet_size)
            sim = simulate(layout, spec, seed=3)
            assert tuple(sim) == (100.0, 1.0, 1.0)
            ana = analytic_for_spec(model, spec)
            assert (ana.coverage_pct, ana.operations_reduction, ana.occupancy_reduction) == \
                (100.0, 1.0, 1.0)


# -- A3: two-point model oracle ----------------------------------------------------


def _ratio_se(num: np.ndarray, den: np.ndarray) -> float:
    """Delta-method standard error of sum(num)/sum(den) over iid flows."""
    n = len(num)
    r = num.sum() / den.sum()
    resid = num - r * den
    return math.sqrt(np.var(resid, ddof=1) / n) / float(np.mean(den))


def test_a3_toy_oracle(toy_model):
    with criterion("A3", "two-point model: hand oracle vs simulation (3 sigma) and analytics (1e-9)"):
        t0 = time.time()
        oracle = {
            "first": (100 * 10 / 11, 2.0, 2.0),
            "threshold": (100 * 9 / 11, 2.0, 1 / (0.5 * 0.9)),
        }
        ana_first = analytic_for_spec(toy_model, AlgorithmSpec("first", "length", threshold=1))
        ana_thr = analytic_for_spec(toy_model, AlgorithmSpec("threshold", "length", threshold=1))
        for rep, want in ((ana_first, oracle["first"]), (ana_thr, oracle["threshold"])):
            assert rep.coverage_pct == pytest.approx(want[0], abs=1e-9)
            assert rep.operations_reduction == pytest.approx(want[1], abs=1e-9)
            assert rep.occupancy_reduction == pytest.approx(want[2], abs=1e-9)

        lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=11, flow_count=10 ** 6))
        layout = PacketLayout(lengths, sizes, toy_model.max_packet_size)
        for kind, want in oracle.items():
            spec = AlgorithmSpec(kind, "length", threshold=1)
            flows, trigger, total = evaluate_batch(layout, spec)
            sim = aggregate_batch(layout, flows, trigger, total)
            created, covered, occ = expand(layout, flows, trigger)
            n = len(lengths)
            cov_se = 100 * _ratio_se(covered.astype(float), sizes.astype(float))
            e = created.astype(float)
            ops_se = float(np.std(e, ddof=1) / math.sqrt(n) / np.mean(e) ** 2)
            occ_se = float(np.std(occ, ddof=1) / math.sqrt(n) / np.mean(occ) ** 2)
            assert sim.coverage_pct == pytest.approx(want[0], abs=3 * cov_se)
            assert sim.operations_reduction == pytest.approx(want[1], abs=3 * ops_se)
            assert sim.occupancy_reduction == pytest.approx(want[2], abs=3 * occ_se)
        assert time.time() - t0 < 60.0


# -- A4: analytic vs multi-seed simulation on the heavy-tail model -------------------


# Ten-point grids spanning coverage ~40..100%.  Deeper-tail parameters are
# excluded on purpose: at 1e6 flows per seed the covered-byte total there is
# carried by a handful of giant flows, so the per-seed coverage spread makes
# any fixed relative tolerance a coin flip rather than a verdict.
def _a4_grids(model):
    return [
        ("length", [AlgorithmSpec("first", "length", threshold=float(2 * 2 ** k)) for k in range(10)], 0.02),
        ("length", [AlgorithmSpec("threshold", "length", threshold=float(2 * 2 ** k)) for k in range(10)], 0.02),
        ("length", [AlgorithmSpec("sampling", "length", probability=0.5 ** k) for k in range(10)], 0.02),
        ("size", [AlgorithmSpec("first", "size", threshold=float(2 ** (9 + k))) for k in range(10)], 0.02),
        # the byte-continuum occupancy model needs thresholds well above one
        # packet; below ~2^14 B the per-packet trigger position dominates
        ("size", [AlgorithmSpec("threshold", "size", threshold=t) for t in np.geomspace(2 ** 14, 2 ** 18, 10)], 0.02),
        ("size", [AlgorithmSpec("sampling", "size", probability=p) for p in np.geomspace(2e-3, 2e-2, 10)], 0.03),
    ]


def test_a4_analytic_matches_simulation(heavytail_model, ht_population):
    detail = "10-point grids, 5 x 1e6 flows, max(3*SE, 2% rel; 3% size-scaled sampling)"
    with criterion("A4", detail):
        t0 = time.time()
        seeds = (1, 2, 3, 4, 5)
        # one layout per population, shared by every spec of every grid
        populations = [PacketLayout(*ht_population(seed), heavytail_model.max_packet_size)
                       for seed in seeds]
        worst = 0.0
        for axis, grid, rel_tol in _a4_grids(heavytail_model):
            for spec in grid:
                sims = np.array([
                    simulate(population, spec, seed)
                    for population, seed in zip(populations, seeds)
                ])
                mean = sims.mean(axis=0)
                se = sims.std(axis=0, ddof=1) / math.sqrt(len(seeds))
                ana = analytic_for_spec(heavytail_model, spec)
                want = np.array([ana.coverage_pct, ana.operations_reduction,
                                 ana.occupancy_reduction])
                tol = np.maximum(3 * se, rel_tol * np.abs(want))
                gap = np.abs(mean - want)
                assert np.all(gap <= tol), (spec, mean, want, gap, tol)
                worst = max(worst, float(np.max(gap / np.maximum(tol, 1e-300))))
        took = time.time() - t0
        print(f"  [A4] worst gap/tolerance = {worst:.3f}")
        assert took < 600.0


# -- A5: closed forms against independent high-precision evaluation ------------------


def test_a5_closed_form_properties():
    with criterion("A5", "covered-fraction sum (1e-12, all n <= 1e4) and p_total vs 50-digit oracle"):
        for p in (1e-4, 1e-2, 0.1, 0.5, 1.0):
            n = np.arange(1, 10_001, dtype=np.longdouble)
            if p == 1.0:
                brute = np.ones_like(n)
            else:
                q = np.longdouble(1.0) - np.longdouble(p)
                w = p * q ** (n - 1)                # P(first success at packet k)
                w1 = np.cumsum(w)
                w2 = np.cumsum(n * w)
                brute = ((n + 1) * w1 - w2) / n
            closed = expected_covered_fraction(p, np.arange(1, 10_001, dtype=float))
            assert float(np.max(np.abs(closed - brute.astype(float)))) < 1e-12

        mpmath.mp.dps = 50
        for p in (1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1.0):
            for n in (1, 10, 1000, 10 ** 6, 10 ** 9):
                want = float(1 - (1 - mpmath.mpf(p)) ** n)
                got = p_total(p, n)
                assert got == pytest.approx(want, rel=1e-9)


# -- A6: reduction ordering at equal coverage ----------------------------------------


def test_a6_ordering_at_equal_coverage(heavytail_model):
    with criterion("A6", "first >= threshold >= sampling at equal coverage targets"):
        t0 = time.time()
        for axis in ("length", "size"):
            for target in (50.0, 75.0, 80.0, 90.0, 95.0, 99.0):
                reductions = {}
                for kind in ("first", "threshold", "sampling"):
                    try:
                        _, rep = invert_for_coverage(heavytail_model, kind, axis, target)
                        reductions[kind] = rep
                    except UnreachableError:
                        # an algorithm that cannot even reach the coverage
                        # target cannot beat the ones that can
                        reductions[kind] = None
                chain = [reductions[k] for k in ("first", "threshold", "sampling")]
                for better, worse in zip(chain, chain[1:]):
                    if better is None or worse is None:
                        continue
                    slack = 1e-9
                    assert better.occupancy_reduction >= worse.occupancy_reduction * (1 - slack), \
                        (axis, target)
                    assert better.operations_reduction >= worse.operations_reduction * (1 - slack), \
                        (axis, target)
        assert time.time() - t0 < 60.0


# -- A7: conditional reproduction of the published agh_2015 results -------------------

# Reference simulation results for the agh_2015 traffic fit (external
# dataset; the fitted mixture file itself is not redistributable here).
# Row layout: threshold, first(cov, ops, occ), threshold-alg(cov, ops, occ),
# sampling probability, sampling(cov, ops, occ).
REFERENCE_LENGTH_TABLE = [
    (1, 99.89, 1.92, 1.92, 99.71, 1.92, 2.60, 1.00, 100.00, 1.00, 1.00),
    (2, 99.82, 2.88, 2.88, 99.52, 2.88, 4.06, 5.00e-01, 99.77, 1.41, 1.54),
    (4, 99.74, 3.89, 3.89, 99.23, 3.89, 6.16, 2.50e-01, 99.47, 2.04, 2.41),
    (8, 99.56, 5.99, 5.99, 98.77, 5.99, 10.28, 1.25e-01, 99.04, 3.00, 3.81),
    (16, 99.22, 10.40, 10.40, 98.10, 10.40, 17.71, 6.25e-02, 98.43, 4.53, 6.09),
    (32, 98.75, 17.32, 17.32, 97.16, 17.32, 29.15, 3.12e-02, 97.61, 6.93, 9.74),
    (64, 97.99, 28.33, 28.33, 95.87, 28.33, 46.66, 1.56e-02, 96.46, 10.83, 15.78),
    (128, 96.99, 44.05, 44.05, 94.16, 44.05, 73.62, 7.81e-03, 94.97, 16.95, 25.42),
    (256, 95.65, 69.57, 69.57, 91.88, 69.57, 119.93, 3.90e-03, 92.96, 26.88, 41.30),
    (512, 93.79, 115.98, 115.98, 88.88, 115.98, 198.05, 1.95e-03, 90.37, 42.21, 66.07),
    (1024, 91.44, 191.38, 191.38, 84.96, 191.38, 318.15, 9.76e-04, 86.93, 67.57, 107.39),
    (2048, 88.45, 300.49, 300.49, 79.73, 300.49, 503.95, 4.88e-04, 82.52, 105.88, 170.58),
    (4096, 84.16, 469.59, 469.59, 72.77, 469.59, 827.40, 2.44e-04, 76.41, 169.31, 276.96),
    (8192, 77.78, 775.64, 775.64, 64.01, 775.64, 1462.54, 1.22e-04, 69.26, 271.58, 453.25),
    (16384, 69.37, 1399.51, 1399.51, 53.83, 1399.51, 2834.49, 6.10e-05, 61.21, 431.17, 735.66),
    (32768, 59.27, 2794.15, 2794.15, 42.60, 2794.15, 6069.15, 3.05e-05, 50.30, 727.99, 1271.26),
    (65536, 47.29, 6201.41, 6201.41, 31.09, 6201.41, 14399.51, 1.52e-05, 40.64, 1229.39, 2197.34),
    (131072, 34.27, 15345.62, 15345.62, 20.65, 15345.62, 37977.86, 7.62e-06, 30.39, 2283.27, 4198.14),
    (262144, 22.41, 42262.61, 42262.61, 12.47, 42262.61, 111279.85, 3.81e-06, 19.61, 4994.85, 9425.16),
    (524288, 13.26, 130950.45, 130950.45, 6.84, 130950.45, 367074.49, 1.90e-06, 14.21, 8402.36, 16061.45),
    (1048576, 7.09, 456577.43, 456577.43, 3.37, 456577.43, 1365306.53, 9.53e-07, 9.95, 14669.12, 28322.65),
    (2097152, 3.37, 1799949.44, 1799949.44, 1.49, 1799949.44, 5604593.17, 4.76e-07, 6.21, 27264.93, 53215.32),
]

REFERENCE_SIZE_TABLE = [
    (64, 100.00, 1.04, 1.04, 99.90, 1.04, 1.58, 1.00, 100.00, 1.00, 1.00),
    (128, 99.95, 1.53, 1.53, 99.83, 1.53, 2.45, 5.00e-01, 99.98, 1.12, 1.14),
    (256, 99.89, 2.34, 2.34, 99.73, 2.34, 3.58, 2.50e-01, 99.90, 1.49, 1.61),
    (512, 99.82, 3.43, 3.43, 99.59, 3.43, 5.12, 1.25e-01, 99.76, 2.06, 2.38),
    (1024, 99.73, 4.76, 4.76, 99.41, 4.76, 7.23, 6.25e-02, 99.57, 2.86, 3.51),
    (2048, 99.60, 6.74, 6.74, 99.14, 6.74, 10.60, 3.12e-02, 99.32, 4.01, 5.18),
    (4096, 99.38, 10.03, 10.03, 98.77, 10.03, 15.83, 1.56e-02, 98.98, 5.67, 7.66),
    (8192, 99.10, 15.02, 15.02, 98.28, 15.02, 23.52, 7.81e-03, 98.54, 8.08, 11.32),
    (16384, 98.73, 22.18, 22.18, 97.62, 22.18, 34.87, 3.90e-03, 97.94, 11.69, 16.85),
    (32768, 98.22, 32.86, 32.86, 96.73, 32.86, 52.09, 1.95e-03, 97.14, 16.99, 25.07),
    (65536, 97.52, 49.23, 49.23, 95.53, 49.23, 78.37, 9.76e-04, 96.08, 24.87, 37.35),
    (131072, 96.58, 74.00, 74.00, 93.93, 74.00, 118.38, 4.88e-04, 94.70, 36.29, 55.38),
    (262144, 95.32, 111.45, 111.45, 91.80, 111.45, 180.52, 2.44e-04, 92.84, 53.78, 83.23),
    (524288, 93.60, 170.39, 170.39, 89.00, 170.39, 279.56, 1.22e-04, 90.43, 79.91, 125.35),
    (1048576, 91.29, 265.01, 265.01, 85.37, 265.01, 437.69, 6.10e-05, 87.36, 119.62, 189.44),
    (2097152, 88.29, 414.00, 414.00, 80.71, 414.00, 690.84, 3.05e-05, 83.22, 182.75, 292.31),
    (4194304, 84.41, 650.85, 650.85, 74.77, 650.85, 1112.19, 1.52e-05, 77.99, 275.65, 448.04),
    (8388608, 79.21, 1053.94, 1053.94, 67.30, 1053.94, 1847.74, 7.62e-06, 71.80, 415.82, 685.60),
    (16777216, 72.51, 1759.10, 1759.10, 58.24, 1759.10, 3152.64, 3.81e-06, 64.19, 659.01, 1096.09),
    (33554432, 64.46, 2945.28, 2945.28, 47.41, 2945.28, 5653.28, 1.90e-06, 53.81, 1052.41, 1793.71),
    (67108864, 53.75, 5289.09, 5289.09, 34.77, 5289.09, 11787.26, 9.53e-07, 43.64, 1804.65, 3155.34),
    (134217728, 38.69, 12142.54, 12142.54, 22.15, 12142.54, 31499.08, 4.76e-07, 32.17, 3176.87, 5777.40),
    (268435456, 23.50, 36943.89, 36943.89, 12.63, 36943.89, 102107.04, 2.38e-07, 22.36, 5640.73, 10524.92),
    (536870912, 13.20, 124827.05, 124827.05, 6.77, 124827.05, 350449.76, 1.19e-07, 14.24, 9935.61, 18946.22),
    (1073741824, 7.02, 434921.71, 434921.71, 3.33, 434921.71, 1273242.43, 5.96e-08, 10.50, 17532.00, 33966.28),
]


def _agh_model_path() -> str | None:
    candidates = [os.environ.get("FLOWTAB_AGH_MODEL"), str(MODELS / "agh_2015.json")]
    for cand in candidates:
        if cand and os.path.isfile(cand):
            return cand
    return None


def test_a7_conditional_reference_reproduction():
    path = _agh_model_path()
    if path is None:
        print("[A7] SKIP (no agh_2015 model file supplied; "
              "set FLOWTAB_AGH_MODEL or add models/agh_2015.json)")
        pytest.skip("agh_2015 model file not available")
    with criterion("A7", "reference tables within 5% (coverage >= 10%, length tail rows excluded)"):
        model = load_model(path)
        seeds = (1, 2, 3, 4, 5)
        for axis, table in (("length", REFERENCE_LENGTH_TABLE), ("size", REFERENCE_SIZE_TABLE)):
            spec = SweepSpec(
                model=model,
                axis=axis,
                thresholds=tuple(float(r[0]) for r in table),
                probabilities=tuple(float(r[7]) for r in table),
                seeds=seeds,
                flow_count=10 ** 6,
            )
            result = run_sweep(spec)
            for row in table:
                t = float(row[0])
                if axis == "length" and t >= 2 ** 19:
                    continue
                cells = {
                    "first": (result.cell("first", t).mean, row[1:4]),
                    "threshold": (result.cell("threshold", t).mean, row[4:7]),
                    "sampling": (result.cell("sampling", float(row[7])).mean, row[8:11]),
                }
                for kind, (got, want) in cells.items():
                    if want[0] < 10.0:
                        continue
                    for g, w in zip(got, want):
                        assert g == pytest.approx(w, rel=0.05), (axis, kind, t, got, want)


# -- A8: determinism of the command line under any job count --------------------------


def test_a8_cli_determinism(tmp_path, capsys):
    with criterion("A8", "identical flags give byte-identical outputs, any --jobs"):
        toy = str(MODELS / "toy_twopoint.json")
        base = ("simulate", "--model", toy, "--axis", "length",
                "--thresholds", "0,1,2", "--probabilities", "1,0.5,0.25",
                "--flows", "1e4", "--seeds", "1,2,3", "--formats", "csv,md,plot")
        outputs = []
        for tag, extra in (("a", ()), ("b", ()), ("c", ("--jobs", "3"))):
            out = tmp_path / tag
            assert cli_main(list(base) + list(extra) + ["--out", str(out)]) == 0
            outputs.append(tuple((out.parent / (out.name + sfx)).read_bytes()
                                 for sfx in (".csv", ".md", ".plot.csv")))
        capsys.readouterr()
        assert outputs[0] == outputs[1] == outputs[2]

        gen = ("generate", "--model", toy, "--flows", "1000", "--seed", "5")
        g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert cli_main(list(gen) + ["--out", str(g1)]) == 0
        assert cli_main(list(gen) + ["--out", str(g2)]) == 0
        capsys.readouterr()
        assert g1.read_bytes() == g2.read_bytes()
