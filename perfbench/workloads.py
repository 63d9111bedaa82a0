"""The benchmark's workloads: which flowtab CLI calls each one times.

All three use the shipped heavy-tail model and take the benchmark seed S.
Load comes from one process; ``--jobs`` is at most the CPU count.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

MODEL = "models/example_heavytail.json"
FORMATS = "csv,md,plot"
SUFFIXES = {"csv": ".csv", "md": ".md", "plot": ".plot.csv"}
SIMULATE_LENGTH_FLOWS = 262144
REPLAY_FLOWS = 524288
REPLAY_SEEDS = 3
ANALYZE_AXES = ("length", "size")
ALGORITHMS = ("first", "threshold", "sampling")
FLOW_BYTES = 16  # one int64 length and one int64 size per flow


@dataclass(frozen=True)
class Plan:
    """What one run of a workload does, with paths under its work directory."""

    setup: list[list[str]]      # CLI calls made once, before anything is timed
    commands: list[list[str]]   # CLI calls timed together in each iteration
    outputs: dict[str, str]     # output name -> path, checked and hashed
    work: int                   # flow x seed x cell evaluations, or inversions
    kind: str                   # "simulate" or "analyze"
    axis: str                   # simulate: the swept axis
    flows: int                  # flows per seed (simulate)
    seeds: tuple[int, ...]
    jobs: int
    targets: tuple[str, ...] = ()


def jobs() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def cells(axis: str) -> int:
    """Default sweep size: 22 (length) or 25 (size) points per algorithm."""
    return len(ALGORITHMS) * (22 if axis == "length" else 25)


def analyze_targets(seed: int) -> tuple[str, ...]:
    """The 5, 10, ..., 95 grid, shifted down by a seeded offset in [0, 2.5)
    percentage points so that each seed inverts other targets, plus the
    fixed high-coverage targets 99 and 99.9."""
    offset = random.Random(seed).randrange(2500)
    grid = [f"{(5000 * k - offset) / 1000:g}" for k in range(1, 20)]
    return tuple(grid + ["99", "99.9"])


def _simulate(model: str, axis: str, out: str, seeds, flows_arg: list[str]) -> list[str]:
    return ["simulate", "--model", model, *flows_arg, "--axis", axis,
            "--seeds", ",".join(str(s) for s in seeds), "--jobs", str(jobs()),
            "--formats", FORMATS, "--out", out]


def _outputs(prefix: str) -> dict[str, str]:
    return {fmt: prefix + suffix for fmt, suffix in SUFFIXES.items()}


def plan(name: str, seed: int, root: str, work: str, iteration: str) -> Plan:
    """The calls of one run; ``iteration`` names the output directory of
    one timed iteration so that iterations can be compared byte for byte."""
    model = os.path.join(root, MODEL)
    out_dir = os.path.join(work, iteration)
    if name == "simulate-length":
        prefix = os.path.join(out_dir, "sim")
        return Plan(
            setup=[],
            commands=[_simulate(model, "length", prefix, (seed,),
                                ["--flows", str(SIMULATE_LENGTH_FLOWS)])],
            outputs=_outputs(prefix),
            work=SIMULATE_LENGTH_FLOWS * cells("length"),
            kind="simulate", axis="length", flows=SIMULATE_LENGTH_FLOWS,
            seeds=(seed,), jobs=jobs(),
        )
    if name == "replay-size":
        population = os.path.join(work, "population.csv")
        seeds = tuple(seed + i for i in range(REPLAY_SEEDS))
        prefix = os.path.join(out_dir, "sim")
        return Plan(
            setup=[["generate", "--model", model, "--flows", str(REPLAY_FLOWS),
                    "--seed", str(seed), "--out", population]],
            commands=[_simulate(model, "size", prefix, seeds, ["--flows-csv", population])],
            outputs=_outputs(prefix),
            work=REPLAY_FLOWS * len(seeds) * cells("size"),
            kind="simulate", axis="size", flows=REPLAY_FLOWS,
            seeds=seeds, jobs=jobs(),
        )
    if name == "analyze":
        targets = analyze_targets(seed)
        commands, outputs = [], {}
        for axis in ANALYZE_AXES:
            prefix = os.path.join(out_dir, f"analyze-{axis}")
            commands.append(["analyze", "--model", model, "--axis", axis,
                             "--coverages", ",".join(targets), "--out", prefix])
            outputs[axis] = prefix + ".analytic.csv"
        return Plan(
            setup=[], commands=commands, outputs=outputs,
            work=len(targets) * len(ALGORITHMS) * len(ANALYZE_AXES),
            kind="analyze", axis="", flows=0, seeds=(seed,), jobs=1, targets=targets,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("simulate-length", "replay-size", "analyze")
