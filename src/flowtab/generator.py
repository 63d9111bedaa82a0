"""Deterministic, seedable generation of synthetic flow populations.

Flows are drawn by inverse transform from the model's flow-weighted
mixtures, whose quantiles are integers on both axes.  A single uniform
variate drives both the length and the size quantile (comonotone
coupling), which gives perfect rank correlation between flow length and
flow size.  The population is produced in fixed-size shards, each with its
own seed-derived RNG stream, so serial and parallel runs yield
bit-identical output.  Each shard is drawn and resolved in its slices of
the outputs, beside which generation holds a few blocks of flows.
"""
from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .algorithms import _blocks
from .model import TrafficModel

__all__ = ["GeneratorConfig", "generate_arrays", "write_flow_csv", "read_flow_csv"]

SHARD_SIZE = 65536
MIN_UNIFORM = 2.0 ** -53  # rng.random() may return 0.0 exactly; quantile(0) is the domain floor
CLAMP_BLOCK = 2 ** 13  # flows per block of the size clamp: its float64 temporaries are 64 KiB

_HEADER = ["length_packets", "size_bytes"]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    flow_count: int
    min_packet: int = 64

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # each setting is an integer
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        if self.min_packet < 1:
            raise ValueError("min_packet must be >= 1 byte")


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The PCG64 stream of a seed and a spawn key: a shard's index, or a sampling cell's."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def _generate_shard(model: TrafficModel, config: GeneratorConfig, shard_index: int,
                    lengths: np.ndarray, sizes: np.ndarray) -> None:
    """Fill one shard's int64 slices of the population: the uniforms are drawn
    into sizes, the quantiles written over lengths and them, then cast in place."""
    u, drawn = sizes.view(np.float64), lengths.view(np.float64)
    _rng(config.seed, shard_index).random(out=u)
    np.maximum(u, MIN_UNIFORM, out=u)
    model.length_axis.flows.quantile(u, out=drawn)
    model.size_axis.flows.quantile(u, out=u)
    for _, b in _blocks(len(u), CLAMP_BLOCK):
        # in float, so that a size draw past the int64 range lands on the high clamp
        lo, hi = drawn[b] * float(config.min_packet), drawn[b] * float(model.max_packet_size)
        over = hi >= 2.0 ** 63
        if over.any():
            raise ValueError(f"length draw {drawn[b][over][0]:.6g} packets: flows of up to "
                             f"{model.max_packet_size} B per packet overflow int64 byte counts")
        sizes[b] = np.clip(u[b], lo, hi, out=lo)
        lengths[b] = drawn[b]


def generate_arrays(model: TrafficModel, config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Full population as (lengths, sizes) int64 arrays.

    Bit-identical for identical (seed, flow_count) regardless of how the
    work is scheduled: shard i always covers flows [i*SHARD_SIZE, ...).
    A min_packet above the model's max_packet_size leaves no size to clamp
    to and is a ValueError.
    """
    if config.min_packet > model.max_packet_size:
        raise ValueError(f"min_packet {config.min_packet} B exceeds the model's "
                         f"max_packet_size {model.max_packet_size} B")
    lengths, sizes = np.empty((2, config.flow_count), dtype=np.int64)
    for shard, (_, block) in enumerate(_blocks(config.flow_count, SHARD_SIZE)):
        _generate_shard(model, config, shard, lengths[block], sizes[block])
    return lengths, sizes


def write_flow_csv(path: str, lengths: np.ndarray, sizes: np.ndarray) -> None:
    """Dump a population as ``length_packets,size_bytes`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        writer.writerows(zip(lengths.tolist(), sizes.tolist()))


def read_flow_csv(path: str, max_packet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Ingest a flow dump produced by write_flow_csv (or a compatible tool).

    Every flow must split into packets of 1..max_packet_size bytes, and its
    largest byte count, length * max_packet_size, must fit int64.  The rows,
    quoted or not, parse in bulk into a table whose two columns are copied
    out and checked a block at a time; a file the bulk parse does not take
    whole goes through the row loop, which names its first bad row.  Both
    read the handle that read the header: a pipe, such as a shell's <(zcat
    ...), can be read only once, so its text is kept in memory.
    """
    rows = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        regular = os.path.isfile(path)
        src = fh if regular else io.StringIO(fh.read(), newline="")
        if next(csv.reader(src), None) == _HEADER:
            try:
                with warnings.catch_warnings():
                    # numpy warns on a file without rows, which the row loop names
                    warnings.simplefilter("error")
                    # loadtxt parses a regular file faster by its path
                    rows = np.loadtxt(path if regular else src, delimiter=",", dtype=np.int64,
                                      comments=None, quotechar='"', ndmin=2,
                                      skiprows=int(regular), encoding="utf-8")
            except (ValueError, Warning):
                pass
        if rows is not None and rows.shape[1] == 2:
            lengths, sizes = rows[:, 0].copy(), rows[:, 1].copy()
            longest = (2 ** 63 - 1) // max_packet_size  # masks the overflowing products
            if all(np.all((l <= longest) & (l >= 1) & (s >= l) & (s <= l * max_packet_size))
                   for l, s in ((lengths[b], sizes[b]) for _, b in _blocks(len(lengths)))):
                return lengths, sizes
        src.seek(0)
        return _read_rows(src, path, max_packet_size)


def _read_rows(fh, path: str, max_packet_size: int) -> tuple[np.ndarray, np.ndarray]:
    flows, reader = [], csv.reader(fh)
    if next(reader, None) != _HEADER:
        raise ValueError(f"{path}: expected header length_packets,size_bytes")
    for row in reader:
        if not row:
            continue
        try:
            l, s = map(int, row)  # a row of other than two fields too
        except ValueError:
            raise ValueError(
                f"{path}: row {reader.line_num}: expected two integer fields, got {row}"
            ) from None
        if l * max_packet_size >= 2 ** 63:
            raise ValueError(
                f"{path}: row {reader.line_num}: flow of {l} packets: flows of up to "
                f"{max_packet_size} B per packet overflow int64 byte counts"
            )
        if l < 1 or s < l or s > l * max_packet_size:
            raise ValueError(
                f"{path}: row {reader.line_num}: flow of {l} packets and {s} bytes "
                f"does not split into packets of 1..{max_packet_size} bytes"
            )
        flows.append((l, s))
    if not flows:
        raise ValueError(f"{path}: no flows")
    return tuple(np.asarray(column, dtype=np.int64) for column in zip(*flows))
