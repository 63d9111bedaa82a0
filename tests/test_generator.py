from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtab.generator import (
    MIN_UNIFORM,
    SHARD_SIZE,
    GeneratorConfig,
    _read_rows,
    _rng,
    generate_arrays,
    read_flow_csv,
    write_flow_csv,
)
from flowtab.cli import main
from flowtab.model import parse_model
from oracle import FlowRecord, PacketizeError, packetize


# -- packetize -------------------------------------------------------------


@pytest.mark.parametrize(
    "length,size,expected",
    [
        (3, 10, [3, 3, 4]),
        (1, 64, [64]),
        (4, 100, [25, 25, 25, 25]),
    ],
)
def test_packetize_even_split(length, size, expected):
    assert packetize(FlowRecord(length, size)) == expected


def test_packetize_spreads_oversized_remainder():
    # base + remainder would exceed the packet ceiling; spread one byte back
    sizes = packetize(FlowRecord(3, 4553))
    assert sizes == [1517, 1518, 1518]
    assert sum(sizes) == 4553


def test_packetize_bounds():
    with pytest.raises(PacketizeError):
        packetize(FlowRecord(2, 2 * 1518 + 1))
    with pytest.raises(ValueError):
        FlowRecord(3, 2)


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=2000),
    per_packet=st.floats(min_value=1.0, max_value=1518.0),
)
def test_packetize_conserves_bytes(length, per_packet):
    size = min(max(int(length * per_packet), length), length * 1518)
    sizes = packetize(FlowRecord(length, size))
    assert len(sizes) == length
    assert sum(sizes) == size
    assert min(sizes) >= 1 and max(sizes) <= 1518


# -- sampling / population ----------------------------------------------------


def test_sample_flow_toy(toy_model):
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=3, flow_count=200))
    assert set(lengths.tolist()) == {1, 10}
    assert np.array_equal(sizes, 100 * lengths)


def test_sample_flow_point_mass_model():
    import json

    from flowtab.model import parse_model

    doc = {
        "name": "pm",
        "axes": {
            "length": {
                w: {"components": [{"kind": "uniform", "weight": 1.0,
                                    "params": {"low": 0.5, "high": 1.0}}], "domain_min": 1}
                for w in ("flows", "packets", "octets")
            },
            "size": {
                w: {"components": [{"kind": "uniform", "weight": 1.0,
                                    "params": {"low": 63.2, "high": 64.0}}], "domain_min": 60}
                for w in ("flows", "packets", "octets")
            },
        },
    }
    model = parse_model(json.dumps(doc))
    lengths, sizes = generate_arrays(model, GeneratorConfig(seed=11, flow_count=50))
    assert np.all(lengths == 1) and np.all(sizes == 64)


def test_generate_deterministic(toy_model):
    cfg = GeneratorConfig(seed=1, flow_count=10_000)
    a1, s1 = generate_arrays(toy_model, cfg)
    a2, s2 = generate_arrays(toy_model, cfg)
    assert np.array_equal(a1, a2) and np.array_equal(s1, s2)


def test_generate_population_matches_arrays(heavytail_model):
    # flow by flow, from the shard's own stream: one uniform drives both
    # quantiles, then the size is clamped to [64, 1518] bytes per packet
    cfg = GeneratorConfig(seed=9, flow_count=SHARD_SIZE + 77)
    lengths, sizes = generate_arrays(heavytail_model, cfg)
    for shard, count in ((0, SHARD_SIZE), (1, 77)):
        rng = _rng(cfg.seed, shard)
        for i in range(shard * SHARD_SIZE, shard * SHARD_SIZE + count, 97):
            u = max(rng.random(), MIN_UNIFORM)
            length = int(heavytail_model.length_axis.flows.quantile(u))
            size = int(heavytail_model.size_axis.flows.quantile(u))
            size = min(max(size, 64 * length), 1518 * length)
            assert (lengths[i], sizes[i]) == (length, size), i
            rng.random(96)  # skip to the next checked flow


# sha256 of lengths.tobytes() + sizes.tobytes() at seed 1 and 2^20 flows,
# pinned while quantiles were still bisected on both axes (and on the size
# axis rounded up from a float): the survival-table lookup must draw the
# same populations
POPULATION_SHA256 = {
    "toy": "a81d82076f6e9dc96c3e5d34078a3df1127d9fd863ff0e10628dc907d9082d71",
    "heavytail": "e943e13b914dfdaa2ebc49f064289b60fc10bb338908ad3c9f26ce17ee2e6132",
}


@pytest.mark.parametrize("name", sorted(POPULATION_SHA256))
def test_generate_digest_and_length_quantile_definition(name, toy_model, heavytail_model):
    model = toy_model if name == "toy" else heavytail_model
    cfg = GeneratorConfig(seed=1, flow_count=2 ** 20)
    lengths, sizes = generate_arrays(model, cfg)
    digest = hashlib.sha256(lengths.tobytes() + sizes.tobytes()).hexdigest()
    assert digest == POPULATION_SHA256[name]
    # every length is the smallest integer k with cdf(k) >= u
    u = np.concatenate([
        np.maximum(_rng(cfg.seed, shard).random(SHARD_SIZE), MIN_UNIFORM)
        for shard in range(cfg.flow_count // SHARD_SIZE)
    ])
    flows = model.length_axis.flows
    k = lengths.astype(float)
    assert np.all(flows.cdf(k) >= u)
    assert np.all((flows.cdf(k - 1.0) < u) | (k == flows.domain_min))
    # every size is the smallest integer s with cdf(s) >= u, unless clamped:
    # a low clamp only raises the draw and a high clamp only lowers it
    flows = model.size_axis.flows
    s = sizes.astype(float)
    assert np.all((flows.cdf(s) >= u) | (s == k * model.max_packet_size))
    assert np.all((flows.cdf(s - 1.0) < u) | (s == flows.domain_min)
                  | (s == k * cfg.min_packet))


# the same at flow counts that end in a partial shard, pinned before each
# shard's uniforms were drawn into its sizes slice and its quantiles written
# in place
PARTIAL_SHARD_SHA256 = {
    ("heavytail", 65537): "34d9fbe7870ce6106d2d643218f605a8e18538a82774fee196b20f17f24ada8e",
    ("heavytail", 150001): "b91629074b52364ee8a978528ebca42e04741fd09b126e9e751c254675887eb7",
    ("toy", 65537): "373b20bd3716f89bc689a1dfc91ddcc9c476f2147cdbe25cf23510daaea5a1de",
    ("toy", 150001): "5bb73936791f84187dcd6409400707f1dd1b7c27d9bc3ef80bfcd67d7f297786",
}


@pytest.mark.parametrize("name, flows", sorted(PARTIAL_SHARD_SHA256))
def test_generate_digest_at_a_partial_shard(name, flows, toy_model, heavytail_model):
    model = toy_model if name == "toy" else heavytail_model
    lengths, sizes = generate_arrays(model, GeneratorConfig(seed=1, flow_count=flows))
    digest = hashlib.sha256(lengths.tobytes() + sizes.tobytes()).hexdigest()
    assert digest == PARTIAL_SHARD_SHA256[name, flows]


def shape5_document(toy_document, axis, location, scale):
    # generalized-Pareto of shape 5 on every weighting of one axis; its mean
    # diverges, so the declared averages carry the model
    doc = json.loads(json.dumps(toy_document))
    for mix in doc["axes"][axis].values():
        mix["components"] = [{"kind": "generalized-pareto", "weight": 1.0,
                              "params": {"shape": 5.0, "location": location, "scale": scale}}]
    return doc


def test_size_draws_past_int64_clamp_high(toy_document):
    # about 3 in 10^4 size draws exceed 2^63 bytes; they land on the high clamp
    model = parse_model(json.dumps(shape5_document(toy_document, "size", 64.0, 64.0)))
    cfg = GeneratorConfig(seed=3, flow_count=SHARD_SIZE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lengths, sizes = generate_arrays(model, cfg)
    u = np.maximum(_rng(cfg.seed, 0).random(SHARD_SIZE), MIN_UNIFORM)
    draws = model.size_axis.flows.quantile(u)
    assert np.count_nonzero(draws >= 2.0 ** 63) >= 5
    assert np.array_equal(sizes, np.clip(draws, 64 * lengths, 1518 * lengths).astype(np.int64))
    assert np.all((64 * lengths <= sizes) & (sizes <= 1518 * lengths))
    assert np.array_equal(sizes[draws >= 2.0 ** 63], 1518 * lengths[draws >= 2.0 ** 63])


def test_shape5_quantile_stops_at_adjacent_floats(toy_document):
    # shape-5 quantiles pass 2^53, where floats are sparser than the
    # integers: the bisection past the survival table returns the float
    # whose predecessor still falls short of u
    mix = parse_model(json.dumps(shape5_document(toy_document, "size", 64.0, 64.0))).size_axis.flows
    u = 1.0 - 2.0 ** -np.arange(20.0, 54.0)
    q = mix.quantile(u)
    assert q.max() > 2.0 ** 53
    below = np.where(q > 2.0 ** 53, np.nextafter(q, 0.0), q - 1.0)
    assert np.all(mix.cdf(q) >= u)
    assert np.all(mix.cdf(below) < u)


def test_length_draw_past_int64_is_rejected(toy_document, tmp_path, capsys):
    doc = shape5_document(toy_document, "length", 0.5, 1.0)
    with pytest.raises(ValueError, match=r"length draw [0-9.e+]+ packets"):
        generate_arrays(parse_model(json.dumps(doc)),
                        GeneratorConfig(seed=3, flow_count=SHARD_SIZE))
    path = tmp_path / "shape5.json"
    path.write_text(json.dumps(doc))
    code = main(["generate", "--model", str(path), "--flows", str(SHARD_SIZE),
                 "--seed", "3", "--out", str(tmp_path / "flows.csv")])
    error = json.loads(capsys.readouterr().out)["errors"][0]
    assert code == 2 and error["type"] == "ValueError"
    assert error["message"].startswith("length draw ")
    assert not (tmp_path / "flows.csv").exists()


def test_generate_prefix_stability(toy_model):
    # a longer run extends a shorter one without disturbing earlier shards
    short = generate_arrays(toy_model, GeneratorConfig(seed=4, flow_count=1000))
    long = generate_arrays(toy_model, GeneratorConfig(seed=4, flow_count=SHARD_SIZE + 500))
    assert np.array_equal(short[0], long[0][:1000])
    assert np.array_equal(short[1], long[1][:1000])


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=1, flow_count=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        GeneratorConfig(seed=-1, flow_count=10)


@pytest.mark.parametrize("setting", [{"seed": 1.5}, {"flow_count": 10.0}, {"min_packet": 64.5},
                                     {"seed": True}, {"flow_count": True}, {"min_packet": True}])
def test_generation_settings_must_be_integers(setting):
    # refused when built: not later in SeedSequence or np.empty, nor truncated in the size clamp
    ((name, value),) = setting.items()
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        GeneratorConfig(**{"seed": 1, "flow_count": 10, **setting})


def test_generation_settings_may_be_numpy_integers(toy_model):
    numpy_ints = GeneratorConfig(seed=np.int64(4), flow_count=np.int32(1000), min_packet=np.uint8(64))
    want = generate_arrays(toy_model, GeneratorConfig(seed=4, flow_count=1000, min_packet=64))
    got = generate_arrays(toy_model, numpy_ints)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_toy_long_flow_share_within_binomial_ci(toy_model):
    lengths, _ = generate_arrays(toy_model, GeneratorConfig(seed=42, flow_count=10 ** 6))
    share = float(np.mean(lengths == 10))
    assert share == pytest.approx(0.5, abs=0.002)


def test_empirical_length_cdf_close_to_model(heavytail_model, ht_population):
    lengths, _ = ht_population(1)
    n = len(lengths)
    support = np.unique(lengths)
    empirical = np.searchsorted(np.sort(lengths), support, side="right") / n
    model_cdf = heavytail_model.length_axis.flows.cdf(support.astype(float))
    ks = float(np.max(np.abs(empirical - model_cdf)))
    assert ks <= 0.005
    assert ks <= 1.63 / np.sqrt(n)  # 99% Kolmogorov band


def test_empirical_size_cdf_close_to_model(heavytail_model, ht_population):
    _, sizes = ht_population(1)
    # clamping only moves mass below 64 B; compare on the untouched range
    grid = np.geomspace(256, 1e9, 200)
    empirical = np.searchsorted(np.sort(sizes), grid, side="right") / len(sizes)
    model_cdf = heavytail_model.size_axis.flows.cdf(grid)
    assert float(np.max(np.abs(empirical - model_cdf))) <= 0.005


def test_comonotone_coupling_is_rank_perfect(heavytail_model):
    lengths, sizes = generate_arrays(heavytail_model, GeneratorConfig(seed=2, flow_count=20_000))
    order = np.argsort(lengths, kind="stable")
    # sizes sorted by length must be monotone across distinct length values
    by_length = {}
    for l, s in zip(lengths[order], sizes[order]):
        by_length.setdefault(int(l), []).append(int(s))
    maxima = [max(v) for _, v in sorted(by_length.items())]
    minima = [min(v) for _, v in sorted(by_length.items())]
    assert all(maxima[i] <= minima[i + 1] + 1 for i in range(len(maxima) - 1))


def test_clamp_statistics_reported(heavytail_model):
    # the clamp shows in the population: flows on the envelope's edges
    lengths, sizes = generate_arrays(heavytail_model, GeneratorConfig(seed=3, flow_count=50_000))
    assert 0.15 < np.mean(sizes == 64 * lengths) < 0.35
    assert np.mean(sizes == 1518 * lengths) < 1e-3
    assert np.all(sizes >= 64 * lengths)


def test_flow_csv_round_trip(tmp_path, toy_model):
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=5, flow_count=500))
    path = tmp_path / "flows.csv"
    write_flow_csv(str(path), lengths, sizes)
    back_l, back_s = read_flow_csv(str(path), 1518)
    assert np.array_equal(lengths, back_l) and np.array_equal(sizes, back_s)
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError):
        read_flow_csv(str(bad), 1518)
    # a row that cannot split into packets of at most max_packet_size bytes
    bad.write_text("length_packets,size_bytes\n1,100\n2,3037\n")
    with pytest.raises(ValueError, match="row 3: flow of 2 packets and 3037 bytes"):
        read_flow_csv(str(bad), 1518)
    # rows of other than two integer fields
    for row in ("3", "1,100,7", "1,1e2"):
        bad.write_text(f"length_packets,size_bytes\n1,100\n{row}\n")
        with pytest.raises(ValueError, match="row 3: expected two integer fields"):
            read_flow_csv(str(bad), 1518)


def piped(data: bytes, read):
    """read's result on a pipe fed data, named by its /dev/fd path."""
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


def test_flow_csv_is_read_whole_through_a_pipe(tmp_path, toy_model):
    # a pipe, such as a shell's <(zcat flows.csv.gz), can be read only once:
    # every row must come through the handle that read the header, whether
    # the bulk parse takes the file, the row loop takes a file the bulk
    # parse refuses, or the row loop names a bad row
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=5, flow_count=20000))
    dump = tmp_path / "flows.csv"
    write_flow_csv(str(dump), lengths, sizes)
    back_l, back_s = piped(dump.read_bytes(), lambda path: read_flow_csv(path, 1518))
    assert np.array_equal(lengths, back_l) and np.array_equal(sizes, back_s)

    quoted = (HEADER + '"1","100"\n10,1000\n').encode()
    dump.write_bytes(quoted)
    by_path = read_flow_csv(str(dump), 1518)
    back = piped(quoted, lambda path: read_flow_csv(path, 1518))
    assert all(np.array_equal(a, b) for a, b in zip(back, by_path))

    def error(path):
        with pytest.raises(ValueError) as excinfo:
            read_flow_csv(path, 1518)
        return str(excinfo.value)

    bad = (HEADER + "1,100\n2,3037\n").encode()
    dump.write_bytes(bad)
    message = "row 3: flow of 2 packets and 3037 bytes does not split into packets of 1..1518 bytes"
    assert error(str(dump)) == f"{dump}: {message}"
    assert piped(bad, error).endswith(f": {message}")


HEADER = "length_packets,size_bytes\n"


@pytest.mark.parametrize("body, bulk", [
    ("1,100\r\n10,1000\r\n", True),       # CRLF
    ("1,100\n\n10,1000\n\n", True),        # blank lines
    ('"1","100"\n10,1000\n', False),       # quoted fields
    (" 1, 100\n10 ,1000 \n", True),         # surrounding spaces
    ("+1,+100\n10,1000\n", True),           # explicit sign
    ("1_000,100_000\n10,1000\n", False),   # digit separators
])
def test_bulk_reader_matches_row_loop(tmp_path, monkeypatch, body, bulk):
    path = tmp_path / "flows.csv"
    path.write_bytes((HEADER + body).encode())
    with open(path, "r", newline="", encoding="utf-8") as fh:
        expected = _read_rows(fh, str(path), 1518)
    if bulk:  # the bulk parse takes these files whole, without the row loop
        monkeypatch.setattr("flowtab.generator._read_rows", None)
    lengths, sizes = read_flow_csv(str(path), 1518)
    assert lengths.dtype == sizes.dtype == np.int64
    assert lengths.flags.c_contiguous and sizes.flags.c_contiguous
    assert np.array_equal(lengths, expected[0]) and np.array_equal(sizes, expected[1])


@pytest.mark.parametrize("text, message", [
    (HEADER + "1,100\n3,300 # x\n", "row 3: expected two integer fields, got ['3', '300 # x']"),
    (HEADER + "1,100\n3\n", "row 3: expected two integer fields, got ['3']"),
    (HEADER + "1,100\n1,100,7\n", "row 3: expected two integer fields, got ['1', '100', '7']"),
    (HEADER + "1,100\n2,3037\n",
     "row 3: flow of 2 packets and 3037 bytes does not split into packets of 1..1518 bytes"),
    (HEADER, "no flows"),
    ("\ufeff" + HEADER + "1,100\n", "expected header length_packets,size_bytes"),
    # length * max_packet_size must fit int64, as generate_arrays requires
    (HEADER + "1,100\n99999999999999999999,99999999999999999999\n",
     "row 3: flow of 99999999999999999999 packets: flows of up to 1518 B per packet "
     "overflow int64 byte counts"),
    (HEADER + "1,100\n6076006101006101,6076006101006101\n",
     "row 3: flow of 6076006101006101 packets: flows of up to 1518 B per packet "
     "overflow int64 byte counts"),
])
def test_read_flow_csv_rejects_with_row_message(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_flow_csv(str(path), 1518)
    assert str(excinfo.value) == f"{path}: {message}"
