"""CLI surface: subcommands, file round trips, CSV determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oligocycle
from oligocycle import (
    EncodedBatch, cap_fixed_length, decode_payload, empirical_cap, rho_peak, rho_star,
    subsequence_count,
)
from oligocycle import cli
from oligocycle.bits import bits_from_bytes
from oligocycle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_command(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--q", "4", "--rho", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 4
    assert doc["cap"] == pytest.approx(cap_fixed_length(4, 0.5), rel=1e-12)

    code, out, _ = run_cli(capsys, "capacity", "--q", "4", "--flexible")
    assert code == 0
    assert json.loads(out)["kind"] == "flexible"
    assert json.loads(out)["rho_peak"] == rho_peak(4)
    code, out, _ = run_cli(capsys, "capacity", "--q", "1", "--flexible")
    assert code == 0
    assert out == '{"q": 1, "kind": "flexible", "cap": 0.0, "rho_peak": 1.0}\n'  # not -0.0
    code, out, _ = run_cli(capsys, "capacity", "--q", "4", "--rho", "-0.0")
    assert code == 0
    assert out == '{"q": 4, "kind": "fixed-length", "rho": -0.0, "cap": 0.0}\n'  # not -0.0


def test_capacity_flexible_solves_its_root_once(capsys, monkeypatch):
    from oligocycle import capacity

    solve, calls = capacity.capacity_root_flexible, []
    monkeypatch.setattr(
        capacity, "capacity_root_flexible", lambda q: calls.append(q) or solve(q)
    )
    for q in (1, 2, 4, 64):
        calls.clear()
        code, out, _ = run_cli(capsys, "capacity", "--q", str(q), "--flexible")
        assert code == 0 and calls == [q]
        doc = json.loads(out)
        assert (doc["cap"], doc["rho_peak"]) == (capacity.cap_flexible(q), rho_peak(q))


def test_capacity_rejects_bad_domain(capsys):
    code, _, err = run_cli(capsys, "capacity", "--q", "4", "--rho", "1.5")
    assert code == 2
    assert "error:" in err
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "capacity", "--q", "100000000", "--rho", "0.5")
    assert code == 2 and "error:" in err
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "capacity", "--q", "10000000", "--flexible")
    assert code == 2 and out == "" and "error:" in err
    assert time.perf_counter() - started < 1.0


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "2", "--cycles", "4", "--length", "2")
    assert code == 0
    assert out.strip() == "4"
    code, oracle_out, _ = run_cli(
        capsys, "count", "--q", "3", "--cycles", "9", "--length", "4", "--oracle"
    )
    assert code == 0
    assert int(oracle_out) == subsequence_count(3, 9, 4)
    code, _, _ = run_cli(capsys, "count", "--q", "2", "--cycles", "3", "--length", "9")
    assert code == 2
    # the oracle's offer stream needs an alphabet
    for q, length in (("0", "1"), ("-3", "2")):
        code, out, err = run_cli(
            capsys, "count", "--q", q, "--cycles", "5", "--length", length, "--oracle"
        )
        assert code == 2 and out == "" and "error:" in err


def roundtrip(capsys, tmp_path, data, *encode_args):
    source = tmp_path / "payload.bin"
    source.write_bytes(data)
    batch_path = tmp_path / "batch.json"
    code, out, _ = run_cli(
        capsys, "encode", "--in", str(source), "--out", str(batch_path), *encode_args
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["payload_bits"] == 8 * len(data)
    restored = tmp_path / "restored.bin"
    code, _, _ = run_cli(capsys, "decode", "--in", str(batch_path), "--out", str(restored))
    assert code == 0
    assert restored.read_bytes() == data
    return batch_path


def test_encode_decode_round_trips(capsys, tmp_path):
    data = bytes(range(256)) * 3
    roundtrip(capsys, tmp_path, data, "--scheme", "base", "--q", "4")
    roundtrip(
        capsys, tmp_path, data, "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"
    )
    roundtrip(capsys, tmp_path, data, "--scheme", "multisize", "--q", "5", "--rho", "0.45")
    roundtrip(capsys, tmp_path, data, "--scheme", "balanced", "--q", "8")
    roundtrip(capsys, tmp_path, data, "--scheme", "window", "--q", "6")
    roundtrip(capsys, tmp_path, b"", "--scheme", "window", "--q", "4")


def test_encode_writes_oligo_listing_and_dna(capsys, tmp_path):
    source = tmp_path / "payload.bin"
    source.write_bytes(b"\xa5\x0f")
    listing = tmp_path / "oligos.txt"
    code, _, _ = run_cli(
        capsys,
        "encode", "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2",
        "--in", str(source), "--out", str(tmp_path / "b.json"),
        "--oligos-out", str(listing), "--dna",
    )
    assert code == 0
    lines = listing.read_text().splitlines()
    batch = json.loads((tmp_path / "b.json").read_text())
    assert len(lines) == len(batch["oligos"])
    assert all(set(line) <= set("ACGT") for line in lines)
    assert len(lines[0]) == 4

    # DNA letters only exist for the four-letter alphabet
    code, _, _ = run_cli(
        capsys,
        "encode", "--scheme", "window", "--q", "6",
        "--in", str(source), "--out", str(tmp_path / "c.json"),
        "--oligos-out", str(listing), "--dna",
    )
    assert code == 2
    assert not (tmp_path / "c.json").exists()

    # --dna renders the listing, so it needs one
    code, _, err = run_cli(
        capsys,
        "encode", "--scheme", "base", "--q", "4",
        "--in", str(source), "--out", str(tmp_path / "d.json"), "--dna",
    )
    assert code == 2 and "--oligos-out" in err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("scheme_args", [
    ("--scheme", "window", "--q", "4"),  # a few distinct blocks, each repeated many times
    ("--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"),
])
def test_oligo_listing_matches_per_oligo_text_and_dna_letters(capsys, tmp_path, scheme_args):
    source = tmp_path / "payload.bin"
    source.write_bytes(bytes(range(256)) * 2)
    listings = {}
    for dna in (False, True):
        listing = tmp_path / f"oligos-{dna}.txt"
        code, _, _ = run_cli(
            capsys, "encode", *scheme_args, "--in", str(source), "--out", str(tmp_path / "b.json"),
            "--oligos-out", str(listing), *(["--dna"] if dna else []),
        )
        assert code == 0
        listings[dna] = listing.read_bytes()
    oligos = EncodedBatch.from_json((tmp_path / "b.json").read_text()).oligos
    assert len(set(oligos)) < len(oligos)
    dna = {1: "A", 2: "C", 3: "G", 4: "T"}
    text = "".join(",".join(map(str, o.symbols)) + "\n" for o in oligos)
    letters = "".join("".join(dna[s] for s in o.symbols) + "\n" for o in oligos)
    assert listings[False] == text.encode()
    assert listings[True] == letters.encode()


@pytest.mark.parametrize("scheme_args", [
    ("--scheme", "base", "--q", "4"),
    ("--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "16"),
    ("--scheme", "multisize", "--q", "4", "--rho", "0.8"),
    ("--scheme", "balanced", "--q", "4"),
    ("--scheme", "window", "--q", "4"),
    ("--scheme", "multisize", "--q", "5", "--rho", "0.45", "--oligo-length", "12"),
    ("--scheme", "balanced", "--q", "16"),  # two-digit symbols
    ("--scheme", "base", "--q", "130", "--block-symbols", "5"),  # past one byte per symbol
])
@pytest.mark.parametrize("payload", [bytes(64), b"\x5a\xc3" * 40, bytes(range(256))])
def test_oligo_listing_is_each_oligos_text_for_every_scheme(capsys, tmp_path, scheme_args, payload):
    # the batch coders' schemes render the listing from their flat symbol buffer
    source = tmp_path / "payload.bin"
    source.write_bytes(payload)
    q4 = scheme_args[3] == "4"
    listings = {}
    for dna in (False, True) if q4 else (False,):
        listing = tmp_path / f"oligos-{dna}.txt"
        code, _, _ = run_cli(
            capsys, "encode", *scheme_args, "--in", str(source), "--out", str(tmp_path / "b.json"),
            "--oligos-out", str(listing), *(["--dna"] if dna else []),
        )
        assert code == 0
        listings[dna] = listing.read_bytes()
    batch = EncodedBatch.from_json((tmp_path / "b.json").read_text())
    assert decode_payload(batch) == bits_from_bytes(payload)
    text = "".join(",".join(map(str, o.symbols)) + "\n" for o in batch.oligos)
    assert listings[False] == text.encode()
    if q4:
        letters = "".join("".join("ACGT"[s - 1] for s in o.symbols) + "\n" for o in batch.oligos)
        assert listings[True] == letters.encode()


def test_encode_missing_scheme_parameters(capsys, tmp_path):
    source = tmp_path / "payload.bin"
    source.write_bytes(b"\x01")
    code, _, err = run_cli(
        capsys,
        "encode", "--scheme", "lookup", "--q", "4",
        "--in", str(source), "--out", str(tmp_path / "b.json"),
    )
    assert code == 2
    assert "rho" in err


def test_decode_corrupt_batch_exits_3(capsys, tmp_path):
    source = tmp_path / "payload.bin"
    source.write_bytes(b"hello world")
    batch_path = roundtrip(
        capsys, tmp_path, b"hello world", "--scheme", "window", "--q", "4"
    )
    doc = json.loads(batch_path.read_text())
    doc["oligos"][0] = "3,2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "decode", "--in", str(bad), "--out", str(tmp_path / "x.bin"))
    assert code == 3
    assert "error:" in err

    bad.write_text(batch_path.read_text()[:25])
    code, _, _ = run_cli(capsys, "decode", "--in", str(bad), "--out", str(tmp_path / "x.bin"))
    assert code == 3



def test_decode_of_a_payload_that_is_not_whole_bytes_exits_3(capsys, tmp_path):
    from oligocycle import encode_payload

    source = tmp_path / "batch.json"
    source.write_text(encode_payload("base", "101101110001", q=4).to_json())
    out = tmp_path / "x.bin"
    code, stdout, err = run_cli(capsys, "decode", "--in", str(source), "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == "error: decoded payload is not byte aligned\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("--q-list", ","), "--q-list must not be empty"),
        (("--q-list", "4", "--rho-start", ".9", "--rho-stop", ".1"),
         "rho range must satisfy 0 <= start <= stop <= 1"),
    ],
)
def test_sweep_refuses_an_empty_alphabet_list_and_a_reversed_rho_range(capsys, args, message):
    code, out, err = run_cli(capsys, "sweep", "--curve", "cap-vs-rho", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")

@pytest.mark.parametrize(
    "text",
    [
        b"[" * 100_000,
        b'{"scheme": "base", "q": 4, "rho": 0.5, "payload_bits": 8, "spec": '
        + b"[" * 100_000 + b"]" * 100_000 + b', "oligos": []}',
        b"\xff\xfe{}",
    ],
    ids=["deep-top-level", "deep-spec", "not-utf8"],
)
def test_decode_unreadable_batch_text_exits_3(capsys, tmp_path, text):
    # json.loads raises RecursionError on deep nesting, and a file that is
    # not UTF-8 fails before JSON is read; neither may escape as a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    out = tmp_path / "x.bin"
    code, _, err = run_cli(capsys, "decode", "--in", str(bad), "--out", str(out))
    assert code == 3
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
def test_encode_non_finite_rho_exits_2(capsys, tmp_path, rho):
    source = tmp_path / "payload.bin"
    source.write_bytes(b"\x5a")
    for scheme_args in (("--scheme", "lookup", "--depth", "2"), ("--scheme", "multisize")):
        code, _, err = run_cli(
            capsys,
            "encode", *scheme_args, "--q", "4", f"--rho={rho}",
            "--in", str(source), "--out", str(tmp_path / "b.json"),
        )
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), float("-inf")])
def test_decode_non_finite_rho_exits_3(capsys, tmp_path, rho):
    for encode_args in (
        ("--scheme", "multisize", "--q", "5", "--rho", "0.45"),
        ("--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"),
    ):
        batch_path = roundtrip(capsys, tmp_path, b"hello", *encode_args)
        doc = json.loads(batch_path.read_text())
        doc["rho"] = rho  # json writes NaN, Infinity, -Infinity and reads them back
        batch_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
        )
        assert code == 3
        assert "rho" in err


@pytest.mark.parametrize("rho", ["true", '"0.5"', "null", "NaN", "1e400"])
def test_decode_rho_that_is_not_a_finite_number_exits_3(capsys, tmp_path, rho):
    # a bool, a str and null are not numbers, and json reads 1e400 as inf
    batch_path = roundtrip(
        capsys, tmp_path, b"hello", "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"
    )
    text = batch_path.read_text()
    assert text.count('"rho": 0.5,') == 1
    batch_path.write_text(text.replace('"rho": 0.5,', f'"rho": {rho},'))
    code, out, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert code == 3 and out == ""
    assert "field 'rho' must be a finite number" in err


def test_decode_lookup_program_far_longer_than_its_oligos_exits_3_fast(capsys, tmp_path):
    # rho .5 over 200000 cycles asks for oligos of length 100000; the length-4
    # oligos must be turned away before anything counts that window
    batch_path = roundtrip(
        capsys, tmp_path, b"hello", "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"
    )
    doc = json.loads(batch_path.read_text())
    doc["spec"] = [[4, 200000]]
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "error:" in err


def test_decode_lookup_window_too_large_to_index_exits_3_fast(capsys, tmp_path):
    # 10000 symbols in a 10**9-cycle window: the closed-form count alone
    # would run for minutes, and the rank table would not fit in memory
    doc = {
        "scheme": "lookup", "q": 4, "rho": 1e-5, "payload_bits": 8,
        "spec": [[4, 1_000_000_000]], "oligos": [",".join(["1"] * 10_000)],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "too large" in err


def test_encode_lookup_table_past_the_cache_bound_exits_2_fast(capsys, tmp_path):
    # a depth-512 q4 table would take about 244 MiB against the 64 MiB bound
    source = tmp_path / "in.bin"
    source.write_bytes(b"x")
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "encode", "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "512",
        "--in", str(source), "--out", str(tmp_path / "batch.json"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "too large" in err


def test_decode_lookup_table_past_the_cache_bound_exits_3_fast(capsys, tmp_path):
    # one well-formed oligo that embeds in the depth-512 window it claims
    doc = {
        "scheme": "lookup", "q": 4, "rho": 0.5, "payload_bits": 8,
        "spec": [[4, 2048]], "oligos": [",".join(["1", "2", "3", "4"] * 256)],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "too large" in err


def test_decode_base_oligo_with_the_wrong_steering_symbol_exits_3(capsys, tmp_path):
    # 1,1,1,2,4 reads as the gaps 4,4,1,2 behind a steering 1, but those pass
    # the midpoint, so the encoder would have flipped them behind a 2
    batch_path = roundtrip(
        capsys, tmp_path, b"A", "--scheme", "base", "--q", "4", "--block-symbols", "4"
    )
    doc = json.loads(batch_path.read_text())
    assert doc["oligos"] == ["1,3,4,1,3"]
    doc["oligos"] = ["1,1,1,2,4"]
    batch_path.write_text(json.dumps(doc))
    out = tmp_path / "x.bin"
    code, _, err = run_cli(capsys, "decode", "--in", str(batch_path), "--out", str(out))
    assert code == 3
    assert "steering symbol" in err
    assert not out.exists()


def test_decode_trailing_oligos_exits_3(capsys, tmp_path):
    batch_path = roundtrip(capsys, tmp_path, b"hi", "--scheme", "base", "--q", "4")
    doc = json.loads(batch_path.read_text())
    assert len(doc["oligos"]) == 1
    doc["oligos"] *= 3
    batch_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("oligo", [7, None, ["1,2"], True], ids=["int", "null", "list", "bool"])
def test_decode_oligo_that_is_not_a_string_exits_3(capsys, tmp_path, oligo):
    batch_path = roundtrip(capsys, tmp_path, b"hi", "--scheme", "base", "--q", "4")
    doc = json.loads(batch_path.read_text())
    doc["oligos"].append(oligo)
    batch_path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert code == 3
    assert "field 'oligos' must be a list of strings" in err


def test_decode_balanced_huge_alphabet_exits_3_fast(capsys, tmp_path):
    # one symbol cannot hold a block of a 10**8-symbol alphabet; the bound
    # must come before the balanced parameters are searched
    doc = {
        "scheme": "balanced", "q": 100_000_000, "rho": 0.5, "payload_bits": 8,
        "spec": [[100_000_000, 0]], "oligos": ["1"],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "error:" in err


def test_decode_balanced_long_oligo_large_alphabet_exits_3_fast(capsys, tmp_path):
    # 600 symbols admit q = 1202, past the balanced limit; the flip-layout
    # check at that size would run for minutes
    doc = {
        "scheme": "balanced", "q": 1202, "rho": 0.5, "payload_bits": 8,
        "spec": [[1202, 1202]], "oligos": [",".join(map(str, range(1, 1201, 2)))],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "4..256" in err


def test_encode_balanced_large_alphabet_exits_2_fast(capsys, tmp_path):
    source = tmp_path / "in.bin"
    source.write_bytes(b"x")
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "encode", "--scheme", "balanced", "--q", "1202",
        "--in", str(source), "--out", str(tmp_path / "b.json"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "4..256" in err


def test_decode_base_oversized_block_exits_3_fast(capsys, tmp_path):
    # a well-formed block of 319,999 base-4 digits behind its steering symbol,
    # with gaps 1, 4, 2, 3 over and over: its value alone would take seconds
    # of quadratic digit work
    size = 319_999
    symbols = [1]
    for i in range(size):
        symbols.append((symbols[-1] - 1 + (1, 4, 2, 3)[i % 4]) % 4 + 1)
    doc = {
        "scheme": "base", "q": 4, "rho": 0.4, "payload_bits": 2 * size // 8 * 8,
        "spec": [[4, 5 * (size + 1) // 2]], "oligos": [",".join(map(str, symbols))],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "1..2048" in err


def test_encode_base_oversized_block_exits_2(capsys, tmp_path):
    source = tmp_path / "in.bin"
    source.write_bytes(b"x")
    code, _, err = run_cli(
        capsys, "encode", "--scheme", "base", "--q", "4", "--block-symbols", "100000",
        "--in", str(source), "--out", str(tmp_path / "b.json"),
    )
    assert code == 2
    assert "1..2048" in err


def test_decode_base_block_past_the_bit_bound_exits_3_fast(capsys, tmp_path):
    # 2048 digits of q = 10**300 behind a steering symbol, the symbols 1, 2, 3
    # over and over so that the steering check passes: a few KB of JSON whose
    # block would hold about 2 million bits, seconds of work to decode
    q = 10**300
    doc = {
        "scheme": "base", "q": q, "rho": 0.0, "payload_bits": 8,
        "spec": [[q, (q + 1) * 2049 // 2]], "oligos": [",".join(["1", "2", "3"] * 683)],
    }
    batch_path, out_path = tmp_path / "batch.json", tmp_path / "x.bin"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "decode", "--in", str(batch_path), "--out", str(out_path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "more than 65536 bits" in err
    assert not out_path.exists()


def test_decode_window_large_alphabet_exits_3_fast(capsys, tmp_path):
    # one ascending subset of 4000 of 8000 symbols: a valid block whose rank
    # sums 4000 binomials of 8000
    doc = {
        "scheme": "window", "q": 8000, "rho": 0.5, "payload_bits": 7992,
        "spec": [[8000, 8000]], "oligos": [",".join(map(str, range(1, 4001)))],
    }
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "decode", "--in", str(batch_path), "--out", str(tmp_path / "x.bin")
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "2..256" in err


def test_encode_window_large_alphabet_exits_2(capsys, tmp_path):
    source = tmp_path / "in.bin"
    source.write_bytes(b"x")
    code, _, err = run_cli(
        capsys, "encode", "--scheme", "window", "--q", "300",
        "--in", str(source), "--out", str(tmp_path / "w.json"),
    )
    assert code == 2
    assert "2..256" in err


def test_missing_input_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "encode", "--scheme", "window", "--q", "4",
        "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "b.json"),
    )
    assert code == 2
    assert "error:" in err


def test_sweep_cap_csv_is_deterministic_and_consistent(capsys):
    args = (
        "sweep", "--curve", "cap-vs-rho", "--q-list", "4,2",
        "--rho-start", "0.1", "--rho-stop", "0.9", "--rho-step", "0.1",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "q,rho,cap,entropy"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 9
    qs = [int(r[0]) for r in rows]
    assert qs == sorted(qs)
    for q, rho, cap, entropy in rows:
        assert float(cap) == pytest.approx(cap_fixed_length(int(q), float(rho)), rel=1e-9)
        assert float(cap) <= float(entropy) + 1e-9


def test_sweep_rate_rows_stay_below_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--curve", "rate-vs-rho", "--q-list", "4,8",
        "--rho-start", "0.2", "--rho-stop", "0.8", "--rho-step", "0.1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,rho,scheme,rate,cap"
    keys = []
    for line in lines[1:]:
        q, rho, scheme, rate, cap = line.split(",")
        assert float(rate) <= float(cap) + 1e-9
        keys.append((int(q), float(rho), scheme))
    assert keys == sorted(keys)


def test_sweep_rho_star_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--curve", "rho-star", "--q-list", "2,4,8,16")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "q,rho_lower,rho_star"
    for line in lines[1:]:
        q, low, star = line.split(",")
        assert float(low) < float(star)
        assert float(star) == pytest.approx(rho_star(int(q)), rel=1e-9)


def test_sweep_empirical_convergence(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--curve", "empirical-convergence", "--q-list", "2",
        "--rho-start", "0.5", "--rho-stop", "0.5", "--rho-step", "0.1",
        "--cycles-list", "10,20",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,rho,cycles,empirical,cap"
    for line in lines[1:]:
        _, _, _, empirical, cap = line.split(",")
        assert float(empirical) <= float(cap) + 1e-9
    # the binary half-density diagonal is exact at every size
    assert [line.split(",")[3] for line in lines[1:]] == ["0.5", "0.5"]


def test_sweep_cost_curve_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--curve", "cost-vs-rho", "--q-list", "4", "--format", "json",
        "--rho-start", "0.2", "--rho-stop", "0.6", "--rho-step", "0.2",
        "--alpha", "1", "--beta", "0.01", "--bits", "1e6", "--cycles", "200",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["rho"] for row in rows] == pytest.approx([0.2, 0.4, 0.6])
    assert rows[0]["cost"] == pytest.approx(200 + 1e4 * 0.5, rel=1e-12)


SWEEP_CURVES = {
    "cap-vs-rho": ("--q-list", "2,4"),
    "rate-vs-rho": ("--q-list", "4,8"),
    "rho-star": ("--q-list", "2,4,8"),
    "cost-vs-rho": ("--q-list", "4,16"),
    "empirical-convergence": ("--q-list", "2,4", "--cycles-list", "10,20"),
}


@pytest.mark.parametrize("curve", sorted(SWEEP_CURVES))
def test_sweep_json_is_the_indented_dump_of_its_rows(capsys, curve):
    code, out, _ = run_cli(
        capsys, "sweep", "--curve", curve, *SWEEP_CURVES[curve], "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows and all(rows)
    assert out == json.dumps(rows, indent=2) + "\n"


def test_sweep_json_of_an_empty_cost_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--curve", "cost-vs-rho", "--q-list", "4", "--format", "json",
        "--rho-start", "0", "--rho-stop", "0",
    )
    assert code == 0
    assert out == json.dumps([], indent=2) + "\n" == "[]\n"


def test_json_rows_respaces_only_row_boundaries():
    # strings that spell a row boundary, a newline or a brace stay escaped
    doc = [
        {"a": "},\n    {", "b": -0.0, "c": float("inf"), "d": 'é"\\{'},
        {"a": 1},
        {"x": None, "y": True, "z": "},\\n    {"},
    ]
    assert cli._json_rows(doc) == json.dumps(doc, indent=2)
    assert cli._json_rows(doc[1:2]) == json.dumps(doc[1:2], indent=2)


def test_sweep_empirical_convergence_solves_each_root_once(capsys, monkeypatch):
    calls = []

    def counted(q, rho):
        calls.append((q, rho))
        return cap_fixed_length(q, rho)

    monkeypatch.setattr(cli, "cap_fixed_length", counted)
    code, out, _ = run_cli(
        capsys,
        "sweep", "--curve", "empirical-convergence", "--q-list", "4,2",
        "--rho-start", "0.3", "--rho-stop", "0.7", "--rho-step", "0.2",
    )
    assert code == 0
    grid = cli._rho_grid(0.3, 0.7, 0.2)
    assert sorted(calls) == sorted(set(calls)) == [(q, rho) for q in (2, 4) for rho in grid]
    # the rows of one solve per row, with the default cycle list
    expected = ["q,rho,cycles,empirical,cap"] + [
        ",".join(map(cli._fmt, (q, rho, c, empirical_cap(q, c, rho), cap_fixed_length(q, rho))))
        for q in (2, 4)
        for rho in grid
        for c in (25, 50, 100, 200)
    ]
    assert out == "\n".join(expected) + "\n"


def test_cost_command(capsys):
    code, out, _ = run_cli(
        capsys, "cost", "--alpha", "1", "--beta", "0.01",
        "--bits", "1e6", "--cycles", "200", "--q", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rho_opt"] == pytest.approx(0.4, abs=1e-9)
    assert doc["cost_opt"] == pytest.approx(5200.0, rel=1e-9)
    assert doc["rho_lower"] < doc["rho_star"]

    code, out, _ = run_cli(
        capsys, "cost", "--alpha", "1", "--beta", "0.01",
        "--bits", "1e6", "--cycles", "200", "--max-q", "16",
    )
    assert code == 0
    assert json.loads(out)["q"] == 16


NON_FINITE_PRICES = [
    ("cost", "--alpha", "nan", "--beta", "1", "--bits", "1e6", "--cycles", "200", "--q", "4"),
    ("cost", "--alpha", "1", "--beta", "nan", "--bits", "1e6", "--cycles", "200", "--q", "4"),
    ("cost", "--alpha", "1", "--beta", "inf", "--bits", "1e6", "--cycles", "200", "--q", "4"),
    ("cost", "--alpha", "1", "--beta", "1", "--bits", "inf", "--cycles", "200", "--max-q", "8"),
    ("cost", "--alpha", "1", "--beta", "1", "--bits", "nan", "--cycles", "200", "--q", "4"),
    ("sweep", "--curve", "cost-vs-rho", "--q-list", "4", "--alpha", "nan", "--format", "json"),
    ("sweep", "--curve", "cost-vs-rho", "--q-list", "4", "--bits", "inf"),
]


@pytest.mark.parametrize("argv", NON_FINITE_PRICES, ids=" ".join)
def test_non_finite_prices_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err


HUGE = str(10**400)  # an integer past float range
PAST_FLOAT_RANGE = [
    ("capacity", "--q", HUGE, "--rho", ".5"),
    ("cost", "--alpha", "1", "--beta", "1", "--bits", "1e6", "--cycles", "200", "--q", HUGE),
    ("cost", "--alpha", "1", "--beta", "1", "--bits", "1e6", "--cycles", HUGE, "--q", "4"),
    ("sweep", "--curve", "rho-star", "--q-list", HUGE),
    ("sweep", "--curve", "cost-vs-rho", "--q-list", "4", "--cycles", HUGE),
    ("sweep", "--curve", "empirical-convergence", "--q-list", "4", "--cycles-list", HUGE),
    ("encode", "--scheme", "base", "--q", HUGE),
    ("encode", "--scheme", "lookup", "--q", "4", "--rho", ".5", "--depth", HUGE),
]


@pytest.mark.parametrize(
    "argv", PAST_FLOAT_RANGE, ids=lambda argv: " ".join(argv).replace(HUGE, "10**400")
)
def test_integers_past_float_range_exit_2(capsys, tmp_path, argv):
    batch = tmp_path / "batch.json"
    if argv[0] == "encode":
        source = tmp_path / "payload.bin"
        source.write_bytes(b"hi")
        argv += ("--in", str(source), "--out", str(batch))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err
    assert not batch.exists()


@pytest.mark.parametrize(
    "encode_args, field, value",
    [
        (("--scheme", "base", "--q", "4"), "q", 10**400),
        (("--scheme", "multisize", "--q", "5", "--rho", "0.45"), "q", 10**400),
        (("--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "2"), "spec", [[4, 10**400]]),
    ],
    ids=["base-q", "multisize-q", "lookup-spec"],
)
def test_decode_integer_past_float_range_exits_3(capsys, tmp_path, encode_args, field, value):
    batch_path = roundtrip(capsys, tmp_path, b"hi", *encode_args)
    doc = json.loads(batch_path.read_text())
    doc[field] = value
    batch_path.write_text(json.dumps(doc))
    out = tmp_path / "x.bin"
    code, stdout, err = run_cli(capsys, "decode", "--in", str(batch_path), "--out", str(out))
    assert code == 3 and stdout == "" and "error:" in err
    assert not out.exists()


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON does not have."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


# extreme finite inputs: prices near the float maximum and the largest alphabet
# a capacity root accepts; their products overflow
PRICES = ("--alpha", "1e308", "--beta", "1e308", "--bits", "1e300")
ZERO_BASE_PRICE = ("--alpha", "1e308", "--beta", "0", "--bits", "1e300", "--cycles", "1")
JSON_COMMANDS = [
    ("capacity", "--q", str(2**20), "--rho", "0.5"),
    ("capacity", "--q", str(2**20), "--flexible"),
    ("cost", *PRICES, "--cycles", "200", "--q", "4"),
    ("cost", *PRICES, "--cycles", "200", "--max-q", "16"),
    ("cost", *ZERO_BASE_PRICE, "--q", "4"),
    ("cost", *ZERO_BASE_PRICE, "--max-q", "16"),
    *(
        ("sweep", "--curve", curve, *SWEEP_CURVES[curve], *PRICES, "--format", "json")
        for curve in sorted(SWEEP_CURVES)
    ),
    ("sweep", "--curve", "cost-vs-rho", "--q-list", "4", *ZERO_BASE_PRICE, "--format", "json"),
]


def test_every_json_document_on_stdout_is_strict_json(capsys, tmp_path):
    source = tmp_path / "payload.bin"
    source.write_bytes(b"strict")
    batch = str(tmp_path / "batch.json")
    commands = [
        *JSON_COMMANDS,
        ("encode", "--scheme", "base", "--q", "4", "--in", str(source), "--out", batch),
        ("decode", "--in", batch, "--out", str(tmp_path / "restored.bin")),
    ]
    exits = []
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        exits.append(code)
        if code == 0:
            strict_json(out)
        else:
            assert code == 2 and out == "" and "error:" in err, argv
    # the three overflowing price sheets exit 2; every other command prints
    assert exits.count(2) == 3 and exits[-2:] == [0, 0]


def test_sweep_rejects_bad_grid(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--curve", "cap-vs-rho", "--q-list", "4", "--rho-step", "-0.1"
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--curve", "cap-vs-rho", "--q-list", "x")
    assert code == 2
    # a NaN step, a step too fine to move rho, and a billion-point grid
    for bounds in (
        ("--rho-step", "nan"),
        ("--rho-start", "0.5", "--rho-stop", "0.5", "--rho-step", "1e-300"),
        ("--rho-step", "1e-9"),
    ):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--curve", "cap-vs-rho", "--q-list", "4", *bounds)
        assert code == 2 and "error:" in err
        assert time.perf_counter() - started < 1.0


def test_module_entry_point_subprocess(tmp_path):
    # the child imports the same oligocycle as this process, installed or not
    package_root = str(Path(oligocycle.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    source = tmp_path / "payload.bin"
    source.write_bytes(b"process boundary")
    batch_path = tmp_path / "batch.json"
    encode = subprocess.run(
        [sys.executable, "-m", "oligocycle", "encode", "--scheme", "balanced", "--q", "16",
         "--in", str(source), "--out", str(batch_path)],
        capture_output=True, text=True, env=env,
    )
    assert encode.returncode == 0
    restored = tmp_path / "restored.bin"
    decode = subprocess.run(
        [sys.executable, "-m", "oligocycle", "decode", "--in", str(batch_path),
         "--out", str(restored)],
        capture_output=True, text=True, env=env,
    )
    assert decode.returncode == 0
    assert restored.read_bytes() == b"process boundary"


def test_cli_import_loads_no_numpy():
    # the CLI loads neither numpy nor dataclasses, whose imports of inspect,
    # ast, dis and tokenize cost a cold command about 12 ms; same child
    # PYTHONPATH as test_module_entry_point_subprocess
    package_root = str(Path(oligocycle.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import oligocycle.cli, sys; "
         "print(any(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')), "
         "oligocycle.__file__)"],
        capture_output=True, text=True, env=env,
    )
    assert probe.returncode == 0
    loaded, path = probe.stdout.split()
    assert Path(path).resolve() == Path(oligocycle.__file__).resolve()
    assert loaded == "False"
