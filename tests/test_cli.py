"""CLI surface: subcommands, file round trips, CSV determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oligocycle
from oligocycle import cap_fixed_length, rho_star, subsequence_count
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


def test_capacity_rejects_bad_domain(capsys):
    code, _, err = run_cli(capsys, "capacity", "--q", "4", "--rho", "1.5")
    assert code == 2
    assert "error:" in err


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


def test_sweep_rejects_bad_grid(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--curve", "cap-vs-rho", "--q-list", "4", "--rho-step", "-0.1"
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--curve", "cap-vs-rho", "--q-list", "x")
    assert code == 2


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
