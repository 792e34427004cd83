"""Bit utilities, the base and lookup and window schemes, and batch JSON."""

import itertools
import json
import random

import pytest

from oligocycle import (
    CorruptDataError,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    base_decode,
    base_encode,
    decode_payload,
    encode_payload,
    lookup_encode,
    min_cycles_under,
    rate_table,
    subsequence_count,
    synthesis_cycles,
    window_encode,
)
from oligocycle.bits import (
    bits_from_bytes,
    bits_from_int,
    bytes_from_bits,
    gray_decode,
    gray_encode,
    int_from_bits,
    project,
)


def random_bits(rng, count):
    return "".join(rng.choice("01") for _ in range(count))


# --- bit helpers ---


def test_bytes_round_trip():
    assert bits_from_bytes(b"\x00\xff\x81") == "00000000" + "11111111" + "10000001"
    rng = random.Random(5)
    for _ in range(20):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        assert bytes_from_bits(bits_from_bytes(data)) == data
    with pytest.raises(DomainError):
        bytes_from_bits("0101010")


def test_int_round_trip():
    assert int_from_bits("") == 0
    assert int_from_bits("101") == 5
    assert bits_from_int(5, 3) == "101"
    assert bits_from_int(0, 0) == ""
    assert bits_from_int(3, 6) == "000011"
    with pytest.raises(DomainError):
        bits_from_int(8, 3)
    with pytest.raises(DomainError):
        int_from_bits("10a")


def test_gray_code_round_trip_and_adjacency():
    for value in range(256):
        assert gray_decode(gray_encode(value)) == value
    for value in range(255):
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert diff.bit_count() == 1


def test_project():
    assert project(("a", "b", "c", "d"), "0110") == ("b", "c")
    assert project((1, 2, 3), "000") == ()
    with pytest.raises(DomainError):
        project((1, 2), "1")


# --- base scheme ---


def test_base_encode_known_values():
    assert base_encode(3, Oligo((3, 3), 3)).symbols == (2, 3, 1)
    assert base_encode(4, Oligo((4, 4, 4), 4)).symbols == (2, 3, 4, 1)
    assert base_encode(4, Oligo((1, 1), 4)).symbols == (1, 2, 3)
    assert base_encode(2, Oligo((), 2)).symbols == (1,)


def test_base_round_trip_and_budget_exhaustive():
    for q in (2, 3, 4):
        for length in range(0, 6):
            budget = (q + 1) * (length + 1) // 2
            seen = set()
            for symbols in itertools.product(range(1, q + 1), repeat=length):
                info = Oligo(symbols, q)
                out = base_encode(q, info)
                assert len(out) == length + 1
                assert synthesis_cycles(out) <= budget
                assert base_decode(q, out) == info
                assert out.symbols not in seen
                seen.add(out.symbols)


def test_base_decode_rejects_garbage():
    with pytest.raises(CorruptDataError):
        base_decode(4, Oligo((), 4))
    with pytest.raises(CorruptDataError):
        base_decode(4, Oligo((3, 1, 2), 4))


def test_base_batch_round_trip():
    rng = random.Random(11)
    for q, block in ((2, 5), (4, 32), (7, 10)):
        for count in (0, 1, 63, 301):
            bits = random_bits(rng, count)
            batch = encode_payload("base", bits, q=q, block_symbols=block)
            assert decode_payload(batch) == bits
            for oligo in batch.oligos:
                assert len(oligo) == block + 1
                need = min_cycles_under(batch.spec, oligo)
                assert need is not None and need <= batch.spec.total_cycles


def test_base_decode_rejects_oligo_outside_its_program():
    # 33 ones read as 32 gaps of 4 (all-ones data), but they need 1 + 32*4 = 129
    # cycles and the program offers 82
    batch = encode_payload("base", "01" * 31, q=4, block_symbols=32)
    assert batch.spec.segments == ((4, 82),)
    forged = EncodedBatch(
        batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, (Oligo((1,) * 33, 4),)
    )
    with pytest.raises(CorruptDataError):
        decode_payload(forged)
    with pytest.raises(CorruptDataError):
        decode_payload(EncodedBatch.from_json(forged.to_json()))


@pytest.mark.parametrize(
    "scheme, kwargs",
    [
        ("base", dict(q=4)),
        ("lookup", dict(q=4, rho=0.5, depth=2)),
        ("multisize", dict(q=5, rho=0.45)),
        ("balanced", dict(q=8)),
        ("window", dict(q=6)),
    ],
)
def test_decode_rejects_a_program_one_cycle_longer(scheme, kwargs):
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    *head, (alphabet, cycles) = batch.spec.segments
    longer = SupersequenceSpec((*head, (alphabet, cycles + 1)))
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch(batch.scheme, batch.q, batch.rho, batch.payload_bits, longer, batch.oligos)
        )


# --- lookup scheme ---


def test_lookup_known_window():
    # q=2, C=4, L=2 holds 4 oligos: 2 bits per window
    batch = lookup_encode(2, 2, 0.5, "10")
    assert len(batch.oligos) == 1
    assert batch.oligos[0].symbols == (2, 1)
    assert decode_payload(batch) == "10"


def test_lookup_round_trip():
    rng = random.Random(13)
    for q, depth, rho in ((2, 2, 0.5), (4, 2, 0.5), (4, 3, 0.25), (3, 4, 0.5)):
        cycles = depth * q
        length = round(rho * cycles)
        width = subsequence_count(q, cycles, length).bit_length() - 1
        for count in (0, 1, width, 5 * width + 3):
            bits = random_bits(rng, count)
            batch = encode_payload("lookup", bits, q=q, rho=rho, depth=depth)
            assert decode_payload(batch) == bits
            for oligo in batch.oligos:
                assert len(oligo) == length
                need = min_cycles_under(batch.spec, oligo)
                assert need is not None and need <= cycles


def test_lookup_rejects_bad_geometry():
    with pytest.raises(DomainError):
        lookup_encode(4, 2, 0.3, "1")  # 2.4 symbols is not a length
    with pytest.raises(DomainError):
        lookup_encode(4, 1, 1.0, "1")  # single oligo, zero bits
    with pytest.raises(DomainError):
        lookup_encode(4, 1, 0.0, "1")


def test_lookup_decode_rejects_tampering():
    batch = lookup_encode(4, 2, 0.5, "110010")
    # replace an oligo with one that is not a subsequence of the window
    bad = batch.oligos[:1] + (Oligo((4, 4, 4, 4), 4),) + batch.oligos[2:]
    broken = EncodedBatch(
        batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, bad
    )
    with pytest.raises(CorruptDataError):
        decode_payload(broken)


# --- window scheme ---


def test_window_block_exhaustive():
    for q in (2, 3, 4, 6, 10):
        width = q - 1
        cap = (q + 1) // 2
        for value in range(1 << width):
            bits = bits_from_int(value, width)
            batch = window_encode(q, bits)
            oligo = batch.oligos[0]
            assert 1 <= len(oligo) <= cap
            assert all(b > a for a, b in zip(oligo.symbols, oligo.symbols[1:]))
            assert synthesis_cycles(oligo) <= q
            assert decode_payload(batch) == bits


def test_window_multiblock_round_trip():
    rng = random.Random(17)
    for q in (2, 5, 8):
        for count in (0, 1, 3 * (q - 1), 200):
            bits = random_bits(rng, count)
            batch = encode_payload("window", bits, q=q)
            assert decode_payload(batch) == bits
            blocks = -(-count // (q - 1)) if count else 0
            assert len(batch.oligos) == blocks
            assert batch.spec.total_cycles == blocks * q


def test_window_decode_rejects_tampering():
    batch = window_encode(3, "1011")
    descending = (Oligo((2, 1), 3),) + batch.oligos[1:]
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch("window", 3, 0.5, batch.payload_bits, batch.spec, descending)
        )
    # a subset whose index exceeds the 4 codewords of the 2-bit block
    too_high = (Oligo((2, 3), 3),) + batch.oligos[1:]
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch("window", 3, 0.5, batch.payload_bits, batch.spec, too_high)
        )


# --- batch JSON ---


def test_batch_json_round_trip():
    batch = encode_payload("window", "110100101", q=4)
    clone = EncodedBatch.from_json(batch.to_json())
    assert clone == batch
    doc = json.loads(batch.to_json())
    assert set(doc) == {"scheme", "q", "rho", "payload_bits", "spec", "oligos"}


def test_batch_json_rejects_malformed_documents():
    batch = encode_payload("base", "1101", q=4)
    text = batch.to_json()
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json(text[:40])
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json("[]")
    doc = json.loads(text)
    del doc["rho"]
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json(json.dumps(doc))
    doc = json.loads(text)
    for scheme in ("mystery", ["base"]):
        doc["scheme"] = scheme
        with pytest.raises(CorruptDataError):
            EncodedBatch.from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["oligos"] = ["1,2,banana"]
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["spec"] = [[4]]
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["q"] = True
    with pytest.raises(CorruptDataError):
        EncodedBatch.from_json(json.dumps(doc))


def test_decode_byte_payload_through_json():
    rng = random.Random(23)
    data = bytes(rng.randrange(256) for _ in range(257))
    for scheme, kwargs in [
        ("base", dict(q=4)),
        ("lookup", dict(q=4, rho=0.5, depth=2)),
        ("window", dict(q=6)),
    ]:
        batch = encode_payload(scheme, bits_from_bytes(data), **kwargs)
        clone = EncodedBatch.from_json(batch.to_json())
        assert bytes_from_bits(decode_payload(clone)) == data


# --- rate table ---


def test_rate_table_rows_are_bounded_and_sorted():
    grid = [0.1 * k for k in range(1, 10)]
    for q in (2, 4, 8, 16):
        rows = rate_table(q, grid)
        assert rows == sorted(rows, key=lambda r: (r.rho, r.scheme))
        schemes = {row.scheme for row in rows}
        assert {"base", "window", "multisize"} <= schemes
        if q >= 4:
            assert "balanced" in schemes
        for row in rows:
            assert row.rate <= row.cap + 1e-9


def test_rate_table_known_rates():
    rows = {(r.scheme, round(r.rho, 6)): r.rate for r in rate_table(4, [0.4, 0.5])}
    assert rows[("base", 0.4)] == pytest.approx(0.8)
    assert rows[("balanced", 0.5)] == pytest.approx(0.5)
    assert rows[("window", 0.5)] == pytest.approx(0.75)
    assert rows[("multisize", 0.4)] == pytest.approx(0.8)


def test_encode_payload_validates_arguments():
    with pytest.raises(DomainError):
        encode_payload("lookup", "101", q=4)  # rho and depth missing
    with pytest.raises(DomainError):
        encode_payload("multisize", "101", q=4)
    with pytest.raises(DomainError):
        encode_payload("mystery", "101", q=4)
    with pytest.raises(DomainError):
        encode_payload("base", "abc", q=4)
