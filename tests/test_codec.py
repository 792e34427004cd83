"""Bit utilities, the base and lookup and window schemes, and batch JSON."""

import itertools
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from oligocycle import codec, counting
from oligocycle import (
    CorruptDataError,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    cap_fixed_length,
    decode_payload,
    encode_payload,
    min_cycles_under,
    rate_table,
    subsequence_count,
)
from oligocycle.bits import bits_from_bytes, bytes_from_bits, gray_decode, gray_encode
from oligocycle.cli import _rho_grid
from oligocycle.sequence import render_oligos
from oracles import synthesis_cycles


def random_bits(rng, count):
    return "".join(rng.choice("01") for _ in range(count))


# --- bit helpers ---


def test_bytes_round_trip():
    assert bits_from_bytes(b"\x00\xff\x81") == "00000000" + "11111111" + "10000001"
    rng = random.Random(5)
    for _ in range(20):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        assert bytes_from_bits(bits_from_bytes(data)) == data
    for data in (b"", b"\x00\x00\x01", rng.randbytes(16384)):
        bits = bits_from_bytes(data)
        assert bits == "".join(format(b, "08b") for b in data)
        assert bytes_from_bits(bits) == data
    with pytest.raises(DomainError):
        bytes_from_bits("0101010")
    with pytest.raises(DomainError):
        bytes_from_bits("1010101a")
    with pytest.raises(DomainError):
        encode_payload("base", "10a", q=4)


def test_gray_code_round_trip_and_adjacency():
    for value in range(256):
        assert gray_decode(gray_encode(value)) == value
    for value in range(255):
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert diff.bit_count() == 1


def test_gray_code_refuses_negative_numbers():
    for gray in (gray_encode, gray_decode):
        with pytest.raises(DomainError, match="^Gray code is defined for non-negative integers$"):
            gray(-1)


# --- base scheme ---


def base_encode(q, gaps):
    """The gaps, each in 1..q, steered behind one steering symbol."""
    return codec._steer(q, gaps)


def base_decode(q, symbols):
    """The gaps that base_encode steered into *symbols*."""
    return tuple(codec._gaps(q, codec._base_value(q, symbols), len(symbols) - 1))


def test_base_encode_known_values():
    assert base_encode(3, (3, 3)) == (2, 3, 1)
    assert base_encode(4, (4, 4, 4)) == (2, 3, 4, 1)
    assert base_encode(4, (1, 1)) == (1, 2, 3)
    assert base_encode(2, ()) == (1,)


def test_base_round_trip_and_budget_exhaustive():
    for q in (2, 3, 4):
        for length in range(0, 6):
            budget = (q + 1) * (length + 1) // 2
            seen = set()
            for symbols in itertools.product(range(1, q + 1), repeat=length):
                out = base_encode(q, symbols)
                assert len(out) == length + 1
                assert synthesis_cycles(Oligo(out, q)) <= budget
                assert base_decode(q, out) == symbols
                assert out not in seen
                seen.add(out)


def test_base_decode_rejects_garbage():
    with pytest.raises(CorruptDataError):
        base_decode(4, ())
    with pytest.raises(CorruptDataError):
        base_decode(4, (3, 1, 2))


def test_base_spelling_decodes_only_when_the_encoder_would_write_it():
    # every spelling of a block, steering symbol first: exactly the encoder's
    # own q**size spellings decode, each to the value it encodes
    for q in range(2, 6):
        for size in range(1, 5):
            code = codec.SCHEMES["base"](q, block_symbols=size)
            own = {code.encode_block(value): value for value in range(q**size)}
            assert len(own) == q**size
            for spelling in itertools.product(range(1, q + 1), repeat=size + 1):
                if spelling in own:
                    assert code.decode_block(spelling) == own[spelling]
                else:
                    with pytest.raises(CorruptDataError):
                        code.decode_block(spelling)


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


def test_long_base_blocks_decode_under_a_lowered_int_string_limit():
    # a block's value is read digit by digit, so the interpreter's limit on
    # int-from-string digits (4300 by default, 640 at its lowest) never applies
    rng = random.Random(13)
    info = tuple(rng.randint(1, 3) for _ in range(5000))
    assert base_decode(3, base_encode(3, info)) == info
    bits = random_bits(rng, 8192)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for scheme, options in (
            ("base", dict(q=3, block_symbols=2048)),
            ("multisize", dict(q=5, rho=0.45, oligo_length=2048)),
        ):
            assert decode_payload(encode_payload(scheme, bits, **options)) == bits
    finally:
        sys.set_int_max_str_digits(previous)


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


EVERY_SCHEME = [
    ("base", dict(q=4)),
    ("lookup", dict(q=4, rho=0.5, depth=2)),
    ("multisize", dict(q=5, rho=0.45)),
    ("balanced", dict(q=8)),
    ("window", dict(q=6)),
]


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_rejects_a_program_one_cycle_longer(scheme, kwargs):
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    *head, (alphabet, cycles) = batch.spec.segments
    longer = SupersequenceSpec((*head, (alphabet, cycles + 1)))
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch(batch.scheme, batch.q, batch.rho, batch.payload_bits, longer, batch.oligos)
        )


def test_decode_rejects_trailing_oligos():
    # two bytes fill one 64-bit base q4 block; two more copies of that oligo
    # fit the same program but no payload bit reads them
    batch = encode_payload("base", bits_from_bytes(b"hi"), q=4)
    assert len(batch.oligos) == 1
    tripled = EncodedBatch(
        batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, batch.oligos * 3
    )
    with pytest.raises(CorruptDataError):
        decode_payload(tripled)
    with pytest.raises(CorruptDataError):
        decode_payload(EncodedBatch.from_json(tripled.to_json()))


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_rejects_more_blocks_than_the_payload_needs(scheme, kwargs):
    batch = encode_payload(scheme, "10" * 100, **kwargs)
    assert decode_payload(batch) == "10" * 100
    short = EncodedBatch(batch.scheme, batch.q, batch.rho, 1, batch.spec, batch.oligos)
    with pytest.raises(CorruptDataError):
        decode_payload(short)


def test_block_and_alphabet_limits():
    bits = random_bits(random.Random(2048), 4096)
    for scheme, kwargs, too_large in (
        ("base", dict(q=4, block_symbols=2048), dict(block_symbols=2049)),
        ("multisize", dict(q=5, rho=0.45, oligo_length=2048), dict(oligo_length=2049)),
        ("window", dict(q=256), dict(q=257)),
    ):
        assert decode_payload(encode_payload(scheme, bits, **kwargs)) == bits
        with pytest.raises(DomainError):
            encode_payload(scheme, bits, **{**kwargs, **too_large})


def test_block_bit_bound():
    # base at q = 2**20 over 2048 symbols, 40 960 bits a block, fits the
    # 2**16-bit bound; at q = 10**300 a block would hold about 2 million bits
    bits = random_bits(random.Random(20), 4096)
    batch = encode_payload("base", bits, q=2**20, block_symbols=2048)
    assert decode_payload(EncodedBatch.from_json(batch.to_json())) == bits
    for scheme, options in (
        ("base", dict(block_symbols=2048)),
        ("multisize", dict(rho=2e-300, oligo_length=2048)),
    ):
        with pytest.raises(DomainError, match="more than 65536 bits"):
            encode_payload(scheme, "1", q=10**300, **options)


# --- lookup scheme ---


def test_lookup_known_window():
    # q=2, C=4, L=2 holds 4 oligos: 2 bits per window
    batch = encode_payload("lookup", "10", q=2, rho=0.5, depth=2)
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
        encode_payload("lookup", "1", q=4, rho=0.3, depth=2)  # 2.4 symbols is not a length
    with pytest.raises(DomainError):
        encode_payload("lookup", "1", q=4, rho=1.0, depth=1)  # single oligo, zero bits
    with pytest.raises(DomainError):
        encode_payload("lookup", "1", q=4, rho=0.0, depth=1)


def test_lookup_decode_rejects_tampering():
    batch = encode_payload("lookup", "110010", q=4, rho=0.5, depth=2)
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
            bits = format(value, f"0{width}b")
            batch = encode_payload("window", bits, q=q)
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
    batch = encode_payload("window", "1011", q=3)
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


def test_window_blocks_follow_size_then_lexicographic_order():
    # the order built from itertools alone, sharing no code with counting
    for q in range(2, 11):
        order = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(1, q + 1), k) for k in range(1, (q + 1) // 2 + 1)
            )
        )
        code = codec.SCHEMES["window"](q)
        for value in range(1 << (q - 1)):
            assert code.encode_block(value) == order[value], (q, value)
            assert code.decode_block(order[value]) == value, (q, value)


# --- repeated blocks ---


def test_each_distinct_window_block_is_coded_once(monkeypatch):
    calls = {"encode": 0, "decode": 0}
    window = codec.SCHEMES["window"]

    def counted(q, **kwargs):
        code = window(q, **kwargs)

        def encode_block(value):
            calls["encode"] += 1
            return code.encode_block(value)

        def decode_block(symbols):
            calls["decode"] += 1
            return code.decode_block(symbols)

        return code._replace(encode_block=encode_block, decode_block=decode_block)

    monkeypatch.setitem(codec.SCHEMES, "window", counted)
    payload = bits_from_bytes(random.Random(41).randbytes(4096))
    batch = encode_payload("window", payload, q=6)
    assert len(batch.oligos) == -(-len(payload) // 5)
    # the 32 codewords of a 5-bit block: each coded once, one Oligo apiece
    assert len({id(o) for o in batch.oligos}) <= 32
    assert decode_payload(EncodedBatch.from_json(batch.to_json())) == payload
    assert 0 < calls["encode"] <= 32
    assert 0 < calls["decode"] <= 32


def test_a_changed_last_window_oligo_among_repeats_is_refused():
    # 40 copies of the subset {1}; the last one, alone, is made invalid
    doc = json.loads(encode_payload("window", "0" * 5 * 40, q=6).to_json())
    assert set(doc["oligos"]) == {"1"}
    # 3 is offered in the revolution of the previous 1, so "3,2" embeds
    doc["oligos"][-1] = "3,2"
    with pytest.raises(CorruptDataError, match="ascending"):
        decode_payload(EncodedBatch.from_json(json.dumps(doc)))
    doc["oligos"][-1] = "7"
    with pytest.raises(CorruptDataError, match="outside alphabet"):
        decode_payload(EncodedBatch.from_json(json.dumps(doc)))


def test_a_changed_last_balanced_block_among_repeats_is_refused():
    # 20 copies of the block 1..8 in one q16 oligo; the last block alone is
    # made non-ascending, starting past 8 so that it still embeds
    value = format(2040, "011b")
    batch = encode_payload("balanced", value * 20, q=16)
    symbols = batch.oligos[0].symbols
    assert symbols == tuple(range(1, 9)) * 20
    doc = json.loads(batch.to_json())
    doc["oligos"][0] = ",".join(map(str, symbols[:-8] + (9, 10, 11, 12, 13, 14, 16, 15)))
    with pytest.raises(CorruptDataError, match="ascending"):
        decode_payload(EncodedBatch.from_json(json.dumps(doc)))


@pytest.mark.parametrize(
    "scheme, q, block, error, message",
    [
        ("balanced", 16, (1, 2, 3), CorruptDataError, "block oligo has the wrong length"),
        *(
            ("balanced", 16, block, CorruptDataError, "block oligo must be strictly ascending")
            for block in ((1, 2, 2, 3, 4, 5, 6, 7), (8, 7, 6, 5, 4, 3, 2, 1))
        ),
        *(
            ("balanced", 16, block, CorruptDataError, "block oligo symbol out of range")
            for block in (tuple(range(8)), tuple(range(10, 18)))
        ),
        ("window", 6, (2, 2), CorruptDataError, "subset must be strictly ascending"),
        ("window", 6, (3, 1), CorruptDataError, "subset must be strictly ascending"),
        ("window", 6, (0, 2), DomainError, "symbols must lie in 1..6"),
        ("window", 6, (2, 7), DomainError, "symbols must lie in 1..6"),
    ],
)
def test_ascending_block_decoders_name_each_fault(scheme, q, block, error, message):
    with pytest.raises(error) as caught:
        codec.SCHEMES[scheme](q).decode_block(block)
    assert str(caught.value) == message


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
@pytest.mark.parametrize(
    "bad_symbol", [lambda q, value: q + 1 + value, lambda q, value: value + 0.5]
)
def test_encode_refuses_a_block_outside_the_alphabet_as_oligo_does(
    monkeypatch, scheme, kwargs, bad_symbol
):
    # every third value's block ends in a bad symbol: from the per-block
    # encoder one named by the value, outside 1..q or not an int, and from
    # the batch encoder, whose buffer holds bytes, a byte past the alphabet
    # named by the value, or 0; the batch's one check must raise what
    # building each oligo in turn with Oligo raises first
    build, made = codec.SCHEMES[scheme], []

    def broken(q, **options):
        code = build(q, **options)
        alphabet = SupersequenceSpec(code.program(1)).max_alphabet

        def encode_block(value):
            block = code.encode_block(value)
            return block[:-1] + (bad_symbol(alphabet, value),) if value % 3 == 1 else block

        def encode_blocks(values):
            flat, size = bytearray(code.encode_blocks(values)), code.lengths[0]
            for i, value in enumerate(values):
                if value % 3 == 1:
                    past = type(bad_symbol(alphabet, value)) is int
                    flat[(i + 1) * size - 1] = alphabet + 1 + value % (255 - alphabet) if past else 0
            return bytes(flat)

        made.append(
            code._replace(
                encode_block=encode_block, encode_blocks=code.encode_blocks and encode_blocks
            )
        )
        return made[-1]

    monkeypatch.setitem(codec.SCHEMES, scheme, broken)
    payload = random_bits(random.Random(3), 600)
    with pytest.raises(DomainError) as caught:
        encode_payload(scheme, payload, **kwargs)
    code = made[0]
    values = codec._fields(payload, code.width)
    alphabet = SupersequenceSpec(code.program(len(values))).max_alphabet
    if code.encode_blocks:  # the batch encoder's blocks, in batch order
        blocks = list(zip(*[iter(code.encode_blocks(values))] * code.lengths[0]))
    else:
        blocks = list(map(code.encode_block, values))
    rows = [tuple(itertools.chain.from_iterable(blocks))] if code.joined else blocks
    with pytest.raises(DomainError) as expected:
        for row in rows:
            Oligo(row, alphabet)
    assert str(caught.value) == str(expected.value)
    assert str(caught.value).startswith("symbol ")


# --- batch JSON ---


def test_batch_json_round_trip():
    batch = encode_payload("window", "110100101", q=4)
    clone = EncodedBatch.from_json(batch.to_json())
    assert clone == batch
    doc = json.loads(batch.to_json())
    assert set(doc) == {"scheme", "q", "rho", "payload_bits", "spec", "oligos"}


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_batch_json_is_the_indented_dump_of_its_document(scheme, kwargs):
    # to_json writes the oligo list without json's indenting encoder; the
    # text must still be what json.dumps(doc, indent=2) writes.  No, one and
    # many oligos (balanced joins every block into one oligo)
    counts = []
    for payload in ("", "1", random_bits(random.Random(8), 4096)):
        batch = encode_payload(scheme, payload, **kwargs)
        doc = {
            "scheme": batch.scheme,
            "q": batch.q,
            "rho": batch.rho,
            "payload_bits": batch.payload_bits,
            "spec": [list(segment) for segment in batch.spec.segments],
            "oligos": [render_oligos((oligo,))[0] for oligo in batch.oligos],
        }
        assert batch.to_json() == json.dumps(doc, indent=2)
        counts.append(len(batch.oligos))
    assert counts[:2] == [0, 1]
    assert counts[2] > 50 or scheme == "balanced"


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


def test_rate_table_rates_window_only_where_it_encodes():
    assert "window" in {row.scheme for row in rate_table(256, [0.5])}
    assert "window" not in {row.scheme for row in rate_table(300, [0.5])}
    with pytest.raises(DomainError):
        encode_payload("window", "1", q=300)


def test_rate_table_refuses_an_alphabet_of_one_and_a_ratio_past_one():
    with pytest.raises(DomainError, match="^rate table requires alphabet size >= 2$"):
        rate_table(1, [])
    with pytest.raises(DomainError, match=r"^rho grid entries must lie in \[0, 1\]$"):
        rate_table(4, [1.5])


# Geometries of the sweep's default rho grid whose shallowest integral depth
# (20 at q 59..63, 5 at q 1024 and 4096) gives a window the encoder refuses
UNINDEXABLE = [
    (59, 0.45), (59, 0.55), (61, 0.45), (61, 0.55),
    (63, 0.35), (63, 0.45), (63, 0.55), (63, 0.65),
    (1024, 0.05), (4096, 0.05),
]


def test_rate_table_rates_lookup_only_where_it_encodes():
    grid = _rho_grid(0.05, 0.95, 0.05)  # the sweep's default
    for q, rho in UNINDEXABLE:
        rho = next(r for r in grid if abs(r - rho) < 1e-9)
        depth = next(d for d in range(1, 65) if abs(rho * d * q - round(rho * d * q)) <= 1e-9)
        with pytest.raises(DomainError, match="too large"):
            encode_payload("lookup", "1", q=q, rho=rho, depth=depth)
        rated = {row.rho for row in rate_table(q, grid) if row.scheme == "lookup"}
        assert rho not in rated, (q, rho)


def test_rate_table_counts_no_window_past_the_entry_bound(monkeypatch):
    counted = []
    count = counting.subsequence_count

    def recorded(q, cycles, length):
        counted.append((q, cycles, length))
        return count(q, cycles, length)

    monkeypatch.setattr(counting, "subsequence_count", recorded)
    grid = _rho_grid(0.05, 0.95, 0.05)
    for q, rhos in ((4, grid), (63, grid), (1024, grid), (4096, grid), (1 << 18, [0.05])):
        rate_table(q, rhos)
    assert counted
    for q, cycles, length in counted:
        entries = sum(min(cycles - length, l * (q - 1) + q) + 1 for l in range(length + 1))
        assert entries <= counting._MAX_TABLE_ENTRIES, (q, cycles, length)


def test_rate_table_known_rates():
    rows = {(r.scheme, round(r.rho, 6)): r.rate for r in rate_table(4, [0.4, 0.5])}
    assert rows[("base", 0.4)] == pytest.approx(0.8)
    assert rows[("balanced", 0.5)] == pytest.approx(0.5)
    assert rows[("window", 0.5)] == pytest.approx(0.75)
    assert rows[("multisize", 0.4)] == pytest.approx(0.8)


def test_rate_table_solves_each_root_once(monkeypatch):
    calls = []

    def counted(q, rho):
        calls.append((q, rho))
        return cap_fixed_length(q, rho)

    monkeypatch.setattr(codec, "cap_fixed_length", counted)
    grid = [0.05 + 0.1 * k for k in range(10)]  # none is a fixed-ratio scheme's rho
    for q in (4, 16):
        rows = rate_table(q, grid)
        # the lookup and multisize rows of one rho share one solve
        assert [calls.count((q, rho)) for rho in grid] == [1] * len(grid)
        for row in rows:
            if row.scheme in ("lookup", "multisize"):
                assert row.cap == cap_fixed_length(q, row.rho)


def test_encode_payload_validates_arguments():
    with pytest.raises(DomainError):
        encode_payload("lookup", "101", q=4)  # rho and depth missing
    with pytest.raises(DomainError):
        encode_payload("multisize", "101", q=4)
    with pytest.raises(DomainError):
        encode_payload("mystery", "101", q=4)
    with pytest.raises(DomainError):
        encode_payload("base", "abc", q=4)


@pytest.mark.parametrize("bad, text", ((2.5, "2.5"), (4.0, "4.0"), (True, "True"), ("4", "'4'")))
def test_codec_refuses_a_size_that_is_not_an_int(bad, text):
    def refused(name, call):
        with pytest.raises(DomainError, match=f"^{name} {text} is not an int$"):
            call()

    # each scheme's alphabet size; balanced 16.0 failed with AttributeError
    for scheme, kwargs in EVERY_SCHEME:
        refused("alphabet size", lambda: encode_payload(scheme, "10110100", **{**kwargs, "q": bad}))
    refused("alphabet size", lambda: rate_table(bad, [0.5]))
    refused("alphabet size", lambda: codec.optimal_alpha(bad, 0.5))
    refused("alphabet size", lambda: codec.multisize_rate(bad, 0.5))
    refused("alphabet size", lambda: codec.balanced_params(bad))
    # and the size parameters, each of which reached a TypeError
    refused("depth", lambda: encode_payload("lookup", "1011", q=4, rho=0.5, depth=bad))
    refused(
        "oligo length", lambda: encode_payload("multisize", "1011", q=5, rho=0.45, oligo_length=bad)
    )
    refused("block symbol count", lambda: encode_payload("base", "1011", q=4, block_symbols=bad))


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_refuses_an_in_process_batch_whose_sizes_are_not_ints(scheme, kwargs):
    # from_json checks both fields; q=4.0 in process raised AttributeError for
    # base and TypeError for lookup and window
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    for bad, text in ((float(batch.q), f"{batch.q}.0"), (2.5, "2.5"), (True, "True"), ("4", "'4'")):
        with pytest.raises(CorruptDataError, match=f"^alphabet size {text} is not an int$"):
            decode_payload(batch._replace(q=bad))
    for bad, text in ((16.0, "16.0"), (2.5, "2.5"), (True, "True"), ("16", "'16'")):
        with pytest.raises(CorruptDataError, match=f"^payload bit count {text} is not an int$"):
            decode_payload(batch._replace(payload_bits=bad))
    # q is checked first, then the payload bit count, then rho
    with pytest.raises(CorruptDataError, match="^alphabet size 2.5 is not an int$"):
        decode_payload(batch._replace(q=2.5, payload_bits=2.5, rho=None))
    with pytest.raises(CorruptDataError, match="^payload bit count 2.5 is not an int$"):
        decode_payload(batch._replace(payload_bits=2.5, rho=None))
    assert decode_payload(batch) == "1100101011110000"


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_refuses_an_in_process_batch_whose_rho_is_not_a_finite_number(scheme, kwargs):
    # from_json checks rho; in process "0.5" raised TypeError for lookup and
    # multisize, and base, window and balanced decoded even a NaN
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    bad = (("0.5", "'0.5'"), (None, "None"), (True, "True"), (float("nan"), "nan"))
    bad += ((float("inf"), "inf"), (float("-inf"), "-inf"))
    for rho, text in bad:
        with pytest.raises(CorruptDataError, match=f"^rho {text} is not a finite number$"):
            decode_payload(batch._replace(rho=rho))
    # an int rho is read as its float: the same payload or the same refusal
    for rho in (0, 1):
        outcomes = []
        for value in (rho, float(rho)):
            try:
                outcomes.append(decode_payload(batch._replace(rho=value)))
            except (CorruptDataError, DomainError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
    assert decode_payload(batch) == "1100101011110000"


def test_codec_refuses_a_scheme_that_is_not_a_str():
    # a list or dict scheme raised TypeError: unhashable type
    batch = encode_payload("base", "1100101011110000", q=4)
    for bad in ([], {}, ["base"], None, 4):
        with pytest.raises(DomainError, match=f"^{re.escape(f'unknown scheme {bad!r}')}$"):
            encode_payload(bad, "1100101011110000", q=4)
        with pytest.raises(DomainError, match=f"^{re.escape(f'unknown scheme {bad!r}')}$"):
            decode_payload(batch._replace(scheme=bad))


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_refuses_an_in_process_batch_whose_spec_is_not_a_supersequence_spec(scheme, kwargs):
    # each raised AttributeError on the first spec field it read
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    for bad in (batch.spec.segments, [list(seg) for seg in batch.spec.segments], None, "spec"):
        with pytest.raises(CorruptDataError, match=f"^{re.escape(f'spec {bad!r} is not a SupersequenceSpec')}$"):
            decode_payload(batch._replace(spec=bad))
    assert decode_payload(batch) == "1100101011110000"


class TaggedOligo(Oligo):
    __slots__ = ()


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_decode_refuses_an_in_process_batch_whose_oligos_are_not_oligos(scheme, kwargs):
    # bare symbol tuples raised AttributeError, and the flat batch path would
    # read them as symbols
    batch = encode_payload(scheme, "1100101011110000", **kwargs)
    rows = [oligo.symbols for oligo in batch.oligos]
    bad = (
        tuple(rows),
        batch.oligos[:-1] + (rows[-1],),
        (None,) + batch.oligos[1:],
        iter(batch.oligos),
        {oligo: None for oligo in batch.oligos},
        "1,2,3",
        None,
    )
    for oligos in bad:
        with pytest.raises(CorruptDataError, match="^oligos must be a tuple or list of Oligo$"):
            decode_payload(batch._replace(oligos=oligos))
    # a list and a subclass of Oligo are read as the tuple of Oligo they hold
    tagged = tuple(TaggedOligo(oligo.symbols, oligo.q) for oligo in batch.oligos)
    for oligos in (list(batch.oligos), tagged, list(tagged)):
        assert decode_payload(batch._replace(oligos=oligos)) == "1100101011110000"


NOT_FINITE_RHOS = (
    ("0.5", "'0.5'"), (Fraction(1, 2), "Fraction(1, 2)"), (True, "True"),
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
)


def not_finite(text):
    return f"^{re.escape(f'rho {text} is not a finite number')}$"


@pytest.mark.parametrize("scheme, kwargs", EVERY_SCHEME)
def test_encode_refuses_a_rho_that_is_not_a_finite_number(scheme, kwargs):
    # "0.5" raised TypeError, a Fraction built a multisize batch whose to_json
    # raised TypeError, and base, window and balanced took any rho unchecked
    kwargs = {key: value for key, value in kwargs.items() if key != "rho"}
    for rho, text in NOT_FINITE_RHOS:
        with pytest.raises(DomainError, match=not_finite(text)):
            encode_payload(scheme, "1100101011110000", rho=rho, **kwargs)
    if scheme in ("lookup", "multisize"):  # these two require rho
        with pytest.raises(DomainError, match="requires"):
            encode_payload(scheme, "1100101011110000", rho=None, **kwargs)
    else:
        assert encode_payload(scheme, "1100101011110000", rho=None, **kwargs).oligos


class Ratio(float):
    __slots__ = ()


def test_a_float_subclass_rho_is_read_as_its_float():
    # the codec refused one with "rho 0.5 is not a finite number", which
    # cap_fixed_length and the rest of the package take
    rho = Ratio(0.5)
    assert cap_fixed_length(4, rho) == cap_fixed_length(4, 0.5)
    assert rate_table(4, [rho]) == rate_table(4, [0.5])
    assert codec.optimal_alpha(5, Ratio(0.45)) == codec.optimal_alpha(5, 0.45)
    assert codec.multisize_rate(5, Ratio(0.45)) == codec.multisize_rate(5, 0.45)
    for scheme, kwargs in (("lookup", dict(q=4, depth=2)), ("multisize", dict(q=5))):
        ratio, plain = (Ratio(0.5), 0.5) if scheme == "lookup" else (Ratio(0.45), 0.45)
        batch = encode_payload(scheme, "1011", rho=ratio, **kwargs)
        assert batch.to_json() == encode_payload(scheme, "1011", rho=plain, **kwargs).to_json()
        assert decode_payload(batch) == "1011"


def test_rates_refuse_a_rho_that_is_not_a_finite_number():
    # each raised a raw TypeError on a str or None
    rates = (codec.optimal_alpha, codec.multisize_rate, lambda q, rho: rate_table(q, [0.5, rho]))
    for rho, text in NOT_FINITE_RHOS + ((None, "None"),):
        for rate in rates:
            with pytest.raises(DomainError, match=not_finite(text)):
                rate(4, rho)
