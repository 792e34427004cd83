"""Encoding against the loops it replaced.

The base-coded encoders take a batch's digits, steering and running sums on
byte fields of one big integer, the balanced encoder reads its positions
off a plain bit scan and the payload splits by strided byte transposes.  The plain loops
below are the reference: every block, position list and field must come out
equal.
"""

import random
import re

import pytest

from oligocycle import (
    DomainError,
    EncodedBatch,
    codec,
    decode_payload,
    encode_payload,
    optimal_alpha,
)
from oligocycle.bits import balance_word, bits_from_bytes


# --- reference loops ---


def steer(q, gaps):
    flip = 2 * sum(gaps) > (q + 1) * len(gaps)
    out = [2 if flip else 1]
    for g in gaps:
        out.append((out[-1] - 1 + (q + 1 - g if flip else g)) % q + 1)
    return tuple(out)


def digits(value, base, count):
    out = []
    for _ in range(count):
        value, digit = divmod(value, base)
        out.append(digit + 1)
    return tuple(reversed(out))


def fields(payload, width):
    return [int(payload[i : i + width].ljust(width, "0"), 2) for i in range(0, len(payload), width)]


def positions(word, size):
    return tuple(v for v in range(1, size + 1) if word >> (size - v) & 1)


def chunk_digits(q):
    k = 1
    while q ** (k + 1) <= 1024:
        k += 1
    return k


# --- base and multisize ---

ALPHABETS = (2, 3, 4, 5, 16, 17, 255, 1024, 1025, 10**12)


def block_sizes(q):
    k = chunk_digits(q)
    return sorted({1, 2, k - 1, k, k + 1, 32, 47, 2048} - {0})


def block_values(q, size, rng):
    top = q**size - 1
    draws = 2 if size == 2048 else 6
    return [0, top, top // 2, *(rng.randrange(q**size) for _ in range(draws))]


@pytest.mark.parametrize("q", ALPHABETS)
def test_base_blocks_equal_the_digit_and_steering_loops(q):
    rng = random.Random(q)
    for size in block_sizes(q):
        code = codec.SCHEMES["base"](q, block_symbols=size)
        steering = set()
        values = block_values(q, size, rng)
        for value in values:
            block = code.encode_block(value)
            assert block == steer(q, digits(value, q, size)), (q, size, value)
            steering.add(block[0])
        # value 0 keeps every gap, the largest value flips every one
        assert steering == {1, 2}
        expected = [steer(q, digits(v, q, size)) for v in values]
        batched = code.encode_blocks(values)
        if batched is None:  # past the batch alphabet bound: the per-block map
            assert list(map(code.encode_block, values)) == expected
        else:  # the blocks end to end, a byte per symbol
            assert batched == b"".join(map(bytes, expected))


@pytest.mark.parametrize("q", ALPHABETS)
def test_public_base_encode_and_decode_equal_the_loops(q):
    rng = random.Random(q + 1)
    for length in (0, 1, chunk_digits(q), chunk_digits(q) + 1, 40):
        gaps = tuple(rng.randint(1, min(q, 10**6)) for _ in range(length))
        out = codec._steer(q, gaps)
        assert out == steer(q, gaps)
        assert tuple(codec._gaps(q, codec._base_value(q, out), len(out) - 1)) == gaps


@pytest.mark.parametrize(
    "q, rho, length", [(5, 0.45, 48), (4, 0.8, 48), (16, 0.3, 47), (6, 0.5, 2), (3, 0.9, 2048)]
)
def test_multisize_blocks_equal_the_loops(q, rho, length):
    code = codec.SCHEMES["multisize"](q, rho=rho, oligo_length=length)
    s, fraction = optimal_alpha(q, rho)
    run = int(fraction * length + 1e-9)
    tail = length - run
    coded = run if s >= 2 else 0
    low_values = s ** max(coded - 1, 0)

    def reference(value):
        high, low = divmod(value, low_values)
        head = steer(s, digits(low, s, run - 1)) if coded else (1,) * run
        return head + (steer(s + 1, digits(high, s + 1, tail - 1)) if tail else ())

    rng = random.Random(length)
    top = (1 << code.width) - 1
    values = [0, top, *(rng.randrange(top + 1) for _ in range(20))]
    for value in values:
        assert code.encode_block(value) == reference(value)
    assert code.encode_blocks(values) == b"".join(map(bytes, map(reference, values)))


# --- balanced ---


def test_balanced_blocks_equal_the_bit_scan():
    rng = random.Random(8)
    for q in range(4, 65):
        try:
            f, size = codec.balanced_params(q)
        except DomainError:
            continue
        code = codec.SCHEMES["balanced"](q)
        for value in (0, (1 << f) - 1, *(rng.getrandbits(f) for _ in range(30))):
            assert code.encode_block(value) == positions(balance_word(value, f), size)


# --- payload fields ---


def test_fields_equal_the_slice_loop():
    rng = random.Random(9)
    for width in range(1, 71):
        for length in (0, 1, width - 1, width, width + 1, 3 * width, 7 * width + width // 2):
            payload = "".join(rng.choice("01") for _ in range(length))
            assert codec._fields(payload, width) == fields(payload, width), (width, length)


def test_fields_equal_a_regex_read_at_every_width_and_length():
    # up to 64 bits the fields come from strided byte transposes into 1-, 2-,
    # 4- and 8-byte fields; past 64 from one int() per block; 8, 16 and 64
    # fill their fields, 9, 17 and 65 start the next span
    rng = random.Random(11)
    for width in range(1, 301):
        bits = "".join(rng.choice("01") for _ in range(3 * width + 1))
        for length in range(3 * width + 2):
            payload = bits[:length]
            padded = payload + "0" * (-length % width)
            expected = [int(block, 2) for block in re.findall(f".{{{width}}}", padded)]
            assert codec._fields(payload, width) == expected, (width, length)


def test_bits_invert_fields_at_every_width():
    # up to 64 bits one format writes 1-, 2-, 4- or 8-byte fields and strided
    # slices pick each block's bits out of them: 7, 9, 63 and 65 leave part
    # of a field, 8 and 64 fill one, and past 64 (81 for multisize) each
    # value is formatted alone
    rng = random.Random(2401)
    for width in range(1, 131):
        for count in (0, 1, 2, 17):
            values = [0, (1 << width) - 1][:count] + [rng.getrandbits(width) for _ in range(count - 2)]
            bits = codec._bits(values, width)
            assert bits == "".join(format(v, f"0{width}b") for v in values), (width, count)
            assert codec._fields(bits, width) == values, (width, count)


# --- the tables and masks are the encoder's alone ---

EVERY_SCHEME = [
    ("base", dict(q=4)),
    ("lookup", dict(q=4, rho=0.5, depth=2)),
    ("multisize", dict(q=5, rho=0.45)),
    ("balanced", dict(q=16)),
    ("window", dict(q=6)),
]


def test_decode_builds_no_encode_table(monkeypatch):
    payload = bits_from_bytes(random.Random(10).randbytes(64))
    texts = {scheme: encode_payload(scheme, payload, **kw).to_json() for scheme, kw in EVERY_SCHEME}

    def refuse(*_):
        raise AssertionError("an encode table was built")

    monkeypatch.setattr(codec, "_gaps", refuse)
    monkeypatch.setattr(codec, "_steer", refuse)
    monkeypatch.setattr(codec, "_base_blocks", refuse)
    monkeypatch.setattr(codec, "_balanced_blocks", refuse)
    for scheme, kw in EVERY_SCHEME:
        assert decode_payload(EncodedBatch.from_json(texts[scheme])) == payload
        if scheme in ("base", "multisize", "balanced"):
            with pytest.raises(AssertionError, match="encode table"):
                encode_payload(scheme, payload, **kw)
