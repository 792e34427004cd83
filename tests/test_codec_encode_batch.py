"""The batch base-q encoder against the per-block one.

codec._base_blocks steers a list of values into blocks at once on byte
fields of big integers, and writes them end to end into one flat buffer, a
byte per symbol; it returns None at q >= 128, where encode_payload maps the
per-block encoder, codec._steer of codec._gaps, over the values.  The base
and multisize records expose it as encode_blocks next to the per-block
encode_block, which is the reference: every batch must equal
b"".join(bytes(encode_block(v)) for v in values).
"""

import random

import pytest

from oligocycle import codec, encode_payload
from oligocycle.bits import bits_from_bytes
from oracles import STEERING_EDGES, value_with_digit_sum


def per_block(code, values):
    """The per-block encoder's blocks of values, end to end a byte per symbol."""
    return b"".join(bytes(code.encode_block(v)) for v in values)


def rows(flat, size):
    """The size-symbol blocks of a flat buffer, as symbol tuples."""
    return list(zip(*[iter(flat)] * size))


def coded(code, values):
    """The blocks of values as encode_payload makes them: the record's batch
    encoder's buffer split into blocks, or where it returns None the
    per-block encoder mapped over the values."""
    flat = code.encode_blocks(values)
    return list(map(code.encode_block, values)) if flat is None else rows(flat, code.lengths[0])


def base_case(q, n, values):
    """The batch and the per-block blocks of values, through the base record."""
    code = codec.SCHEMES["base"](q, block_symbols=n)
    return code.encode_blocks(values), per_block(code, values)


def test_batch_equals_per_block_for_every_value_of_small_blocks():
    for q in range(2, 7):
        for n in range(1, 7):
            values = list(range(q**n))
            batch, expected = base_case(q, n, values)
            assert batch == expected, (q, n)
            # both steering symbols occur, and no two values share a block
            assert set(batch[:: n + 1]) == {1, 2}
            assert len(set(rows(batch, n + 1))) == len(values)


def test_batch_equals_per_block_on_seeded_values_around_each_power_of_two():
    rng = random.Random(2001)
    # n digits pad to 2**r byte fields, so test either side of each power of two
    edges = [n for k in range(12) for n in (2**k - 1, 2**k, 2**k + 1)]
    sizes = sorted({n for n in edges if 1 <= n <= codec._MAX_BLOCK_SYMBOLS})
    assert codec._MAX_BLOCK_SYMBOLS in sizes
    # every size at three alphabets, and every alphabet at a short size
    cases = [(q, n) for n in sizes for q in rng.sample(range(7, 128), 3)]
    cases += [(q, rng.randint(1, 64)) for q in range(7, 128)]
    for q, n in cases:
        count = 3 if n > 256 else 12
        values = [0, q**n - 1, *(rng.randrange(q**n) for _ in range(count))]
        batch, expected = base_case(q, n, values)
        assert batch == expected, (q, n)


def test_all_top_digits_at_the_largest_batch_alphabet():
    # every digit q - 1 fills each field to its bound, and the block flips
    # each gap q to 1: the symbols climb by one from the steering symbol 2
    for n in (1, 2, 3, 31, 32, 33, 1024, 2047, 2048):
        values = [127**n - 1, 127**n - 2, 127 ** (n - 1)]
        batch, expected = base_case(127, n, values)
        assert batch == expected, n
        assert batch[: n + 1] == bytes(i % 127 + 1 for i in range(1, n + 2))


def test_blocks_at_and_just_past_the_steering_midpoint_match_per_block():
    # a block flips when its digits total more than (q-1)n//2: two blocks at
    # that total and two one past it, at sizes where a block's digit total
    # outgrows one byte, or a byte less its top bit, and then two
    rng = random.Random(2005)
    for q, n in STEERING_EDGES:
        limit = (q - 1) * n // 2
        values = [value_with_digit_sum(rng, q, n, total) for total in (limit, limit, limit + 1, limit + 1)]
        batch, expected = base_case(q, n, values)
        assert batch == expected, (q, n)
        assert batch[:: n + 1] == b"\1\1\2\2"


def test_batch_alphabet_bound_falls_back_to_the_per_block_encoder(monkeypatch):
    rng = random.Random(2002)
    built = []
    gaps = codec._gaps
    monkeypatch.setattr(codec, "_gaps", lambda q, value, n: built.append(q) or gaps(q, value, n))
    for q in (127, 128):
        values = [0, q**9 - 1, *(rng.randrange(q**9) for _ in range(20))]
        expected = [codec._steer(q, gaps(q, v, 9)) for v in values]
        flat = b"".join(map(bytes, expected))
        assert codec._base_blocks(q, values, 9) == (flat if q == 127 else None)
        assert coded(codec.SCHEMES["base"](q, block_symbols=9), values) == expected
    assert set(built) == {128}
    assert codec._base_blocks(5, [], 9) == b""


def test_a_block_of_no_digits_is_its_steering_symbol():
    assert codec._base_blocks(5, [0, 0], 0) == b"\1\1"


@pytest.mark.parametrize(
    "q, rho, length",
    [
        (5, 0.45, 48),  # two base-coded parts, s = 3 and 4
        (5, 0.8, 12),  # s = 1: the run is base-coded over one symbol, all 1s
        (5, 0.5, 12),  # fraction 1: no tail
        (6, 0.5, 2),  # fraction 1 at s = 3: a head of a steering symbol and one digit
        (200, 0.012, 40),  # s = 165: both parts past the batch alphabet bound
        (300, 0.0157, 64),  # s = 126: both parts batched, the tail at the bound
        (300, 0.01556, 64),  # s = 127: the head batched at the bound, the tail not
    ],
)
def test_multisize_batch_equals_per_block(q, rho, length):
    code = codec.SCHEMES["multisize"](q, rho=rho, oligo_length=length)
    rng = random.Random(2003)
    top = (1 << code.width) - 1
    values = [0, top, *(rng.randrange(top + 1) for _ in range(40))]
    s, _ = codec.optimal_alpha(q, rho)
    batched = code.encode_blocks(values)
    if s + 1 >= 128:  # a part past the batch alphabet bound: the batch gives the values back
        assert batched is None
    else:
        assert batched == per_block(code, values)
    assert coded(code, values) == list(map(code.encode_block, values))
    assert coded(code, []) == []


@pytest.mark.parametrize(
    "scheme, kwargs",
    [
        ("base", dict(q=4)),
        ("base", dict(q=127, block_symbols=33)),
        ("base", dict(q=128, block_symbols=7)),
        ("multisize", dict(q=5, rho=0.45)),
        ("multisize", dict(q=5, rho=0.8, oligo_length=12)),
    ],
)
def test_payload_batches_equal_those_of_the_per_block_encoder(monkeypatch, scheme, kwargs):
    payload = bits_from_bytes(random.Random(2004).randbytes(700))
    batched = encode_payload(scheme, payload, **kwargs).to_json()
    build = codec.SCHEMES[scheme]
    monkeypatch.setitem(
        codec.SCHEMES, scheme, lambda q, **options: build(q, **options)._replace(encode_blocks=None)
    )
    assert encode_payload(scheme, payload, **kwargs).to_json() == batched
    assert encode_payload(scheme, "", **kwargs).oligos == ()
