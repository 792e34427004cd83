"""The batch base-q decoder against the per-block one.

codec._steered_batch decodes equal-length steered blocks at once from one
flat buffer, their symbols end to end a byte each, on byte fields of big
integers, and returns None at q >= 128 or when any block is bad;
decode_payload then maps codec._base_value over the blocks in order, as it
does when a symbol lies above 255 and there is no flat buffer.  The
per-block decoder is the reference: the batch must return its values, and
must give up on exactly the batches where some block makes it raise.
"""

import random
from functools import partial

import pytest

from oligocycle import CorruptDataError, EncodedBatch, codec, decode_payload, encode_payload
from oligocycle.bits import bits_from_bytes
from oracles import STEERING_EDGES, value_with_digit_sum


def flat(blocks):
    """The blocks' symbols end to end, a byte each; None when a symbol lies
    outside 0..255, where decode_payload has no flat buffer."""
    try:
        return b"".join(map(bytes, blocks))
    except ValueError:
        return None


def first_fault(decode, blocks):
    """The values decode returns for blocks, or the message it raises."""
    try:
        return decode(blocks)
    except CorruptDataError as exc:
        return str(exc)


def one_by_one(q, blocks):
    """The reference: _base_value over the blocks in order, up to the first that raises."""
    return first_fault(lambda b: [codec._base_value(q, block) for block in b], blocks)


def batched(q, blocks):
    """The batch decoder over the flat buffer, as decode_payload calls it,
    then the per-block decoder mapped over the blocks when it gives up."""

    def decode(blocks):
        data = flat(blocks)
        values = None if data is None else codec._steered_batch(q, data, len(blocks[0]) if blocks else 1)
        return list(map(partial(codec._base_value, q), blocks)) if values is None else values

    return first_fault(decode, blocks)


def steered(q, n, values):
    return [codec._steer(q, codec._gaps(q, value, n)) for value in values]


def test_batch_equals_per_block_for_every_value_of_small_blocks():
    for q in range(2, 7):
        for n in range(1, 7):
            values = list(range(q**n))
            blocks = steered(q, n, values)
            assert one_by_one(q, blocks) == values
            assert codec._steered_batch(q, flat(blocks), n + 1) == values, (q, n)
            assert batched(q, blocks) == values


def test_batch_equals_per_block_on_seeded_blocks_up_to_the_symbol_bound():
    rng = random.Random(1901)
    # n digits pad to 2**r fields, so test either side of each power of two
    edges = [n for k in range(12) for n in (2**k - 1, 2**k, 2**k + 1)]
    sizes = sorted({n for n in edges if 1 <= n <= codec._MAX_BLOCK_SYMBOLS})
    assert codec._MAX_BLOCK_SYMBOLS in sizes
    # every size at three alphabets, and every alphabet at a short size
    cases = [(q, n) for n in sizes for q in rng.sample(range(7, 128), 3)]
    cases += [(q, rng.randint(1, 64)) for q in range(7, 128)]
    for q, n in cases:
        count = 3 if n > 256 else 12
        values = [rng.randrange(q**n) for _ in range(count)] + [0, q**n - 1]
        blocks = steered(q, n, values)
        assert codec._steered_batch(q, flat(blocks), n + 1) == values, (q, n)
    # the largest block at the largest batch alphabet, one with every digit
    # at its top, 126, so each field and the steering sum reach their bounds
    values = [rng.randrange(127**2048) for _ in range(3)] + [127**2048 - 1]
    blocks = steered(127, 2048, values)
    assert one_by_one(127, blocks) == values
    assert codec._steered_batch(127, flat(blocks), 2049) == values


def test_blocks_at_and_just_past_the_steering_midpoint_match_per_block():
    # a block flips when its digits total more than (q-1)n//2: one block at
    # that total and one past it, at sizes where a block's digit total
    # outgrows one byte, or a byte less its top bit, and then two; with the
    # other steering symbol, the batch gives up just where the block raises
    rng = random.Random(1906)
    for q, n in STEERING_EDGES:
        limit = (q - 1) * n // 2
        values = [value_with_digit_sum(rng, q, n, total) for total in (limit, limit + 1)]
        blocks = steered(q, n, values)
        assert [block[0] for block in blocks] == [1, 2]
        assert codec._steered_batch(q, flat(blocks), n + 1) == values, (q, n)
        for i in range(2):
            swapped = list(blocks)
            swapped[i] = (3 - blocks[i][0],) + blocks[i][1:]
            assert batched(q, swapped) == one_by_one(q, swapped), (q, n, i)


def corrupt(rng, q, block):
    """The block with one symbol changed, steering symbol included, to a
    positive int as an Oligo may hold."""
    block = list(block)
    i = rng.randrange(len(block))
    block[i] = rng.choice([1, 2, q, q + 1, 255, 256, 2**70, rng.randint(1, q)])
    return tuple(block)


def test_batch_gives_up_exactly_where_a_block_raises_and_the_same_error_wins():
    rng = random.Random(1902)
    for q in [2, 3, 4, 5, 9, 16, 64, 127, 128, 200]:
        for n in (1, 2, 7, 32):
            for _ in range(25):
                blocks = steered(q, n, [rng.randrange(q**n) for _ in range(8)])
                for i in rng.sample(range(8), rng.randint(0, 3)):
                    blocks[i] = corrupt(rng, q, blocks[i])
                expected = one_by_one(q, blocks)
                data = flat(blocks)  # None where a symbol lies above 255
                batch = None if data is None else codec._steered_batch(q, data, n + 1)
                if q < 128:
                    assert (batch is None) == isinstance(expected, str), (q, blocks)
                else:
                    assert batch is None
                assert batched(q, blocks) == expected, (q, blocks)
                # a fault is named for the first bad block: the blocks before it decode
                k = next((i for i in range(8) if isinstance(one_by_one(q, blocks[: i + 1]), str)), 8)
                assert batched(q, blocks[:k]) == one_by_one(q, blocks[:k])


def test_batch_alphabet_bound_falls_back_to_the_per_block_decoder():
    rng = random.Random(1903)
    for q in (127, 128):
        values = [rng.randrange(q**9) for _ in range(20)]
        blocks = steered(q, 9, values)
        # the top symbol, q, as a steered symbol and as a bad steering symbol
        blocks.append(codec._steer(q, (q - 1,) + (1,) * 8))
        values.append(codec._base_value(q, blocks[-1]))
        assert blocks[-1][1] == q
        # the batch decodes at 127 and gives the blocks back at 128
        assert codec._steered_batch(q, flat(blocks), 10) == (values if q == 127 else None)
        assert batched(q, blocks) == values
        assert batched(q, [(q,) + blocks[0][1:]]) == "steering symbol must be 1 or 2"
    assert codec._steered_batch(5, b"", 10) is None
    assert batched(5, []) == []


def test_empty_and_steering_only_blocks_match_the_per_block_decoder():
    # symbols no Oligo holds, 0 and below, leave the batch to the per-block decoder too
    for blocks in ([()], [(1,), (1,)], [(2,)], [(1,), (3,)], [(1, 0, 4)], [(1, 4), (2, -1)]):
        assert batched(4, blocks) == one_by_one(4, blocks)


def test_one_symbol_blocks_are_runs_of_1s_in_batch_as_per_block():
    # multisize's run at s = 1: every value is 0, every block all 1s
    for n in (0, 1, 23, 47):
        blocks = steered(1, n, [0] * 5)
        assert blocks == [(1,) * (n + 1)] * 5
        assert codec._base_blocks(1, [0] * 5, n) == flat(blocks)
        assert codec._steered_batch(1, flat(blocks), n + 1) == [0] * 5
        # one symbol 2, steering slot or digit, leaves the block to the per-block decoder
        for i in range(n + 1):
            bad = blocks[:2] + [blocks[2][:i] + (2,) + blocks[2][i + 1 :]] + blocks[3:]
            assert codec._steered_batch(1, flat(bad), n + 1) is None


@pytest.mark.parametrize(
    "q, rho, length",
    [
        (5, 0.45, 48),  # two base-coded parts, s = 3 and 4
        (5, 0.8, 12),  # s = 1: the run is base-coded over one symbol, all 1s
        (5, 0.5, 12),  # fraction 1: no tail
        (200, 0.012, 40),  # s = 165: both parts past the batch alphabet bound
    ],
)
def test_multisize_bulk_decoder_matches_per_block_values_and_first_fault(q, rho, length):
    code = codec.SCHEMES["multisize"](q, rho=rho, oligo_length=length)
    s, fraction = codec.optimal_alpha(q, rho)
    run = int(fraction * length + 1e-9)  # the head's symbols, as the scheme splits them
    rng = random.Random(1904)
    top = 1 << code.width

    def decode(blocks):
        values = code.decode_blocks(flat(blocks), length)
        return list(map(code.decode_block, blocks)) if values is None else values

    for _ in range(40):
        values = [rng.randrange(top) for _ in range(10)]
        blocks = [code.encode_block(v) for v in values]
        # s = 165 is past the batch alphabet bound: the batch gives the blocks back
        assert code.decode_blocks(flat(blocks), length) == (None if q == 200 else values)
        assert decode(blocks) == values
        for i in rng.sample(range(10), rng.randint(1, 3)):
            # a fault in the head or the tail, so both orders between blocks occur
            j = rng.randrange(run) if run and rng.random() < 0.5 else rng.randrange(length)
            block = list(blocks[i])
            block[j] = rng.randint(1, s + 2 if j >= run else s + 1)
            blocks[i] = tuple(block)
        expected = first_fault(lambda b: [code.decode_block(x) for x in b], blocks)
        # the batch gives up exactly where a block raises
        batch = code.decode_blocks(flat(blocks), length)
        assert batch is None if q == 200 or isinstance(expected, str) else batch == expected
        assert first_fault(decode, blocks) == expected


def test_multisize_with_an_uncoded_run_and_an_empty_tail_round_trip():
    payload = bits_from_bytes(random.Random(1905).randbytes(300))
    for rho in (0.8, 0.5):
        batch = encode_payload("multisize", payload, q=5, rho=rho, oligo_length=12)
        assert decode_payload(EncodedBatch.from_json(batch.to_json())) == payload
    batch = encode_payload("multisize", payload, q=5, rho=0.8, oligo_length=12)
    ones = batch.oligos[0].symbols[:6]
    assert ones == (1,) * 6  # s = 1: a run of six 1s, then six symbols over 1..2
