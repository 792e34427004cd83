"""The batch lookup coders against the per-block ones.

codec._lookup_blocks unranks a batch of values into one flat buffer, their
blocks end to end a byte per symbol, and codec._lookup_values ranks each
distinct block of such a buffer once.  Both return None past q = 255 and
wherever the per-block coder, unrank_symbols or rank_symbols, would raise;
decode_payload and encode_payload then map the per-block coder, which names
the first bad block.  The per-block coder is the reference: the batch must
give its blocks and values, and must give up on exactly the inputs where it
raises.
"""

import random
from itertools import product

import pytest

from oligocycle import (
    CorruptDataError, DomainError, EncodedBatch, Oligo, codec, decode_payload, encode_payload,
    subsequence_count,
)
from oligocycle.bits import bits_from_bytes
from oligocycle.counting import rank_symbols, unrank_symbols

# every window of up to 10 cycles over up to 5 symbols
WINDOWS = [
    (q, cycles, length) for q in range(1, 6) for cycles in range(11) for length in range(cycles + 1)
]
# most symbol strings one window's exhaustive check reads
STRINGS = 2401


def reference_rank(q, cycles, block):
    try:
        return rank_symbols(q, cycles, block)
    except DomainError:
        return None


def strings(q, cycles, length):
    """Every string of length symbols over 0..q+1, where there are at most
    STRINGS of them; else every one over 1..q, where there are at most
    STRINGS; else every string in the window and seeded ones over 0..q+1."""
    if (q + 2) ** length <= STRINGS:
        return list(product(range(q + 2), repeat=length))
    if q**length <= STRINGS:
        return list(product(range(1, q + 1), repeat=length))
    count = subsequence_count(q, cycles, length)
    rng = random.Random(f"{q}-{cycles}-{length}")
    inside = [unrank_symbols(q, cycles, length, index) for index in range(count)]
    return inside + [tuple(rng.choices(range(q + 2), k=length)) for _ in range(STRINGS)]


def test_batch_encoder_equals_unrank_on_every_index_of_every_window():
    for q, cycles, length in WINDOWS:
        count = subsequence_count(q, cycles, length)
        values = list(range(count))
        blocks = [unrank_symbols(q, cycles, length, value) for value in values]
        assert codec._lookup_blocks(q, cycles, length, values) == b"".join(map(bytes, blocks))
        # an index past either end of the window: unrank raises, the batch gives up
        for bad in (-1, count):
            with pytest.raises(DomainError):
                unrank_symbols(q, cycles, length, bad)
            assert codec._lookup_blocks(q, cycles, length, values + [bad]) is None


def test_batch_decoder_equals_rank_on_every_symbol_string():
    for q, cycles, length in WINDOWS:
        if not length:  # a lookup oligo holds at least one symbol
            continue
        valid = []
        for block in strings(q, cycles, length):
            value = reference_rank(q, cycles, block)
            flat = bytes(block)
            assert codec._lookup_values(q, cycles, flat, length) == (
                None if value is None else [value]
            ), (q, cycles, block)
            if value is not None:
                valid.append(block)
        # a batch of every valid block, each twice, ranks as the blocks one by one
        blocks = valid + valid[::-1]
        flat = b"".join(map(bytes, blocks))
        expected = [rank_symbols(q, cycles, block) for block in blocks]
        assert codec._lookup_values(q, cycles, flat, length) == expected


def test_one_bad_block_among_good_ones_makes_the_batch_decoder_give_up():
    q, cycles, length = 4, 32, 16
    good = [unrank_symbols(q, cycles, length, index) for index in (0, 7, 12345)]
    outside = (4, 3, 2, 1) * 4  # each symbol a full revolution after the last
    for bad in (outside, (0,) + good[0][1:], good[0][:-1] + (5,)):
        assert reference_rank(q, cycles, bad) is None
        flat = b"".join(map(bytes, good + [bad] + good))
        assert codec._lookup_values(q, cycles, flat, length) is None


def lookup_batch(q, payload, **kwargs):
    return encode_payload("lookup", bits_from_bytes(payload), q=q, **kwargs)


@pytest.mark.parametrize("q", [255, 256, 300])
def test_batches_past_q255_round_trip_through_the_per_block_coders(q):
    payload = random.Random(q).randbytes(200)
    batch = lookup_batch(q, payload, rho=16 / q, depth=1)
    rows = [o.symbols for o in batch.oligos]
    values = [rank_symbols(q, q, row) for row in rows]
    assert rows == [unrank_symbols(q, q, 16, value) for value in values]
    # the batch coders reach q = 255; past it every block is coded one at a time
    coded = codec._lookup_blocks(q, q, 16, values)
    assert coded == (b"".join(map(bytes, rows)) if q <= 255 else None)
    assert getattr(batch.oligos, "flat", None) == coded
    ascending = bytes(range(1, 17))
    assert codec._lookup_values(q, q, ascending, 16) == (None if q > 255 else [0])
    back = EncodedBatch.from_json(batch.to_json())
    assert back == batch
    assert decode_payload(back) == decode_payload(batch) == bits_from_bytes(payload)


def test_a_d2_batch_of_repeated_texts_is_ranked_a_distinct_block_at_a_time(monkeypatch):
    payload = random.Random(2).randbytes(4096)
    batch = lookup_batch(4, payload, rho=0.5, depth=2)
    back = EncodedBatch.from_json(batch.to_json())
    # the texts repeat, so the reader keeps no buffer
    assert type(back.oligos) is tuple
    distinct = set(back.oligos)
    assert len(distinct) < len(back.oligos) // 50
    ranked = []
    decoder = codec._lookup_values

    def recorded(q, cycles, flat, size):
        ranked.append(len(flat) // size)
        return decoder(q, cycles, flat, size)

    monkeypatch.setattr(codec, "_lookup_values", recorded)
    assert decode_payload(back) == decode_payload(batch) == bits_from_bytes(payload)
    # the parsed batch hands over its distinct blocks, the encoded one its buffer of every block
    assert ranked == [len(distinct), len(batch.oligos)]


def test_a_bad_block_is_named_by_the_per_block_message():
    batch = lookup_batch(4, random.Random(5).randbytes(100), rho=0.5, depth=16)
    oligos = list(batch.oligos)
    oligos[3] = Oligo((4, 3, 2, 1) * 8, 4)  # past the window's 64 cycles
    bad = batch._replace(oligos=tuple(oligos))
    back = EncodedBatch.from_json(bad.to_json())
    assert hasattr(back.oligos, "flat")
    for each in (bad, back):
        with pytest.raises(CorruptDataError, match="not a subsequence of the offer prefix"):
            decode_payload(each)
