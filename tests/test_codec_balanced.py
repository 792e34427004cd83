"""Balanced scheme: prefix-flip balancing, block layout, and batch behavior.

The exhaustive checks double as completeness proofs for the small word
sizes: every word must come back from its balanced form, at exact weight.
"""

import random

import pytest

from oligocycle import (
    CorruptDataError,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    balanced_params,
    decode_payload,
    encode_payload,
    min_cycles_under,
)
from oligocycle import codec
from oligocycle.bits import balance_word, balanced_data_bits, gray_encode, unbalance_word
from oligocycle.codec import SCHEMES
from oracles import synthesis_cycles


def knuth_balance(word):
    """balance_word on a '0'/'1' string, written out at its full width."""
    f = len(word)
    return format(balance_word(int(word, 2), f), f"0{f + (f - 1).bit_length() + 1}b")


def knuth_unbalance(word, f):
    """unbalance_word on a '0'/'1' string, back to f bits."""
    return format(unbalance_word(int(word, 2), f), f"0{f}b")


def test_params_table():
    assert balanced_params(4) == (2, 4)
    assert balanced_params(5) == (2, 4)
    assert balanced_params(6) == (3, 6)
    assert balanced_params(7) == (4, 7)
    assert balanced_params(8) == (4, 7)
    assert balanced_params(16) == (11, 16)
    assert balanced_params(32) == (26, 32)


def test_params_rejects_small_alphabets():
    for q in (0, 1, 2, 3):
        with pytest.raises(DomainError):
            balanced_params(q)


def test_params_refuses_a_float_and_a_bool_right_after_the_int():
    assert balanced_params(4) == (2, 4)
    for q in (4.0, True):
        with pytest.raises(DomainError, match="is not an int"):
            balanced_params(q)
    assert balanced_params(4) == (2, 4)


def test_params_rejects_unbalanceable_word_sizes():
    # q=12 and q=13 land on 8 data bits, where words like 11110000 admit no
    # flip count: the redundancy cannot come back to the target weight
    for q in (12, 13, 20, 21, 22):
        with pytest.raises(DomainError):
            balanced_params(q)


def test_every_accepted_block_size_fits_a_byte():
    # the batch coders hold a position in a byte: every block size of
    # q = 4..256 is at most q, and q = 256, whose size would be 256, is refused
    for q in range(4, 257):
        f = balanced_data_bits(q)
        assert f + (f - 1).bit_length() + 1 <= q, q
    with pytest.raises(DomainError):
        balanced_params(256)


def test_knuth_balance_worked_example():
    assert knuth_balance("100") == "010110"
    assert knuth_unbalance("010110", 3) == "100"


def test_knuth_balance_exhaustive_small_sizes():
    for f in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11):
        g = (f - 1).bit_length()
        size = f + g + 1
        target = size // 2
        seen = set()
        for value in range(1 << f):
            word = format(value, f"0{f}b")
            balanced = knuth_balance(word)
            assert len(balanced) == size
            assert balanced.count("1") == target
            assert knuth_unbalance(balanced, f) == word
            seen.add(balanced)
        assert len(seen) == 1 << f


def test_knuth_balance_large_size_randomized():
    rng = random.Random(31)
    for _ in range(2000):
        word = format(rng.getrandbits(26), "026b")
        balanced = knuth_balance(word)
        assert len(balanced) == 32
        assert balanced.count("1") == 16
        assert knuth_unbalance(balanced, 26) == word


def test_unbalance_rejects_bad_blocks():
    with pytest.raises(CorruptDataError):
        knuth_unbalance("110110", 3)  # weight 4, target 3


def test_block_encode_worked_example():
    assert SCHEMES["balanced"](6).encode_block(0b100) == (2, 4, 5)


def test_block_shape_exhaustive_per_alphabet():
    for q in (4, 5, 6, 7, 8, 9, 10, 11, 14, 16):
        f, block_alphabet = balanced_params(q)
        half = block_alphabet // 2
        code = SCHEMES["balanced"](q)
        for value in range(1 << f):
            block = code.encode_block(value)
            assert len(block) == half
            assert all(b > a for a, b in zip(block, block[1:]))
            # ascending symbols fit inside one revolution of the block alphabet
            assert synthesis_cycles(Oligo(block, block_alphabet)) <= block_alphabet
            assert code.decode_block(block) == value


def test_block_decode_rejects_tampering():
    code = SCHEMES["balanced"](8)
    good = code.encode_block(0b1010)
    with pytest.raises(CorruptDataError):
        code.decode_block(good[:-1])
    with pytest.raises(CorruptDataError):
        code.decode_block(tuple(reversed(good)))


def test_batch_round_trip_and_budget():
    rng = random.Random(37)
    for q in (4, 8, 16, 32):
        f, block_alphabet = balanced_params(q)
        for count in (0, 1, f, 5 * f + 2, 200):
            bits = "".join(rng.choice("01") for _ in range(count))
            batch = encode_payload("balanced", bits, q=q)
            assert decode_payload(batch) == bits
            blocks = -(-count // f) if count else 0
            assert batch.spec.segments == ((block_alphabet, blocks * block_alphabet),)
            if blocks:
                oligo = batch.oligos[0]
                assert len(oligo) == blocks * (block_alphabet // 2)
                need = min_cycles_under(batch.spec, oligo)
                assert need is not None and need <= batch.spec.total_cycles
            else:
                assert batch.oligos == ()


def test_batch_decode_rejects_extra_oligos():
    batch = encode_payload("balanced", "1100", q=8)
    doubled = EncodedBatch(
        batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec,
        batch.oligos + batch.oligos,
    )
    with pytest.raises(CorruptDataError):
        decode_payload(doubled)


def test_batch_decode_rejects_ragged_length():
    batch = encode_payload("balanced", "1100", q=8)
    clipped = (Oligo(batch.oligos[0].symbols[:-1], batch.oligos[0].q),)
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch(batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, clipped)
        )


# --- the batch coders against the per-block ones ---


def flat(blocks):
    """The blocks' positions end to end, a byte each, as encode_blocks writes
    them and decode_payload hands them to decode_blocks."""
    return b"".join(map(bytes, blocks))


def test_batch_coders_equal_the_block_coders_on_every_value_up_to_q16():
    for q in range(4, 17):
        try:
            f, size = balanced_params(q)
        except DomainError:
            continue
        code = SCHEMES["balanced"](q)
        values = list(range(1 << f))
        blocks = list(map(code.encode_block, values))
        assert code.encode_blocks(values) == flat(blocks), q
        assert code.decode_blocks(flat(blocks), size // 2) == values, q
    assert SCHEMES["balanced"](16).encode_blocks([]) == b""
    assert SCHEMES["balanced"](16).decode_blocks(b"", 8) == []


def word_positions(word, size):
    return tuple(v for v in range(1, size + 1) if word >> (size - v) & 1)


def test_batch_coders_equal_the_word_coders_at_every_block_size():
    # every q in 4..255, whether or not its flip layout is complete (checking
    # that for every q takes half a minute): where balance_word raises for
    # some value, the batch encoder hands the values back to it with None
    rng = random.Random(41)
    for q in range(4, 256):
        f = balanced_data_bits(q)
        size = f + (f - 1).bit_length() + 1
        ones = (1 << f) - 1
        alternating = int("10" * f, 2) >> f
        values = [0, ones, alternating, ones ^ alternating]
        values += [rng.getrandbits(f) for _ in range(40)]
        try:
            words = [balance_word(value, f) for value in values]
        except DomainError:
            assert codec._balanced_blocks(f, size, values) is None, q
            continue
        blocks = [word_positions(word, size) for word in words]
        assert codec._balanced_blocks(f, size, values) == flat(blocks), q
        assert codec._balanced_values(f, size, flat(blocks), size // 2) == values, q
        assert [unbalance_word(word, f) for word in words] == values


def gray_past_f_block(f, size):
    """Ascending positions of a word of half weight whose Gray code counts past f flips."""
    g = (f - 1).bit_length()
    k = f + 1
    assert k < 1 << g
    head = (1 << (size // 2 - gray_encode(k).bit_count())) - 1
    return word_positions(head << (size - f) | gray_encode(k) << 1, size)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda block, size: block[:2] + (block[3], block[2]) + block[4:], "strictly ascending"),
        (lambda block, size: block[:2] + (block[1],) + block[3:], "strictly ascending"),
        (lambda block, size: block[:-1] + (size + 1,), "symbol out of range"),
        (lambda block, size: gray_past_f_block(*balanced_params(16)), "flip count exceeds"),
    ],
    ids=["descent", "repeat", "size+1", "gray-past-f"],
)
def test_batch_decoder_names_the_first_bad_block(fault, message):
    f, size = balanced_params(16)
    code = SCHEMES["balanced"](16)
    blocks = list(zip(*[iter(code.encode_blocks(list(range(0, 2048, 97))))] * (size // 2)))
    bad = fault(blocks[5], size)
    with pytest.raises(CorruptDataError) as expected:
        code.decode_block(bad)
    assert message in str(expected.value)
    # a different fault later on must not win over the first one
    later = blocks[9][:-1] + (0,) if message != "symbol out of range" else blocks[9][::-1]
    for batch in (blocks[:5] + [bad] + blocks[5:], blocks[:5] + [bad, later] + blocks[5:]):
        assert code.decode_blocks(flat(batch), size // 2) is None
        with pytest.raises(CorruptDataError) as caught:
            list(map(code.decode_block, batch))
        assert str(caught.value) == str(expected.value)
    # and through a whole batch, joined into one oligo
    values = list(range(0, 2048, 97))
    batch = encode_payload("balanced", "".join(format(v, "011b") for v in values), q=16)
    symbols = batch.oligos[0].symbols
    oligo = symbols[: 5 * (size // 2)] + bad + symbols[5 * (size // 2) :]
    broken = batch._replace(
        payload_bits=batch.payload_bits + f,
        spec=SupersequenceSpec(((size, (len(values) + 1) * size),)),
        oligos=(Oligo(oligo, size + 1 if max(bad) > size else size),),
    )
    with pytest.raises(CorruptDataError) as caught:
        decode_payload(broken)
    assert str(caught.value) == str(expected.value)
