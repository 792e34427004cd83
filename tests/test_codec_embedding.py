"""Each block's own checks keep it within its share of the offer program.

Decoding runs no embedding pass: a block that decode_block accepts must fit
the program of one block.  These tests prove that exhaustively at small
sizes, with min_cycles_under as the oracle, over every spelling of a block
from one symbol past the program's alphabet.
"""

import itertools
import random

import pytest

from oligocycle import (
    CorruptDataError,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    decode_payload,
    min_cycles_under,
)
from oligocycle import codec


def accepted_blocks(code):
    """Every block decode_block accepts among the spellings of each allowed
    length over 1..alphabet+1, checked to embed in the one-block program."""
    spec = SupersequenceSpec(code.program(1))
    alphabet = spec.max_alphabet + 1
    accepted = []
    for length in code.lengths:
        for block in itertools.product(range(1, alphabet + 1), repeat=length):
            try:
                code.decode_block(block)
            except (CorruptDataError, DomainError):
                continue
            assert min_cycles_under(spec, Oligo(block, alphabet)) is not None, block
            accepted.append(block)
    # not vacuous: at least as many blocks as the code has codewords
    assert len(accepted) >= code.codewords() >= 1
    return accepted


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_every_accepted_base_block_embeds(q, size):
    accepted_blocks(codec.SCHEMES["base"](q, block_symbols=size))


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("rho", [0.45, 0.8])
def test_every_accepted_multisize_block_embeds(q, rho):
    s, _ = codec.optimal_alpha(q, rho)
    assert s == (1 if rho == 0.8 else 3)  # a base-coded head over 1 symbol (all 1s) or 3
    headed = 0
    for length in range(1, 7):
        code = codec.SCHEMES["multisize"](q, rho=rho, oligo_length=length)
        headed += len(code.program(1)) == 2  # a head over s, then a tail over s + 1
        accepted_blocks(code)
    assert headed


def test_every_accepted_balanced_block_embeds_and_blocks_join():
    code = codec.SCHEMES["balanced"](8)
    accepted = accepted_blocks(code)
    # joined end to end, n accepted blocks fit the program of n blocks
    rng = random.Random(13)
    for n in range(1, 9):
        symbols = sum((rng.choice(accepted) for _ in range(n)), ())
        spec = SupersequenceSpec(code.program(n))
        assert min_cycles_under(spec, Oligo(symbols, spec.max_alphabet)) is not None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_every_accepted_window_block_embeds(q):
    accepted_blocks(codec.SCHEMES["window"](q))


@pytest.mark.parametrize("q, rhos", [(3, [1 / 3, 0.5, 2 / 3]), (4, [0.25, 0.5, 0.75])])
def test_every_accepted_lookup_block_embeds(q, rhos):
    for rho in rhos:
        accepted_blocks(codec.SCHEMES["lookup"](q, rho=rho, depth=2))


def test_a_window_symbol_past_the_program_alphabet_is_refused():
    # the oligo's own alphabet admits 7, the q6 program offers only 1..6
    batch = EncodedBatch("window", 6, 0.5, 5, SupersequenceSpec(((6, 6),)), (Oligo((7,), 10),))
    with pytest.raises(CorruptDataError, match="1..6"):
        decode_payload(batch)
