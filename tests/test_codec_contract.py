"""One contract for every batch coder.

A record's encode_blocks and decode_blocks return the whole batch, exactly
as mapping encode_block or decode_block would, or None when they cannot
code it; codec._coded, the one per-block fallback, then maps the per-block
coder.  Each case checks the batch coders against the per-block map,
encode_payload against the per-block reference, and bad blocks against the
per-block error of the first bad distinct block.
"""

import random

import pytest

from oligocycle import CorruptDataError, EncodedBatch, Oligo, codec, decode_payload, encode_payload
from oligocycle.bits import bits_from_bytes

# (scheme, options, whether the batch coders code a batch at these options)
CASES = [
    ("base", dict(q=4), True),
    ("base", dict(q=127, block_symbols=9), True),
    ("base", dict(q=128, block_symbols=9), False),  # past the batch alphabet bound
    ("base", dict(q=200, block_symbols=5), False),
    ("multisize", dict(q=5, rho=0.45), True),
    ("multisize", dict(q=300, rho=0.01556, oligo_length=64), False),  # s + 1 = 128
    # every q in 4..16 with a flip layout (12 and 13 have none), and a large q
    *(("balanced", dict(q=q), True) for q in (4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 243)),
]
IDS = [f"{scheme}-" + "-".join(map(str, options.values())) for scheme, options, _ in CASES]


def record(scheme, q, **options):
    unset = dict(rho=None, depth=None, oligo_length=None, block_symbols=None)
    return codec.SCHEMES[scheme](q, **{**unset, **options})


def outcome(batch):
    """The payload a batch decodes to, or the error it raises."""
    try:
        return decode_payload(batch)
    except CorruptDataError as exc:
        return str(exc)


@pytest.mark.parametrize("scheme, options, batches", CASES, ids=IDS)
def test_batch_coders_return_none_or_the_per_block_map(monkeypatch, scheme, options, batches):
    rng = random.Random(2301)
    code = record(scheme, **options)
    top = 1 << code.width
    values = list(dict.fromkeys([0, top - 1, *(rng.randrange(top) for _ in range(60))]))
    blocks = list(map(code.encode_block, values))
    for batch, block, items, expected in (
        (code.encode_blocks, code.encode_block, values, blocks),
        (code.decode_blocks, code.decode_block, blocks, values),
    ):
        assert batch(items) == (expected if batches else None)
        assert batch([]) in (None, [])
        assert codec._coded(batch, block, items) == expected

    # encode_payload, and so the batch JSON, equals that of the per-block coders
    payload = bits_from_bytes(rng.randbytes(300))
    text = encode_payload(scheme, payload, **options).to_json()
    batch = EncodedBatch.from_json(text)
    alphabet = batch.spec.max_alphabet
    broken = []
    for _ in range(30):
        oligos = list(batch.oligos)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(oligos))
            symbols = list(oligos[i].symbols)
            symbols[rng.randrange(len(symbols))] = rng.randint(1, alphabet)
            oligos[i] = Oligo(symbols, alphabet)
        broken.append(batch._replace(oligos=tuple(oligos)))
    batched = list(map(outcome, broken))
    build = codec.SCHEMES[scheme]
    monkeypatch.setitem(
        codec.SCHEMES,
        scheme,
        lambda q, **kw: build(q, **kw)._replace(encode_blocks=None, decode_blocks=None),
    )
    assert encode_payload(scheme, payload, **options).to_json() == text
    assert decode_payload(batch) == payload

    # a bad block raises the per-block error of the first bad distinct block
    assert list(map(outcome, broken)) == batched
    assert any(isinstance(result, str) for result in batched)
