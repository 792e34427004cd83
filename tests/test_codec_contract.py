"""One contract for every batch coder.

A record's encode_blocks writes the blocks of a list of values into one
flat buffer, end to end a byte per symbol, and decode_blocks(flat, size)
reads such a buffer of size-symbol blocks, each exactly as mapping
encode_block or decode_block would, or returns None when it cannot code the
batch; the generic codec then maps the per-block coder over the batch in
order.  Each case checks the batch coders against the per-block map,
encode_payload against the per-block reference, and bad blocks against the
per-block error of the first bad distinct block.
"""

import hashlib
import random

import pytest

from oligocycle import (
    CorruptDataError, EncodedBatch, Oligo, codec, decode_payload, encode_payload, sequence
)
from oligocycle.bits import bits_from_bytes
from test_codec_golden import DIGESTS, PAYLOADS, SETUPS

# (scheme, options, whether the batch coders code a batch at these options)
CASES = [
    ("base", dict(q=4), True),
    ("base", dict(q=127, block_symbols=9), True),
    ("base", dict(q=128, block_symbols=9), False),  # past the batch alphabet bound
    ("base", dict(q=200, block_symbols=5), False),
    ("base", dict(q=300, block_symbols=4), False),  # symbols above 255 have no flat buffer
    ("multisize", dict(q=5, rho=0.45), True),
    ("multisize", dict(q=5, rho=0.8, oligo_length=12), True),  # s = 1: a run of 1s
    # s = 1 with a one-symbol run, which carries no digit, and a tail over 2
    ("multisize", dict(q=5, rho=0.8, oligo_length=3), True),
    ("multisize", dict(q=4, rho=0.4, oligo_length=6), True),  # s = 3 at the edge: an empty run
    ("multisize", dict(q=300, rho=0.01556, oligo_length=64), False),  # s + 1 = 128
    # every q in 4..16 with a flip layout (12 and 13 have none), and a large q
    # each side of size 128, where the batch decoder's ascent fields widen to 16 bits
    *(("balanced", dict(q=q), True) for q in (4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 125, 243)),
]
IDS = [f"{scheme}-" + "-".join(map(str, options.values())) for scheme, options, _ in CASES]


def record(scheme, q, **options):
    unset = dict(rho=None, depth=None, oligo_length=None, block_symbols=None)
    return codec.SCHEMES[scheme](q, **{**unset, **options})


def flat(blocks):
    """The blocks' symbols end to end, a byte each, as decode_payload hands
    them to decode_blocks; None when a symbol lies above 255."""
    try:
        return b"".join(map(bytes, blocks))
    except ValueError:
        return None


def outcome(batch):
    """The payload a batch decodes to, or the error it raises."""
    try:
        return decode_payload(batch)
    except CorruptDataError as exc:
        return str(exc)


def first_fault(code, batch):
    """The error of the first block of batch, in batch order, that the
    per-block decoder refuses; None when it refuses none."""
    blocks = [oligo.symbols for oligo in batch.oligos]
    if code.joined:
        size = code.lengths[0]
        blocks = [blocks[0][i : i + size] for i in range(0, len(blocks[0]), size)]
    for block in blocks:
        try:
            code.decode_block(block)
        except CorruptDataError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("scheme, options, batches", CASES, ids=IDS)
def test_batch_coders_return_none_or_the_per_block_map(monkeypatch, scheme, options, batches):
    rng = random.Random(2301)
    code = record(scheme, **options)
    top = 1 << code.width
    values = list(dict.fromkeys([0, top - 1, *(rng.randrange(top) for _ in range(60))]))
    blocks = list(map(code.encode_block, values))
    size = len(blocks[0])
    data = flat(blocks)
    assert (data is None) == (max(map(max, blocks)) > 255)
    assert code.encode_blocks(values) == (data if batches else None)
    assert code.encode_blocks([]) in (None, b"")
    if batches:  # encode_payload splits the buffer back into the blocks
        assert list(zip(*[iter(code.encode_blocks(values))] * size)) == blocks
    if data is not None:
        assert code.decode_blocks(data, size) == (values if batches else None)
    assert code.decode_blocks(b"", size) in (None, [])
    assert list(map(code.decode_block, blocks)) == values

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
    for spoiled, result in zip(broken, batched):
        assert first_fault(code, spoiled) in (None, result)
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


# (setup, oligo, symbol index, new symbol or None to swap it with the next, message)
SPOILED = {
    "base-q4-b32": (1, 0, 3, "steering symbol must be 1 or 2"),
    "base-q5-b7": (1, 0, 3, "steering symbol must be 1 or 2"),
    "multisize-q5-45": (1, 0, 3, "steering symbol must be 1 or 2"),  # the head's, over s = 3
    "multisize-q4-80": (1, 0, 2, "constant run segment must be all 1s"),  # s = 1
    "balanced-q16": (0, 8, None, "block oligo must be strictly ascending"),  # block 1
    "balanced-q8": (0, 3, None, "block oligo must be strictly ascending"),
}


@pytest.mark.parametrize("setup", sorted(SPOILED))
def test_batch_decoders_decode_the_golden_batches_alone(monkeypatch, setup):
    # with a per-block decoder that raises, every golden batch of a scheme
    # with a batch decoder still decodes: the flat path decodes them alone
    scheme, options = SETUPS[setup]
    texts = {
        name: encode_payload(scheme, bits_from_bytes(data), **options).to_json()
        for name, data in PAYLOADS.items()
    }
    build = codec.SCHEMES[scheme]

    def refuse(symbols):
        raise AssertionError("the per-block decoder ran")

    monkeypatch.setitem(
        codec.SCHEMES, scheme, lambda q, **kw: build(q, **kw)._replace(decode_block=refuse)
    )
    for name, data in PAYLOADS.items():
        assert decode_payload(EncodedBatch.from_json(texts[name])) == bits_from_bytes(data)

    # one bad block leaves the batch to the per-block decoder, which names it
    batch = EncodedBatch.from_json(texts["2k"])
    oligo, index, symbol, message = SPOILED[setup]
    symbols = list(batch.oligos[oligo].symbols)
    if symbol is None:
        symbols[index], symbols[index + 1] = symbols[index + 1], symbols[index]
    else:
        symbols[index] = symbol
    oligos = list(batch.oligos)
    oligos[oligo] = Oligo(symbols, batch.spec.max_alphabet)
    broken = batch._replace(oligos=tuple(oligos))
    with pytest.raises(AssertionError, match="per-block decoder ran"):
        decode_payload(broken)
    monkeypatch.undo()
    with pytest.raises(CorruptDataError, match=f"^{message}$"):
        decode_payload(broken)


@pytest.mark.parametrize(
    "setup",
    ["base-q4-b32", "base-q127-b7", "multisize-q5-45", "multisize-q4-80", "balanced-q16", "balanced-q8"],
)
def test_batch_encoders_encode_the_golden_batches_alone(monkeypatch, setup):
    # with the per-block encoders' steps raising, every golden batch of a
    # scheme with a batch encoder still encodes, byte for byte: a silent
    # fallback to the per-block encoder fails here, not only the benchmark
    def refuse(*_):
        raise AssertionError("the per-block encoder ran")

    monkeypatch.setattr(codec, "_gaps", refuse)
    monkeypatch.setattr(codec, "_steer", refuse)
    monkeypatch.setattr(codec, "balance_word", refuse)  # the per-block balanced encoder's
    scheme, options = SETUPS[setup]
    for name, data in PAYLOADS.items():
        text = encode_payload(scheme, bits_from_bytes(data), **options).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[setup, name]
    # past the batch alphabet bound the per-block encoder runs, and meets the patch
    for bound in ("base-q128-b7", "multisize-q128-s127"):
        scheme, options = SETUPS[bound]
        with pytest.raises(AssertionError, match="per-block encoder ran"):
            encode_payload(scheme, bits_from_bytes(PAYLOADS["one"]), **options)


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_golden_batches_parse_and_balanced_decodes_on_the_byte_paths_alone(monkeypatch, setup):
    # every golden batch, whose largest alphabet is at most 255, parses with
    # the per-text parser raising, and balanced decodes with its per-block
    # reference raising: a silent fallback fails here, not only the benchmark
    scheme, options = SETUPS[setup]
    texts = {
        name: encode_payload(scheme, bits_from_bytes(data), **options).to_json()
        for name, data in PAYLOADS.items()
    }

    def refuse(*_):
        raise AssertionError("a per-text or per-block step ran")

    monkeypatch.setattr(sequence, "_parse_each", refuse)
    monkeypatch.setattr(codec, "unbalance_word", refuse)  # balanced decode_block's reference
    for name, data in PAYLOADS.items():
        batch = EncodedBatch.from_json(texts[name])
        assert batch.spec.max_alphabet <= 255
        if scheme == "balanced":
            assert decode_payload(batch) == bits_from_bytes(data)
    # a text the canonical reader refuses takes the per-text path, and meets the patch
    spaced = texts["one"].replace('"oligos": [\n    "', '"oligos": [\n    " ', 1)
    assert spaced != texts["one"]
    with pytest.raises(AssertionError, match="per-text or per-block step ran"):
        EncodedBatch.from_json(spaced)
