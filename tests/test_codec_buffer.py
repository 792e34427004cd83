"""Batches that carry a flat symbol buffer behave as their plain-tuple twins.

encode_payload and EncodedBatch.from_json keep the symbols of a batch whose
oligos have one length end to end in one bytes beside the oligos, and
to_json and decode_payload read that buffer.  Each such batch must render,
decode or refuse, compare, hash, print and pickle exactly as its twin, the
same batch with its oligos in a plain tuple, which takes the per-row path.
"""

import pickle
import random

import pytest

from oligocycle import CorruptDataError, EncodedBatch, decode_payload, encode_payload
from oligocycle.bits import bits_from_bytes
from test_codec_golden import PAYLOADS as GOLDEN_PAYLOADS, SETUPS, text_edited

PAYLOADS = {
    "zeros": bytes(300),
    "pattern": b"\x5a\xc3\x0f" * 100,
    "empty": b"",
    "random": random.Random(33).randbytes(300),
}
# the setups whose batch coders write every block into one buffer
CODED = {
    "base-q4-b32", "base-q5-b7", "base-q127-b7", "multisize-q5-45", "multisize-q4-80",
    "balanced-q16", "balanced-q8", "lookup-q4-d2", "lookup-q4-d16",
}


def twin(batch):
    return batch._replace(oligos=tuple(batch.oligos))


def outcome(batch):
    """decode_payload's result, or the class and message of what it raised."""
    try:
        return decode_payload(batch)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)


def check_buffer(batch):
    """The buffer, where the batch carries one, is its oligos' symbols end
    to end, and the batch is its twin in all but that buffer."""
    oligos, plain = batch.oligos, twin(batch)
    flat = getattr(oligos, "flat", None)
    if flat is not None:
        assert oligos and len({len(o) for o in oligos}) == 1
        assert flat == b"".join(bytes(o.symbols) for o in oligos)
    assert type(plain.oligos) is tuple and not hasattr(plain.oligos, "flat")
    assert batch == plain and hash(batch) == hash(plain) and repr(batch) == repr(plain)
    loaded = pickle.loads(pickle.dumps(batch))
    assert loaded == plain and type(loaded.oligos) is tuple
    assert type(batch.oligos[:1]) is tuple and type(batch.oligos + ()) is tuple
    return flat


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_buffered_batches_render_and_decode_as_their_twins(setup, payload):
    scheme, kwargs = SETUPS[setup]
    bits = bits_from_bytes(PAYLOADS[payload])
    batch = encode_payload(scheme, bits, **kwargs)
    text = batch.to_json()
    assert text == twin(batch).to_json()
    assert outcome(batch) == outcome(twin(batch)) == bits
    back = EncodedBatch.from_json(text)
    assert back == batch and back.to_json() == text
    assert outcome(back) == outcome(twin(back)) == bits
    encoded, parsed = check_buffer(batch), check_buffer(back)
    # each batch coder's batch keeps its buffer, repeated blocks and all;
    # a parsed one keeps the reader's when no text repeats
    assert (encoded is not None) == (setup in CODED and bool(bits))
    rows = [o.symbols for o in batch.oligos]
    one_length = len(set(map(len, rows))) == 1
    assert (parsed is not None) == (one_length and len(set(rows)) == len(rows) and batch.q < 256)


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_edited_batch_text_decodes_as_its_twin(setup):
    # character-level edits of each setup's 2 KiB batch JSON: whatever the
    # reader makes of the text, the buffered batch decodes as its twin
    scheme, kwargs = SETUPS[setup]
    text = encode_payload(scheme, bits_from_bytes(GOLDEN_PAYLOADS["2k"]), **kwargs).to_json()
    rng = random.Random(f"buffer-edits-{setup}")
    for _ in range(30):
        edited = text_edited(text, rng)
        try:
            batch = EncodedBatch.from_json(edited)
        except CorruptDataError:  # the reader refused the text: no batch to compare
            continue
        check_buffer(batch)
        assert outcome(batch) == outcome(twin(batch))
        assert batch.to_json() == twin(batch).to_json()
