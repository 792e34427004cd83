"""Mutation fuzz gate: decoding a damaged batch ends in a payload or a clean refusal.

Valid batches of all five schemes are mutated one field at a time: oligo
text, oligo lengths, the program, q, rho, payload_bits, and dropped or
duplicated oligos.  Every case must end quickly in a decoded payload of the
declared length, a CorruptDataError or a DomainError; a case whose mutation
left the batch's content unchanged (say, "+1" for "1") must recover the
payload exactly, and a case that decodes must have every oligo embed in
its program.  A mutated oligo can be another valid codeword, so a
changed batch may decode to another payload: only a digest could tell.
The raw text of a batch file is fuzzed too: truncated, with bytes flipped
or inserted, with a value wrapped in deep nesting, with invalid UTF-8, or
with one token of one oligo respelled (split in two, merged with the next,
behind a 0 or a space, in full-width digits, as q+1 or with a digit
dropped, over one-, two- and three-digit symbols alike), and decoded
through the CLI, which must exit 0, 2 or 3.  Both corpora also go through
from_json and decode_payload twice, as read and with the oligos moved into
a plain tuple, which drops the reader's flat symbol buffer: the payload or
refusal and the rewritten JSON must match.  Short texts over the
characters of canonical oligo text and its near misses parse exactly as
the parser's per-text path reads them, result or error.
The examples are fixed so the gate is deterministic.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest

from oligocycle import (
    CorruptDataError, DomainError, EncodedBatch, decode_payload, encode_payload, min_cycles_under
)
from oligocycle.bits import bits_from_bytes
from oligocycle.cli import main
from test_sequence import ALPHABETS, TEXT_CHARACTERS, parse_outcome, per_token

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

SETUPS = [
    ("base", dict(q=4, block_symbols=7)),
    ("lookup", dict(q=4, rho=0.5, depth=2)),
    ("multisize", dict(q=5, rho=0.45, oligo_length=12)),
    ("balanced", dict(q=8)),
    ("window", dict(q=6)),
    ("base", dict(q=130, block_symbols=5)),  # past the batch decoder's alphabet bound
    ("multisize", dict(q=5, rho=0.8, oligo_length=12)),  # s = 1: a base-coded run of 1s
    ("balanced", dict(q=16)),  # two-digit symbols through the batch decoder
]
SECONDS_PER_CASE = 2.0
FIXED = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def symbol_edit(draw, tokens, q):
    """One token rewritten: another value in -1..q+2, or the same value spelled another way."""
    j = draw(st.integers(0, len(tokens) - 1))
    if draw(st.booleans()):
        tokens[j] = str(draw(st.integers(-1, q + 2)))
    else:
        tokens[j] = draw(st.sampled_from([" ", "+", "0", " +0"])) + tokens[j].strip()
    return tokens


@st.composite
def mutated_batches(draw):
    """(payload, original batch JSON document, mutated document)."""
    scheme, kwargs = draw(st.sampled_from(SETUPS))
    payload = bits_from_bytes(draw(st.binary(min_size=1, max_size=6)))
    doc = json.loads(encode_payload(scheme, payload, **kwargs).to_json())
    new = json.loads(json.dumps(doc))
    oligos, spec = new["oligos"], new["spec"]
    kind = draw(st.sampled_from(
        ["symbol", "text", "length", "spec", "q", "rho", "payload_bits", "drop", "duplicate"]
    ))
    i = draw(st.integers(0, len(oligos) - 1))
    tokens = oligos[i].split(",")
    if kind == "symbol":
        oligos[i] = ",".join(symbol_edit(draw, tokens, doc["q"]))
    elif kind == "text":
        oligos[i] = draw(st.text(alphabet="0123456789,+- x", max_size=12))
    elif kind == "length":
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j : j + 1] = [] if draw(st.booleans()) else [tokens[j]] * 2
        oligos[i] = ",".join(tokens)
    elif kind == "spec":
        k = draw(st.integers(0, len(spec) - 1))
        change = draw(st.sampled_from(["alphabet", "cycles", "drop", "extra"]))
        if change == "drop":
            del spec[k]
        elif change == "extra":
            segment = [draw(st.integers(1, 9)), draw(st.integers(0, 40))]
            spec.insert(k + draw(st.integers(0, 1)), segment)
        else:
            spec[k][change == "cycles"] += draw(st.integers(-3, 3))
    elif kind == "q":
        new["q"] = draw(st.integers(1, 300) | st.just(10**12))
    elif kind == "rho":
        new["rho"] = draw(st.floats() | st.sampled_from([0, 1, 0.4]))
    elif kind == "payload_bits":
        new["payload_bits"] = draw(st.integers(0, 2 * doc["payload_bits"] + 80))
    elif kind == "drop":
        del oligos[i]
    else:
        oligos.insert(draw(st.integers(0, len(oligos))), oligos[i])
    return payload, doc, new


def unchanged(doc, new):
    """Whether the two documents carry the same batch, each oligo read the
    way the per-oligo parser reads it: one int() per symbol."""

    def content(doc):
        oligos = []
        for text in doc["oligos"]:
            try:
                oligos.append(tuple(map(int, text.split(","))) if text.strip() else ())
            except ValueError:
                return None
        return {**doc, "oligos": oligos}

    return content(new) == content(doc)


@FIXED
@given(mutated_batches())
def test_mutated_batches_decode_exactly_or_are_refused(case):
    payload, doc, new = case
    started = time.perf_counter()
    try:
        batch = EncodedBatch.from_json(json.dumps(new))
        bits = decode_payload(batch)
    except (CorruptDataError, DomainError):
        bits = None
    assert time.perf_counter() - started < SECONDS_PER_CASE
    if unchanged(doc, new):
        assert bits == payload
    elif bits is not None:
        assert len(bits) == batch.payload_bits and set(bits) <= {"0", "1"}
    if bits is not None:  # decode checks no embedding: its block checks must imply it
        assert all(min_cycles_under(batch.spec, o) is not None for o in batch.oligos)


@settings(FIXED, max_examples=25)
@given(mutated_batches())
def test_mutated_batches_exit_0_2_or_3_through_the_cli(case):
    payload, doc, new = case
    with tempfile.TemporaryDirectory() as tmp:
        batch, out = Path(tmp) / "batch.json", Path(tmp) / "out.bin"
        batch.write_text(json.dumps(new), encoding="utf-8")
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["decode", "--in", str(batch), "--out", str(out)])
        assert time.perf_counter() - started < SECONDS_PER_CASE
        assert code in (0, 2, 3)
        if unchanged(doc, new):
            assert code == 0 and bits_from_bytes(out.read_bytes()) == payload


def twin_outcomes(text):
    """The outcomes of the batch text through from_json and decode_payload,
    as read (with the reader's flat buffer, where it keeps one) and with the
    oligos moved into a plain tuple: each the decoded payload, or the class
    and message of what decode raised, and the batch's JSON."""
    try:
        batch = EncodedBatch.from_json(text)
    except CorruptDataError as exc:
        return str(exc)
    outcomes = []
    for each in (batch, batch._replace(oligos=tuple(batch.oligos))):
        try:
            bits = decode_payload(each)
        except Exception as exc:  # the class is part of the outcome
            bits = type(exc), str(exc)
        outcomes.append((bits, each.to_json()))
    return outcomes


@settings(FIXED, max_examples=100)
@given(mutated_batches())
def test_mutated_batches_decode_as_their_plain_tuple_twins(case):
    _, _, new = case
    outcomes = twin_outcomes(json.dumps(new))
    assert isinstance(outcomes, str) or outcomes[0] == outcomes[1]


# byte strings that no UTF-8 decoder accepts: a stray continuation byte, a
# truncated lead, a surrogate, an overlong slash, a five-byte form
INVALID_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf8\x88\x80\x80\x80"]

FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


@st.composite
def mutated_texts(draw):
    """(payload, original batch file bytes, mutated bytes)."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "nest", "utf8", "oligo"]))
    # hypothesis favours a list's first items: an oligo edit favours the
    # multi-digit setups, which SETUPS lists last
    scheme, kwargs = draw(st.sampled_from(SETUPS[::-1] if kind == "oligo" else SETUPS))
    payload = bits_from_bytes(draw(st.binary(min_size=1, max_size=4)))
    text = encode_payload(scheme, payload, **kwargs).to_json()
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    if kind == "oligo":  # one token of one oligo respelled
        doc = json.loads(text)
        i = draw(st.sampled_from([i for i, o in enumerate(doc["oligos"]) if o] or [None]))
        if i is None:  # every oligo is empty: nothing to respell
            return payload, data, data
        tokens = doc["oligos"][i].split(",")
        j = draw(st.integers(0, len(tokens) - 1))
        token = tokens[j]
        cut = draw(st.integers(1, len(token)))  # a one-digit token splits off an empty one
        span, spelled = draw(st.sampled_from([
            (1, [token[:cut], token[cut:]]),  # split
            (2, ["".join(tokens[j : j + 2])]),  # merged with the next, if any
            (1, ["0" + token]),
            (1, [" " + token]),
            (1, [token.translate(FULL_WIDTH)]),
            (1, [str(doc["q"] + 1)]),
            (1, [token[: cut - 1] + token[cut:]]),  # a digit dropped
        ]))
        tokens[j : j + span] = spelled
        doc["oligos"][i] = ",".join(tokens)
        new = json.dumps(doc, indent=2, ensure_ascii=False).encode("utf-8")
    elif kind == "truncate":
        new = data[:at]
    elif kind == "flip":
        at = min(at, len(data) - 1)
        new = data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1 :]
    elif kind == "insert":
        new = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    elif kind == "utf8":
        new = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    else:
        doc = json.loads(text)
        key = draw(st.sampled_from([None, *doc]))
        depth = draw(st.sampled_from([1, 2, 100, 10_000, 100_000]))
        open_, close = draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
        if key is None:  # the whole document
            inner = text
        else:
            inner = json.dumps(doc[key])
            doc[key] = "\0"  # a placeholder no batch holds
        nested = open_ * depth + inner + close * depth
        new = (nested if key is None else json.dumps(doc).replace('"\\u0000"', nested)).encode()
    return payload, data, new


@settings(FIXED, max_examples=120)
@given(mutated_texts())
def test_mutated_batch_text_exits_0_2_or_3_through_the_cli(case):
    payload, data, new = case
    with tempfile.TemporaryDirectory() as tmp:
        batch, out = Path(tmp) / "batch.json", Path(tmp) / "out.bin"
        batch.write_bytes(new)
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["decode", "--in", str(batch), "--out", str(out)])
        assert time.perf_counter() - started < SECONDS_PER_CASE
        assert code in (0, 2, 3)
        if new == data:
            assert code == 0 and bits_from_bytes(out.read_bytes()) == payload


@settings(FIXED, max_examples=100)
@given(mutated_texts())
def test_mutated_batch_text_decodes_as_its_plain_tuple_twin(case):
    _, _, new = case
    outcomes = twin_outcomes(new)
    assert isinstance(outcomes, str) or outcomes[0] == outcomes[1]


@settings(FIXED, max_examples=300)
@given(
    st.lists(st.text(TEXT_CHARACTERS, max_size=12), max_size=5),
    st.sampled_from(ALPHABETS),
)
def test_parse_matches_the_per_token_path_on_any_text(texts, q):
    # texts over the characters of canonical text and its near misses
    assert parse_outcome(texts, q) == per_token(texts, q)
