"""Encoders that map bit payloads onto cycle-budgeted oligos.

Five schemes, all lossless and all emitting an EncodedBatch whose oligos
embed into the batch's offer program within its stated cycle budget:

- ``base``       one steering symbol per oligo keeps total gaps at or below
                 the midpoint, halving the worst-case cycle cost.
- ``lookup``     enumerative coding: each block of bits indexes an oligo of
                 exact length rho*C inside a C-cycle window.
- ``multisize``  splits each oligo between two adjacent sub-alphabet sizes
                 so the average cycle cost tracks a target ratio.
- ``balanced``   weight-balanced blocks over an ascending alphabet, one
                 symbol per offered cycle at most.
- ``window``     one subset of the alphabet per q-cycle window, one bit shy
                 of a full symbol's worth per cycle.

Each scheme at fixed parameters is one ``_BlockCode`` record: a bijection
between fixed-width integers and blocks of symbols, plus the offer program
of n blocks.  ``SCHEMES`` maps scheme names to record builders; one generic
encode and decode do the rest for all five: chunking, and on decode the
program-shape, oligo-length, block-count and block-width checks.  A block
that decode_block accepts fits its share of the program, so no decode pass
checks embedding.  Balanced joins its blocks end to end in one oligo, the
others put one in each.  A payload is one integer inside the codec; '0'/'1'
strings appear only in the public functions.  Batches round-trip through a
small JSON document.  Every coding step is a pure function of its block, so
within one call each distinct block is encoded and parsed once, and
rendered once unless the batch carries a buffer (below).
Base-coded blocks (base, and both parts of multisize, up to q = 127) and
balanced blocks encode and decode a batch at a time, on byte fields of one
big integer, to and from one flat buffer of blocks end to end, a byte per
symbol; lookup blocks up to q = 255 do so by counting's rank and unrank
loops.  An encoder's buffer holds each distinct value's block.  A batch
keeps the buffer of every block in batch order beside its oligos, as does
one read from canonical text of rows of one length, none repeated: to_json
renders it, and decode hands it to the batch decoder, which reads every
block; for a batch without one, decode joins the distinct rows.  Where a
scheme has no batch coder, where it returns None, and on decode for a
symbol above 255, the generic codec maps the per-block coder over the
distinct values or blocks by the rule _BlockCode states.  A payload splits
into blocks of up to 64 bits, and decoded values join back into one, by
strided byte transposes between its bits and 1-, 2-, 4- or 8-byte fields of
one integer.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from bisect import bisect_right
from contextlib import suppress
from functools import partial
from itertools import accumulate, chain, repeat
from math import comb
from operator import lt
from typing import Callable, NamedTuple, Sequence

from .bits import (
    balance_word, balanced_data_bits, flip_layout_complete, gray_decode, gray_encode,
    unbalance_word, validate_bits,
)
from .capacity import _trivial_edge, cap_fixed_length
from .counting import (
    indexable_count, indexed_count, rank_blocks, rank_symbols, unrank_blocks, unrank_symbols
)
from .errors import CorruptDataError, DomainError, require_instance, require_int, require_number
from .sequence import (
    Oligo, SupersequenceSpec, _field_int, _FlatOligos, _oligos, _parse_batch, _render_joined
)


# --- limits ---

# Largest balanced and window alphabet.  Balanced's flip-layout check is cubic
# in the data bits, and up to q = 256 (247 bits) its slowest case takes about
# a second; each window block size has its own suffix table, which at q = 256
# holds up to 129**2 integers of about 256 bits.
_MAX_ALPHABET = 256
# Most symbols in one base block or multisize oligo: a block's value is one
# integer of that many digits, and converting it is quadratic in its length.
_MAX_BLOCK_SYMBOLS = 2048
# Most bits in one block: base or multisize at q = 2**20 and 2048 symbols
# needs 40 960, while a few KB of base JSON at q = 10**300 would declare
# 2 million, seconds of work to decode and write out.
_MAX_BLOCK_BITS = 1 << 16


# --- batch container ---


class EncodedBatch(NamedTuple):
    """A payload rendered as oligos plus the offer program that builds them."""

    scheme: str
    q: int
    rho: float
    payload_bits: int
    spec: SupersequenceSpec
    oligos: tuple[Oligo, ...]

    def to_json(self) -> str:
        """The batch as json.dumps(doc, indent=2) writes it.

        With an indent, json encodes in pure Python, one step per item, so
        the oligo list, nearly all of the text, is written as one string: a
        rendered oligo holds only ASCII digits and commas, which JSON
        writes as they are.
        """
        head = {
            "scheme": self.scheme,
            "q": self.q,
            "rho": self.rho,
            "payload_bits": self.payload_bits,
            "spec": [[q, cycles] for q, cycles in self.spec.segments],
        }
        doc = json.dumps(head, indent=2)[:-2]
        if not self.oligos:
            return doc + ',\n  "oligos": []\n}'
        sep = '",\n    "'
        return f'{doc},\n  "oligos": [\n    "{_render_joined(self.oligos, sep)}"\n  ]\n}}'

    @classmethod
    def from_json(cls, text: str) -> "EncodedBatch":
        require_instance(text, (str, bytes, bytearray), "batch JSON", CorruptDataError)
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CorruptDataError(f"batch is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise CorruptDataError("batch JSON nests too deeply to read") from exc
        if not isinstance(doc, dict):
            raise CorruptDataError("batch JSON must be an object")
        missing = {"scheme", "q", "rho", "payload_bits", "spec", "oligos"} - doc.keys()
        if missing:
            raise CorruptDataError(f"batch JSON is missing fields: {sorted(missing)}")
        scheme = doc["scheme"]
        if type(scheme) is not str or scheme not in SCHEMES:
            raise CorruptDataError(f"unknown scheme {scheme!r}")
        q = doc["q"]
        bits = doc["payload_bits"]
        rho = doc["rho"]
        if type(q) is not int or q < 1:
            raise CorruptDataError("field 'q' must be a positive integer")
        if type(bits) is not int or bits < 0:
            raise CorruptDataError("field 'payload_bits' must be a non-negative integer")
        if not _finite(rho):
            raise CorruptDataError("field 'rho' must be a finite number")
        raw_spec = doc["spec"]
        if not isinstance(raw_spec, list) or not all(
            isinstance(seg, list) and len(seg) == 2 and all(type(v) is int for v in seg)
            for seg in raw_spec
        ):
            raise CorruptDataError("field 'spec' must be a list of [alphabet, cycles] pairs")
        raw_oligos = doc["oligos"]
        # json.loads builds only exact str, so one set of types checks every oligo
        if not isinstance(raw_oligos, list) or not set(map(type, raw_oligos)) <= {str}:
            raise CorruptDataError("field 'oligos' must be a list of strings")
        try:
            spec = SupersequenceSpec(raw_spec)
            oligos = _parse_batch(raw_oligos, spec.max_alphabet)
        except DomainError as exc:
            raise CorruptDataError(str(exc)) from exc
        return cls(scheme, q, float(rho), bits, spec, oligos)


def _finite(value: object) -> bool:
    """Whether value is a finite int or float, subclasses allowed, as
    require_number takes them: not a bool, a str or None.  json reads NaN
    and Infinity, and the bound fails on them."""
    with suppress(DomainError):
        require_number(value, "rho")
        return abs(value) <= sys.float_info.max
    return False


def _require_rho(rho: object) -> None:
    if not _finite(rho):
        raise DomainError(f"rho {rho!r} is not a finite number")


# --- the scheme record ---


class _BlockCode(NamedTuple):
    """One scheme at fixed parameters: encode_block maps each integer below
    2**width to a block whose length lies in lengths, decode_block inverts it
    and raises on a block outside the code, and program(n) is the offer
    program of n blocks, whose largest alphabet the oligos use.  Reading
    width calls codewords, which counts for lookup: the decoder reads it
    only after its shape checks.  Where a scheme has them, the batch coders
    work on one flat buffer of blocks end to end, a byte per symbol:
    encode_blocks(values) writes the block of each value, lengths[0]
    symbols each, and decode_blocks(flat, size) reads size-symbol blocks and
    gives the value of every block in batch order, each exactly as the
    per-block coder would.  A batch coder codes the whole batch or returns
    None: past its alphabet bound, or where the per-block coder would raise.
    The generic codec then maps the per-block coder, the reference, over the
    distinct values or blocks in order, so the first bad block raises."""

    rho: float
    lengths: range
    program: Callable[[int], tuple[tuple[int, int], ...]]
    codewords: Callable[[], int]
    encode_block: Callable[[int], tuple[int, ...]]
    decode_block: Callable[[Sequence[int]], int]
    encode_blocks: Callable[[list[int]], bytes | None] | None = None
    decode_blocks: Callable[[bytes, int], list[int] | None] | None = None
    joined: bool = False  # every block in one oligo, end to end

    @property
    def width(self) -> int:
        """Bits per block: the largest w with 2**w codewords, 1.._MAX_BLOCK_BITS."""
        width = self.codewords().bit_length() - 1
        if width < 1:
            raise DomainError("a block holds fewer than two codewords; no bits fit")
        if width > _MAX_BLOCK_BITS:
            raise DomainError(f"a block holds more than {_MAX_BLOCK_BITS} bits")
        return width


def _power(q: int, n: int) -> int:
    """q**n, the count of n base-q digits; refused as width refuses it when
    q's bit length alone shows it past 2**_MAX_BLOCK_BITS, before it is computed."""
    if (q.bit_length() - 1) * n > _MAX_BLOCK_BITS:
        raise DomainError(f"a block holds more than {_MAX_BLOCK_BITS} bits")
    return q**n


def _fields(payload: str, width: int) -> list[int]:
    """The payload, zero-padded to whole width-bit blocks, as one integer per block.

    Up to 64 bits a block's bits are moved, one strided slice per bit, to
    the low end of a field of span = 1, 2, 4 or 8 bytes, and the fields are
    read from one int() of all of them; wider blocks are read one int() each."""
    padded = payload + "0" * (-len(payload) % width)
    if width > 64 or not padded:
        return list(map(int, re.findall(f".{{{width}}}", padded), repeat(2)))
    count = len(padded) // width
    span = _span(width)
    out = padded.encode("ascii")
    if width < 8 * span:
        src, out = out, bytearray(b"0" * (8 * span * count))
        for j in range(width):
            out[8 * span - width + j :: 8 * span] = src[j::width]
    return _read_fields(int(out, 2).to_bytes(span * count, "big"), span)


def _bits(values: Sequence[int], width: int) -> str:
    """The inverse of _fields: each value, below 2**width, as width bits.

    Up to 64 bits the values fill fields of span = 1, 2, 4 or 8 bytes, one
    format writes all of them, and each bit of a block moves, one strided
    slice per bit, out of the low end of its field; wider values are
    formatted one each."""
    if width > 64 or not values:
        return "".join(map(format, values, repeat(f"0{width}b")))
    span = _span(width)
    text = format(int.from_bytes(_write_fields(values, span), "big"), f"0{8 * span * len(values)}b")
    if width == 8 * span:
        return text
    src, out = text.encode("ascii"), bytearray(width * len(values))
    for j in range(width):
        out[j::width] = src[8 * span - width + j :: 8 * span]
    return out.decode("ascii")


def _span(bits: int) -> int:
    """Bytes per field for bits-bit values: a power of two up to 8 bytes, so
    that an array reads the fields, else the bytes the value needs."""
    size = -(-bits // 8)
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _read_fields(data: bytes, span: int) -> list[int]:
    """The big-endian span-byte fields of data, as integers."""
    if span > 8:
        return list(map(int.from_bytes, re.findall(b".{%d}" % span, data, re.S), repeat("big")))
    fields = _field_array(span)
    fields.frombytes(data)
    if sys.byteorder == "little":
        fields.byteswap()
    return fields.tolist()


def _write_fields(values: Sequence[int], span: int) -> bytes:
    """The inverse of _read_fields, for values below 2**(8 * span)."""
    if span > 8:
        return b"".join(map(int.to_bytes, values, repeat(span), repeat("big")))
    fields = _field_array(span)
    fields.extend(values)
    if sys.byteorder == "little":
        fields.byteswap()
    return fields.tobytes()


def _field_array(span: int) -> array:
    """An empty array of unsigned span-byte items, for span 1, 2, 4 or 8."""
    return array(next(code for code in "BHILQ" if array(code).itemsize == span))


def _refield(data: bytes, span: int, new: int) -> bytes:
    """data's big-endian span-byte fields as new-byte ones, each keeping its
    low min(span, new) bytes, moved by one strided slice per byte."""
    if new == span:
        return data
    out = bytearray(new * (len(data) // span))
    for j in range(1, min(span, new) + 1):
        out[new - j :: new] = data[span - j :: span]
    return out


# --- base scheme: one steering symbol per oligo ---
#
# A block's n base-q digits, most significant first and each plus one, are
# its gaps.  Symbol i is 1 + (s0 + g1 + ... + gi) mod q, where s0 is the
# steering symbol less one; a flipped block sends each gap g as q+1-g.
# _gaps, _steer and _base_value code one block at a time and are the
# reference: a block is _steer(q, _gaps(q, value, n)).  _base_blocks and its
# inverse _steered_batch code a batch at once up to q = 127, each step one
# C-level operation over the whole batch, much as bus-invert coding steers
# a bus word.  Both hold each block's digits in the low n bytes of a field
# of span = 2**r >= n bytes, one byte each.  _flips totals every field's
# digits by doubling and picks the flipped blocks with one translate;
# _flip_mask widens those into a mask of 0xff bytes, and XORed with it, each
# byte reads as a digit d from one end of a 256-byte table or as q-1-d from
# the other.  Strided slices move the digit columns between the fields and
# the blocks of n + 1 symbols.

_TOP_BITS = bytes(b >> 7 for b in range(256))


def _flips(q: int, digits: int, n: int, span: int, count: int) -> bytes:
    """A byte per span-byte field of digits, count fields whose low n bytes
    hold base-q digits and the rest 0: 1 where the digits total more than
    (q-1)n/2, the blocks that steering flips, else 0.

    Each digit sits in the low byte of a w-byte slot, w the fewest bytes with
    (q-1)n < 2**(8w-1), and each field's top slot gains 2**(8w-1) - 1 -
    (q-1)n//2.  Adding the slots 1, 2, 4, ... places above, r times, leaves
    in each slot the sum of the span slots from it up, so each field's
    lowest slot holds its total plus that bias, whose top bit is set just
    when the total passes (q-1)n//2.  Span slots in a row meet at most n
    digits and one bias, below 2**(8w), so no slot carries into the next."""
    w = ((q - 1) * n).bit_length() // 8 + 1
    if w > 1:
        slots = bytearray(w * span * count)
        slots[w - 1 :: w] = digits.to_bytes(span * count, "big")
        digits = int.from_bytes(slots, "big")
    bias = ((1 << 8 * w - 1) - 1 - (q - 1) * n // 2).to_bytes(w, "big")
    total = digits + int.from_bytes((bias + bytes(w * span - w)) * count, "big")
    step = 1
    while step < span:
        total += total >> 8 * w * step
        step *= 2
    return total.to_bytes(w * span * count, "big")[w * span - w :: w * span].translate(_TOP_BITS)


def _flip_mask(flips: bytes, n: int, span: int) -> int:
    """0xff in each of the low n bytes of the span-byte fields whose byte
    in flips is 1, and 0 elsewhere: a 1 in each such field's lowest byte,
    times 2**(8n) - 1."""
    marks = bytearray(span * len(flips))
    marks[span - 1 :: span] = flips
    ones = int.from_bytes(marks, "big")
    return (ones << 8 * n) - ones


def _base_blocks(q: int, values: Sequence[int], n: int) -> bytes | None:
    """The blocks _steer(q, _gaps(q, value, n)) of values below q**n, end to
    end a byte per symbol, each step one C-level operation over byte fields
    of a big integer; None past q = 127, where the codec maps the reference."""
    if q >= 128:
        return None
    # Digits.  Each value fills a big-endian field of span = 2**r >= n bytes,
    # and each round splits every field of 2w bytes, x < q**(2w), into
    # x // q**w above x % q**w, w bytes each, until a byte is a digit.  The
    # quotient is x * m >> t with m = ceil(2**t / q**w) and 2**t > q**(3w):
    # m * q**w - 2**t < q**w, so x times that error stays below 2**t.  Even
    # and odd fields go apart, so each lies below 2w empty bytes, and
    # x * m < q**w * 2**t + q**(2w) <= 2 q**(4w) + q**(2w) < 2**(28w + 2)
    # fits the pair's 32w bits for q < 128.  The quotient lies below bit 8w
    # of the pair, the next pair's product shifts in from bit 32w - t >= 11w.
    count = len(values)
    span = 1 << (n - 1).bit_length()
    size = span * count
    fit = _span((q**n - 1).bit_length())  # bytes that hold a value below q**n
    value = int.from_bytes(_refield(_write_fields(values, fit), fit, span), "big")
    field = int.from_bytes((b"\0" * span + b"\xff" * span) * -(-count // 2), "big")
    width = span
    while width > 1:
        w = width // 2
        unit = q**w
        t = (unit**3).bit_length()
        m = -(-(1 << t) // unit)
        low = field & field >> 8 * w  # the low w bytes of each pair
        quotients = (value & field) * m >> t & low
        quotients |= ((value >> 8 * width & field) * m >> t & low) << 8 * width
        value += quotients * ((1 << 8 * w) - unit)  # x + h * that is h above x - h * q**w
        field = low | low << 8 * width
        width = w
    # Steering.  As the decoder checks, a block flips when its digits total
    # more than (q-1)n/2, and each of its digits d then goes out as q-1-d:
    # its bytes are XORed with 0xff, and 255-d lies 256-q above q-1-d.  So
    # one table, the same at both ends, writes each gap, the digit plus one
    # mod q.
    flips = _flips(q, value, n, span, count)
    gaps = bytes(range(1, q)) + b"\0"
    table = gaps + bytes(256 - 2 * q) + gaps
    gaps = (value ^ _flip_mask(flips, n, span)).to_bytes(size, "big").translate(table)
    # each block: its steering slot s0, then its gaps
    size = n + 1
    blocks = bytearray(size * count)
    blocks[::size] = flips
    for j in range(n):
        blocks[1 + j :: size] = gaps[span - n + j :: span]
    # Symbols.  Behind its steering slot each row's running sums mod q come
    # by doubling: add the field 2**k places before under a per-row mask,
    # then take q off where the sum, biased by 128 - q, reaches bit 7.  Each
    # field stays below 2q - 1 + 128 - q < 256, so none carries into the next.
    length = size * count
    ones = int.from_bytes(b"\1" * length, "big")
    bias = ones * (128 - q)
    total = int.from_bytes(blocks, "big")
    keep = int.from_bytes((b"\0" + b"\xff" * n) * count, "big")
    step = 1
    while step < size:
        total += (total >> 8 * step & keep) + bias
        total -= (total >> 7 & ones) * q + bias
        keep &= keep >> 8 * step  # each row's first 2 * step fields cleared
        step *= 2
    return (total + ones).to_bytes(length, "big")


def _gaps(q: int, value: int, count: int) -> list[int]:
    """The low *count* base-q digits of *value*, each plus one, most significant first."""
    gaps = []
    for _ in range(count):
        value, digit = divmod(value, q)
        gaps.append(digit + 1)
    gaps.reverse()
    return gaps


def _steer(q: int, gaps: Sequence[int]) -> tuple[int, ...]:
    """The steering symbol, then a symbol *gaps[i]* cycles after the one
    before, or q+1-gaps[i] when the gaps pass the midpoint."""
    flip = 2 * sum(gaps) > (q + 1) * len(gaps)
    if flip:
        gaps = map((q + 1).__sub__, gaps)
    return tuple(total % q + 1 for total in accumulate(gaps, initial=int(flip)))


def _base_value(q: int, symbols: Sequence[int]) -> int:
    """The integer whose base-q digits, as gaps, were steered into *symbols*."""
    if not symbols:
        raise CorruptDataError("encoded oligo must carry a steering symbol")
    if symbols[0] not in (1, 2):
        raise CorruptDataError("steering symbol must be 1 or 2")
    if max(symbols) > q:
        raise CorruptDataError(f"symbols must lie in 1..{q}")
    flip = symbols[0] == 2  # each gap g went out as q+1-g
    value = total = 0
    for a, b in zip(symbols, symbols[1:]):
        digit = (a - b if flip else b - a - 1) % q
        value = value * q + digit
        total += digit
    # the encoder flips exactly when the gaps, each digit + 1, pass the midpoint
    n = len(symbols) - 1
    if flip != (2 * (total + n) > (q + 1) * n):
        raise CorruptDataError("steering symbol does not match the gaps it steers")
    return value


_FLIPPED = bytes.maketrans(b"\1\2", b"\0\1")  # steering symbol 1 -> flip False, 2 -> True


def _steered_batch(q: int, flat: bytes, size: int) -> list[int] | None:
    """[_base_value(q, block) for each size-symbol block of flat], its
    symbols end to end a byte each, on byte fields of a few big integers;
    None past q = 127, on no blocks or empty ones, and where some block
    fails a check of _base_value's."""
    # One byte field per symbol, so each step below is one C-level operation
    # over the batch, or one per symbol column.
    if q >= 128 or not flat or flat.translate(None, bytes(range(1, q + 1))):
        return None
    steer = flat[::size]
    if steer.translate(None, b"\1\2"):
        return None
    # field by field, with a symbol a before the symbol b, 128 + b - a - 1
    # lies in 128-q..126+q, so no field borrows from the next; adding q where
    # its high bit is clear leaves (b - a - 1) mod q, the digit when unflipped
    ones = int.from_bytes(b"\1" * len(flat), "big")
    bias = ones << 7
    b = int.from_bytes(flat, "big")
    rise = b + bias - (b >> 8) - ones
    rise += (ones ^ rise >> 7 & ones) * q - bias
    rise = rise.to_bytes(len(flat), "big")
    del ones, bias, b  # each whole-batch buffer goes once the next holds its data
    # each block's rises, without its steering slot, in the low n bytes of
    # a field of span = 2**r >= n bytes.  A flipped block's gaps went out as
    # q+1-g, so it rises by q-1-d for each digit d; XORed with 0xff that
    # lies at d + 256-q, so one table, the same at both ends, reads each digit
    n = size - 1
    span = 1 << (n - 1).bit_length()
    count = len(steer)
    fields = bytearray(span * count)
    for j in range(n):
        fields[span - n + j :: span] = rise[1 + j :: size]
    flipped = steer.translate(_FLIPPED)
    table = bytes(range(q)) + bytes(256 - 2 * q) + bytes(range(q))
    marked = int.from_bytes(fields, "big") ^ _flip_mask(flipped, n, span)
    del rise, fields
    value = int.from_bytes(marked.to_bytes(span * count, "big").translate(table), "big")
    del marked
    # the encoder flips exactly when the digits total more than (q-1)n/2
    if _flips(q, value, n, span, count) != flipped:
        return None
    # pairs of fields merge by Horner, high * q**(fields it spans) + low, r
    # times; then each field keeps the bytes that hold a value below q**n
    total, width, unit = span * count, 1, q
    while width < span:
        mask = int.from_bytes((b"\0" * width + b"\xff" * width) * (total // (2 * width)), "big")
        value = (value >> 8 * width & mask) * unit + (value & mask)
        width, unit = 2 * width, unit * unit
    fit = _span((q**n - 1).bit_length())
    return _read_fields(_refield(value.to_bytes(total, "big"), span, fit), fit)


def _base(q: int, *, block_symbols: int | None, **_) -> _BlockCode:
    if q < 2:
        raise DomainError("base scheme requires alphabet size >= 2")
    size = 32 if block_symbols is None else block_symbols
    if not 1 <= size <= _MAX_BLOCK_SYMBOLS:
        raise DomainError(f"block must carry 1..{_MAX_BLOCK_SYMBOLS} symbols")
    budget = (q + 1) * (size + 1) // 2
    return _BlockCode(
        rho=_trivial_edge(q),
        lengths=range(size + 1, size + 2),
        program=lambda n: ((q, budget if n else 0),),
        codewords=lambda: _power(q, size),
        encode_block=lambda value: _steer(q, _gaps(q, value, size)),
        decode_block=partial(_base_value, q),
        encode_blocks=lambda values: _base_blocks(q, values, size),
        decode_blocks=partial(_steered_batch, q),
    )


# --- lookup scheme: enumerative coding over a fixed window ---


def _lookup(q: int, *, rho: float | None, depth: int | None, **_) -> _BlockCode:
    if rho is None or depth is None:
        raise DomainError("lookup encoding requires both rho and depth")
    if q < 1 or depth < 1:
        raise DomainError("alphabet size and depth must be at least 1")
    cycles = depth * q
    try:
        length = rho * cycles
    except OverflowError:
        raise DomainError("lookup window lies past float range") from None
    if not 0 <= length <= cycles or abs(length - round(length)) > 1e-9:
        raise DomainError("rho does not give an integral oligo length at this depth")
    length = round(length)
    return _BlockCode(
        rho=rho,
        lengths=range(length, length + 1),
        program=lambda n: ((q, cycles),),
        # the table refuses an oversized window before anything counts it
        codewords=partial(indexed_count, q, cycles, length),
        encode_block=partial(unrank_symbols, q, cycles, length),
        decode_block=partial(rank_symbols, q, cycles),
        encode_blocks=partial(_lookup_blocks, q, cycles, length),
        decode_blocks=partial(_lookup_values, q, cycles),
    )


def _lookup_blocks(q: int, cycles: int, length: int, values: Sequence[int]) -> bytes | None:
    """The blocks unrank_symbols gives values, end to end a byte per symbol;
    None past q = 255 and where some value lies past the window's count."""
    if q > 255:
        return None
    flat = bytearray()
    try:
        unrank_blocks(q, cycles, length, values, flat)
    except DomainError:
        return None
    return bytes(flat)


def _lookup_values(q: int, cycles: int, flat: bytes, size: int) -> list[int] | None:
    """[rank_symbols(q, cycles, block) for each size-symbol block of flat],
    each distinct block ranked once; None past q = 255 and where some block
    has a symbol outside 1..q or is no subsequence of the window."""
    if q > 255 or flat.translate(None, bytes(range(1, q + 1))):
        return None
    blocks = re.findall(b".{%d}" % size, flat, re.S)
    distinct = list(dict.fromkeys(blocks))
    try:
        value = dict(zip(distinct, rank_blocks(q, cycles, size, distinct)))
    except DomainError:
        return None
    return list(map(value.__getitem__, blocks))


# --- multisize scheme: two adjacent sub-alphabet sizes ---


def optimal_alpha(q: int, rho: float) -> tuple[int, float]:
    """Best sub-alphabet split at cycle ratio rho: returns (s, fraction) with
    the oligo spending `fraction` of its symbols on alphabet size s and the
    rest on s+1.

    The average cycles per symbol over sizes s and s+1 must equal 2/rho - 1,
    which pins s = floor(2/rho - 1) (clamped to q-1) and the fraction
    s + 2 - 2/rho.
    """
    require_int(q)
    if q < 2:
        raise DomainError("multisize scheme requires alphabet size >= 2")
    _require_rho(rho)
    low = _trivial_edge(q)
    if not low - 1e-12 <= rho <= 1.0 + 1e-12:  # written so that NaN fails too
        raise DomainError(f"rho must lie in [{low:.6g}, 1]")
    rho = min(max(rho, low), 1.0)
    s = max(1, min(int(2.0 / rho - 1.0 + 1e-9), q - 1))
    fraction = s + 2.0 - 2.0 / rho
    if abs(fraction - round(fraction)) <= 1e-9:
        fraction = float(round(fraction))
    return s, min(max(fraction, 0.0), 1.0)


def multisize_rate(q: int, rho: float) -> float:
    """Asymptotic bits per cycle of the multisize scheme at ratio rho."""
    s, _ = optimal_alpha(q, rho)
    rho = min(max(rho, _trivial_edge(q)), 1.0)
    return (rho * (s + 2) - 2.0) * math.log2(s) + (2.0 - rho * (s + 1)) * math.log2(s + 1)


def _multisize(q: int, *, rho: float | None, oligo_length: int | None, **_) -> _BlockCode:
    # A run base-coded over sub-alphabet s holds the low digits and a tail
    # over s+1 the high ones, at every s: over s = 1 the run is all 1s.
    if rho is None:
        raise DomainError("multisize encoding requires rho")
    length = 48 if oligo_length is None else oligo_length
    if not 1 <= length <= _MAX_BLOCK_SYMBOLS:
        raise DomainError(f"oligo length must lie in 1..{_MAX_BLOCK_SYMBOLS}")
    s, fraction = optimal_alpha(q, rho)
    run = int(fraction * length + 1e-9)
    tail = length - run
    low_values = _power(s, max(run - 1, 0))
    program = ((s, (s + 1) * run // 2),) * (run > 0) + ((s + 1, (s + 2) * tail // 2),) * (tail > 0)

    def encode_block(value: int) -> tuple[int, ...]:
        high, low = divmod(value, low_values)
        head = _steer(s, _gaps(s, low, run - 1)) if run else ()
        return head + (_steer(s + 1, _gaps(s + 1, high, tail - 1)) if tail else ())

    def encode_blocks(values: list[int]) -> bytes | None:
        highs, lows = zip(*map(divmod, values, repeat(low_values))) if values else ((), ())
        heads = _base_blocks(s, lows, run - 1) if run else b""
        tails = _base_blocks(s + 1, highs, tail - 1) if tail else b""
        if heads is None or tails is None:
            return None
        flat = bytearray(length * len(values))
        for j in range(length):
            flat[j::length] = heads[j::run] if j < run else tails[j - run :: tail]
        return bytes(flat)

    def decode_block(symbols: Sequence[int]) -> int:
        head, rest = symbols[:run], symbols[run:]
        if s == 1 and head.count(1) != run:
            raise CorruptDataError("constant run segment must be all 1s")
        high = _base_value(s + 1, rest) if tail else 0
        return high * low_values + (_base_value(s, head) if run else 0)

    def decode_blocks(flat: bytes, size: int) -> list[int] | None:
        count = len(flat) // size
        heads, tails = bytearray(run * count), bytearray(tail * count)
        for j in range(run):
            heads[j::run] = flat[j::size]
        for j in range(tail):
            tails[j::tail] = flat[run + j :: size]
        zeros = [0] * count
        lows = _steered_batch(s, heads, run) if run else zeros
        highs = _steered_batch(s + 1, tails, tail) if tail else zeros
        if lows is None or highs is None:
            return None
        return [high * low_values + low for high, low in zip(highs, lows)]

    return _BlockCode(
        rho=rho,
        lengths=range(length, length + 1),
        program=lambda n: program,
        codewords=lambda: low_values * _power(s + 1, max(tail - 1, 0)),
        encode_block=encode_block,
        decode_block=decode_block,
        encode_blocks=encode_blocks,
        decode_blocks=decode_blocks,
    )


# --- balanced scheme: weight-balanced blocks over an ascending alphabet ---

def balanced_params(q: int) -> tuple[int, int]:
    """(data bits, block alphabet) for the balanced scheme at alphabet q.

    The block alphabet is the largest f + ceil(log2 f) + 1 <= q.  Raises
    DomainError when q lies outside 4.._MAX_ALPHABET or when the flip
    layout cannot balance every f-bit word (some alphabet sizes land on
    such f).
    """
    require_int(q)
    if not 4 <= q <= _MAX_ALPHABET:
        raise DomainError(f"balanced scheme requires alphabet size in 4..{_MAX_ALPHABET}")
    f = balanced_data_bits(q)
    if not flip_layout_complete(f):
        raise DomainError(
            f"alphabet size {q} maps to {f} data bits, which the flip layout cannot balance"
        )
    return f, f + (f - 1).bit_length() + 1


def _balanced(q: int, **_) -> _BlockCode:
    # a block is the set bits of the balanced word, as ascending positions;
    # the size is at most q < 256, so a position fits a byte
    f, size = balanced_params(q)
    bit = [1 << (size - v) for v in range(size + 1)]  # bit[v]: position v's bit in the word

    def encode_block(value: int) -> tuple[int, ...]:
        word = balance_word(value, f)
        return tuple(v for v in range(1, size + 1) if word & bit[v])

    def decode_block(symbols: Sequence[int]) -> int:
        if len(symbols) != size // 2:
            raise CorruptDataError("block oligo has the wrong length")
        if not all(map(lt, symbols, symbols[1:])):
            raise CorruptDataError("block oligo must be strictly ascending")
        if symbols and not 1 <= symbols[0] <= symbols[-1] <= size:
            raise CorruptDataError("block oligo symbol out of range")
        return unbalance_word(sum(map(bit.__getitem__, symbols)), f)

    return _BlockCode(
        rho=size // 2 / size,
        lengths=range(size // 2, size // 2 + 1),
        program=lambda n: ((size, n * size),),
        codewords=lambda: 1 << f,
        encode_block=encode_block,
        decode_block=decode_block,
        encode_blocks=partial(_balanced_blocks, f, size),
        decode_blocks=partial(_balanced_values, f, size),
        joined=True,
    )


def _balanced_blocks(f: int, size: int, values: Sequence[int]) -> bytes | None:
    """Each value's positions in balance_word(value, f), end to end a byte
    each, for size <= 255; None when some value has no balancing flip count,
    where balance_word raises.

    Knuth's scan runs over all values at once, with each value's weight after
    k flips in a byte field of one integer, and each position of the words
    is one byte plane: the data bits, flipped where k passes them, the Gray
    code of k and the balance bit."""
    count = len(values)
    if not count:
        return b""
    g = (f - 1).bit_length()
    half = size // 2
    last = min(f, (1 << g) - 1)  # the largest flip count
    # planes[j]: data bit j of each value, top bit first, an ASCII '0' or '1' per byte
    span = _span(f)
    text = format(int.from_bytes(_write_fields(values, span), "big"), f"0{8 * span * count}b")
    text = text.encode("ascii")
    planes = [int.from_bytes(text[8 * span - f + j :: 8 * span], "big") for j in range(f)]
    ones = int.from_bytes(b"\1" * count, "big")
    weights = int.from_bytes(bytes(map(int.bit_count, values)), "big")
    left = ones  # a 1 in the field of each value whose flip count is not yet found
    flips = balance = 0
    for k in range(last + 1):
        # a word balances at k when its weight after k flips, the Gray code's
        # weight and the balance bit sum to half; the test marks a weight that
        # balances with balance bit 0 by 1, and with balance bit 1 by 2
        need = half - gray_encode(k).bit_count()
        test = bytearray(256)
        test[need] = 1
        if need:
            test[need - 1] = 2
        hits = int.from_bytes(weights.to_bytes(count, "big").translate(test), "big")
        found = (hits | hits >> 1) & left
        flips += found * k
        balance |= hits >> 1 & left
        left ^= found
        if not left:
            break
        if k < f:  # flipping bit k moves a weight by 1 - 2 * bit, and an ASCII bit is 48 + bit
            weights += 97 * ones - 2 * planes[k]
    if left:
        return None
    flips = flips.to_bytes(count, "big")
    out = bytearray(count * size)  # each word's positions, or 0 where its bit is clear
    for j in range(f):
        flipped = int.from_bytes(flips.translate(bytes(j + 1) + b"\1" * (255 - j)), "big")
        bits = (planes[j] ^ flipped).to_bytes(count, "big")
        out[j::size] = bits.translate(bytes.maketrans(b"01", bytes((0, j + 1))))
    for b in range(g):
        p = f + 1 + b
        gray = bytes(p * (gray_encode(k) >> (g - 1 - b) & 1) for k in range(last + 1))
        out[p - 1 :: size] = flips.translate(gray + bytes(255 - last))
    out[size - 1 :: size] = (balance * size).to_bytes(count, "big")
    # every word has half set bits, so each value's block is half positions
    return bytes(out.translate(None, b"\0"))


def _balanced_values(f: int, size: int, flat: bytes, half: int) -> list[int] | None:
    """[decode_block(block) for each half-symbol block of flat], half =
    size // 2 and size <= 255; None when some block fails a check of
    decode_block's, which then names it.

    The blocks' positions lie end to end, a byte each: one translate checks
    their range and one field subtraction their ascent.  Each word's data
    bits and its Gray code come as sums of one-hot bytes, a column of the
    blocks at a time: the data left-aligned in span-byte fields, the Gray
    code, g <= 8 bits, in one byte.  Byte tables on that Gray-code plane
    refuse a flip count past f and give each byte of the mask of the first
    k data bits, and one XOR and one shift of the whole integer leave every
    value in its field."""
    if flat.translate(None, bytes(range(1, size + 1))):
        return None
    count = len(flat) // half
    # with each symbol in a field of w bytes, one byte up to size 128, and
    # the symbol before shifted under it, 2**(8w-1) + b - a - 1 lies in the
    # field and reaches its top bit just when b > a; a block's first field
    # meets the block before, so only the others count
    w = 1 if size <= 128 else 2
    top = 8 * w - 1
    x = _field_int(flat, w)
    ones = _field_int(b"\1" * len(flat), w)
    rises = (x + (ones << top) - (x >> 8 * w) - ones) >> top & ones
    inner = _field_int((b"\0" + b"\1" * (half - 1)) * count, w)
    if rises & inner != inner:
        return None
    # positions 1..f are the data bits, f+1..f+g the Gray code; column j,
    # ascending within 1..size, holds positions j+1..size-half+j+1 only
    columns = [flat[j::half] for j in range(half)]
    g = (f - 1).bit_length()

    def plane(first: int, bits: int) -> bytes:
        # positions first+1..first+bits as the bits of one byte per word, top first
        table = (bytes(first + 1) + bytes(128 >> b for b in range(bits)) + bytes(256))[:256]
        used = columns[max(0, first + half - size) : first + bits]
        return sum(int.from_bytes(c.translate(table), "big") for c in used).to_bytes(count, "big")

    span = _span(f)
    data = bytearray(span * count)
    for i in range(-(-f // 8)):
        data[i::span] = plane(8 * i, min(8, f - 8 * i))
    codes = plane(f, g)  # each Gray code's top bit in bit 7
    # each Gray code's flip count k, and the mask of the first k data bits;
    # a code past f has none
    flips = [gray_decode(code >> 8 - g) for code in range(256)]
    if codes.translate(None, bytes(c for c, k in enumerate(flips) if k <= f)):
        return None
    rows = [((1 << f) - (1 << (f - min(k, f)))).to_bytes(span, "big") for k in flips]
    masks = bytearray(span * count)
    for i, table in enumerate(zip(*rows)):
        masks[i::span] = codes.translate(bytes(table))
    words = (int.from_bytes(data, "big") >> 8 * span - f) ^ int.from_bytes(masks, "big")
    return _read_fields(words.to_bytes(span * count, "big"), span)


# --- window scheme: one alphabet subset per revolution ---
#
# Subsets rank by size, then lexicographically.  Those of at most ceil(q/2)
# symbols number at least 2**(q-1) for every q >= 2, so each block has one.
# A size-L subset is an L-symbol oligo of one q-cycle revolution, so each
# size is ranked by the lookup's coder, after the subsets of smaller sizes.


def _window(q: int, **_) -> _BlockCode:
    if not 2 <= q <= _MAX_ALPHABET:
        raise DomainError(f"window scheme requires alphabet size in 2..{_MAX_ALPHABET}")
    # first[size - 1]: the subsets of fewer than size symbols
    first = list(accumulate((comb(q, size) for size in range(1, (q + 1) // 2)), initial=0))

    def encode_block(value: int) -> tuple[int, ...]:
        size = bisect_right(first, value)
        return unrank_symbols(q, q, size, value - first[size - 1])

    def decode_block(symbols: Sequence[int]) -> int:
        if not all(map(lt, symbols, symbols[1:])):
            raise CorruptDataError("subset must be strictly ascending")
        return first[len(symbols) - 1] + rank_symbols(q, q, symbols)

    return _BlockCode(
        rho=0.5,
        lengths=range(1, (q + 1) // 2 + 1),
        program=lambda n: ((q, n * q),),
        codewords=lambda: 1 << (q - 1),
        encode_block=encode_block,
        decode_block=decode_block,
    )


# --- scheme comparison ---


class RateRow(NamedTuple):
    """One scheme's operating point: bits per cycle against the ceiling."""

    scheme: str
    rho: float
    rate: float
    cap: float


def rate_table(q: int, rhos: Sequence[float]) -> list[RateRow]:
    """Achievable rates for every scheme at alphabet q.

    Fixed-ratio schemes (base, balanced, window) contribute one row each at
    their natural rho, where their encoder accepts q; lookup and multisize
    contribute one row per feasible entry of *rhos*: one whose rated
    geometry the encoder accepts.  Lookup windows use the shallowest depth
    that makes rho*C integral.
    """
    require_int(q)
    if q < 2:
        raise DomainError("rate table requires alphabet size >= 2")
    require_instance(rhos, (list, tuple), "rho grid")
    rows = []
    base_rho = _trivial_edge(q)
    rows.append(RateRow("base", base_rho, base_rho * math.log2(q), cap_fixed_length(q, base_rho)))
    if q <= _MAX_ALPHABET:  # the window encoder refuses larger alphabets
        rows.append(RateRow("window", 0.5, (q - 1) / q, cap_fixed_length(q, 0.5)))
    with suppress(DomainError):  # not every q has a balanced layout
        f, size = balanced_params(q)
        rho = size // 2 / size
        rows.append(RateRow("balanced", rho, f / size, cap_fixed_length(size, rho)))
    for rho in rhos:
        _require_rho(rho)
        if not 0.0 <= rho <= 1.0:
            raise DomainError("rho grid entries must lie in [0, 1]")
        cap = cap_fixed_length(q, rho)  # one root solve for both rows
        for depth in range(1, 65):
            try:
                length = _lookup(q, rho=rho, depth=depth).lengths[0]
            except DomainError:
                continue
            # the closed form alone: a rated geometry needs no rank table
            try:
                width = indexable_count(q, depth * q, length).bit_length() - 1
            except DomainError:
                break  # the encoder refuses this window, and deeper ones only grow
            if width >= 1:
                rows.append(RateRow("lookup", rho, width / (depth * q), cap))
                break
        if rho >= base_rho - 1e-12:
            rows.append(RateRow("multisize", rho, multisize_rate(q, rho), cap))
    rows.sort(key=lambda r: (r.rho, r.scheme))
    return rows


# --- the generic encode and decode ---

SCHEMES: dict[str, Callable[..., _BlockCode]] = {
    "balanced": _balanced,
    "base": _base,
    "lookup": _lookup,
    "multisize": _multisize,
    "window": _window,
}


def encode_payload(
    scheme: str,
    payload: str,
    *,
    q: int,
    rho: float | None = None,
    depth: int | None = None,
    oligo_length: int | None = None,
    block_symbols: int | None = None,
) -> EncodedBatch:
    """Encode a bit payload under the named scheme.

    lookup requires rho and depth; multisize requires rho and accepts
    oligo_length (default 48); base accepts block_symbols (default 32).
    """
    validate_bits(payload)
    if not isinstance(scheme, str) or scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    require_int(q)
    if rho is not None:
        _require_rho(rho)
    sizes = {"depth": depth, "oligo length": oligo_length, "block symbol count": block_symbols}
    for name, size in sizes.items():
        if size is not None:
            require_int(size, name)
    code = SCHEMES[scheme](
        q, rho=rho, depth=depth, oligo_length=oligo_length, block_symbols=block_symbols
    )
    values = _fields(payload, code.width)
    spec = SupersequenceSpec(code.program(len(values)))
    alphabet = spec.max_alphabet
    distinct = list(dict.fromkeys(values))
    flat = code.encode_blocks(distinct) if code.encode_blocks else None
    if flat is None:
        blocks = dict(zip(distinct, map(code.encode_block, distinct)))
        used = set().union(*blocks.values())
    else:
        # the symbols outside 1..alphabet: none, or ones that fail _oligos' check
        used = flat.translate(None, bytes(range(1, alphabet + 1)))
        size = code.lengths[0]
        blocks = {} if code.joined else dict(zip(distinct, zip(*[iter(flat)] * size)))
        if len(distinct) < len(values):  # the batch's buffer: each value's block in turn
            # joined as str: bytes.join holds an 80-byte view of every part
            cut = dict(zip(distinct, re.findall(".{%d}" % size, flat.decode("latin-1"), re.S)))
            flat = "".join(map(cut.__getitem__, values)).encode("latin-1")
    if code.joined:
        parts = chain.from_iterable(map(blocks.__getitem__, values)) if flat is None else flat
        oligos = _oligos([tuple(parts)] if values else [], alphabet, used)
    else:  # equal blocks share one Oligo
        made = dict(zip(blocks, _oligos(blocks.values(), alphabet, used)))
        oligos = list(map(made.__getitem__, values))
    oligos = _FlatOligos(oligos, flat) if flat else tuple(oligos)
    return EncodedBatch(scheme, q, code.rho, len(payload), spec, oligos)


def decode_payload(batch: EncodedBatch) -> str:
    """Recover the bit payload from an EncodedBatch; shape checks run before any counting."""
    require_instance(batch, EncodedBatch, "batch")
    if not isinstance(batch.scheme, str) or batch.scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {batch.scheme!r}")
    try:
        # from_json checks these; an in-process batch may carry any value
        require_int(batch.q)
        require_int(batch.payload_bits, "payload bit count")
        _require_rho(batch.rho)
        require_instance(batch.spec, SupersequenceSpec, "spec")
        oligos = batch.oligos
        # one set of types checks every oligo
        if not isinstance(oligos, (tuple, list)) or not all(
            issubclass(kind, Oligo) for kind in set(map(type, oligos))
        ):
            raise CorruptDataError("oligos must be a tuple or list of Oligo")
        if not oligos:
            if batch.payload_bits:
                raise CorruptDataError("payload bits declared but no oligos present")
            return ""
        length = len(oligos[0])
        # a balanced block alphabet is q or q - 1 and one block fills half of it,
        # so a larger q cannot fit; bound q before balanced_params checks the
        # flip layout, whose cost grows with q
        if batch.scheme == "balanced" and batch.q > 2 * length + 2:
            raise CorruptDataError("alphabet size exceeds what the balanced oligo can carry")
        # the batch's own geometry gives back the encoder's size parameters
        code = SCHEMES[batch.scheme](
            batch.q,
            rho=batch.rho,
            depth=batch.spec.total_cycles // max(batch.q, 1),
            oligo_length=length,
            block_symbols=length - 1,
        )
        # a batch of rows of one length may carry their symbols end to end,
        # which a batch decoder reads as they are
        flat = oligos.flat if type(oligos) is _FlatOligos and code.decode_blocks else None
        rows = None if flat else [o.symbols for o in oligos]
        size, count = length, len(oligos)
        if code.joined:
            size = code.lengths[0]
            if count > 1 or length % size:
                raise CorruptDataError(f"{batch.scheme} batches carry one oligo of whole blocks")
            count = length // size
        if batch.spec.segments != code.program(count):
            raise CorruptDataError("program does not match the oligo shape and count")
        # a batch decoder reads every block of the buffer a batch carries;
        # any other batch is checked and decoded a distinct oligo at a time
        distinct = None if flat or code.joined else list(dict.fromkeys(rows))
        lengths = {length} if flat else set(map(len, distinct or rows))
        if not code.joined and not lengths.issubset(code.lengths):
            raise CorruptDataError("oligo length does not match the program")
        width = code.width
        if count != -(-batch.payload_bits // width):
            raise CorruptDataError("block count does not match the payload bit count")
        # a block that decodes fits its share of the program: steering caps a
        # base block's cycles at its segment's, balanced and window blocks
        # ascend within one revolution, and rank refuses a lookup block past its window
        values = None
        if code.decode_blocks and flat is None:
            with suppress(ValueError):  # a symbol above 255
                flat = b"".join(map(bytes, distinct or rows))
        if flat is not None:
            values = code.decode_blocks(flat, size)
        blocks = rows
        if values is None:  # the batch decoder has run, if there is one
            rows = rows or [o.symbols for o in oligos]
            blocks = list(zip(*[iter(rows[0])] * size)) if code.joined else rows
            distinct = distinct or list(dict.fromkeys(blocks))
            values = list(map(code.decode_block, distinct))
    except (DomainError, OverflowError) as exc:  # OverflowError: an int past float range
        raise CorruptDataError(str(exc)) from exc
    if max(values, default=0) >> width:
        raise CorruptDataError("decoded block exceeds its bit width")
    if distinct is None:  # a value for every block, from the batch decoder
        return _bits(values, width)[: batch.payload_bits]
    text = dict(zip(distinct, map(format, values, repeat(f"0{width}b"))))
    return "".join(map(text.__getitem__, blocks))[: batch.payload_bits]
