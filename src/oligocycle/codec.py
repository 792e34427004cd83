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
program-shape, oligo-length, embedding and block-width checks.  Balanced
joins its blocks end to end in one oligo, the others put one in each.  A
payload is one integer inside the codec; '0'/'1' strings appear only in the
public functions.  Batches round-trip through a small JSON document.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from math import comb
from typing import Callable, Sequence

from .bits import (
    balance_word, balanced_data_bits, flip_layout_complete, unbalance_word, validate_bits
)
from .capacity import cap_fixed_length
from .counting import subsequence_count, subsequence_rank, subsequence_unrank
from .errors import CorruptDataError, DomainError
from .sequence import Oligo, SupersequenceSpec, min_cycles_under


# --- batch container ---


@dataclass(frozen=True)
class EncodedBatch:
    """A payload rendered as oligos plus the offer program that builds them."""

    scheme: str
    q: int
    rho: float
    payload_bits: int
    spec: SupersequenceSpec
    oligos: tuple[Oligo, ...]

    def to_json(self) -> str:
        doc = {
            "scheme": self.scheme,
            "q": self.q,
            "rho": self.rho,
            "payload_bits": self.payload_bits,
            "spec": [[q, cycles] for q, cycles in self.spec.segments],
            "oligos": [o.to_text() for o in self.oligos],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EncodedBatch":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CorruptDataError(f"batch is not valid JSON: {exc}") from exc
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
        # json reads NaN and Infinity; this bound also fails on them
        if type(rho) not in (int, float) or not abs(rho) <= sys.float_info.max:
            raise CorruptDataError("field 'rho' must be a finite number")
        raw_spec = doc["spec"]
        if not isinstance(raw_spec, list) or not all(
            isinstance(seg, list) and len(seg) == 2 and all(type(v) is int for v in seg)
            for seg in raw_spec
        ):
            raise CorruptDataError("field 'spec' must be a list of [alphabet, cycles] pairs")
        raw_oligos = doc["oligos"]
        if not isinstance(raw_oligos, list) or not all(isinstance(o, str) for o in raw_oligos):
            raise CorruptDataError("field 'oligos' must be a list of strings")
        try:
            spec = SupersequenceSpec(tuple((s, c) for s, c in raw_spec))
            alphabet = spec.max_alphabet
            oligos = tuple(Oligo.from_text(o, alphabet) for o in raw_oligos)
        except DomainError as exc:
            raise CorruptDataError(str(exc)) from exc
        return cls(scheme, q, float(rho), bits, spec, oligos)


# --- the scheme record ---


@dataclass(frozen=True)
class _BlockCode:
    """One scheme at fixed parameters: encode_block maps each integer below
    2**width to a block whose length lies in lengths, decode_block inverts it
    and raises on a block outside the code, and program(n) is the offer
    program of n blocks, whose largest alphabet the oligos use.  Reading
    width calls codewords, which counts for lookup: the decoder reads it
    only after its shape checks."""

    rho: float
    lengths: range
    program: Callable[[int], tuple[tuple[int, int], ...]]
    codewords: Callable[[], int]
    encode_block: Callable[[int], tuple[int, ...]]
    decode_block: Callable[[Sequence[int]], int]
    joined: bool = False  # every block in one oligo, end to end

    @cached_property
    def width(self) -> int:
        """Bits per block: the largest w with 2**w codewords, at least 1."""
        width = self.codewords().bit_length() - 1
        if width < 1:
            raise DomainError("a block holds fewer than two codewords; no bits fit")
        return width


def _fields(payload: str, width: int) -> list[int]:
    """The payload, zero-padded to whole width-bit blocks, as one integer per block."""
    total = -(-len(payload) // width) * width
    size = -(-total // 8)
    data = (int(payload or "0", 2) << (8 * size - len(payload))).to_bytes(size, "big")
    return [
        int.from_bytes(data[i >> 3 : (i + width + 7) >> 3], "big") >> (-(i + width) % 8)
        & ((1 << width) - 1)
        for i in range(0, total, width)
    ]


# --- base scheme: one steering symbol per oligo ---


def _steer(q: int, gaps: Sequence[int]) -> tuple[int, ...]:
    flip = 2 * sum(gaps) > (q + 1) * len(gaps)
    out = [2 if flip else 1]
    for g in gaps:
        out.append((out[-1] - 1 + (q + 1 - g if flip else g)) % q + 1)
    return tuple(out)


def _digits(value: int, base: int, count: int) -> tuple[int, ...]:
    """*count* base-*base* digits of *value* as symbols 1..base, most significant first."""
    digits = []
    for _ in range(count):
        value, digit = divmod(value, base)
        digits.append(digit + 1)
    return tuple(reversed(digits))


def _base_value(q: int, symbols: Sequence[int]) -> int:
    """The integer whose base-q digits, as gaps, were steered into *symbols*."""
    if not symbols:
        raise CorruptDataError("encoded oligo must carry a steering symbol")
    if symbols[0] not in (1, 2):
        raise CorruptDataError("steering symbol must be 1 or 2")
    if max(symbols) > q:
        raise CorruptDataError(f"symbols must lie in 1..{q}")
    flip = symbols[0] == 2  # each gap g went out as q+1-g
    value = 0
    for a, b in zip(symbols, symbols[1:]):
        value = value * q + (a - b if flip else b - a - 1) % q
    return value


def base_encode(q: int, info: Oligo) -> Oligo:
    """Re-express info symbols as offer gaps behind one steering symbol.

    Each info symbol g in 1..q makes the output advance exactly g cycles.
    When the gaps sum past the midpoint (q+1)*len/2 they all flip to their
    complements q+1-g, signalled by a leading 2 instead of a leading 1, so
    the greedy cycle count never exceeds floor((q+1)*(len+1)/2).
    """
    if q < 2:
        raise DomainError("base scheme requires alphabet size >= 2")
    if info.q > q:
        raise DomainError("info symbols exceed the alphabet")
    return Oligo(_steer(q, info.symbols), q)


def base_decode(q: int, oligo: Oligo) -> Oligo:
    """Invert base_encode; raises CorruptDataError on a malformed oligo."""
    if q < 2:
        raise DomainError("base scheme requires alphabet size >= 2")
    return Oligo(_digits(_base_value(q, oligo.symbols), q, len(oligo) - 1), q)


def _base(q: int, *, block_symbols: int | None, **_) -> _BlockCode:
    if q < 2:
        raise DomainError("base scheme requires alphabet size >= 2")
    size = 32 if block_symbols is None else block_symbols
    if size < 1:
        raise DomainError("block must carry at least one symbol")
    budget = (q + 1) * (size + 1) // 2
    return _BlockCode(
        rho=2.0 / (q + 1),
        lengths=range(size + 1, size + 2),
        program=lambda n: ((q, budget if n else 0),),
        codewords=lambda: q**size,
        encode_block=lambda value: _steer(q, _digits(value, q, size)),
        decode_block=partial(_base_value, q),
    )


# --- lookup scheme: enumerative coding over a fixed window ---


def _lookup(q: int, *, rho: float | None, depth: int | None, **_) -> _BlockCode:
    if rho is None or depth is None:
        raise DomainError("lookup encoding requires both rho and depth")
    if q < 1 or depth < 1:
        raise DomainError("alphabet size and depth must be at least 1")
    cycles = depth * q
    length = rho * cycles
    if not 0 <= length <= cycles or abs(length - round(length)) > 1e-9:
        raise DomainError("rho does not give an integral oligo length at this depth")
    length = round(length)
    return _BlockCode(
        rho=rho,
        lengths=range(length, length + 1),
        program=lambda n: ((q, cycles),),
        codewords=lambda: subsequence_count(q, cycles, length),
        encode_block=lambda value: subsequence_unrank(q, cycles, length, value).symbols,
        decode_block=lambda symbols: subsequence_rank(q, cycles, Oligo(symbols, q)),
    )


def lookup_encode(q: int, depth: int, rho: float, payload: str) -> EncodedBatch:
    """Index oligos of length rho*C inside a C = depth*q cycle window.

    rho*C must be integral (to 1e-9) and the window must hold at least two
    oligos, otherwise no bits fit.
    """
    return encode_payload("lookup", payload, q=q, rho=rho, depth=depth)


# --- multisize scheme: two adjacent sub-alphabet sizes ---


@dataclass(frozen=True)
class AlphaProfile:
    """Fractions of an oligo drawn from each sub-alphabet 1..q."""

    q: int
    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fractions) != self.q:
            raise DomainError("profile must cover every sub-alphabet size")
        if any(f < 0 for f in self.fractions):
            raise DomainError("fractions must be non-negative")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DomainError("fractions must sum to 1")


def optimal_alpha(q: int, rho: float) -> tuple[int, float]:
    """Best sub-alphabet split at cycle ratio rho: returns (s, fraction) with
    the oligo spending `fraction` of its symbols on alphabet size s and the
    rest on s+1.

    The average cycles per symbol over sizes s and s+1 must equal 2/rho - 1,
    which pins s = floor(2/rho - 1) (clamped to q-1) and the fraction
    s + 2 - 2/rho.
    """
    if q < 2:
        raise DomainError("multisize scheme requires alphabet size >= 2")
    low = 2.0 / (q + 1)
    if not low - 1e-12 <= rho <= 1.0 + 1e-12:  # written so that NaN fails too
        raise DomainError(f"rho must lie in [{low:.6g}, 1]")
    rho = min(max(rho, low), 1.0)
    s = max(1, min(int(2.0 / rho - 1.0 + 1e-9), q - 1))
    fraction = s + 2.0 - 2.0 / rho
    if abs(fraction - round(fraction)) <= 1e-9:
        fraction = float(round(fraction))
    return s, min(max(fraction, 0.0), 1.0)


def alpha_profile(q: int, rho: float) -> AlphaProfile:
    """optimal_alpha spread over all q sub-alphabet sizes."""
    s, fraction = optimal_alpha(q, rho)
    fractions = [0.0] * q
    fractions[s - 1] = fraction
    fractions[s] += 1.0 - fraction
    return AlphaProfile(q, tuple(fractions))


def multisize_rate(q: int, rho: float) -> float:
    """Asymptotic bits per cycle of the multisize scheme at ratio rho."""
    s, _ = optimal_alpha(q, rho)
    rho = min(max(rho, 2.0 / (q + 1)), 1.0)
    return (rho * (s + 2) - 2.0) * math.log2(s) + (2.0 - rho * (s + 1)) * math.log2(s + 1)


def _multisize(q: int, *, rho: float | None, oligo_length: int | None, **_) -> _BlockCode:
    # A base-coded run over sub-alphabet s holds the low digits and a
    # base-coded tail over s+1 the high ones.  When s is 1 the run is all 1s.
    if rho is None:
        raise DomainError("multisize encoding requires rho")
    length = 48 if oligo_length is None else oligo_length
    if length < 1:
        raise DomainError("oligo length must be at least 1")
    s, fraction = optimal_alpha(q, rho)
    run = int(fraction * length + 1e-9)
    tail = length - run
    coded = run if s >= 2 else 0
    low_values = s ** max(coded - 1, 0)
    program = ((s, (s + 1) * run // 2),) * (run > 0) + ((s + 1, (s + 2) * tail // 2),) * (tail > 0)

    def encode_block(value: int) -> tuple[int, ...]:
        high, low = divmod(value, low_values)
        head = _steer(s, _digits(low, s, run - 1)) if coded else (1,) * run
        return head + (_steer(s + 1, _digits(high, s + 1, tail - 1)) if tail else ())

    def decode_block(symbols: Sequence[int]) -> int:
        head, rest = symbols[:run], symbols[run:]
        if not coded and head.count(1) != run:
            raise CorruptDataError("constant run segment must be all 1s")
        high = _base_value(s + 1, rest) if tail else 0
        return high * low_values + (_base_value(s, head) if coded else 0)

    return _BlockCode(
        rho=rho,
        lengths=range(length, length + 1),
        program=lambda n: program,
        codewords=lambda: low_values * (s + 1) ** max(tail - 1, 0),
        encode_block=encode_block,
        decode_block=decode_block,
    )


def multisize_encode(q: int, rho: float, payload: str, oligo_length: int = 48) -> EncodedBatch:
    """Encode into oligos of a fixed length, split between sub-alphabets s
    and s+1 in the proportion optimal_alpha prescribes.

    At rho > 2/3 the smaller sub-alphabet degenerates to size 1 and that part
    of each oligo becomes a constant run carrying no information.
    """
    return encode_payload("multisize", payload, q=q, rho=rho, oligo_length=oligo_length)


# --- balanced scheme: weight-balanced blocks over an ascending alphabet ---


@lru_cache(maxsize=None)
def balanced_params(q: int) -> tuple[int, int]:
    """(data bits, block alphabet) for the balanced scheme at alphabet q.

    The block alphabet is the largest f + ceil(log2 f) + 1 <= q.  Raises
    DomainError when q < 4 or when the flip layout cannot balance every
    f-bit word (some alphabet sizes land on such f).
    """
    if q < 4:
        raise DomainError("balanced scheme requires alphabet size >= 4")
    f = balanced_data_bits(q)
    if not flip_layout_complete(f):
        raise DomainError(
            f"alphabet size {q} maps to {f} data bits, which the flip layout cannot balance"
        )
    return f, f + (f - 1).bit_length() + 1


def _balanced(q: int, **_) -> _BlockCode:
    # a block is the set bits of the balanced word, as ascending positions
    f, size = balanced_params(q)

    def encode_block(value: int) -> tuple[int, ...]:
        word = balance_word(value, f)
        return tuple(v for v in range(1, size + 1) if word >> (size - v) & 1)

    def decode_block(symbols: Sequence[int]) -> int:
        if len(symbols) != size // 2:
            raise CorruptDataError("block oligo has the wrong length")
        if any(b <= a for a, b in zip(symbols, symbols[1:])):
            raise CorruptDataError("block oligo must be strictly ascending")
        if symbols and not 1 <= symbols[0] <= symbols[-1] <= size:
            raise CorruptDataError("block oligo symbol out of range")
        return unbalance_word(sum(1 << (size - v) for v in symbols), f)

    return _BlockCode(
        rho=size // 2 / size,
        lengths=range(size // 2, size // 2 + 1),
        program=lambda n: ((size, n * size),),
        codewords=lambda: 1 << f,
        encode_block=encode_block,
        decode_block=decode_block,
        joined=True,
    )


def balanced_block_encode(q: int, block: str) -> Oligo:
    """One block of data bits to one strictly ascending constant-weight oligo."""
    f, size = balanced_params(q)
    validate_bits(block)
    if len(block) != f:
        raise DomainError(f"block must carry exactly {f} bits")
    return Oligo(_balanced(q).encode_block(int(block, 2)), size)


def balanced_block_decode(q: int, oligo: Oligo) -> str:
    """Invert balanced_block_encode; raises CorruptDataError on bad blocks."""
    f, _ = balanced_params(q)
    return format(_balanced(q).decode_block(oligo.symbols), f"0{f}b")


def balanced_encode(q: int, payload: str) -> EncodedBatch:
    """Concatenate balanced blocks into a single oligo, one revolution of the
    block alphabet per block."""
    return encode_payload("balanced", payload, q=q)


# --- window scheme: one alphabet subset per revolution ---
#
# Subsets rank by size, then lexicographically.  Those of at most ceil(q/2)
# symbols number at least 2**(q-1) for every q >= 2, so each block has one.


def _subset_unrank(q: int, value: int) -> tuple[int, ...]:
    size = 1
    while value >= comb(q, size):
        value -= comb(q, size)
        size += 1
    out = []
    v = 0
    for slot in range(size - 1, -1, -1):
        v += 1
        while value >= comb(q - v, slot):
            value -= comb(q - v, slot)
            v += 1
        out.append(v)
    return tuple(out)


def _subset_rank(q: int, symbols: Sequence[int]) -> int:
    if any(b <= a for a, b in zip(symbols, symbols[1:])):
        raise CorruptDataError("subset must be strictly ascending")
    # the last rank of this size, less the subsets that come lexicographically after
    size = len(symbols)
    last = sum(comb(q, j) for j in range(1, size + 1)) - 1
    return last - sum(comb(q - c, size - i) for i, c in enumerate(symbols))


def _window(q: int, **_) -> _BlockCode:
    if q < 2:
        raise DomainError("window scheme requires alphabet size >= 2")
    return _BlockCode(
        rho=0.5,
        lengths=range(1, (q + 1) // 2 + 1),
        program=lambda n: ((q, n * q),),
        codewords=lambda: 1 << (q - 1),
        encode_block=partial(_subset_unrank, q),
        decode_block=partial(_subset_rank, q),
    )


def window_encode(q: int, payload: str) -> EncodedBatch:
    """One oligo per q-cycle window, each a subset of at most ceil(q/2)
    symbols, carrying q-1 bits per window."""
    return encode_payload("window", payload, q=q)


# --- scheme comparison ---


@dataclass(frozen=True)
class RateRow:
    """One scheme's operating point: bits per cycle against the ceiling."""

    scheme: str
    rho: float
    rate: float
    cap: float


def rate_table(q: int, rhos: Sequence[float]) -> list[RateRow]:
    """Achievable rates for every scheme at alphabet q.

    Fixed-ratio schemes (base, balanced, window) contribute one row each at
    their natural rho; lookup and multisize contribute one row per feasible
    entry of *rhos*.  Lookup windows use the shallowest depth that makes
    rho*C integral.
    """
    if q < 2:
        raise DomainError("rate table requires alphabet size >= 2")
    rows = []
    base_rho = 2.0 / (q + 1)
    rows.append(RateRow("base", base_rho, base_rho * math.log2(q), cap_fixed_length(q, base_rho)))
    rows.append(RateRow("window", 0.5, (q - 1) / q, cap_fixed_length(q, 0.5)))
    with suppress(DomainError):  # not every q has a balanced layout
        f, size = balanced_params(q)
        rho = size // 2 / size
        rows.append(RateRow("balanced", rho, f / size, cap_fixed_length(size, rho)))
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:
            raise DomainError("rho grid entries must lie in [0, 1]")
        for depth in range(1, 65):
            try:
                width = _lookup(q, rho=rho, depth=depth).width
            except DomainError:
                continue
            rows.append(RateRow("lookup", rho, width / (depth * q), cap_fixed_length(q, rho)))
            break
        if rho >= 2.0 / (q + 1) - 1e-12:
            rows.append(RateRow("multisize", rho, multisize_rate(q, rho), cap_fixed_length(q, rho)))
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
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    code = SCHEMES[scheme](
        q, rho=rho, depth=depth, oligo_length=oligo_length, block_symbols=block_symbols
    )
    blocks = [code.encode_block(value) for value in _fields(payload, code.width)]
    spec = SupersequenceSpec(code.program(len(blocks)))
    if code.joined and blocks:
        blocks = [tuple(chain.from_iterable(blocks))]
    alphabet = spec.max_alphabet
    oligos = tuple(Oligo(block, alphabet) for block in blocks)
    return EncodedBatch(scheme, q, code.rho, len(payload), spec, oligos)


def decode_payload(batch: EncodedBatch) -> str:
    """Recover the bit payload from an EncodedBatch; shape checks run before any counting."""
    if batch.scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {batch.scheme!r}")
    oligos = batch.oligos
    if not oligos:
        if batch.payload_bits:
            raise CorruptDataError("payload bits declared but no oligos present")
        return ""
    length = len(oligos[0])
    try:
        # the batch's own geometry gives back the encoder's size parameters
        code = SCHEMES[batch.scheme](
            batch.q,
            rho=batch.rho,
            depth=batch.spec.total_cycles // max(batch.q, 1),
            oligo_length=length,
            block_symbols=length - 1,
        )
        blocks = [o.symbols for o in oligos]
        if code.joined:
            size = code.lengths[0]
            if len(oligos) > 1 or length % size:
                raise CorruptDataError(f"{batch.scheme} batches carry one oligo of whole blocks")
            blocks = [blocks[0][i : i + size] for i in range(0, length, size)]
        if batch.spec.segments != code.program(len(blocks)):
            raise CorruptDataError("program does not match the oligo shape and count")
        if any(len(block) not in code.lengths for block in blocks):
            raise CorruptDataError("oligo length does not match the program")
        if any(min_cycles_under(batch.spec, o) is None for o in oligos):
            raise CorruptDataError("oligo does not embed in the program")
        width = code.width
        values = [code.decode_block(block) for block in blocks]
    except DomainError as exc:
        raise CorruptDataError(str(exc)) from exc
    if any(v >> width for v in values):
        raise CorruptDataError("decoded block exceeds its bit width")
    if batch.payload_bits > width * len(values):
        raise CorruptDataError("payload bit count exceeds the decoded data")
    return "".join(format(v, f"0{width}b") for v in values)[: batch.payload_bits]
