"""Offer programs and synthesis-cycle accounting.

A light-directed synthesizer extends many strands in parallel by offering one
symbol per cycle, cycling through the alphabet in the fixed order
1, 2, ..., q, 1, 2, ...  A strand accepts or skips each offer, so the oligos
that can be built in C cycles are exactly the subsequences of the length-C
alternating prefix.  Everything here is exact integer bookkeeping: building
offer prefixes, reading and writing oligos as text, and embedding oligos
into programs whose alphabet changes between segments.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from typing import Collection, Iterable, Iterator, Sequence

from .errors import DomainError, require_instance, require_int


class _Record:
    """An immutable record whose fields are its __slots__: a subclass's
    __init__ validates them and stores them with object.__setattr__, and
    records compare, hash, print and pickle as the tuple of their fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Oligo(_Record):
    """An oligo as a tuple of symbols drawn from {1, ..., q}."""

    __slots__ = ("symbols", "q")

    def __init__(self, symbols: Iterable[int], q: int) -> None:
        symbols = tuple(symbols)
        require_int(q, low=1)
        if not _in_alphabet(symbols, q):
            bad = next(s for s in symbols if type(s) is not int or not 1 <= s <= q)
            if type(bad) is not int:
                raise DomainError(f"symbol {bad!r} is not an int")
            raise DomainError(f"symbol {bad} outside alphabet 1..{q}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return len(self.symbols)


def _in_alphabet(symbols: Collection[int], q: int) -> bool:
    """Whether every symbol is an int (not a bool or a float) in 1..q."""
    if not set(map(type, symbols)) <= {int}:
        return False
    return not symbols or 1 <= min(symbols) <= max(symbols) <= q


def _oligos(rows: Collection[tuple[int, ...]], q: int, used: Collection[int]) -> list[Oligo]:
    """[Oligo(row, q) for row in rows] for tuple rows, where *used* passes
    the alphabet check just when every symbol of the rows does: the set of
    their symbols, say, or those of them outside 1..q.  One check of *used*
    stands for the check of every row, and the records are built by C-level
    maps: object.__new__, then each slot's descriptor stores the row itself
    and q.  Only when the check fails is each row built by Oligo, so the
    error names the first bad row.  q is an int, at least 1."""
    if not _in_alphabet(used, q):
        return [Oligo(row, q) for row in rows]
    oligos = list(map(object.__new__, repeat(Oligo, len(rows))))
    deque(map(Oligo.symbols.__set__, oligos, rows), 0)
    deque(map(Oligo.q.__set__, oligos, repeat(q)), 0)
    return oligos


# --- the oligo text format, one batch at a time ---
#
# A batch repeats few rows many times, so each call renders each distinct row
# once and parses each distinct text once.  Where a batch allows, it does the
# rest in a few C-level bytes operations over the whole batch: render writes
# the symbols of every distinct row up to 255 as fixed digit fields of one
# bytearray, and parse reads canonical text over 1..q, q <= 255 (symbols in
# ASCII digits with no leading zero, single commas, any digit counts and row
# lengths), from one bytes of all of it: by slicing when every symbol has
# one digit and every text one length, else by byte planes and shifts of
# one integer.  Any other batch takes the plain per-text path: render joins
# str() of the symbols of each distinct row, and parse reads each distinct
# text on its own, int() of each token, and builds its Oligo, in batch order.
#
# A batch of rows of one length, whose symbols a batch coder or the
# canonical reader has just laid end to end in one bytes, keeps that buffer
# beside its oligos in a _FlatOligos.  Render writes the digit fields of
# such a batch from the buffer itself, with no per-row step, and the batch
# decoders read it as it is.

_SEPARATORS = b"\n" + b"," * 255  # a field's last byte: a 0 sentinel ends its row
# each byte's ASCII digit at a place value, or a 0 filler left of its first digit
_DIGIT_PLANES = {
    place: bytes(48 + v // place % 10 if v >= place else 0 for v in range(256))
    for place in (1, 10, 100)
}
# a token byte's digit value, or 0 for a separator
_TOKEN_CODES = bytes.maketrans(b"0123456789,\n", bytes(range(10)) + b"\0\0")
# 255 for a digit, 0 for a separator, 1 for any other byte
_DIGIT_MASKS = bytes(255 if 48 <= b <= 57 else 0 if b in b",\n" else 1 for b in range(256))


class _FlatOligos(tuple):
    """A tuple of oligos, at least one and all of one length of at least
    one symbol, that carries flat: the symbols of every oligo end to end in
    batch order, a byte each.  flat is a function of the oligos alone, and
    the tuple compares, hashes, prints and pickles as the plain tuple of
    its oligos; any new tuple of them, a slice say, carries no buffer."""

    def __new__(cls, oligos: Iterable[Oligo], flat: bytes) -> "_FlatOligos":
        self = super().__new__(cls, oligos)
        self.flat = flat
        return self

    def __reduce__(self) -> tuple:
        return tuple, (tuple(self),)


def render_oligos(oligos: Iterable[Oligo]) -> list[str]:
    """Each oligo as its comma-separated symbol list, e.g. '4,3,2,1'."""
    rows = [o.symbols for o in oligos]
    distinct = list(set(rows))
    try:
        texts = _render_bytes(distinct)
    except ValueError:  # a symbol above 255
        texts = [",".join(map(str, row)) for row in distinct]
    text = dict(zip(distinct, texts))
    return list(map(text.__getitem__, rows))


def _render_joined(oligos: Iterable[Oligo], sep: str) -> str:
    """sep.join(render_oligos(oligos)); a _FlatOligos is written from its
    buffer, each symbol's field ending in a comma, the last of a row's in a
    newline, and the last of all in a 0 filler."""
    if type(oligos) is not _FlatOligos:
        return sep.join(render_oligos(oligos))
    flat = oligos.flat
    size = len(flat) // len(oligos)
    seps = bytearray(b"," * len(flat))
    seps[size - 1 :: size] = b"\n" * len(oligos)
    seps[-1] = 0
    return _digit_fields(flat, seps).decode("ascii").replace("\n", sep)


def _render_bytes(rows: list[tuple[int, ...]]) -> list[str]:
    """[",".join(map(str, row)) for row in rows], for symbols in 1..255.

    The rows are joined end to end, each ended by a 0 whose field, empty
    of digits, ends in a newline; the comma before each newline is then
    deleted.  bytes() raises ValueError past 255."""
    flat = b"\0".join(map(bytes, rows)) + b"\0"
    text = _digit_fields(flat, flat.translate(_SEPARATORS)).replace(b",\n", b"\n")
    return text.decode("ascii").split("\n")[:-1]


def _digit_fields(flat: bytes, seps: bytes) -> bytes:
    """Each byte of flat in ASCII digits, then its byte of seps.

    Each byte becomes a field of d digit bytes and one separator, where d
    is the digit count of the largest byte; a digit left of a byte's first,
    every digit of a 0 and a 0 separator are 0 fillers, deleted at the end."""
    digits = 1 + bool(flat.translate(None, bytes(range(10)))) + bool(
        flat.translate(None, bytes(range(100)))
    )
    step = digits + 1
    out = bytearray(len(flat) * step)
    for k in range(digits):
        out[k::step] = flat.translate(_DIGIT_PLANES[10 ** (digits - 1 - k)])
    out[digits::step] = seps
    return out.translate(None, b"\0")


def parse_oligos(texts: Sequence[str], q: int) -> list[Oligo]:
    """Read render_oligos' output back as oligos over 1..q: surrounding
    whitespace is dropped, an empty text is the empty oligo, and int() reads
    each symbol.  Texts are checked in batch order, each for a malformed
    symbol before one outside 1..q, so the DomainError raised is the one a
    loop over the texts meets first."""
    return list(_parse_batch(texts, q))


def _parse_batch(texts: Sequence[str], q: int) -> tuple[Oligo, ...]:
    """parse_oligos(texts, q) as a tuple, a _FlatOligos of the canonical
    reader's buffer when that reader read the texts, none repeats and all
    have one length."""
    distinct = list(dict.fromkeys(texts))
    read = _canonical_rows(distinct, q)
    # the canonical reader checked every symbol: none lies outside 1..q
    oligos = list(_parse_each(distinct, q)) if read is None else _oligos(read[0], q, ())
    if len(distinct) < len(texts):  # a repeated text shares its first Oligo
        return tuple(map(dict(zip(distinct, oligos)).__getitem__, texts))
    return _FlatOligos(oligos, read[1]) if read and read[2] else tuple(oligos)


def _parse_each(texts: Iterable[str], q: int) -> Iterator[Oligo]:
    """The oligo of each text in turn: int() reads each token, taking
    surrounding spaces, a sign and leading zeros."""
    for text in texts:
        stripped = text.strip()
        try:
            symbols = tuple(map(int, stripped.split(","))) if stripped else ()
        except ValueError as exc:
            raise DomainError(f"malformed oligo text {stripped!r}") from exc
        yield Oligo(symbols, q)


def _canonical_rows(
    texts: list[str], q: int
) -> tuple[list[tuple[int, ...]], bytes, int] | None:
    """(rows, flat, size) for *texts* when every text is canonical over
    1..q, q <= 255: symbols in ASCII digits with no leading zero, joined by
    single commas, any number of them in a text and any digit count up to
    q's.  rows holds each text's symbols, flat all of them end to end, a
    byte each, and size is the one row length, or 0 when rows differ in
    length.  None for any other batch, which the per-text path then reads.

    Joined by newlines, the texts are one bytes of tokens and separators.
    When every token has one digit and every text one length, it alternates
    a digit with a separator, a comma within a text and a newline between
    two, and the digits are every other byte; a newline inside a text would
    break that pattern, so every text has the first one's length.  Any
    other batch is read by _token_values and cut into rows by each text's
    comma count."""
    if type(q) is not int or not 1 <= q <= 255:
        return None
    if not texts:
        return [], b"", 0
    joined = "\n".join(texts)
    if not joined.isascii():
        return None
    data = joined.encode("ascii")
    size = (len(texts[0]) + 1) // 2  # symbols per text, if one digit each
    if len(data) == 2 * size * len(texts) - 1 and data[1::2] == (
        b"," * (size - 1) + b"\n"
    ) * (len(texts) - 1) + b"," * (size - 1):
        digits = data[::2]
        if digits.translate(None, b"123456789"[:q]):
            return None
        flat = digits.translate(_TOKEN_CODES)
        return list(zip(*[iter(flat)] * size)), flat, size
    if data.count(b"\n") != len(texts) - 1:  # a newline inside a text
        return None
    flat = _token_values(data, q)
    if flat is None:
        return None
    sizes = [text.count(",") + 1 for text in texts]
    ends = list(accumulate(sizes))
    rows = [tuple(flat[start:end]) for start, end in zip([0, *ends], ends)]
    return rows, flat, sizes[0] if sizes.count(sizes[0]) == len(sizes) else 0


def _token_values(data: bytes, q: int) -> bytes | None:
    """The symbol of each token of *data*, one byte each in order, where the
    tokens are runs of ASCII digits split by commas and newlines; None
    unless every token is a symbol in 1..q, 1 <= q <= 255, written with no
    leading zero.

    Two integers hold a field of w bytes per byte of data: its digit value,
    and a mask that is all ones on a digit.  Fields are 16-bit when q has
    three digits, whose values reach 999, and one byte otherwise.  Shifts
    of the mask refuse a separator at either end, two in a row and a run of
    more digits than q has; a search refuses a 0 that starts a token.  Each
    token's value then forms at its last digit: the digit, plus 10 times
    the digit before it, plus 100 times the one before that, which the
    mask zeroes after a separator (a separator's own value is 0).  The
    mask of each next byte clears every field but the last digits', and
    deleting the 0 bytes between them leaves one per token."""
    planes = data.translate(_DIGIT_MASKS)
    if b"\1" in planes:  # a byte that is neither a digit nor a separator
        return None
    digits = len(str(q))
    width = 1 if digits < 3 else 2
    bits = 8 * width
    masks = _field_int(planes, width, planes)
    runs = masks
    for k in range(1, digits + 1):
        runs &= masks >> k * bits
    if (
        planes[:1] != b"\xff"
        or planes[-1:] != b"\xff"
        or (masks | masks >> bits).bit_count() != bits * len(data)  # two separators in a row
        or runs
        or data.startswith(b"0")
        or b",0" in data
        or b"\n" in data and b"\n0" in data  # a one-byte search is fast
    ):
        return None
    del planes  # each whole-text buffer goes once the next holds its data
    codes = _field_int(data.translate(_TOKEN_CODES), width)
    values = codes
    if digits > 1:
        values += 10 * (codes >> bits)
    if digits > 2:
        values += 100 * (codes >> 2 * bits & masks >> bits)
    values &= ~(masks << bits)  # a last digit is followed by a separator, or ends the data
    out = values.to_bytes(width * len(data), "big")
    if width == 2:
        if out[::2].count(0) != len(data):  # a value past 255
            return None
        out = out[1::2]
    out = out.translate(None, b"\0")
    if out.translate(None, bytes(range(1, q + 1))):
        return None
    return out


def _field_int(low: bytes, width: int, high: bytes | None = None) -> int:
    """The integer of width-byte fields, width 1 or 2, that hold the bytes
    of *low*: with width 2, each behind the byte of *high* at its index, or
    behind a 0 byte."""
    if width == 1:
        return int.from_bytes(low, "big")
    fields = bytearray(2 * len(low))
    fields[1::2] = low
    if high is not None:
        fields[::2] = high
    return int.from_bytes(fields, "big")


class SupersequenceSpec(_Record):
    """An offer program: consecutive segments of (alphabet size, cycle count)."""

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[tuple[int, int]]) -> None:
        try:
            segments = tuple((q, cycles) for q, cycles in segments)
        except (TypeError, ValueError) as exc:  # not iterable, or an item not a pair
            raise DomainError(
                "segments must be an iterable of (alphabet size, cycle count) pairs"
            ) from exc
        for q, cycles in segments:
            require_int(q, "segment alphabet size", low=1)
            require_int(cycles, "segment cycle count")
            if cycles < 0:
                raise DomainError("segment cycle count must be non-negative")
        object.__setattr__(self, "segments", segments)

    @property
    def total_cycles(self) -> int:
        return sum(c for _, c in self.segments)

    @property
    def max_alphabet(self) -> int:
        return max((q for q, _ in self.segments), default=1)


def alternating_prefix(q: int, cycles: int) -> tuple[int, ...]:
    """First *cycles* symbols of the alternating offer stream over 1..q."""
    require_int(q, low=1)
    require_int(cycles, "cycle count")
    if cycles < 0:
        raise DomainError("cycle count must be non-negative")
    return tuple(i % q + 1 for i in range(cycles))


def min_cycles_under(spec: SupersequenceSpec, oligo: Oligo) -> int | None:
    """Smallest number of leading cycles of *spec* that contain *oligo* as a
    subsequence, or None when even the full program cannot embed it.

    Greedy leftmost matching is optimal for subsequence embedding, so each
    symbol jumps straight to its next offer without materializing the stream.
    """
    require_instance(spec, SupersequenceSpec, "spec")
    require_instance(oligo, Oligo, "oligo")
    segments = iter(spec.segments)
    consumed = pos = q = cycles = 0  # before the first segment
    for sym in oligo.symbols:
        # move on to later segments while this one offers sym no more
        while sym > q or (nxt := pos + (sym - 1 - pos) % q) >= cycles:
            segment = next(segments, None)
            if segment is None:
                return None
            consumed += cycles
            q, cycles = segment
            pos = 0
        pos = nxt + 1
    return consumed + pos
