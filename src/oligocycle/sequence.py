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

from typing import Callable, Collection, Iterable, Sequence

from .errors import DomainError, require_int


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
        require_int(q)
        if q < 1:
            raise DomainError("alphabet size must be at least 1")
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


def _oligos(rows: Iterable[tuple[int, ...]], q: int, used: Collection[int]) -> list[Oligo]:
    """[Oligo(row, q) for row in rows] for tuple rows whose symbols all lie
    in *used*: one check of *used* stands for the check of every row.  Only
    when it fails is each row built by Oligo, so the error names the first
    bad row."""
    if type(q) is not int or q < 1 or not _in_alphabet(used, q):
        return [Oligo(row, q) for row in rows]
    new, put = object.__new__, object.__setattr__
    oligos = []
    for row in rows:
        oligo = new(Oligo)
        put(oligo, "symbols", row)
        put(oligo, "q", q)
        oligos.append(oligo)
    return oligos


# --- the oligo text format, one batch at a time ---
#
# A batch repeats few symbols many times, so each call names each distinct
# symbol once, converts each distinct token once, renders or parses each
# distinct oligo once, and checks the symbols a parse read once, together.


def render_oligos(oligos: Iterable[Oligo]) -> list[str]:
    """Each oligo as its comma-separated symbol list, e.g. '4,3,2,1'."""
    rows = [o.symbols for o in oligos]
    distinct = set(rows)
    names = {s: str(s) for s in set().union(*distinct)}
    text = {row: ",".join(map(names.__getitem__, row)) for row in distinct}
    return list(map(text.__getitem__, rows))


def parse_oligos(texts: Sequence[str], q: int) -> list[Oligo]:
    """Read render_oligos' output back as oligos over 1..q: surrounding
    whitespace is dropped, an empty text is the empty oligo, and int() reads
    each symbol.  Texts are checked in batch order, each for a malformed
    symbol before one outside 1..q, so the DomainError raised is the one a
    loop over the texts meets first."""
    symbols = _Memo(int)  # int() takes surrounding spaces, a sign and leading zeros
    rows = {}
    for text in dict.fromkeys(texts):
        stripped = text.strip()
        try:
            rows[text] = tuple(map(symbols.__getitem__, stripped.split(","))) if stripped else ()
        except ValueError as exc:
            _oligos(rows.values(), q, symbols.values())  # an earlier bad symbol wins
            raise DomainError(f"malformed oligo text {stripped!r}") from exc
    oligos = dict(zip(rows, _oligos(rows.values(), q, symbols.values())))
    return list(map(oligos.__getitem__, texts))


class _Memo(dict):
    """fn(key) for each key looked up, computed on its first lookup; a
    lookup that hits runs no Python code, even through map()."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class SupersequenceSpec(_Record):
    """An offer program: consecutive segments of (alphabet size, cycle count)."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[int, int], ...]) -> None:
        for q, cycles in segments:
            require_int(q, "segment alphabet size")
            require_int(cycles, "segment cycle count")
            if q < 1:
                raise DomainError("segment alphabet size must be at least 1")
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
    require_int(q)
    if q < 1:
        raise DomainError("alphabet size must be at least 1")
    if cycles < 0:
        raise DomainError("cycle count must be non-negative")
    return tuple(i % q + 1 for i in range(cycles))


def min_cycles_under(spec: SupersequenceSpec, oligo: Oligo) -> int | None:
    """Smallest number of leading cycles of *spec* that contain *oligo* as a
    subsequence, or None when even the full program cannot embed it.

    Greedy leftmost matching is optimal for subsequence embedding, so each
    symbol jumps straight to its next offer without materializing the stream.
    """
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
