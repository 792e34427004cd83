"""Exact counting and enumerative indexing of synthesizable oligos.

Everything here follows from one bijection.  Greedy leftmost embedding maps
an oligo s_1..s_L over 1..q to its gap sequence g in [1, q]^L: g_1 = s_1,
and each later g_i is the number of cycles from the offer of s_{i-1} to the
next offer of s_i.  Every gap sequence comes from exactly one oligo, and the
oligo embeds in C cycles iff its gaps sum to at most C.

Counting is then counting bounded compositions, which inclusion-exclusion
over the gaps that exceed q gives in closed form:

    count(q, C, L) = sum_j (-1)^j * binom(L, j) * binom(C - j*q, L),

summed while C - j*q >= L.

Ranking an oligo among its peers in lexicographic order adds, at each
position, the completions of every smaller symbol: with w cycles left after
that symbol's gap and l symbols still to place, that is N(w, l), the number
of gap sequences of length l with sum at most w (Cover, "Enumerative source
coding", IEEE T-IT 1973).  The symbols below a given one leave at most two
runs of consecutive spares, so one suffix table per (q, C, L) holds running
sums of N, row by row: a run's completions are one difference of two
entries, and unrank finds each symbol with one bisection of a row.  The
recurrence N(w, l) = sum_{a=1..q} N(w - a, l - 1) is itself a difference of
two running sums of the row below, so each row costs one pass.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import accumulate, chain, repeat
from math import comb
from operator import sub
from threading import Lock
from typing import Sequence

from .errors import DomainError, require_instance, require_int
from .sequence import Oligo, alternating_prefix

# Largest suffix table built, in stored integers.  It is checked first: the
# byte bound below takes a closed-form count, which is cheap only once the
# table is this small.
_MAX_TABLE_ENTRIES = 1 << 20
# Most bytes one cache holds: past it the oldest tables go first, and no
# single table that could pass it is built.  Deep tables hold integers of
# hundreds of bits, so integers alone say little of their size: over four
# symbols, a depth-256 window fits (19 MiB held, 35 MiB bounded) and one
# of depth 320 does not.
_MAX_CACHED_BYTES = 1 << 26

Table = list[list[int]]


def _int_bytes(bits: int) -> int:
    """At least the bytes of an integer of *bits* bits: 28 plus 4 per 30-bit digit."""
    return 28 + 4 * ((bits + 29) // 30)


def _table_bytes(rows: Table) -> int:
    """At least the bytes the table takes.  Each row ascends, so none of its
    integers is larger than its last; the row's list adds its slots."""
    return sum(sys.getsizeof(row) + len(row) * _int_bytes(row[-1].bit_length()) for row in rows)


class CountCache:
    """Suffix tables keyed by (q, cycles, length); len() counts the tables.

    The module keeps one, _shared_cache, for every table of the process.

    Entries are pure functions of their key, so a reader racing a writer at
    worst builds the same table twice.  Once the tables take more than
    _MAX_CACHED_BYTES, the oldest are dropped, though never the newest; a
    caller keeps the table it was handed.
    """

    __slots__ = ("_tables", "_bytes", "_lock")

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int, int], Table] = {}
        self._bytes = 0
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._tables)

    def _insert(self, key: tuple[int, int, int], rows: Table) -> Table:
        with self._lock:
            if key in self._tables:
                return self._tables[key]
            self._tables[key] = rows
            self._bytes += _table_bytes(rows)
            while self._bytes > _MAX_CACHED_BYTES and len(self._tables) > 1:
                oldest = next(iter(self._tables))
                self._bytes -= _table_bytes(self._tables.pop(oldest))
        return rows


_shared_cache = CountCache()


def subsequence_count(q: int, cycles: int, length: int, cache: CountCache | None = None) -> int:
    """Number of distinct length-*length* oligos reachable in *cycles* cycles.

    The closed form memoizes nothing; *cache* is accepted and ignored,
    because the perfbench suite still passes one positionally.
    """
    _require_sizes(q, cycles, length)
    total = 0
    for j in range(min(length, (cycles - length) // q) + 1):
        term = comb(length, j) * comb(cycles - j * q, length)
        total += -term if j & 1 else term
    return total


def brute_force_count(q: int, cycles: int, length: int) -> int:
    """Reference implementation by explicit enumeration (cycles capped at 20)."""
    _require_sizes(q, cycles, length)
    if cycles > 20:
        raise DomainError("brute force enumeration is capped at 20 cycles")
    stream = alternating_prefix(q, cycles)
    seen: set[tuple[int, ...]] = set()
    for mask in range(1 << cycles):
        if mask.bit_count() != length:
            continue
        seen.add(tuple(stream[i] for i in range(cycles) if mask >> i & 1))
    return len(seen)


def _require_sizes(q: object, cycles: object, length: object) -> None:
    """Raise DomainError unless the geometry is one that counting takes: the
    alphabet size, cycle count and length ints, q at least 1 and the length
    in 0..cycles.  Every counting entry point checks its geometry here."""
    require_int(q, low=1)
    require_int(cycles, "cycle count")
    require_int(length, "length")
    if not 0 <= length <= cycles:
        raise DomainError("length must lie in 0..cycles")


def _row_sizes(q: int, cycles: int, length: int) -> list[int]:
    """The number of running sums in each row of the geometry's suffix table."""
    spare = cycles - length
    return [min(spare, l * (q - 1) + q) + 1 for l in range(length + 1)]


def indexable_count(q: int, cycles: int, length: int) -> int:
    """subsequence_count(q, cycles, length) for a window suffix_table would index.

    Raises DomainError rather than count a window whose table holds over
    2**20 integers, or could take more than _MAX_CACHED_BYTES.  A table
    holds at least one integer per row, so a window of 2**20 symbols or
    more is refused before its rows are sized.  No count N exceeds
    subsequence_count(q, cycles, length): appending gaps of 1 maps the
    shorter gap sequences one to one into the counted ones.  So no entry of
    a row of n sums exceeds n times it.  A row built by appending keeps at
    most an eighth plus 6 spare slots.
    """
    _require_sizes(q, cycles, length)
    if (
        length >= _MAX_TABLE_ENTRIES
        or sum(sizes := _row_sizes(q, cycles, length)) > _MAX_TABLE_ENTRIES
    ):
        raise DomainError(f"a {cycles}-cycle window is too large to index")
    count = subsequence_count(q, cycles, length)
    bits = count.bit_length()
    empty = sys.getsizeof([])
    if sum(
        empty + 8 * (n + n // 8 + 6) + n * _int_bytes(bits + n.bit_length()) for n in sizes
    ) > _MAX_CACHED_BYTES:
        raise DomainError(f"a {cycles}-cycle window's table is too large to keep")
    return count


def suffix_table(q: int, cycles: int, length: int) -> Table:
    """The suffix table of the (q, cycles, length) geometry, built once per process.

    Row l holds the running sums S_l(k) = N(l, l) + N(l + 1, l) + ... +
    N(l + k, l) for k = 0, 1, ...: the gap sequences of length l with at
    most 0, 1, ..., k cycles to spare, summed.  Rank and unrank never spare
    more than cycles - length, and from l*(q - 1) on all q**l sequences fit,
    so past that point S_l grows by q**l per spare cycle.  Each row stops at
    the smaller of cycles - length and l*(q - 1) + q: the q + 1 sums below a
    larger spare then slide down to the row's end, changed by one constant.
    The last step of rows[length] is subsequence_count(q, cycles, length).

    Raises DomainError where indexable_count refuses the window.
    """
    key = (q, cycles, length)
    rows = _shared_cache._tables.get(key)
    if rows is None:
        indexable_count(q, cycles, length)
        sizes = _row_sizes(q, cycles, length)
        row = list(range(1, sizes[0] + 1))  # S_0(k) = k + 1
        rows = [row]
        for n in sizes[1:]:
            # past its end the previous row grows by its last step
            prev = row + [row[-1] + (row[-1] - row[-2]) * j for j in range(1, n - len(row) + 1)]
            # N(l + k, l) = S_{l-1}(k) - S_{l-1}(k - q), then its running sum
            row = list(accumulate(map(sub, prev, chain(repeat(0, q), prev))))
            rows.append(row)
        rows = _shared_cache._insert(key, rows)
    return rows


def indexed_count(q: int, cycles: int, length: int) -> int:
    """subsequence_count read off the suffix table, which is built (or refused,
    for an oversized window) first: the number of ranks unrank accepts."""
    return _total(suffix_table(q, cycles, length))


def _total(rows: Table) -> int:
    """The last step of the table's last row."""
    row = rows[-1]
    return row[-1] - row[-2] if len(row) > 1 else row[0]


# After symbol prev, with `spare` cycles to spare, symbol s takes the gap
# (s - prev - 1) % q + 1 and leaves spare - (s - prev - 1) % q: the symbols
# prev+1..q leave spare down to spare - q + prev + 1, then 1..prev leave
# spare - q + prev down to spare - q + 1.  So the completions of all the
# symbols below s are at most two differences of running sums.  Rank and
# unrank read the sums at spare, or at the row's end when spare lies past it.


def rank_symbols(q: int, cycles: int, symbols: Sequence[int]) -> int:
    """subsequence_rank on a bare symbol sequence."""
    if symbols and not 1 <= min(symbols) <= max(symbols) <= q:
        raise DomainError(f"symbols must lie in 1..{q}")
    length = len(symbols)
    rows = suffix_table(q, cycles, length)
    spare = cycles - length  # cycles left beyond one per symbol still to place
    prev = index = 0  # prev: the symbol last placed, 0 before the first
    for row, sym in zip(reversed(rows[:length]), symbols):
        gap = (sym - prev - 1) % q
        if gap > spare:
            raise DomainError("oligo is not a subsequence of the offer prefix")
        top = spare if spare < len(row) else len(row) - 1  # where the sums are read
        wrap = top - q + prev  # what symbol 1 leaves; symbol q leaves wrap + 1
        # S(wrap) - S(what sym leaves) counts the symbols 1..sym-1 when
        # sym <= prev; past prev it is less the symbols sym..q, and all q
        # symbols together are S(top) - S(top - q)
        index += (row[wrap] if wrap >= 0 else 0) - row[top - gap]
        if sym > prev:
            index += row[top] - (row[top - q] if top >= q else 0)
        spare -= gap
        prev = sym
    return index


def unrank_symbols(q: int, cycles: int, length: int, index: int) -> tuple[int, ...]:
    """subsequence_unrank as a bare symbol tuple: one bisection per symbol,
    over the sums that the symbols 1..prev leave or over those of prev+1..q."""
    rows = suffix_table(q, cycles, length)
    total = _total(rows)
    if not 0 <= index < total:
        raise DomainError(f"index must lie in 0..{total - 1}")
    spare = cycles - length
    prev = 0
    out: list[int] = []
    for row in reversed(rows[:length]):
        top = spare if spare < len(row) else len(row) - 1  # where the sums are read
        wrap = top - q + prev  # what symbol 1 leaves
        below = row[wrap] if wrap >= 0 else 0
        first = below - row[top - q] if top >= q else below  # completions of 1..prev
        if index < first:  # s <= prev leaves wrap + 1 - s
            target = below - index
            left = bisect_left(row, target, top - q + 1 if top >= q else 0, wrap + 1)
            sym = wrap + 1 - left
        else:  # s > prev leaves top + 1 - (s - prev)
            target = row[top] - index + first
            left = bisect_left(row, target, wrap + 1 if wrap >= 0 else 0, top + 1)
            sym = prev + top + 1 - left
        index = row[left] - target
        spare -= top - left
        prev = sym
        out.append(sym)
    return tuple(out)


def subsequence_rank(q: int, cycles: int, oligo: Oligo) -> int:
    """Index of *oligo* among the distinct same-length oligos reachable in
    *cycles* cycles, ordered lexicographically by symbol value.

    Raises DomainError when the oligo does not embed in the offer prefix.
    """
    require_int(q, low=1)
    require_int(cycles, "cycle count")
    require_instance(oligo, Oligo, "oligo")
    if oligo.q > q:
        raise DomainError("oligo alphabet exceeds the stream alphabet")
    if len(oligo) > cycles:  # a cycle offers at most one symbol
        raise DomainError("oligo is not a subsequence of the offer prefix")
    return rank_symbols(q, cycles, oligo.symbols)


def subsequence_unrank(q: int, cycles: int, length: int, index: int) -> Oligo:
    """Inverse of subsequence_rank: the oligo at *index* in lexicographic order."""
    _require_sizes(q, cycles, length)
    require_int(index, "index")
    return Oligo(unrank_symbols(q, cycles, length, index), q)
