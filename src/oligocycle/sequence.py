"""Offer programs and synthesis-cycle accounting.

A light-directed synthesizer extends many strands in parallel by offering one
symbol per cycle, cycling through the alphabet in the fixed order
1, 2, ..., q, 1, 2, ...  A strand accepts or skips each offer, so the oligos
that can be built in C cycles are exactly the subsequences of the length-C
alternating prefix.  Everything here is exact integer bookkeeping: building
offer prefixes, costing a single oligo, and embedding oligos into programs
whose alphabet changes between segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError


@dataclass(frozen=True)
class Oligo:
    """An oligo as a tuple of symbols drawn from {1, ..., q}."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError("alphabet size must be at least 1")
        if self.symbols and not 1 <= min(self.symbols) <= max(self.symbols) <= self.q:
            bad = next(s for s in self.symbols if not 1 <= s <= self.q)
            raise DomainError(f"symbol {bad} outside alphabet 1..{self.q}")

    def __len__(self) -> int:
        return len(self.symbols)

    def to_text(self) -> str:
        """Comma-separated symbol list, e.g. '4,3,2,1'."""
        return ",".join(map(str, self.symbols))

    @classmethod
    def from_text(cls, text: str, q: int) -> "Oligo":
        """Parse the output of to_text.  Empty string means the empty oligo."""
        text = text.strip()
        if not text:
            return cls((), q)
        try:
            symbols = tuple(map(int, text.split(",")))
        except ValueError as exc:
            raise DomainError(f"malformed oligo text {text!r}") from exc
        return cls(symbols, q)


@dataclass(frozen=True)
class SupersequenceSpec:
    """An offer program: consecutive segments of (alphabet size, cycle count)."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for q, cycles in self.segments:
            if q < 1:
                raise DomainError("segment alphabet size must be at least 1")
            if cycles < 0:
                raise DomainError("segment cycle count must be non-negative")

    @property
    def total_cycles(self) -> int:
        return sum(c for _, c in self.segments)

    @property
    def max_alphabet(self) -> int:
        return max((q for q, _ in self.segments), default=1)


def alternating_prefix(q: int, cycles: int) -> tuple[int, ...]:
    """First *cycles* symbols of the alternating offer stream over 1..q."""
    if q < 1:
        raise DomainError("alphabet size must be at least 1")
    if cycles < 0:
        raise DomainError("cycle count must be non-negative")
    return tuple(i % q + 1 for i in range(cycles))


def materialize(spec: SupersequenceSpec) -> tuple[int, ...]:
    """Concatenate each segment's alternating prefix into one offer stream."""
    out: list[int] = []
    for q, cycles in spec.segments:
        out.extend(alternating_prefix(q, cycles))
    return tuple(out)


def offer_gap(current: int, target: int, q: int) -> int:
    """Cycles the stream needs to go from just after offering *current* to
    offering *target*, in {1, ..., q}.  A repeat of the same symbol costs a
    full revolution of q cycles."""
    if not (1 <= current <= q and 1 <= target <= q):
        raise DomainError("symbols must lie in 1..q")
    return (target - current - 1) % q + 1


def synthesis_cycles(oligo: Oligo) -> int:
    """Cycles consumed when the oligo is synthesized greedily from cycle 1.

    The first symbol s costs s cycles (the stream starts at 1), and each
    following symbol costs offer_gap from its predecessor.
    """
    symbols = oligo.symbols
    if not symbols:
        return 0
    total = symbols[0]
    for prev, cur in zip(symbols, symbols[1:]):
        total += offer_gap(prev, cur, oligo.q)
    return total


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
