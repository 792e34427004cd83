"""Test oracles: the literal offer stream and the greedy cycle count.

The package uses none of them; tests check its embedding and its encoders'
cycle budgets against them.
"""

from oligocycle import DomainError, Oligo, SupersequenceSpec, alternating_prefix


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
