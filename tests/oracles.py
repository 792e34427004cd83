"""Test oracles: the literal offer stream and the greedy cycle count.

The package uses none of them; tests check its embedding and its encoders'
cycle budgets against them.  STEERING_EDGES and value_with_digit_sum give
the base coders' values on either side of the steering midpoint.
"""

import random
from functools import reduce

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


# (q, n) where the largest digit total of a block, (q-1)n, or that of a block
# with its steering slot, (q-1)(n+1), crosses 2**(8k-1) - 1 or 2**(8k) - 1
# for k = 1 or 2: each side of every bound a sum of bytes can meet
STEERING_EDGES = sorted(
    {
        (q, n)
        for bound in (127, 255, 32767, 65535)
        for q in (2, 3, 4, 17, 64, 127)
        for extra in (0, 1)  # the steering slot
        for n in (bound // (q - 1) - extra, bound // (q - 1) + 1 - extra)
        if 1 <= n <= 2048
    }
)


def value_with_digit_sum(rng: random.Random, q: int, n: int, total: int) -> int:
    """A value below q**n whose n base-q digits, in a random order, total *total*."""
    digits = []
    for _ in range(n):
        digit = min(q - 1, total)
        digits.append(digit)
        total -= digit
    assert total == 0, "no n digits below q reach that total"
    rng.shuffle(digits)
    return reduce(lambda value, digit: value * q + digit, digits, 0)
