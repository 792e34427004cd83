"""Information capacity of cycle-limited synthesis.

With C cycles and oligos of exact length L = rho*C, the number of reachable
oligos grows as 2^(cap(q, rho) * C).  Below the threshold rho <= 2/(q+1)
every length-L symbol string embeds, so cap is the trivial rho*log2(q).
Above it, cap(q, rho) = rho * log2(sum_i x^(i - 1/rho)) where x is the unique
root in (0, 1) of

    sum_{i=1}^{q} (1 - rho*i) * x^i = 0.

Dropping the length constraint gives the flexible capacity -log2(x) with x
solving sum_{i=1}^{q} x^i = 1.  Both roots come from bisection: the
polynomials are monotone or single-crossing on (0, 1), and halving until
the midpoint no longer moves pins the root to full double precision.  The
flexible root evaluates its polynomial at every halving.  The fixed-length
root first finds the root by Newton's method, proves where the sign of a
Horner evaluation can differ from the sign of the polynomial (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 5.1), and
evaluates only inside that zone; elsewhere the sign is known, so bisection
takes the same path and returns the same float as evaluating everywhere.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .errors import DomainError

if TYPE_CHECKING:
    from .counting import CountCache

_BRACKET = (1e-12, 1.0 - 1e-12)
# Largest alphabet of a fixed-length root solve.  A solve holds q
# coefficients (about 32 MB at this bound) and takes some 20 to 35 passes
# over them (seconds at this bound).
_MAX_ROOT_ALPHABET = 1 << 20
_UNIT = 2.0**-53  # unit roundoff of a double
# Newton steps at most; each costs about three bisection halvings
_NEWTON_STEPS = 20


def binary_entropy(p: float) -> float:
    """Shannon entropy -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("entropy argument must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _bisect(below: Callable[[float], bool], lo: float, hi: float) -> float:
    """The point where *below* turns false on [lo, hi], by bisection.

    Stops once the midpoint equals a bracket end: no later halving could
    move it, so the result is that of all 200 halvings, in about 60.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _horner(coeffs: list[float], x: float) -> float:
    """sum_i c_i x^i for i = 1..q, with coeffs listing c_q down to c_1."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc * x


def _horner_terms(coeffs: list[float], x: float) -> tuple[float, float, float]:
    """p(x) exactly as _horner computes it, p'(x), and sum_i |c_i| x^i, in one pass."""
    acc = slope = size = 0.0
    for c in coeffs:
        slope = slope * x + acc
        acc = acc * x + c
        size = size * x + abs(c)
    return acc * x, acc + slope * x, size * x


def _newton_root(coeffs: list[float], x: float) -> float:
    """Estimate of the root in (0, 1) by Newton steps from x, a point left of it.

    The coefficients change sign once, and so, with weights growing in i,
    do those of p' and p''.  So p rises to one maximum and is concave from
    before it on, and falls through the root.  A tangent step from a point
    past the maximum therefore lands right of the root (the tangent lies
    above p), and tangent steps from the right fall monotonically to it.
    Stops once the value is within Horner's error bound of zero, where the
    sign of a further step cannot be trusted.
    """
    noise = 2 * len(coeffs) * _UNIT
    value, slope, _ = _horner_terms(coeffs, x)
    x = min(x - value / slope, 1.0) if slope < 0.0 else 1.0
    for _ in range(_NEWTON_STEPS):
        value, slope, size = _horner_terms(coeffs, x)
        if abs(value) <= noise * size or not slope < 0.0:
            break
        step = x - value / slope
        if not 0.0 < step < x:
            break
        x = step
    return x


def _positive_below(coeffs: list[float], r: float) -> Callable[[float], bool]:
    """The predicate p(x) > 0 as Horner evaluates it, evaluated only near r.

    Horner's result differs from p(x) by at most gamma_2q * S(x), where
    S(x) = sum_i |c_i| x^i and gamma_2q is about 2q unit roundoffs.  The
    polynomials p - gamma_2q*S and p + gamma_2q*S keep the single sign change
    of the coefficients, so each has one root on (0, inf) and is positive
    before it, negative after.  If Horner reads p(a) above twice the bound,
    p - gamma_2q*S is positive at a, hence on all of (0, a], and Horner reads
    every x there as positive; likewise below minus twice the bound at b,
    for every x >= b as not positive.  Only (a, b) is then left to
    evaluate, with a and b a few bound-widths either side of the estimate r;
    an end outside the bisection's bracket needs no check.  When a check
    fails the plain predicate is returned.
    """
    noise = 2 * len(coeffs) * _UNIT
    _, slope, size = _horner_terms(coeffs, r)
    if slope:
        radius = 8 * noise * size / abs(slope) + 4 * math.ulp(r)
        a, b = r - radius, r + radius
        # 2.5 * noise * S covers twice gamma_2q * S and the rounding of S itself
        value_a, _, size_a = _horner_terms(coeffs, a)
        value_b, _, size_b = _horner_terms(coeffs, b)
        if (a <= _BRACKET[0] or value_a > 2.5 * noise * size_a) and (
            b >= _BRACKET[1] or value_b < -2.5 * noise * size_b
        ):
            return lambda x: x < a or (x <= b and _horner(coeffs, x) > 0.0)
    return lambda x: _horner(coeffs, x) > 0.0


def capacity_root_fixed(q: int, rho: float) -> float:
    """Root in (0, 1) of sum_i (1 - rho*i) x^i for 2/(q+1) < rho < 1.

    The coefficients change sign once, so the polynomial crosses zero exactly
    once on (0, 1): positive near 0, negative at 1.  They are computed once,
    for every evaluation of the bisection and of the Newton steps.  Newton's
    method starts from 1 - rho, where the sum to infinity vanishes; the
    finite sum drops only negative terms, so 1 - rho lies left of the root.
    The estimate only narrows where bisection evaluates: the result is that
    of evaluating at every halving.
    """
    if not 2 <= q <= _MAX_ROOT_ALPHABET:
        raise DomainError(f"fixed-length root requires alphabet size in 2..{_MAX_ROOT_ALPHABET}")
    if not 2.0 / (q + 1) < rho < 1.0:
        raise DomainError("rho must lie strictly between 2/(q+1) and 1")
    coeffs = [1.0 - rho * i for i in range(q, 0, -1)]
    x = _bisect(_positive_below(coeffs, _newton_root(coeffs, 1.0 - rho)), *_BRACKET)
    # one Newton step to polish the last bit
    slope = 0.0
    for i, c in zip(range(q, 0, -1), coeffs):
        slope = slope * x + i * c
    if slope:
        step = x - _horner(coeffs, x) / slope
        if 0.0 < step < 1.0:
            x = step
    return x


def cap_fixed_length(q: int, rho: float) -> float:
    """Capacity in bits per cycle at length ratio rho."""
    if q < 1:
        raise DomainError("alphabet size must be at least 1")
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    if rho <= 2.0 / (q + 1):
        return rho * math.log2(q)
    if rho == 1.0:
        return 0.0
    x = capacity_root_fixed(q, rho)
    inv = 1.0 / rho
    total = 0.0
    for i in range(1, q + 1):
        total += x ** (i - inv)
    return rho * math.log2(total)


def capacity_root_flexible(q: int) -> float:
    """Root in (0, 1] of sum_{i=1}^{q} x^i = 1."""
    if q < 1:
        raise DomainError("alphabet size must be at least 1")
    if q == 1:
        return 1.0

    def short(x: float) -> bool:
        acc = 0.0
        for _ in range(q):
            acc = (acc + 1.0) * x
        return acc < 1.0

    return _bisect(short, *_BRACKET)


def cap_flexible(q: int) -> float:
    """Capacity in bits per cycle when oligo lengths are unconstrained."""
    return -math.log2(capacity_root_flexible(q))


def _log2_int(n: int) -> float:
    # math.log2 overflows converting ints above ~2**1024
    bits = n.bit_length()
    if bits <= 53:
        return math.log2(n)
    shift = bits - 53
    return math.log2(n >> shift) + shift


def empirical_cap(q: int, cycles: int, rho: float, cache: CountCache | None = None) -> float:
    """Finite-size rate log2(count)/cycles at length floor(rho*cycles).

    Converges to cap_fixed_length from below as cycles grows.
    """
    if cycles < 1:
        raise DomainError("cycle count must be at least 1")
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    # counting is imported here, so commands that never count never load it
    from .counting import subsequence_count

    length = int(rho * cycles + 1e-9)
    count = subsequence_count(q, cycles, length, cache)
    return _log2_int(count) / cycles
