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
the midpoint no longer moves pins the root to full double precision.  One
solver finds both.  It estimates the root by Newton's method, proves where
the sign of a Horner evaluation can differ from that of the polynomial, and
evaluates only inside that zone; elsewhere the sign is known, so bisection
takes the same path and returns the same float as evaluating everywhere.
The zone comes from Horner's termwise error bound sum_i gamma_2i |c_i| x^i
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section
5.1, eq. 5.3).  The polynomial minus or plus that bound has coefficients
c_i -/+ gamma_2i |c_i|, each of the sign of c_i since gamma_2i < 1, so it
keeps the polynomial's single sign change and crosses zero once; and since
the terms fade as x^i, the zone stays a few ulps wide at every q.  Every
evaluation, of the polynomial, its slope and that bound alike, goes through
one Horner loop, _horner.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import DomainError, require_int, require_number

if TYPE_CHECKING:
    from .counting import CountCache

_BRACKET = (1e-12, 1.0 - 1e-12)
# Largest alphabet of a root solve.  A fixed-length solve holds q
# coefficients and their slopes (about 64 MB at this bound) and makes 17
# or 18 passes over them, 2 of them to build them: 0.7 to 1.2 s at this
# bound (rho .3, .5, .7; Python 3.11 on a shared 2-vCPU host).
_MAX_ROOT_ALPHABET = 1 << 20
_UNIT = 2.0**-53  # unit roundoff of a double
# Newton steps at most; each costs two Horner evaluations
_NEWTON_STEPS = 20


def binary_entropy(p: float) -> float:
    """Shannon entropy -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    require_number(p, "entropy argument")
    if not 0.0 <= p <= 1.0:
        raise DomainError("entropy argument must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _trivial_edge(q: int) -> float:
    """The trivial-coding edge 2/(q+1), at and below which every string
    embeds; DomainError for an alphabet past float range."""
    try:
        return 2.0 / (q + 1)
    except OverflowError:
        raise DomainError("alphabet size lies past float range") from None


def _bisect(
    below: Callable[[float], bool], lo: float, hi: float, a: float = -math.inf, b: float = math.inf
) -> float:
    """The point where *below* turns false on [lo, hi], by bisection.

    *a* and *b* are optional zone ends: *below* is known to hold at every
    point under a and to fail at every point over b, so it is called only
    on [a, b], and the halvings take the path of calling it everywhere.
    Stops once the midpoint equals a bracket end: no later halving could
    move it, so the result is that of all 200 halvings, in about 60.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid < a or (mid <= b and below(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _horner(coeffs: Iterable[float], x: float) -> float:
    """sum_i c_i x^(i-1) for i = 1..q, with coeffs listing c_q down to c_1.

    The solver's only evaluation loop: p(x) is _horner(coeffs, x) * x, and
    with the slopes i*c_i as coefficients it gives p'(x).
    """
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _newton_root(
    coeffs: Iterable[float], slopes: Iterable[float], x: float, target: float
) -> float:
    """Estimate of the root in (0, 1) of p(x) = target by Newton steps from x, left of it.

    The coefficients of p - target (its constant term -target among them)
    change sign once, from + to -, and so, with weights growing in i, do
    those of p' and p'' if they change sign at all.  So p - target rises to
    at most one maximum, is concave from before it on, and falls through
    the root.  A tangent step from a point past the maximum therefore lands
    right of the root (the tangent lies above p), and tangent steps from
    the right fall monotonically to it.  Stops once a step moves x by a few
    ulps, or would not move it left: near the root the rounding of p, not
    the distance to the root, sets the step.  p and p' both come from
    _horner.
    """
    slope = _horner(slopes, x)
    step = min(x - (_horner(coeffs, x) * x - target) / slope, 1.0) if slope < 0.0 else 1.0
    for _ in range(_NEWTON_STEPS):
        if abs(step - x) <= 4 * math.ulp(step):
            return step
        x = step
        slope = _horner(slopes, x)
        if not slope < 0.0:
            break
        step = x - (_horner(coeffs, x) * x - target) / slope
        if not 0.0 < step < x:
            break
    return x


def _zone(
    coeffs: Iterable[float], slopes: Iterable[float], target: float, r: float
) -> tuple[float, float]:
    """Ends a, b near r: Horner reads p(x) > target below a and p(x) <= target above b.

    Horner carries the term c_i x^i through at most 2i roundings, so its
    result differs from p(x) by at most E(x) = sum_i gamma_2i |c_i| x^i
    (Higham, eq. 5.3), where gamma_2i = 2iu/(1 - 2iu) for the unit roundoff
    u.  So E(x) <= 2u/(1 - 2qu) * W(x), with W(x) = sum_i i |c_i| x^i, a
    bound that fades with x^i instead of growing with q.  The polynomials
    p - target -/+ E have coefficients c_i -/+ gamma_2i |c_i|, of the signs
    of the c_i, so they keep the single sign change of p - target: each is
    positive before its one root on (0, inf) and negative after.  If Horner
    reads p(a) - target above 2E(a), p - target - E is positive at a, hence
    on all of (0, a], and Horner reads every x there as above target;
    likewise below -2E(b) at b, for every x >= b as not above.  5u W, with
    W as Horner computes it, covers 2E, the rounding of W and of the check,
    and underflow, for every q below 2^48.  p, p' and W all come from
    _horner; W from the |i*c_i|, which equal i*|c_i| exactly.  a and b lie
    a few bound-widths either side of the estimate r, and an end outside
    the bisection's bracket needs no check.  When a check fails, or a NaN
    fails a comparison, the zone is all of (0, 1).
    """
    slope = _horner(slopes, r)
    if slope < 0.0:
        weight = _horner(map(abs, slopes), r) * r
        radius = 16 * _UNIT * weight / -slope + 4 * math.ulp(r)
        a, b = r - radius, r + radius
        # W rises with x, so W(r) bounds W(a)
        if (a <= _BRACKET[0] or _horner(coeffs, a) * a - target > 5 * _UNIT * weight) and (
            b >= _BRACKET[1]
            or _horner(coeffs, b) * b - target < -5 * _UNIT * (_horner(map(abs, slopes), b) * b)
        ):
            return a, b
    return 0.0, 1.0


def _solve(
    coeffs: Iterable[float], slopes: Iterable[float], target: float, start: float
) -> float:
    """_bisect on p(x) > target over _BRACKET, evaluating only in the zone of Newton from start."""
    estimate = _newton_root(coeffs, slopes, start, target)
    zone = _zone(coeffs, slopes, target, estimate)
    return _bisect(lambda x: _horner(coeffs, x) * x > target, *_BRACKET, *zone)


def capacity_root_fixed(q: int, rho: float) -> float:
    """Root in (0, 1) of sum_i (1 - rho*i) x^i for 2/(q+1) < rho < 1.

    The coefficients change sign once, so the polynomial crosses zero exactly
    once on (0, 1): positive near 0, negative at 1.  They are computed once,
    with their slopes i*c_i, for every evaluation of the bisection and of
    the Newton steps.  Newton's method starts from 1 - rho, where the sum to
    infinity vanishes; the finite sum drops only negative terms, so 1 - rho
    lies left of the root.  The estimate only narrows where bisection
    evaluates: the result is that of evaluating at every halving.
    """
    require_int(q)
    if not 2 <= q <= _MAX_ROOT_ALPHABET:
        raise DomainError(f"fixed-length root requires alphabet size in 2..{_MAX_ROOT_ALPHABET}")
    require_number(rho, "rho")
    if not _trivial_edge(q) < rho < 1.0:
        raise DomainError("rho must lie strictly between 2/(q+1) and 1")
    coeffs = [1.0 - rho * i for i in range(q, 0, -1)]
    slopes = [i * c for i, c in zip(range(q, 0, -1), coeffs)]
    x = _solve(coeffs, slopes, 0.0, 1.0 - rho)
    # one Newton step to polish the last bit
    slope = _horner(slopes, x)
    if slope:
        step = x - _horner(coeffs, x) * x / slope
        if 0.0 < step < 1.0:
            x = step
    return x


def cap_fixed_length(q: int, rho: float) -> float:
    """Capacity in bits per cycle at length ratio rho."""
    require_int(q, low=1)
    require_number(rho, "rho")
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    if rho <= _trivial_edge(q):
        return 0.0 + rho * math.log2(q)  # 0.0 + turns -0.0, from rho = -0.0, into 0.0
    if rho == 1.0:
        return 0.0
    x = capacity_root_fixed(q, rho)
    inv = 1.0 / rho
    total = 0.0
    for i in range(1, q + 1):
        total += x ** (i - inv)
    return rho * math.log2(total)


def capacity_root_flexible(q: int) -> float:
    """Root in (0, 1] of sum_{i=1}^{q} x^i = 1, for q in 1.._MAX_ROOT_ALPHABET.

    Solved by the fixed-length solver as the point where Horner's
    -(sum_i x^i) stops exceeding -1: with every coefficient -1, Horner
    computes, by symmetric rounding, the exact negation of its sum with
    every coefficient 1.  The constant term 1 and the coefficients -1
    change sign once, so the zone proof holds, and the slopes i*c_i are
    the integers -i.  Newton starts from 1/2, left of the root since
    sum_{i=1}^{q} 2^-i < 1.  The alphabet bound is the fixed-length root's:
    a solve holds q coefficients and passes over them about 14 times.
    """
    require_int(q)
    if not 1 <= q <= _MAX_ROOT_ALPHABET:
        raise DomainError(f"flexible root requires alphabet size in 1..{_MAX_ROOT_ALPHABET}")
    return 1.0 if q == 1 else _solve([-1.0] * q, range(-q, 0), -1.0, 0.5)


def cap_flexible(q: int) -> float:
    """Capacity in bits per cycle when oligo lengths are unconstrained."""
    return _flexible_point(q)[0]


def rho_peak(q: int) -> float:
    """The length ratio where cap_fixed_length peaks, at cap_flexible(q).

    At the flexible root x the x^i, i = 1..q, sum to 1: the flexible code
    spends i cycles on a symbol with probability x^i, so a symbol costs
    sum_i i x^i cycles on average, and rho_peak is its inverse.
    """
    return _flexible_point(q)[1]


def _flexible_point(q: int) -> tuple[float, float]:
    """(cap_flexible(q), rho_peak(q)) from one solve of the flexible root."""
    x = capacity_root_flexible(q)
    # 0.0 - log2(x) is -log2(x) for every x < 1, and 0.0, not -0.0, at x = 1
    return 0.0 - math.log2(x), 1.0 / (_horner(range(q, 0, -1), x) * x)


def _log2_int(n: int) -> float:
    # math.log2 takes any int but rounds differently in the last bit for a few
    # percent of large ones; the top 53 bits keep empirical_cap's floats as they are
    shift = max(n.bit_length() - 53, 0)
    return math.log2(n >> shift) + shift


def empirical_cap(q: int, cycles: int, rho: float, cache: CountCache | None = None) -> float:
    """Finite-size rate log2(count)/cycles at length floor(rho*cycles).

    Converges to cap_fixed_length from below as cycles grows.
    """
    require_int(q)
    require_int(cycles, "cycle count", low=1)
    require_number(rho, "rho")
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    # counting is imported here, so commands that never count never load it
    from .counting import subsequence_count

    try:
        length = int(rho * cycles + 1e-9)
    except OverflowError:
        raise DomainError("cycle count lies past float range") from None
    count = subsequence_count(q, cycles, length, cache)
    return _log2_int(count) / cycles
