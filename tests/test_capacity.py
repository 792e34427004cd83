"""Capacity formulas: frozen roots, branch continuity, and entropy bounds."""

import hashlib
import math
import random

import pytest

from oligocycle import (
    DomainError,
    binary_entropy,
    cap_fixed_length,
    cap_flexible,
    capacity_root_fixed,
    capacity_root_flexible,
    empirical_cap,
    rho_peak,
    rho_star,
)
from oligocycle import capacity
from oligocycle.capacity import _BRACKET, _MAX_ROOT_ALPHABET, _bisect, _horner
from oligocycle.cli import _rho_grid


def poly_residual(q, rho, x):
    return sum((1.0 - rho * i) * x**i for i in range(1, q + 1))


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)
    assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, rel=1e-12)
    assert binary_entropy(0.25) == binary_entropy(0.75)
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    with pytest.raises(DomainError):
        binary_entropy(1.1)


def test_fixed_root_known_values():
    # q=2: the polynomial is (1-rho)x + (1-2 rho)x^2 with root (1-rho)/(2 rho-1)
    assert capacity_root_fixed(2, 0.75) == pytest.approx(0.5, abs=1e-12)
    assert capacity_root_fixed(2, 0.8) == pytest.approx(1.0 / 3.0, abs=1e-12)
    for q in (2, 3, 4, 8, 16, 32, 64):
        for rho in (0.5, 0.7, 0.9):
            if rho <= 2.0 / (q + 1):
                continue
            x = capacity_root_fixed(q, rho)
            assert 0.0 < x < 1.0
            assert abs(poly_residual(q, rho, x)) <= 1e-13


def test_fixed_root_domain():
    with pytest.raises(DomainError):
        capacity_root_fixed(2, 0.5)  # at or below threshold
    with pytest.raises(DomainError):
        capacity_root_fixed(2, 1.0)
    with pytest.raises(DomainError):
        capacity_root_fixed(1, 0.9)
    # a solve holds q coefficients, so the alphabet is bounded
    with pytest.raises(DomainError):
        capacity_root_fixed(_MAX_ROOT_ALPHABET + 1, 0.5)
    with pytest.raises(DomainError):
        cap_fixed_length(10**9, 0.5)
    assert cap_fixed_length(10**9, 1e-9) == 1e-9 * math.log2(10**9)


def two_hundred_halvings(below, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisect_matches_two_hundred_halvings():
    for q in range(2, 65):
        target = 1.0 / math.log2(q)

        def below(rho):
            return rho / binary_entropy(rho) < target

        bracket = (1e-15, 1.0 - 1e-15)
        assert _bisect(below, *bracket) == two_hundred_halvings(below, *bracket) == rho_star(q)
    rng = random.Random(5)
    for q in (2, 4, 8, 16):
        for _ in range(50):
            rho = rng.uniform(2.0 / (q + 1), 1.0)
            coeffs = [1.0 - rho * i for i in range(q, 0, -1)]

            def below(x):
                return _horner(coeffs, x) * x > 0.0

            assert _bisect(below, *_BRACKET) == two_hundred_halvings(below, *_BRACKET)


def per_step_root(q, rho):
    # the solver as it was before the coefficients were built once per solve:
    # each evaluation recomputes every 1 - rho*i
    def poly(x):
        acc = 0.0
        for i in range(q, 0, -1):
            acc = acc * x + (1.0 - rho * i)
        return acc * x

    x = _bisect(lambda x: poly(x) > 0.0, *_BRACKET)
    slope = 0.0
    for i in range(q, 0, -1):
        slope = slope * x + i * (1.0 - rho * i)
    if slope:
        step = x - poly(x) / slope
        if 0.0 < step < 1.0:
            x = step
    return x


def per_step_cap(q, rho):
    if rho <= 2.0 / (q + 1):
        return rho * math.log2(q)
    if rho == 1.0:
        return 0.0
    x = per_step_root(q, rho)
    inv = 1.0 / rho
    total = 0.0
    for i in range(1, q + 1):
        total += x ** (i - inv)
    return rho * math.log2(total)


def test_root_and_cap_bit_identical_to_per_step_solver():
    grid = _rho_grid(0.05, 0.95, 0.05)  # the sweep command's default grid
    assert len(grid) == 19
    points = [(q, rho) for q in range(2, 65) for rho in grid]
    rng = random.Random(5)  # the draws of test_bisect_matches_two_hundred_halvings
    points += [(q, rng.uniform(2.0 / (q + 1), 1.0)) for q in (2, 4, 8, 16) for _ in range(50)]
    for q, rho in points:
        assert cap_fixed_length(q, rho) == per_step_cap(q, rho), (q, rho)
        if 2.0 / (q + 1) < rho < 1.0:
            assert capacity_root_fixed(q, rho) == per_step_root(q, rho), (q, rho)


def test_cap_known_values():
    assert cap_fixed_length(2, 0.8) == pytest.approx(0.6490224995673062, rel=1e-12)
    assert cap_fixed_length(4, 0.5) == pytest.approx(0.9261429970376192, rel=1e-12)
    assert cap_fixed_length(8, 0.5) == pytest.approx(0.9969763445353739, rel=1e-12)
    assert cap_fixed_length(16, 0.5) == pytest.approx(0.999988982257394, rel=1e-12)
    assert cap_fixed_length(32, 0.5) == pytest.approx(0.9999999998320479, rel=1e-12)
    assert cap_fixed_length(3, 0.6) == pytest.approx(0.8772642599148875, rel=1e-12)
    # first branch is exact arithmetic
    assert cap_fixed_length(2, 0.5) == 0.5
    assert cap_fixed_length(4, 0.25) == 0.5
    assert cap_fixed_length(q=1, rho=0.7) == 0.0
    assert cap_fixed_length(4, 0.0) == 0.0
    assert cap_fixed_length(4, 1.0) == 0.0


def test_threshold_endpoint_identity_and_continuity():
    for q in range(2, 33):
        threshold = 2.0 / (q + 1)
        assert cap_fixed_length(q, threshold) == pytest.approx(
            threshold * math.log2(q), abs=1e-9
        )
        step = 1e-7
        jump = abs(cap_fixed_length(q, threshold + step) - cap_fixed_length(q, threshold))
        assert jump <= 1e-6


def test_cap_monotone_in_alphabet_and_entropy_bounded():
    rhos = [0.05 * k for k in range(1, 20)]
    for rho in rhos:
        previous = 0.0
        for q in range(1, 65):
            value = cap_fixed_length(q, rho)
            assert value + 1e-12 >= previous
            assert value <= binary_entropy(rho) + 1e-9
            previous = value


def test_cap_concave_shape_in_rho():
    # rises from 0, falls back to 0 at rho=1, single interior maximum region
    q = 4
    values = [cap_fixed_length(q, 0.02 * k) for k in range(51)]
    peak = max(values)
    top = values.index(peak)
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(top))
    assert all(values[i] + 1e-12 >= values[i + 1] for i in range(top, 50))


def test_flexible_values():
    assert capacity_root_flexible(1) == 1.0
    assert cap_flexible(1) == 0.0
    # q=2 root is the golden-ratio conjugate
    assert capacity_root_flexible(2) == pytest.approx((5**0.5 - 1) / 2, abs=1e-12)
    assert cap_flexible(2) == pytest.approx(0.6942419136306172, rel=1e-12)
    assert cap_flexible(4) == pytest.approx(0.9467772467989156, rel=1e-12)
    assert cap_flexible(8) == pytest.approx(0.9971342569969777, rel=1e-12)
    previous = 0.0
    for q in range(1, 33):
        value = cap_flexible(q)
        assert value >= previous
        assert value < 1.0
        previous = value


def test_flexible_cap_has_no_negative_zero():
    assert math.copysign(1.0, cap_flexible(1)) == 1.0
    for q in range(2, 65):
        # 0.0 - log2(x) and -log2(x) agree bit for bit below x = 1
        assert cap_flexible(q).hex() == (-math.log2(capacity_root_flexible(q))).hex(), q


def test_flexible_root_domain():
    # the fixed-length root's bound: a solve holds q coefficients
    for q in (0, _MAX_ROOT_ALPHABET + 1, 10**10):
        with pytest.raises(DomainError):
            capacity_root_flexible(q)


def test_fixed_length_capacity_peaks_at_rho_peak_where_it_meets_flexible():
    assert rho_peak(1) == 1.0
    for q in range(2, 65):
        peak = rho_peak(q)
        assert 2.0 / (q + 1) < peak < 1.0
        assert cap_fixed_length(q, peak) == pytest.approx(cap_flexible(q), rel=1e-12, abs=0.0)
    for q in (2, 3, 4, 8, 16, 64):
        best = cap_fixed_length(q, rho_peak(q))
        assert all(cap_fixed_length(q, k / 1999) <= best for k in range(2000)), q


def test_flexible_dominates_fixed_length():
    for q in (2, 3, 4, 8):
        flexible = cap_flexible(q)
        for k in range(1, 20):
            assert cap_fixed_length(q, 0.05 * k) <= flexible + 1e-9


def test_empirical_cap_exact_diagonal():
    for n in (1, 2, 5, 10):
        assert empirical_cap(2, 2 * n, 0.5) == 0.5


def test_empirical_cap_converges_from_below():
    for q, rho in ((2, 0.5), (4, 0.4), (4, 0.6), (8, 0.3)):
        closed = cap_fixed_length(q, rho)
        previous = 0.0
        for cycles in (20, 40, 80, 160):
            value = empirical_cap(q, cycles, rho)
            assert value <= closed + 1e-9
            assert value + 1e-9 >= previous
            previous = value
        assert closed - previous <= 0.05


def test_empirical_cap_known_point():
    assert empirical_cap(4, 200, 0.4) == pytest.approx(0.7952815956802783, rel=1e-10)


def test_empirical_cap_domain():
    with pytest.raises(DomainError):
        empirical_cap(2, 0, 0.5)
    with pytest.raises(DomainError):
        empirical_cap(2, 10, 1.5)


def plain_root(q, rho):
    # per_step_root with the coefficients built once: bisection evaluating
    # at every halving, the same floats at a third of the cost
    coeffs = [1.0 - rho * i for i in range(q, 0, -1)]

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc * x

    x = _bisect(lambda x: poly(x) > 0.0, *_BRACKET)
    slope = 0.0
    for i, c in zip(range(q, 0, -1), coeffs):
        slope = slope * x + i * c
    if slope:
        step = x - poly(x) / slope
        if 0.0 < step < 1.0:
            x = step
    return x


def dense_grid():
    # 41 rho per alphabet across (2/(q+1), 1), and 13 each creeping onto the
    # edge 2/(q+1), where the root nears 1, and onto 1, where it leaves the
    # bracket below
    points = []
    for q in list(range(2, 65)) + [128, 1024]:
        edge = 2.0 / (q + 1)
        rhos = [edge + (1.0 - edge) * k / 42 for k in range(1, 42)]
        if q <= 64:
            rhos += [edge * (1.0 + 10.0**-k) for k in range(1, 14)]
            rhos += [1.0 - 10.0**-k for k in range(1, 14)]
        points += [(q, rho) for rho in rhos if edge < rho < 1.0]
    return points


def test_root_bit_identical_to_plain_bisection_on_a_dense_grid():
    points = dense_grid()
    for q, rho in points[::50]:
        assert plain_root(q, rho) == per_step_root(q, rho), (q, rho)
    for q, rho in points:
        assert capacity_root_fixed(q, rho) == plain_root(q, rho), (q, rho)


def float_digest(values):
    return hashlib.sha256(" ".join(value.hex() for value in values).encode()).hexdigest()


def test_capacity_floats_match_their_frozen_digest():
    # SHA-256 of the float.hex of every output: a change in the last bit of
    # any root, cap or peak changes it
    fixed = [f(*point) for point in dense_grid() for f in (capacity_root_fixed, cap_fixed_length)]
    assert float_digest(fixed) == "5a7b36aff09c58089537cd3d5893bd5790c313810e81dc2edd5c7f4739d73a92"
    flexible = [
        f(q)
        for q in list(range(1, 65)) + [1024, 4096]
        for f in (capacity_root_flexible, cap_flexible, rho_peak)
    ]
    assert float_digest(flexible) == (
        "4753b09815bd440b238c89226731bdebf8e8c909a2ec7f66c82567736dcc25bc"
    )


@pytest.mark.parametrize(
    "wrong",
    [
        lambda root: 0.5,
        lambda root: root * (1.0 + 1e-9),
        lambda root: root * (1.0 - 1e-9),
        lambda root: 1e-13,
        lambda root: 1.0 - 1e-13,
        lambda root: 2.0,
    ],
    ids=["half", "above", "below", "under-bracket", "over-bracket", "outside"],
)
def test_root_bit_identical_when_the_newton_estimate_is_wrong(monkeypatch, wrong):
    # the sign checks around the estimate must catch a zone that misses the
    # root and fall back to evaluating at every halving
    newton_root = capacity._newton_root
    monkeypatch.setattr(capacity, "_newton_root", lambda *args: wrong(newton_root(*args)))
    grid = _rho_grid(0.05, 0.95, 0.05)
    for q in (2, 3, 4, 8, 16, 64):
        for rho in grid + [2.0 / (q + 1) * (1.0 + 1e-12), 1.0 - 1e-12]:
            if 2.0 / (q + 1) < rho < 1.0:
                assert capacity_root_fixed(q, rho) == per_step_root(q, rho), (q, rho)


def bisection_calls(monkeypatch, points):
    """Per capacity_root_fixed(q, rho), the calls of the predicate it hands _bisect."""
    bisect, calls = capacity._bisect, []

    def counted(below, *bracket):
        def counted_below(x):
            calls[-1] += 1
            return below(x)

        return bisect(counted_below, *bracket)

    monkeypatch.setattr(capacity, "_bisect", counted)
    for q, rho in points:
        calls.append(0)
        capacity_root_fixed(q, rho)
    return calls


def test_root_solve_evaluates_horner_only_near_the_root(monkeypatch):
    # bisection over the whole bracket would evaluate about 60 times a solve
    grid = _rho_grid(0.05, 0.95, 0.05)  # the sweep command's default grid
    points = [(q, rho) for q in range(2, 65) for rho in grid if 2.0 / (q + 1) < rho < 1.0]
    calls = bisection_calls(monkeypatch, points)
    assert sum(calls) / len(points) < 20


def test_root_bit_identical_to_plain_bisection_at_large_alphabets():
    for q in (4096, 65536):
        edge = 2.0 / (q + 1)
        for rho in (edge * (1.0 + 1e-1), edge * (1.0 + 1e-12), 0.5, 1.0 - 1e-3, 1.0 - 1e-12):
            assert capacity_root_fixed(q, rho) == plain_root(q, rho), (q, rho)


# the estimates of test_root_bit_identical_when_the_newton_estimate_is_wrong
WRONG_ESTIMATES = {
    "half": lambda root: 0.5,
    "above": lambda root: root * (1.0 + 1e-9),
    "below": lambda root: root * (1.0 - 1e-9),
    "under-bracket": lambda root: 1e-13,
    "over-bracket": lambda root: 1.0 - 1e-13,
    "outside": lambda root: 2.0,
}


@pytest.mark.parametrize("wrong", WRONG_ESTIMATES.values(), ids=WRONG_ESTIMATES.keys())
def test_root_bit_identical_when_the_newton_estimate_is_wrong_at_large_alphabets(
    monkeypatch, wrong
):
    # at q 4096 an estimate of 2.0 overflows the Horner sums to inf and NaN
    newton_root = capacity._newton_root
    monkeypatch.setattr(capacity, "_newton_root", lambda *args: wrong(newton_root(*args)))
    for q in (1024, 4096):
        for rho in (0.3, 0.7, 2.0 / (q + 1) * (1.0 + 1e-12), 1.0 - 1e-12):
            assert capacity_root_fixed(q, rho) == plain_root(q, rho), (q, rho)


def test_root_solve_evaluates_horner_at_most_ten_times(monkeypatch):
    # the zone is sized by the termwise bound, which does not grow with q
    grid = _rho_grid(0.05, 0.95, 0.05)  # the sweep command's default grid
    points = [(q, rho) for q in range(2, 65) for rho in grid if 2.0 / (q + 1) < rho < 1.0]
    points += [(q, rho) for q in (1024, 4096, 65536) for rho in (0.3, 0.5, 0.7)]
    calls = bisection_calls(monkeypatch, points)
    assert max(calls) <= 10, max(zip(calls, points))


def per_halving_flexible_root(q):
    # the flexible solver as it was before it shared the fixed-length one:
    # the polynomial evaluated at every halving
    if q == 1:
        return 1.0

    def short(x):
        acc = 0.0
        for _ in range(q):
            acc = (acc + 1.0) * x
        return acc < 1.0

    return _bisect(short, *_BRACKET)


def test_flexible_root_bit_identical_to_per_halving_bisection():
    for q in list(range(1, 65)) + [128, 1024, 4096]:
        assert capacity_root_flexible(q) == per_halving_flexible_root(q), q


# --- oracles that share no code with the solver ---


@pytest.mark.parametrize("q", [4, 8, 16, 24, 32, 48])
def test_flexible_root_is_the_fixed_point_of_its_halving_map(q):
    # sum_{i=1..q} x^i = 1 is 2x - 1 = x^(q+1), a contraction near 1/2
    x = 0.5
    for _ in range(200):
        x = (1.0 + x ** (q + 1)) / 2.0
    assert capacity_root_flexible(q) == pytest.approx(x, rel=1e-15, abs=0.0)


def test_flexible_capacity_gap_tends_to_two_to_the_minus_q_over_ln2():
    # the root is (1 + x^(q+1))/2, so 1 - cap = log2(1 + x^(q+1)) ~ 2^-(q+1) / ln 2
    for q, tol in ((8, 2e-2), (16, 1e-3), (24, 1e-5), (32, 1e-5)):
        assert abs((1.0 - cap_flexible(q)) * 2.0 ** (q + 1) * math.log(2) - 1.0) <= tol, q
    # at q = 48 the gap is 23 ulps of cap, so the float can at best round to it
    cap = cap_flexible(48)
    assert abs(cap - (1.0 - 2.0**-49 / math.log(2))) <= math.ulp(cap)


def closed_form_root(q, rho):
    """Oracle: plain bisection on S1 - rho*S2, the geometric sums
    S1 = sum_i x^i and S2 = sum_i i*x^i in closed form."""

    def positive(x):
        s1 = x * (1.0 - x**q) / (1.0 - x)
        s2 = x * (1.0 - (q + 1) * x**q + q * x ** (q + 1)) / (1.0 - x) ** 2
        return s1 - rho * s2 > 0.0

    lo, hi = 1e-12, 1.0 - 1e-12
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return mid


def test_fixed_root_matches_bisection_on_the_closed_form_sums():
    for q in range(2, 65):
        for k in range(1, 20):
            rho = k / 20
            if rho > 2.0 / (q + 1):
                expected = closed_form_root(q, rho)
                assert capacity_root_fixed(q, rho) == pytest.approx(expected, rel=1e-12), (q, rho)


@pytest.mark.parametrize("bad, text", ((2.5, "2.5"), (4.0, "4.0"), (True, "True"), ("4", "'4'")))
def test_capacity_refuses_an_alphabet_size_that_is_not_an_int(bad, text):
    calls = [
        lambda: cap_fixed_length(bad, 0.5),  # 4.0 raised TypeError
        lambda: capacity_root_fixed(bad, 0.5),
        lambda: cap_flexible(bad),
        lambda: capacity_root_flexible(bad),
        lambda: rho_peak(bad),
        lambda: empirical_cap(bad, 8, 0.5),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
            call()


@pytest.mark.parametrize("bad, text", ((2.5, "2.5"), (8.0, "8.0"), (True, "True"), ("8", "'8'")))
def test_empirical_cap_refuses_a_cycle_count_that_is_not_an_int(bad, text):
    # 8.0 raised TypeError
    with pytest.raises(DomainError, match=f"^cycle count {text} is not an int$"):
        empirical_cap(4, bad, 0.5)


@pytest.mark.parametrize("bad, text", ((True, "True"), (False, "False"), ("0.5", "'0.5'"), (None, "None")))
def test_capacity_refuses_a_ratio_that_is_not_a_number(bad, text):
    # a str or None raised TypeError, and a bool read as 0 or 1
    with pytest.raises(DomainError, match=f"^entropy argument {text} is not a number$"):
        binary_entropy(bad)
    calls = [
        lambda: cap_fixed_length(4, bad),
        lambda: capacity_root_fixed(4, bad),
        lambda: empirical_cap(4, 8, bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^rho {text} is not a number$"):
            call()


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -0.5, 1.5))
def test_capacity_ratio_checks_keep_their_range_messages(bad):
    with pytest.raises(DomainError, match=r"^entropy argument must lie in \[0, 1\]$"):
        binary_entropy(bad)
    with pytest.raises(DomainError, match=r"^rho must lie in \[0, 1\]$"):
        cap_fixed_length(4, bad)
    with pytest.raises(DomainError, match=r"^rho must lie strictly between 2/\(q\+1\) and 1$"):
        capacity_root_fixed(4, bad)
    with pytest.raises(DomainError, match=r"^rho must lie in \[0, 1\]$"):
        empirical_cap(4, 8, bad)


def test_capacity_takes_ints_and_float_subclasses_as_ratios():
    class Ratio(float):
        pass

    assert binary_entropy(Ratio(0.5)) == binary_entropy(0.5) == 1.0
    assert cap_fixed_length(4, Ratio(0.7)) == cap_fixed_length(4, 0.7)
    assert cap_fixed_length(4, 1) == cap_fixed_length(4, 0) == 0.0


def test_fixed_capacity_refuses_an_empty_alphabet():
    with pytest.raises(DomainError, match="^alphabet size must be at least 1$"):
        cap_fixed_length(0, 0.5)
