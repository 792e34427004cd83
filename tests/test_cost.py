"""Cost model: the search interval, the optimum, and its scaling in q."""

import pytest

from oligocycle import (
    CostParams,
    DomainError,
    binary_entropy,
    cost_at_capacity,
    minimize_over_alphabet,
    minimize_over_rho,
    rho_star,
)

PARAMS = CostParams(alpha=1.0, beta=0.01, payload_bits=1e6, cycles=200)


def test_params_validation():
    with pytest.raises(DomainError):
        CostParams(-1.0, 1.0, 10.0, 5)
    with pytest.raises(DomainError):
        CostParams(1.0, -1.0, 10.0, 5)
    with pytest.raises(DomainError):
        CostParams(1.0, 1.0, -10.0, 5)
    with pytest.raises(DomainError):
        CostParams(1.0, 1.0, 10.0, 0)


def test_cost_formula():
    # below the threshold the ratio term is exactly 1/log2(q)
    assert cost_at_capacity(PARAMS, 4, 0.4) == pytest.approx(200.0 + 1e4 * 0.5, rel=1e-12)
    assert cost_at_capacity(PARAMS, 4, 0.2) == cost_at_capacity(PARAMS, 4, 0.4)
    with pytest.raises(DomainError):
        cost_at_capacity(PARAMS, 4, 0.0)
    with pytest.raises(DomainError):
        cost_at_capacity(PARAMS, 4, 1.0)


def test_cost_plateau_below_threshold():
    for q in (2, 4, 8):
        reference = cost_at_capacity(PARAMS, q, 2.0 / (q + 1))
        for rho in (0.01, 0.05, 2.0 / (q + 1)):
            assert cost_at_capacity(PARAMS, q, rho) == pytest.approx(reference, rel=1e-12)


def test_rho_star_known_values():
    assert rho_star(4) == pytest.approx(0.5, abs=1e-9)
    assert rho_star(2) == pytest.approx(0.7729078047806517, abs=1e-9)
    assert rho_star(16) == pytest.approx(0.156417354964272, abs=1e-9)


def test_rho_star_solves_its_equation():
    import math

    for q in (2, 3, 5, 9, 33, 64):
        rho = rho_star(q)
        assert rho / binary_entropy(rho) == pytest.approx(1.0 / math.log2(q), abs=1e-12)


def test_rho_star_strictly_decreasing_and_above_threshold():
    previous = 1.0
    for q in range(2, 65):
        value = rho_star(q)
        assert value < previous
        assert 2.0 / (q + 1) < value
        previous = value


def test_minimizer_sits_at_the_left_endpoint():
    # past the threshold the bases-per-bit ratio only grows, so the plateau
    # edge is optimal; the refinement must not drift off it
    for q in (2, 4, 8, 16):
        rho_opt, cost_opt = minimize_over_rho(PARAMS, q)
        assert rho_opt == pytest.approx(2.0 / (q + 1), abs=1e-9)
        assert cost_opt == pytest.approx(cost_at_capacity(PARAMS, q, rho_opt), rel=1e-12)


def test_minimizer_is_the_plateau_edge():
    # the closed form, exactly, against a plain scan of the interval; every
    # cost is alpha*C + beta*N*ratio with ratio the cost at unit prices
    unit = CostParams(alpha=0.0, beta=1.0, payload_bits=1.0, cycles=1)
    sheets = (
        PARAMS,
        CostParams(alpha=0.0, beta=1.0, payload_bits=1e9, cycles=1),
        CostParams(alpha=3.0, beta=0.0, payload_bits=1e9, cycles=77),
        CostParams(alpha=2.0, beta=5.0, payload_bits=0.0, cycles=1000),
        CostParams(alpha=1e-3, beta=1e3, payload_bits=8.0, cycles=50),
    )
    for q in range(2, 65):
        edge, high = 2.0 / (q + 1), rho_star(q)
        ratios = [cost_at_capacity(unit, q, edge + (high - edge) * i / 199) for i in range(200)]
        for params in sheets:
            rho_opt, cost_opt = minimize_over_rho(params, q)
            assert (rho_opt, cost_opt) == (edge, cost_at_capacity(params, q, edge))
            fixed, per_ratio = params.alpha * params.cycles, params.beta * params.payload_bits
            assert min(fixed + per_ratio * r for r in ratios) >= cost_opt * (1.0 - 1e-12)


def test_minimum_within_interval_and_below_endpoints():
    for q in (2, 3, 5, 12):
        rho_opt, cost_opt = minimize_over_rho(PARAMS, q)
        low, high = 2.0 / (q + 1), rho_star(q)
        assert low - 1e-12 <= rho_opt <= high + 1e-12
        assert cost_opt <= cost_at_capacity(PARAMS, q, low) + 1e-9
        assert cost_opt <= cost_at_capacity(PARAMS, q, high) + 1e-9


def test_zero_beta_collapses_to_machine_time():
    params = CostParams(alpha=3.0, beta=0.0, payload_bits=1e9, cycles=77)
    for q in (2, 4, 9):
        rho_opt, cost_opt = minimize_over_rho(params, q)
        assert cost_opt == 3.0 * 77
        assert rho_opt == pytest.approx(2.0 / (q + 1), abs=1e-12)


def test_cost_strictly_decreases_with_alphabet():
    previous = None
    for q in range(2, 10):
        _, cost_opt = minimize_over_rho(PARAMS, q)
        if previous is not None:
            assert cost_opt < previous
        previous = cost_opt


def test_alphabet_bound_binds():
    q, rho_opt, cost_opt = minimize_over_alphabet(PARAMS, 64)
    assert q == 64
    direct_rho, direct_cost = minimize_over_rho(PARAMS, 64)
    assert (rho_opt, cost_opt) == (direct_rho, direct_cost)
    with pytest.raises(DomainError):
        minimize_over_alphabet(PARAMS, 1)


def test_large_alphabet_cost_floor():
    # at q=256 the ratio term cannot beat 1/8 bases per bit
    q, _, cost_opt = minimize_over_alphabet(PARAMS, 256)
    floor = PARAMS.alpha * PARAMS.cycles + PARAMS.beta * PARAMS.payload_bits / 8.0
    assert cost_opt == pytest.approx(floor, rel=1e-9)


@pytest.mark.parametrize("bad, text", ((2.5, "2.5"), (4.0, "4.0"), (True, "True"), ("4", "'4'")))
def test_cost_refuses_an_alphabet_size_that_is_not_an_int(bad, text):
    # rho_star(4.0) and minimize_over_rho(PARAMS, 4.0) returned a value
    for call in (lambda: rho_star(bad), lambda: minimize_over_rho(PARAMS, bad)):
        with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
            call()
    with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
        cost_at_capacity(PARAMS, bad, 0.5)
    with pytest.raises(DomainError, match=f"^alphabet bound {text} is not an int$"):
        minimize_over_alphabet(PARAMS, bad)


@pytest.mark.parametrize("bad, text", ((2.5, "2.5"), (200.0, "200.0"), (True, "True"), ("200", "'200'")))
def test_cost_params_refuse_a_cycle_count_that_is_not_an_int(bad, text):
    # 200.0 was stored as given
    with pytest.raises(DomainError, match=f"^cycle count {text} is not an int$"):
        CostParams(alpha=1.0, beta=0.01, payload_bits=1e6, cycles=bad)


@pytest.mark.parametrize("bad, text", ((True, "True"), (False, "False"), ("1", "'1'"), (None, "None")))
def test_params_and_cost_refuse_numbers_that_are_not_numbers(bad, text):
    # a str raised TypeError, and a bool built a price sheet
    for args, name in (
        ((bad, 1.0, 10.0, 5), "cycle cost"),
        ((1.0, bad, 10.0, 5), "base cost"),
        ((1.0, 1.0, bad, 5), "payload size"),
    ):
        with pytest.raises(DomainError, match=f"^{name} {text} is not a number$"):
            CostParams(*args)
    with pytest.raises(DomainError, match=f"^rho {text} is not a number$"):
        cost_at_capacity(PARAMS, 4, bad)


def test_params_keep_their_range_messages():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="^unit costs must be non-negative and finite$"):
            CostParams(bad, 1.0, 10.0, 5)
        with pytest.raises(DomainError, match="^payload size must be non-negative and finite$"):
            CostParams(1.0, 1.0, bad, 5)
    assert CostParams(1, 2, 10, 5).beta == 2  # ints are numbers


def test_cost_searches_refuse_an_alphabet_of_one():
    with pytest.raises(DomainError, match="^alphabet size must be at least 2$"):
        rho_star(1)
    with pytest.raises(DomainError, match="^alphabet size must be at least 2$"):
        minimize_over_rho(PARAMS, 1)


@pytest.mark.parametrize("alpha", [0, 0.0], ids=["int", "float"])
def test_params_refuse_an_int_field_past_float_range_whatever_the_other_factor(alpha):
    # with cycles = 10**400, alpha 0 gave a finite cost and alpha 0.0 raised
    huge = 10**400
    with pytest.raises(DomainError, match="^cycle count lies past float range$"):
        CostParams(alpha, 1.0, 1000.0, huge)
    with pytest.raises(DomainError, match="^payload size must be non-negative and finite$"):
        CostParams(alpha, 1.0, huge, 10)
    with pytest.raises(DomainError, match="^unit costs must be non-negative and finite$"):
        CostParams(alpha, huge, 1000.0, 10)
    with pytest.raises(DomainError, match="^unit costs must be non-negative and finite$"):
        CostParams(huge, alpha, 1000.0, 10)
    # the largest int a float holds is still a field, and either spelling prices it alike
    top = int(1.7976931348623157e308)
    assert cost_at_capacity(CostParams(alpha, 1.0, 1000.0, top), 4, 0.5) == cost_at_capacity(
        CostParams(0, 1.0, 1000.0, top), 4, 0.5
    )
    with pytest.raises(DomainError, match="^cycle count lies past float range$"):
        CostParams(alpha, 1.0, 1000.0, top + 1)
