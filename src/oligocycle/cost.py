"""Synthesis-cost modeling.

Running the machine for C cycles costs alpha*C regardless of how many
strands grow in parallel; each coupled base costs beta.  Encoding N bits at
capacity therefore costs

    cost(q, rho) = alpha*C + beta*N * rho / cap(q, rho)

over the interval from the trivial-coding threshold 2/(q+1) up to
rho_star(q), past which even the entropy bound says a denser oligo wastes
bases.  cap(q, .) is concave with cap(q, 0) = 0, so the bases-per-bit ratio
rho/cap never falls as rho grows; it is flat at 1/log2(q) up to the
threshold.  The optimum is therefore the plateau edge rho = 2/(q+1), at a
cost of alpha*C + beta*N/log2(q).
"""

from __future__ import annotations

import math
import sys

from .capacity import _bisect, _trivial_edge, binary_entropy, cap_fixed_length
from .errors import DomainError, require_instance, require_int, require_number
from .sequence import _Record

_FLOAT_MAX = sys.float_info.max


class CostParams(_Record):
    """Price sheet for one synthesis run: cycle cost, base cost, workload."""

    __slots__ = ("alpha", "beta", "payload_bits", "cycles")

    def __init__(self, alpha: float, beta: float, payload_bits: float, cycles: int) -> None:
        require_number(alpha, "cycle cost")
        require_number(beta, "base cost")
        require_number(payload_bits, "payload size")
        # written so that NaN fails too, and an int past float range, which
        # would give a cost or refuse one by the type of the other factor
        if not (0 <= alpha <= _FLOAT_MAX and 0 <= beta <= _FLOAT_MAX):
            raise DomainError("unit costs must be non-negative and finite")
        if not 0 <= payload_bits <= _FLOAT_MAX:
            raise DomainError("payload size must be non-negative and finite")
        require_int(cycles, "cycle count", low=1)
        if cycles > _FLOAT_MAX:
            raise DomainError("cycle count lies past float range")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "payload_bits", payload_bits)
        object.__setattr__(self, "cycles", cycles)


def cost_at_capacity(params: CostParams, q: int, rho: float) -> float:
    """Total cost of encoding the workload at capacity with ratio rho.

    Raises DomainError when the cost lies past float range, as a product
    of finite prices can.
    """
    require_instance(params, CostParams, "params")
    cap = cap_fixed_length(q, rho)
    if cap <= 0.0:
        raise DomainError("rho must give positive capacity")
    try:
        cost = params.alpha * params.cycles + params.beta * params.payload_bits * (rho / cap)
    except OverflowError:  # a product of int fields past float range
        cost = math.inf
    if not math.isfinite(cost):
        raise DomainError("cost overflows a float")
    return cost


def rho_star(q: int) -> float:
    """The ratio where rho/H(rho) = 1/log2(q).

    rho/H(rho) is the bases-per-bit floor of any binary-entropy-limited
    code; beyond rho_star it exceeds the 1/log2(q) achieved by trivial
    coding, so no minimizer lives to the right of it.
    """
    require_int(q, low=2)
    target = 1.0 / math.log2(q)
    return _bisect(lambda rho: rho / binary_entropy(rho) < target, 1e-15, 1.0 - 1e-15)


def minimize_over_rho(params: CostParams, q: int) -> tuple[float, float]:
    """Minimize cost_at_capacity over rho in [2/(q+1), rho_star(q)].

    cap(q, rho)/rho is the slope of the chord from the origin to the
    concave cap(q, .), which never rises with rho, so the smallest rho of
    the interval is optimal: returns (2/(q+1), its cost).
    """
    require_int(q, low=2)
    rho = _trivial_edge(q)
    return rho, cost_at_capacity(params, q, rho)


def minimize_over_alphabet(params: CostParams, max_q: int) -> tuple[int, float, float]:
    """Minimize cost over both rho and alphabet sizes up to max_q.

    Capacity rises strictly with q at every rho, so the alphabet bound always
    binds and the search reduces to minimize_over_rho at q = max_q.  Returns
    (q, rho, cost).
    """
    require_int(max_q, "alphabet bound", low=2)
    rho, value = minimize_over_rho(params, max_q)
    return max_q, rho, value
