"""Exact capacity accounting and encoders for cyclic-offer synthesis.

A photolithographic synthesizer offers one symbol per cycle in the fixed
rotation 1, 2, ..., q and every strand on the chip either takes the offer or
waits.  That makes "what fits in C cycles" a combinatorial question with
exact answers, and this package provides them end to end: subsequence
counting, channel capacity, five payload encoders with cycle guarantees,
and cost curves for choosing an operating point.
"""

from .bits import knuth_balance, knuth_unbalance
from .capacity import (
    binary_entropy,
    cap_fixed_length,
    cap_flexible,
    capacity_root_fixed,
    capacity_root_flexible,
    empirical_cap,
)
from .codec import (
    AlphaProfile,
    EncodedBatch,
    RateRow,
    alpha_profile,
    balanced_block_decode,
    balanced_block_encode,
    balanced_encode,
    balanced_params,
    base_decode,
    base_encode,
    decode_payload,
    encode_payload,
    lookup_encode,
    multisize_encode,
    multisize_rate,
    optimal_alpha,
    rate_table,
    window_encode,
)
from .cost import CostParams, cost_at_capacity, minimize_over_alphabet, minimize_over_rho, rho_star
from .counting import (
    CountCache,
    brute_force_count,
    deletion_ball_size,
    subsequence_count,
    subsequence_rank,
    subsequence_unrank,
)
from .errors import CorruptDataError, DomainError
from .sequence import (
    Oligo,
    SupersequenceSpec,
    alternating_prefix,
    materialize,
    min_cycles_under,
    offer_gap,
    synthesis_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaProfile",
    "CorruptDataError",
    "CostParams",
    "CountCache",
    "DomainError",
    "EncodedBatch",
    "Oligo",
    "RateRow",
    "SupersequenceSpec",
    "alpha_profile",
    "alternating_prefix",
    "balanced_block_decode",
    "balanced_block_encode",
    "balanced_encode",
    "balanced_params",
    "base_decode",
    "base_encode",
    "binary_entropy",
    "brute_force_count",
    "cap_fixed_length",
    "cap_flexible",
    "capacity_root_fixed",
    "capacity_root_flexible",
    "cost_at_capacity",
    "decode_payload",
    "deletion_ball_size",
    "empirical_cap",
    "encode_payload",
    "knuth_balance",
    "knuth_unbalance",
    "lookup_encode",
    "materialize",
    "min_cycles_under",
    "minimize_over_alphabet",
    "minimize_over_rho",
    "multisize_encode",
    "multisize_rate",
    "offer_gap",
    "optimal_alpha",
    "rate_table",
    "rho_star",
    "subsequence_count",
    "subsequence_rank",
    "subsequence_unrank",
    "synthesis_cycles",
    "window_encode",
]
