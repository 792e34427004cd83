"""Exact capacity accounting and encoders for cyclic-offer synthesis.

A photolithographic synthesizer offers one symbol per cycle in the fixed
rotation 1, 2, ..., q and every strand on the chip either takes the offer or
waits.  That makes "what fits in C cycles" a combinatorial question with
exact answers, and this package provides them end to end: subsequence
counting, channel capacity, five payload encoders with cycle guarantees,
and cost curves for choosing an operating point.

Public names load their module on first use, so a command that never codes
a payload never imports the codec.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "binary_entropy": "capacity",
    "cap_fixed_length": "capacity",
    "cap_flexible": "capacity",
    "capacity_root_fixed": "capacity",
    "capacity_root_flexible": "capacity",
    "empirical_cap": "capacity",
    "rho_peak": "capacity",
    "EncodedBatch": "codec",
    "RateRow": "codec",
    "balanced_params": "codec",
    "decode_payload": "codec",
    "encode_payload": "codec",
    "multisize_rate": "codec",
    "optimal_alpha": "codec",
    "rate_table": "codec",
    "CostParams": "cost",
    "cost_at_capacity": "cost",
    "minimize_over_alphabet": "cost",
    "minimize_over_rho": "cost",
    "rho_star": "cost",
    "CountCache": "counting",
    "brute_force_count": "counting",
    "subsequence_count": "counting",
    "subsequence_rank": "counting",
    "subsequence_unrank": "counting",
    "CorruptDataError": "errors",
    "DomainError": "errors",
    "Oligo": "sequence",
    "SupersequenceSpec": "sequence",
    "alternating_prefix": "sequence",
    "min_cycles_under": "sequence",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
