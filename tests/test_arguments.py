"""Argument checks: what each entry point raises for one bad argument.

The digest pins the (exception class, message) of every call in a grid of
single-bad-argument calls, so moving a check changes no outcome unnoticed.
"""

import hashlib

import pytest

from oligocycle import (
    CorruptDataError,
    CostParams,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    alternating_prefix,
    brute_force_count,
    cap_fixed_length,
    capacity_root_fixed,
    capacity_root_flexible,
    cost_at_capacity,
    decode_payload,
    empirical_cap,
    encode_payload,
    min_cycles_under,
    minimize_over_alphabet,
    minimize_over_rho,
    multisize_rate,
    optimal_alpha,
    rate_table,
    rho_star,
    subsequence_count,
    subsequence_rank,
    subsequence_unrank,
)
from oligocycle.counting import indexable_count

PARAMS = CostParams(1.0, 1.0, 1000.0, 10)

# Each entry point with one int argument left open, the others valid
INT_SLOTS = {
    "subsequence_count q": lambda v: subsequence_count(v, 8, 4),
    "subsequence_count cycles": lambda v: subsequence_count(4, v, 4),
    "subsequence_count length": lambda v: subsequence_count(4, 8, v),
    "brute_force_count q": lambda v: brute_force_count(v, 8, 4),
    "brute_force_count cycles": lambda v: brute_force_count(4, v, 4),
    "brute_force_count length": lambda v: brute_force_count(4, 8, v),
    "indexable_count q": lambda v: indexable_count(v, 8, 4),
    "indexable_count cycles": lambda v: indexable_count(4, v, 4),
    "indexable_count length": lambda v: indexable_count(4, 8, v),
    "subsequence_rank q": lambda v: subsequence_rank(v, 8, Oligo((1, 2), 2)),
    "subsequence_rank cycles": lambda v: subsequence_rank(4, v, Oligo((1, 2), 2)),
    "subsequence_unrank q": lambda v: subsequence_unrank(v, 8, 4, 0),
    "subsequence_unrank cycles": lambda v: subsequence_unrank(4, v, 4, 0),
    "subsequence_unrank length": lambda v: subsequence_unrank(4, 8, v, 0),
    "subsequence_unrank index": lambda v: subsequence_unrank(4, 8, 4, v),
    "Oligo q": lambda v: Oligo((1,), v),
    "alternating_prefix q": lambda v: alternating_prefix(v, 6),
    "alternating_prefix cycles": lambda v: alternating_prefix(4, v),
    "SupersequenceSpec q": lambda v: SupersequenceSpec(((v, 3),)),
    "SupersequenceSpec cycles": lambda v: SupersequenceSpec(((2, v),)),
    "cap_fixed_length q": lambda v: cap_fixed_length(v, 0.5),
    "capacity_root_fixed q": lambda v: capacity_root_fixed(v, 0.9),
    "capacity_root_flexible q": lambda v: capacity_root_flexible(v),
    "empirical_cap q": lambda v: empirical_cap(v, 8, 0.5),
    "empirical_cap cycles": lambda v: empirical_cap(4, v, 0.5),
    "CostParams cycles": lambda v: CostParams(1.0, 1.0, 1000.0, v),
    "rho_star q": lambda v: rho_star(v),
    "minimize_over_rho q": lambda v: minimize_over_rho(PARAMS, v),
    "minimize_over_alphabet max_q": lambda v: minimize_over_alphabet(PARAMS, v),
}
BAD_INTS = (0, -1, 1, 2, 2.5, 4.0, True, "4", None)


def outcome(call):
    try:
        call()
    except Exception as exc:  # the class is part of the outcome
        return type(exc).__name__, str(exc)
    return "ok", ""


def test_single_bad_int_outcomes_match_their_frozen_digest():
    outcomes = [
        (slot, repr(value), *outcome(lambda: call(value)))
        for slot, call in INT_SLOTS.items()
        for value in BAD_INTS
    ]
    assert len(outcomes) == 261
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "c94fa9a9c2af7b0301e4052dfdf5d047de8de1747da60233fd861d4a7da733e4"


SPEC = SupersequenceSpec(((4, 10),))
BATCH = encode_payload("base", "10110100", q=4)

# Record arguments of the wrong type, which raised AttributeError or TypeError
WRONG_RECORDS = [
    (lambda: subsequence_rank(4, 8, (1, 2)), DomainError, "oligo (1, 2) is not a Oligo"),
    (lambda: min_cycles_under(SPEC, (1, 2)), DomainError, "oligo (1, 2) is not a Oligo"),
    (
        lambda: min_cycles_under(((4, 10),), Oligo((1,), 4)),
        DomainError,
        "spec ((4, 10),) is not a SupersequenceSpec",
    ),
    (lambda: cost_at_capacity(None, 4, 0.5), DomainError, "params None is not a CostParams"),
    (lambda: minimize_over_rho(None, 4), DomainError, "params None is not a CostParams"),
    (lambda: minimize_over_alphabet(None, 4), DomainError, "params None is not a CostParams"),
    (lambda: decode_payload(None), DomainError, "batch None is not a EncodedBatch"),
    (
        lambda: decode_payload(tuple(BATCH)),
        DomainError,
        f"batch {tuple(BATCH)!r} is not a EncodedBatch",
    ),
    (
        lambda: EncodedBatch.from_json(None),
        CorruptDataError,
        "batch JSON None is not a str or bytes or bytearray",
    ),
    (lambda: rate_table(4, 0.5), DomainError, "rho grid 0.5 is not a list or tuple"),
    (lambda: rate_table(4, "0.5"), DomainError, "rho grid '0.5' is not a list or tuple"),
]


@pytest.mark.parametrize("call, error, message", WRONG_RECORDS)
def test_a_record_argument_of_the_wrong_type_is_refused_by_name(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_from_json_still_reads_bytes_and_rate_table_a_tuple():
    assert EncodedBatch.from_json(BATCH.to_json().encode()) == BATCH
    assert rate_table(4, (0.5,)) == rate_table(4, [0.5])


# An int past float range, which a float product or quotient cannot take
HUGE = 10**400
PAST_FLOAT_RANGE = {
    "encode base q": lambda: encode_payload("base", "0101", q=HUGE, block_symbols=4),
    "encode multisize q": lambda: encode_payload("multisize", "0101", q=HUGE, rho=0.5),
    "encode lookup q": lambda: encode_payload("lookup", "0101", q=HUGE, rho=0.5, depth=2),
    "encode lookup depth": lambda: encode_payload("lookup", "0101", q=4, rho=0.5, depth=HUGE),
    "optimal_alpha q": lambda: optimal_alpha(HUGE, 0.5),
    "multisize_rate q": lambda: multisize_rate(HUGE, 0.5),
    "rate_table q": lambda: rate_table(HUGE, [0.5]),
    "cap_fixed_length q": lambda: cap_fixed_length(HUGE, 0.5),
    "minimize_over_rho q": lambda: minimize_over_rho(PARAMS, HUGE),
    "minimize_over_alphabet max_q": lambda: minimize_over_alphabet(PARAMS, HUGE),
    "cost_at_capacity q": lambda: cost_at_capacity(PARAMS, HUGE, 0.5),
    "cost_at_capacity cycles": lambda: cost_at_capacity(CostParams(1.0, 1.0, 1000.0, HUGE), 4, 0.5),
    "minimize_over_rho cycles": lambda: minimize_over_rho(CostParams(1.0, 1.0, 1000.0, HUGE), 4),
    "cost_at_capacity payload": lambda: cost_at_capacity(CostParams(1, 1, HUGE, 10), 4, 0.5),
    "minimize_over_rho payload": lambda: minimize_over_rho(CostParams(1, 1, HUGE, 10), 4),
    "empirical_cap cycles": lambda: empirical_cap(4, HUGE, 0.5),
}


@pytest.mark.parametrize("call", PAST_FLOAT_RANGE.values(), ids=PAST_FLOAT_RANGE)
def test_an_int_past_float_range_raises_domain_error(call):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is DomainError
