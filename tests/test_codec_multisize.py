"""Multisize scheme: the sub-alphabet split, its rate, and the codec."""

import math
import random

import pytest

from oligocycle import (
    CorruptDataError,
    DomainError,
    EncodedBatch,
    Oligo,
    cap_fixed_length,
    decode_payload,
    encode_payload,
    min_cycles_under,
    multisize_rate,
    optimal_alpha,
)


def lp_rate_oracle(q, rho):
    """Oracle: best rate over every sub-alphabet pair, not just the adjacent
    one, solving the two-point mixing system directly."""
    target = 2.0 / rho - 1.0
    best = -1.0
    best_support = None
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            b = (target - i) / (j - i)
            a = 1.0 - b
            if a < -1e-12 or b < -1e-12:
                continue
            a, b = max(a, 0.0), max(b, 0.0)
            rate = rho * (a * math.log2(i) + b * math.log2(j))
            if rate > best:
                best = rate
                best_support = [v for v, w in ((i, a), (j, b)) if w > 1e-9]
    if abs(target - round(target)) < 1e-12 and 1 <= round(target) <= q:
        single = rho * math.log2(round(target))
        if single > best:
            best, best_support = single, [round(target)]
    return best, best_support


def test_optimal_alpha_known_points():
    assert optimal_alpha(4, 0.5) == (3, 1.0)
    assert optimal_alpha(8, 0.5) == (3, 1.0)
    s, fraction = optimal_alpha(4, 0.4)  # threshold 2/5: everything on size 4
    assert s == 3 and fraction == 0.0
    s, fraction = optimal_alpha(4, 0.45)
    assert s == 3
    assert fraction == pytest.approx(5.0 - 2.0 / 0.45, abs=1e-12)
    assert optimal_alpha(5, 1.0) == (1, 1.0)
    s, fraction = optimal_alpha(5, 0.8)
    assert s == 1
    assert fraction == pytest.approx(0.5, abs=1e-12)


def test_optimal_alpha_domain():
    with pytest.raises(DomainError):
        optimal_alpha(1, 0.5)
    with pytest.raises(DomainError):
        optimal_alpha(4, 0.39)
    with pytest.raises(DomainError):
        optimal_alpha(4, 1.01)


def test_alpha_profile_invariants():
    # the profile is `fraction` of the symbols on size s and the rest on s + 1
    for q in (2, 3, 5, 8):
        low = 2.0 / (q + 1)
        for k in range(101):
            rho = low + (1.0 - low) * k / 100.0
            s, fraction = optimal_alpha(q, rho)
            assert 1 <= s < q
            assert 0.0 <= fraction <= 1.0
            mean_size = s * fraction + (s + 1) * (1.0 - fraction)
            assert mean_size == pytest.approx(2.0 / rho - 1.0, abs=1e-8)


def test_rate_matches_pair_oracle():
    for q in (2, 3, 5, 8):
        low = 2.0 / (q + 1)
        for k in range(100):
            rho = low + (1.0 - low) * k / 99.0
            expected, support = lp_rate_oracle(q, rho)
            got = multisize_rate(q, rho)
            assert got == pytest.approx(expected, abs=1e-9)
            assert support is not None and max(support) - min(support) <= 1


def test_rate_meets_capacity_at_the_threshold():
    for q in range(2, 17):
        low = 2.0 / (q + 1)
        assert multisize_rate(q, low) == pytest.approx(low * math.log2(q), abs=1e-12)


def test_rate_stays_below_capacity():
    for q in (2, 4, 6, 8):
        low = 2.0 / (q + 1)
        for k in range(50):
            rho = low + (1.0 - low) * k / 49.0
            assert multisize_rate(q, rho) <= cap_fixed_length(q, rho) + 1e-9


def test_round_trip_various_operating_points():
    rng = random.Random(41)
    cases = [
        (5, 0.45, 24),
        (5, 0.45, 60),
        (4, 0.5, 48),
        (6, 0.33, 48),
        (2, 0.7, 30),
        (3, 0.8, 30),  # s=1: leading constant run
        (8, 0.25, 64),
    ]
    for q, rho, length in cases:
        for count in (0, 1, 97, 512):
            bits = "".join(rng.choice("01") for _ in range(count))
            batch = encode_payload("multisize", bits, q=q, rho=rho, oligo_length=length)
            assert decode_payload(batch) == bits
            for oligo in batch.oligos:
                assert len(oligo) == length
                need = min_cycles_under(batch.spec, oligo)
                assert need is not None and need <= batch.spec.total_cycles


def test_constant_run_segment_shape():
    # at rho=0.8 with q=3: half the symbols are a constant run of 1s
    batch = encode_payload("multisize", "1011", q=3, rho=0.8, oligo_length=30)
    oligo = batch.oligos[0]
    assert oligo.symbols[:15] == (1,) * 15
    assert batch.spec.segments[0] == (1, 15)


def measured_block_width(q, rho, length):
    """Black-box bits per oligo: the largest payload still fitting one oligo."""
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        batch = encode_payload("multisize", "0" * mid, q=q, rho=rho, oligo_length=length)
        if len(batch.oligos) >= 2:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def test_finite_length_rate_approaches_the_asymptote():
    # deficit = 1 - achieved/target shrinks roughly like 1/length
    for q, rho, thresholds in [
        (5, 0.45, {24: 0.15, 48: 0.08, 96: 0.04}),
        (4, 0.5, {24: 0.15, 48: 0.08, 96: 0.04}),
    ]:
        target = multisize_rate(q, rho)
        for length, allowed in thresholds.items():
            width = measured_block_width(q, rho, length)
            batch = encode_payload("multisize", "1", q=q, rho=rho, oligo_length=length)
            cycles = batch.spec.total_cycles
            deficit = 1.0 - (width / cycles) / target
            assert 0.0 <= deficit <= allowed


def test_too_short_oligo_is_rejected():
    with pytest.raises(DomainError):
        encode_payload("multisize", "1", q=4, rho=1.0, oligo_length=8)  # rate zero at rho=1
    with pytest.raises(DomainError):
        encode_payload("multisize", "1", q=4, rho=0.5, oligo_length=1)


def test_decode_rejects_tampering():
    batch = encode_payload("multisize", "10110", q=3, rho=0.8, oligo_length=30)
    symbols = batch.oligos[0].symbols
    broken = (Oligo((2,) + symbols[1:], batch.oligos[0].q),)
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch(batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, broken)
        )
    ragged = (Oligo(symbols[:-1], batch.oligos[0].q),)
    with pytest.raises(CorruptDataError):
        decode_payload(
            EncodedBatch(batch.scheme, batch.q, batch.rho, batch.payload_bits, batch.spec, ragged)
        )
