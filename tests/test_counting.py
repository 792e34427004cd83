"""Closed-form counting and enumerative indexing against independent oracles.

The brute-force oracle enumerates actual subsequences of the offer stream,
and the deletion-ball recursion derives the same counts another way, so any
agreement is evidence about the closed form, not about itself.
"""

import contextlib
import itertools
import operator
import random
import sys
import threading
import time
from math import comb

import pytest

from oligocycle import (
    CorruptDataError,
    CountCache,
    DomainError,
    EncodedBatch,
    Oligo,
    SupersequenceSpec,
    alternating_prefix,
    brute_force_count,
    decode_payload,
    encode_payload,
    subsequence_count,
    subsequence_rank,
    subsequence_unrank,
)
from oligocycle import counting
from oligocycle.counting import _MAX_CACHED_BYTES, indexed_count, suffix_table


def enumerate_oligos(q, cycles, length):
    """Oracle: the actual set of distinct length-`length` subsequences."""
    stream = alternating_prefix(q, cycles)
    return {
        tuple(stream[i] for i in picks)
        for picks in itertools.combinations(range(cycles), length)
    }


def is_subsequence(stream, symbols):
    it = iter(stream)
    return all(any(offer == want for offer in it) for want in symbols)


def test_recursion_matches_enumeration():
    for q in (1, 2, 3, 4):
        for cycles in range(0, 11):
            for length in range(cycles + 1):
                expected = len(enumerate_oligos(q, cycles, length))
                assert subsequence_count(q, cycles, length) == expected


def test_known_counts():
    assert subsequence_count(2, 4, 2) == 4
    assert subsequence_count(3, 6, 3) == 17
    assert subsequence_count(4, 8, 4) == 66
    assert subsequence_count(4, 12, 5) == 512
    assert subsequence_count(3, 9, 4) == 66
    assert subsequence_count(4, 16, 8) == 8938
    assert subsequence_count(2, 16, 8) == 256


def test_trivial_cases():
    for q in (1, 2, 5):
        for cycles in (0, 1, 6):
            assert subsequence_count(q, cycles, 0) == 1
            assert subsequence_count(q, cycles, cycles) == 1
    # one-letter alphabet: all subsequences of a run look alike
    for cycles in range(8):
        for length in range(cycles + 1):
            assert subsequence_count(1, cycles, length) == 1


def test_binary_diagonal_is_a_power_of_two():
    for n in range(1, 11):
        assert subsequence_count(2, 2 * n, n) == 2**n


def test_domain_errors():
    with pytest.raises(DomainError):
        subsequence_count(2, 4, 5)
    with pytest.raises(DomainError):
        subsequence_count(2, 4, -1)
    with pytest.raises(DomainError):
        subsequence_count(0, 4, 2)
    with pytest.raises(DomainError):
        brute_force_count(2, 21, 3)
    with pytest.raises(DomainError, match=r"^length must lie in 0\.\.cycles$"):
        brute_force_count(4, 6, 7)
    with pytest.raises(DomainError, match="^alphabet size must be at least 1$"):
        counting.indexable_count(0, 6, 3)
    with pytest.raises(DomainError, match=r"^length must lie in 0\.\.cycles$"):
        counting.indexable_count(4, 6, 7)
    # every entry point checks its geometry in one place
    with pytest.raises(DomainError, match="^alphabet size must be at least 1$"):
        brute_force_count(0, 6, 3)
    with pytest.raises(DomainError, match="^alphabet size must be at least 1$"):
        subsequence_unrank(0, 8, 4, 0)
    with pytest.raises(DomainError, match=r"^length must lie in 0\.\.cycles$"):
        subsequence_unrank(4, 8, 9, 0)


def test_brute_force_agrees_on_small_cases():
    assert brute_force_count(2, 4, 2) == 4
    assert brute_force_count(4, 8, 4) == 66


def test_alphabet_monotonicity_up_to_binomial():
    # more letters never lose strings, and the binomial caps everything
    for q in (1, 2, 3, 4):
        for cycles in range(0, 15):
            for length in range(cycles + 1):
                here = subsequence_count(q, cycles, length)
                more = subsequence_count(q + 1, cycles, length)
                assert here <= more <= comb(cycles, length)


def test_monotonicity_is_strict_away_from_the_edges():
    # equality does occur near length == cycles, so pin verified strict cases
    for q, cycles, length in [(2, 6, 3), (2, 8, 4), (3, 9, 4), (4, 12, 6)]:
        here = subsequence_count(q, cycles, length)
        more = subsequence_count(q + 1, cycles, length)
        assert here < more < comb(cycles, length)
    # and a verified equality pair as a regression guard
    assert subsequence_count(3, 5, 3) == subsequence_count(4, 5, 3) == 10


def test_concatenation_superadditivity():
    # gluing two windows reaches at least the product of their counts
    for q in (2, 3, 4):
        for crumbs in ((4, 4), (6, 4), (8, 6)):
            a, b = crumbs
            la, lb = a // 2, b // 2
            product = subsequence_count(q, a, la) * subsequence_count(q, b, lb)
            assert subsequence_count(q, a + b, la + lb) >= product


def test_rank_unrank_bijection_and_order():
    for q in (2, 3, 4):
        for cycles in range(1, 11):
            for length in range(cycles + 1):
                total = subsequence_count(q, cycles, length)
                stream = alternating_prefix(q, cycles)
                seen = []
                for index in range(total):
                    oligo = subsequence_unrank(q, cycles, length, index)
                    assert len(oligo) == length
                    assert is_subsequence(stream, oligo.symbols)
                    assert subsequence_rank(q, cycles, oligo) == index
                    seen.append(oligo.symbols)
                # lexicographic order, hence all distinct
                assert seen == sorted(seen)
                assert len(set(seen)) == total


def test_rank_and_unrank_follow_the_sorted_subsequences_of_the_offer_prefix():
    # Every tuple of a length is tried where there are at most 4096 of them;
    # past that (q**length reaches 10 million at q 6), every subsequence and
    # every tuple one symbol away from one.
    for q in range(1, 7):
        for cycles in range(10):
            for length in range(cycles + 1):
                order = sorted(enumerate_oligos(q, cycles, length))
                position = {symbols: i for i, symbols in enumerate(order)}
                if q**length <= 4096:
                    tried = itertools.product(range(1, q + 1), repeat=length)
                else:
                    tried = {
                        symbols[:i] + (s,) + symbols[i + 1 :]
                        for symbols in order
                        for i in range(length)
                        for s in range(1, q + 1)
                    }
                for symbols in tried:
                    if symbols in position:
                        assert subsequence_rank(q, cycles, Oligo(symbols, q)) == position[symbols]
                    else:
                        with pytest.raises(DomainError, match="not a subsequence"):
                            subsequence_rank(q, cycles, Oligo(symbols, q))
                for index, symbols in enumerate(order):
                    assert subsequence_unrank(q, cycles, length, index).symbols == symbols


def per_symbol_table(q, cycles, length):
    """Row l: N(l + k, l) for k up to min(spare, l*(q - 1)), the last entry
    standing for every larger k."""
    spare = cycles - length
    row = [1]
    rows = [row]
    for l in range(1, length + 1):
        above = row + [row[-1]] * (min(spare, l * (q - 1)) + 1 - len(row))
        # N(w, l) - N(w - 1, l) = N(w - 1, l - 1) - N(w - 1 - q, l - 1)
        row = list(itertools.accumulate(map(operator.sub, above, [0] * q + above)))
        rows.append(row)
    return rows


def per_symbol_rank(rows, q, cycles, symbols):
    """Reference rank: the completions of every smaller symbol, one at a time."""
    spare, prev, index = cycles - len(symbols), 0, 0
    for row, sym in zip(reversed(rows[: len(symbols)]), symbols):
        for smaller in range(1, sym):
            k = spare - (smaller - prev - 1) % q
            if k >= 0:
                index += row[min(k, len(row) - 1)]
        spare -= (sym - prev - 1) % q
        if spare < 0:
            raise DomainError("oligo is not a subsequence of the offer prefix")
        prev = sym
    return index


def per_symbol_unrank(rows, q, cycles, length, index):
    """Reference unrank: walk the alphabet, skipping each symbol's completions."""
    spare, prev, out = cycles - length, 0, []
    for row in reversed(rows[:length]):
        for sym in range(1, q + 1):
            k = spare - (sym - prev - 1) % q
            if k < 0:
                continue
            below = row[min(k, len(row) - 1)]
            if index < below:
                break
            index -= below
        out.append(sym)
        spare, prev = k, sym
    return tuple(out)


@pytest.mark.parametrize(
    "q, cycles, length",
    [
        (16, 64, 32),  # large alphabets
        (64, 128, 64),
        (256, 512, 256),
        (4, 12, 12),  # rho 1: no cycle to spare
        (3, 9, 9),
        (4, 8, 0),  # the empty oligo
        (1, 5, 0),
        (4, 40, 8),  # spares far past the end of every row
        (2, 30, 5),
        (5, 60, 12),
    ],
)
def test_rank_and_unrank_match_the_per_symbol_loop(q, cycles, length):
    rows = per_symbol_table(q, cycles, length)
    total = rows[length][-1]
    assert total == subsequence_count(q, cycles, length)
    rng = random.Random(q * 1000 + cycles)
    for index in [0, total - 1] + [rng.randrange(total) for _ in range(20)]:
        symbols = per_symbol_unrank(rows, q, cycles, length, index)
        assert per_symbol_rank(rows, q, cycles, symbols) == index
        assert subsequence_unrank(q, cycles, length, index).symbols == symbols
        assert subsequence_rank(q, cycles, Oligo(symbols, q)) == index
    for _ in range(20):  # mostly tuples that do not embed
        symbols = tuple(rng.randint(1, q) for _ in range(length))
        try:
            expected = per_symbol_rank(rows, q, cycles, symbols)
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                subsequence_rank(q, cycles, Oligo(symbols, q))
        else:
            assert subsequence_rank(q, cycles, Oligo(symbols, q)) == expected
    with pytest.raises(DomainError, match=rf"index must lie in 0\.\.{total - 1}$"):
        subsequence_unrank(q, cycles, length, total)


def test_rank_of_known_order():
    # q=2, C=4 holds exactly 11 < 12 < 21 < 22
    got = [subsequence_unrank(2, 4, 2, i).symbols for i in range(4)]
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_rank_rejects_non_subsequences():
    with pytest.raises(DomainError):
        subsequence_rank(2, 2, Oligo((2, 1), 2))
    with pytest.raises(DomainError):
        subsequence_rank(2, 4, Oligo((1, 1, 1), 2))
    with pytest.raises(DomainError, match="^oligo alphabet exceeds the stream alphabet$"):
        subsequence_rank(4, 8, Oligo((1,), 5))


def test_rank_refuses_a_bad_geometry_with_its_own_message():
    # q below 1 is refused as subsequence_count refuses it, not as an alphabet
    # mismatch; an oligo longer than the cycles, or any oligo at negative
    # cycles, is no subsequence of the prefix, whatever length check rank_symbols has
    for q in (0, -1):
        with pytest.raises(DomainError, match="^alphabet size must be at least 1$"):
            subsequence_rank(q, 8, Oligo((1, 2), 2))
    for cycles, oligo in ((1, Oligo((1, 2), 2)), (0, Oligo((1,), 4)), (-1, Oligo((), 4))):
        with pytest.raises(DomainError, match="^oligo is not a subsequence of the offer prefix$"):
            subsequence_rank(4, cycles, oligo)
    assert subsequence_rank(4, 0, Oligo((), 4)) == 0


def test_unrank_bounds():
    total = subsequence_count(3, 6, 3)
    with pytest.raises(DomainError):
        subsequence_unrank(3, 6, 3, total)
    with pytest.raises(DomainError):
        subsequence_unrank(3, 6, 3, -1)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty CountCache in place of the module's one for the test."""
    cache = CountCache()
    monkeypatch.setattr(counting, "_shared_cache", cache)
    return cache


def test_cache_survives_concurrent_use(fresh_cache):
    cache = fresh_cache
    total = subsequence_count(5, 60, 24)
    indices = [total * k // 9 for k in range(1, 9)]
    results = []

    def work(index):
        oligo = subsequence_unrank(5, 60, 24, index)
        results.append((index, oligo.symbols, subsequence_rank(5, 60, oligo)))

    threads = [threading.Thread(target=work, args=(i,)) for i in indices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # make the threads race for the one table
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for index, symbols, rank in results:
        assert rank == index
        assert symbols == subsequence_unrank(5, 60, 24, index).symbols
    assert len(cache) == 1


def test_cache_drops_its_oldest_tables_past_its_bound(fresh_cache):
    # one 1-byte lookup block at every depth 1..256 would keep 18.8M integers
    cache = fresh_cache
    for depth in range(1, 257):
        cycles, length = 4 * depth, 2 * depth
        index = (0xA5 + depth) % subsequence_count(4, cycles, length)
        oligo = subsequence_unrank(4, cycles, length, index)
        assert subsequence_rank(4, cycles, oligo) == index
    held = sum(len(row) for rows in cache._tables.values() for row in rows)
    assert held <= 1 << 22
    held_bytes = sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row))
        for rows in cache._tables.values()
        for row in rows
    )
    assert held_bytes < _MAX_CACHED_BYTES
    assert (4, 4 * 256, 2 * 256) in cache._tables
    assert (4, 4, 2) not in cache._tables


def test_a_window_of_many_rows_over_a_large_alphabet_is_refused_before_its_zeros(fresh_cache):
    # 300001 rows of one sum each, behind 300000 zeros each: 720 GB of slots
    start = time.perf_counter()
    with pytest.raises(DomainError, match="too large to keep"):
        suffix_table(300_000, 300_000, 300_000)
    assert time.perf_counter() - start < 1.0
    assert not fresh_cache._tables


def test_a_q256_window_batch_of_every_block_size_stays_within_the_cache_bound(fresh_cache):
    # one ascending block of each size 1..128 asks for 128 window tables,
    # more than the cache holds at once
    blocks = tuple(Oligo(tuple(range(1, size + 1)), 256) for size in range(1, 129))
    spec = SupersequenceSpec(((256, 128 * 256),))
    batch = EncodedBatch("window", 256, 0.5, 128 * 255, spec, blocks)
    start = time.perf_counter()
    with contextlib.suppress(CorruptDataError):
        decode_payload(batch)
    assert time.perf_counter() - start < 2.0
    assert fresh_cache._bytes <= _MAX_CACHED_BYTES
    assert len(fresh_cache) < 128  # not vacuous: the oldest tables went


def deletion_ball_recursion(q, cycles, deletions, memo):
    """Oracle: the deletion-sphere recursion, derived without gap sequences.
    Deleting i of the kept slots from the head symbol's run leaves a
    (q-1)-letter problem on the deleted positions."""
    if deletions == 0 or deletions == cycles or q == 1:
        return 1
    key = (q, cycles, deletions)
    if key not in memo:
        keep = cycles - deletions
        memo[key] = sum(
            comb(keep, i) * deletion_ball_recursion(q - 1, deletions, deletions - i, memo)
            for i in range(min(deletions, keep) + 1)
        )
    return memo[key]


def test_closed_form_matches_the_deletion_ball_recursion():
    memo = {}
    for q in range(1, 7):
        for cycles in range(30):
            for length in range(cycles + 1):
                expected = deletion_ball_recursion(q, cycles, cycles - length, memo)
                assert subsequence_count(q, cycles, length) == expected, (q, cycles, length)


def test_suffix_table_total_matches_the_closed_form(fresh_cache):
    for q in range(1, 9):
        for cycles in range(61):
            for length in range(cycles + 1):
                total = indexed_count(q, cycles, length)
                assert total == subsequence_count(q, cycles, length), (q, cycles, length)


def test_suffix_table_rows_are_running_sums_of_counts(fresh_cache):
    # row l holds q zeros, then sums whose steps count the gap sequences of
    # length l within l + k cycles
    for q in range(1, 7):
        for cycles in range(17):
            for length in range(cycles + 1):
                rows = suffix_table(q, cycles, length)
                assert len(rows) == length + 1
                for l, row in enumerate(rows):
                    assert row[:q] == [0] * q
                    sums = row[q:]
                    assert len(sums) == min(cycles - length, l * (q - 1) + q) + 1
                    steps = [b - a for a, b in zip(row[q - 1 :], sums)]
                    assert steps == [subsequence_count(q, l + k, l) for k in range(len(sums))]


def test_cold_count_at_two_thousand_cycles_is_fast():
    start = time.perf_counter()
    subsequence_count(4, 2000, 1000)
    assert time.perf_counter() - start < 1.0


def test_depth_256_lookup_round_trip_is_fast():
    payload = "".join(format(b, "08b") for b in random.Random(256).randbytes(1024))
    start = time.perf_counter()
    batch = encode_payload("lookup", payload, q=4, rho=0.5, depth=256)
    assert decode_payload(batch) == payload
    assert time.perf_counter() - start < 5.0


NOT_INTS = ((2.5, "2.5"), (4.0, "4.0"), (True, "True"), ("4", "'4'"))


@pytest.mark.parametrize("bad, text", NOT_INTS)
def test_counting_refuses_an_alphabet_size_that_is_not_an_int(bad, text):
    calls = [
        lambda: subsequence_count(bad, 6, 3),  # 2.5 raised TypeError
        lambda: brute_force_count(bad, 6, 3),
        lambda: counting.indexable_count(bad, 6, 3),
        lambda: subsequence_rank(bad, 6, Oligo((1, 2), 2)),
        lambda: subsequence_unrank(bad, 6, 3, 0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^alphabet size {text} is not an int$"):
            call()


@pytest.mark.parametrize("bad, text", NOT_INTS)
def test_counting_refuses_a_cycle_count_or_length_that_is_not_an_int(bad, text):
    calls = [
        ("cycle count", lambda: subsequence_count(4, bad, 3)),  # 6.0 raised TypeError
        ("length", lambda: subsequence_count(4, 6, bad)),
        ("cycle count", lambda: brute_force_count(4, bad, 3)),
        ("length", lambda: brute_force_count(4, 6, bad)),
        ("cycle count", lambda: counting.indexable_count(4, bad, 3)),
        ("length", lambda: counting.indexable_count(4, 6, bad)),
        ("cycle count", lambda: subsequence_rank(4, bad, Oligo((1, 2), 2))),
        ("cycle count", lambda: subsequence_unrank(4, bad, 4, 0)),
        ("length", lambda: subsequence_unrank(4, 8, bad, 0)),
        ("index", lambda: subsequence_unrank(4, 8, 4, bad)),
    ]
    for name, call in calls:
        with pytest.raises(DomainError, match=f"^{name} {text} is not an int$"):
            call()