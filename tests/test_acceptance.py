"""Release gate: eleven numbered checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s pytest still shows the line for any failing check.  Tolerances
are pinned in the assertions and never loosened to make a check pass.

A target given as displayed digits (criterion 1's 0.92, 0.996, 0.99998) is
the true value truncated to those digits, not rounded, so it is checked as
the window [display, display + one unit in its last place): one display unit
wide, starting at the display.
"""

import itertools
import math
import random
from decimal import Decimal
from time import perf_counter

from oligocycle import (
    CostParams,
    Oligo,
    alternating_prefix,
    balanced_params,
    cap_fixed_length,
    decode_payload,
    empirical_cap,
    encode_payload,
    min_cycles_under,
    minimize_over_rho,
    multisize_rate,
    rho_star,
    subsequence_count,
)
from oligocycle import codec
from oligocycle.bits import balance_word
from oligocycle.cli import main
from oracles import synthesis_cycles


def report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion:>2} {verdict}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def exact_count(q, cycles, length):
    """Number of oligos of `length` symbols that embed in `cycles` cycles.

    An oligo is its greedy gap sequence in [1, q]^length with gap sum at most
    `cycles`; inclusion-exclusion over the gaps forced above q counts them.
    """
    return sum(
        (-1) ** j * math.comb(length, j) * math.comb(cycles - j * q, length)
        for j in range((cycles - length) // q + 1)
    )


def display_window(display):
    """[display, display + one unit in its last digit) as exact decimals."""
    low = Decimal(display)
    return low, low + Decimal(1).scaleb(low.as_tuple().exponent)


CAP_DISPLAYS = {4: "0.92", 8: "0.996", 16: "0.99998"}
# Cycle counts divisible by q: the offer stream has period q, so oligos for
# C and C' cycles concatenate into one for C + C' cycles, log2 N is
# supermultiplicative and log2 N(q, C, C/2) / C is a lower bound on cap(q, .5).
# The bounds, 0.925415 at q=4 and 0.996525 at q=8, lie above 0.925 and 0.9965:
# no correct capacity fits windows centred on the displays.
COUNT_ANCHOR_CYCLES = {4: 8000, 8: 16000}


def test_criterion_01_capacity_spot_values():
    start = perf_counter()
    values = {q: cap_fixed_length(q, 0.5) for q in (4, 8, 16, 32)}
    elapsed = perf_counter() - start
    checks = []
    for q, display in CAP_DISPLAYS.items():
        low, high = display_window(display)
        checks.append(
            (f"{low} <= cap({q},.5)={values[q]:.10f} < {high}", low <= Decimal(values[q]) < high)
        )
    checks.append(
        (f"1-2e-9 <= cap(32,.5)={values[32]:.12f} < 1", 1.0 - 2e-9 <= values[32] < 1.0)
    )
    checks.append((f"elapsed={elapsed:.3f}s < 1s", elapsed < 1.0))
    for q, cycles in COUNT_ANCHOR_CYCLES.items():
        bound = math.log2(exact_count(q, cycles, cycles // 2)) / cycles
        display = CAP_DISPLAYS[q]
        ok = Decimal(display) <= Decimal(bound) and bound <= values[q]
        checks.append(
            (f"{display} <= log2 N({q},{cycles},{cycles // 2})/{cycles}={bound:.6f} "
             f"<= cap({q},.5)", ok)
        )
    detail = "; ".join(label for label, _ in checks)
    failed = [label for label, ok in checks if not ok]
    if failed:
        detail += " | failed: " + "; ".join(failed)
    report(1, not failed, detail)


def test_criterion_02_balanced_parameter_table():
    start = perf_counter()
    got = {q: balanced_params(q) for q in (4, 8, 16, 32)}
    elapsed = perf_counter() - start
    expected = {4: (2, 4), 8: (4, 7), 16: (11, 16), 32: (26, 32)}
    ok = got == expected and elapsed < 1.0
    report(2, ok, f"params={got} elapsed={elapsed:.3f}s")


def test_criterion_03_balancing_worked_example():
    word = format(balance_word(0b100, 3), "06b")
    block = codec.SCHEMES["balanced"](6).encode_block(0b100)
    ok = word == "010110" and block == (2, 4, 5)
    report(3, ok, f"K(100)={word} block={''.join(map(str, block))}")


def test_criterion_04_counts_match_brute_force():
    start = perf_counter()
    mismatches = 0
    cases = 0
    for q in (1, 2, 3, 4, 5):
        for cycles in range(0, 15):
            stream = alternating_prefix(q, cycles)
            buckets = [set() for _ in range(cycles + 1)]
            for mask in range(1 << cycles):
                picked = tuple(stream[i] for i in range(cycles) if mask >> i & 1)
                buckets[len(picked)].add(picked)
            for length in range(cycles + 1):
                cases += 1
                if subsequence_count(q, cycles, length) != len(buckets[length]):
                    mismatches += 1
    elapsed = perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(4, ok, f"{cases} (q,cycles,length) cases, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_05_binary_diagonal_exact():
    count_ok = all(subsequence_count(2, 2 * n, n) == 2**n for n in range(1, 11))
    cap_ok = all(empirical_cap(2, 2 * n, 0.5) == 0.5 for n in range(1, 11))
    report(5, count_ok and cap_ok, f"counts_exact={count_ok} empirical_exact={cap_ok}")


def test_criterion_06_threshold_identity_and_continuity():
    worst_identity = 0.0
    worst_jump = 0.0
    for q in range(2, 33):
        threshold = 2.0 / (q + 1)
        identity = abs(cap_fixed_length(q, threshold) - threshold * math.log2(q))
        jump = abs(cap_fixed_length(q, threshold + 1e-7) - cap_fixed_length(q, threshold))
        worst_identity = max(worst_identity, identity)
        worst_jump = max(worst_jump, jump)
    ok = worst_identity <= 1e-9 and worst_jump <= 1e-6
    report(6, ok, f"worst identity gap={worst_identity:.2e} worst branch jump={worst_jump:.2e}")


def pair_mix_oracle(q, rho):
    target = 2.0 / rho - 1.0
    best = -1.0
    support = None
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
                support = [v for v, w in ((i, a), (j, b)) if w > 1e-9]
    if abs(target - round(target)) < 1e-12 and 1 <= round(target) <= q:
        single = rho * math.log2(round(target))
        if single > best:
            best, support = single, [round(target)]
    return best, support


def test_criterion_07_multisize_rate_matches_pair_oracle():
    worst = 0.0
    adjacency_ok = True
    for q in range(2, 9):
        low = 2.0 / (q + 1)
        for k in range(100):
            rho = low + (1.0 - low) * k / 99.0
            expected, support = pair_mix_oracle(q, rho)
            worst = max(worst, abs(multisize_rate(q, rho) - expected))
            if support is None or max(support) - min(support) > 1:
                adjacency_ok = False
    ok = worst <= 1e-9 and adjacency_ok
    report(7, ok, f"worst rate gap={worst:.2e} over 700 points, adjacent support={adjacency_ok}")


def batch_within_budget(batch):
    budget = batch.spec.total_cycles
    for oligo in batch.oligos:
        need = min_cycles_under(batch.spec, oligo)
        if need is None or need > budget:
            return False
    return True


def draw_multisize(rng):
    q = rng.choice([3, 4, 5, 8])
    # rho below 2/(q+1) is infeasible, so clamp the draw to the threshold
    rho = max(rng.choice([0.4, 0.45, 0.5, 0.6, 0.8]), 2.0 / (q + 1))
    return dict(q=q, rho=rho, oligo_length=rng.choice([12, 24, 48]))


def test_criterion_08_cycle_budget_safety():
    start = perf_counter()
    rng = random.Random(2026)
    draws = {
        "base": lambda: dict(q=rng.choice([2, 3, 4, 7]), block_symbols=rng.randint(1, 12)),
        "lookup": lambda: rng.choice(
            [dict(q=2, rho=0.5, depth=2), dict(q=4, rho=0.5, depth=2),
             dict(q=4, rho=0.25, depth=3), dict(q=3, rho=0.5, depth=4)]
        ),
        "multisize": lambda: draw_multisize(rng),
        "balanced": lambda: dict(q=rng.choice([4, 8, 16, 32])),
        "window": lambda: dict(q=rng.choice([2, 4, 6, 9])),
    }
    violations = 0
    trials = 0
    for scheme, draw in draws.items():
        for _ in range(2000):
            kwargs = draw()
            payload = "".join(rng.choice("01") for _ in range(rng.randint(0, 64)))
            if not batch_within_budget(encode_payload(scheme, payload, **kwargs)):
                violations += 1
            trials += 1
    # exhaustive base-scheme sweep: every info word, small alphabets
    base_cases = 0
    base_violations = 0
    for q in (2, 3, 4):
        for length in range(0, 6):
            budget = (q + 1) * (length + 1) // 2
            for symbols in itertools.product(range(1, q + 1), repeat=length):
                if synthesis_cycles(Oligo(codec._steer(q, symbols), q)) > budget:
                    base_violations += 1
                base_cases += 1
    elapsed = perf_counter() - start
    ok = violations == 0 and base_violations == 0
    report(
        8,
        ok,
        f"{trials} random batches, {violations} over budget; "
        f"{base_cases} exhaustive base words, {base_violations} over; {elapsed:.1f}s",
    )


def test_criterion_09_round_trip_losslessness():
    start = perf_counter()
    rng = random.Random(40926)
    setups = [
        ("base", dict(q=4)),
        ("lookup", dict(q=4, rho=0.5, depth=2)),
        ("multisize", dict(q=5, rho=0.45)),
        ("balanced", dict(q=16)),
        ("window", dict(q=6)),
    ]
    failures = []
    # random files up to 64 KiB
    for scheme, kwargs in setups:
        data = rng.randbytes(65536)
        bits = "".join(format(byte, "08b") for byte in data)
        if decode_payload(encode_payload(scheme, bits, **kwargs)) != bits:
            failures.append(f"{scheme} 64KiB")
    # exhaustive short payloads
    small_setups = [
        ("base", dict(q=2, block_symbols=3)),
        ("lookup", dict(q=2, rho=0.5, depth=2)),
        ("multisize", dict(q=4, rho=0.5, oligo_length=8)),
        ("balanced", dict(q=4)),
        ("window", dict(q=4)),
    ]
    for scheme, kwargs in small_setups:
        for length in range(0, 11):
            for value in range(1 << length):
                bits = format(value, f"0{length}b") if length else ""
                if decode_payload(encode_payload(scheme, bits, **kwargs)) != bits:
                    failures.append(f"{scheme} len={length} value={value}")
                    break
            else:
                continue
            break
    elapsed = perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(9, ok, f"5 schemes x 64KiB + exhaustive <=10-bit payloads, "
                  f"failures={failures or 'none'}, {elapsed:.1f}s")


def test_criterion_10_cost_optimum_structure():
    params = CostParams(alpha=1.0, beta=0.01, payload_bits=1e6, cycles=200)
    checks = {}
    checks["rho_star(4)=0.5 to 1e-9"] = abs(rho_star(4) - 0.5) <= 1e-9
    stars = [rho_star(q) for q in range(2, 65)]
    checks["rho_star strictly decreasing"] = all(a > b for a, b in zip(stars, stars[1:]))
    interval_ok = True
    costs = []
    for q in range(2, 9):
        rho_opt, cost_opt = minimize_over_rho(params, q)
        if not 2.0 / (q + 1) - 1e-12 <= rho_opt <= rho_star(q) + 1e-12:
            interval_ok = False
        costs.append(cost_opt)
    checks["minimizer inside [2/(q+1), rho_star]"] = interval_ok
    checks["optimal cost strictly decreasing q=2..8"] = all(
        a > b for a, b in zip(costs, costs[1:])
    )
    zero_beta = CostParams(alpha=2.5, beta=0.0, payload_bits=1e6, cycles=321)
    _, flat_cost = minimize_over_rho(zero_beta, 5)
    checks["beta=0 collapses to alpha*C"] = flat_cost == 2.5 * 321
    failed = [name for name, ok in checks.items() if not ok]
    report(10, not failed, f"failed: {failed or 'none'}")


def run_sweep(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    assert code == 0
    return out.read_text()


def test_criterion_11_sweep_sanity(tmp_path):
    cap_csv = run_sweep(
        tmp_path, "cap.csv",
        "sweep", "--curve", "cap-vs-rho", "--q-list", "2,4,8,16",
        "--rho-start", "0.05", "--rho-stop", "0.95", "--rho-step", "0.05",
    )
    cap_rows = [line.split(",") for line in cap_csv.strip().splitlines()[1:]]
    cap_ok = all(float(cap) <= float(entropy) + 1e-9 for _, _, cap, entropy in cap_rows)

    rate_csv = run_sweep(
        tmp_path, "rate.csv",
        "sweep", "--curve", "rate-vs-rho", "--q-list", "2,4,8,16",
        "--rho-start", "0.1", "--rho-stop", "0.9", "--rho-step", "0.1",
    )
    rate_rows = [line.split(",") for line in rate_csv.strip().splitlines()[1:]]
    rate_ok = all(float(rate) <= float(cap) + 1e-9 for _, _, _, rate, cap in rate_rows)

    star_csv = run_sweep(
        tmp_path, "star.csv", "sweep", "--curve", "rho-star", "--q-list", "2,4,8,16,32,64"
    )
    star_rows = [line.split(",") for line in star_csv.strip().splitlines()[1:]]
    star_ok = all(float(low) < float(star) for _, low, star in star_rows)

    again = run_sweep(
        tmp_path, "cap2.csv",
        "sweep", "--curve", "cap-vs-rho", "--q-list", "2,4,8,16",
        "--rho-start", "0.05", "--rho-stop", "0.95", "--rho-step", "0.05",
    )
    deterministic = again == cap_csv

    ok = cap_ok and rate_ok and star_ok and deterministic
    report(
        11,
        ok,
        f"cap<=entropy={cap_ok} rate<=cap={rate_ok} "
        f"threshold<rho_star={star_ok} deterministic={deterministic}",
    )
