"""The traced layer suite: one fixed unit of work that touches every layer.

The same suite runs in the traced run of every workload, so every per-layer
metric is measured on each of them. It makes:

- round-trip rotations of roundtrip-simple and roundtrip-lookup
- direct rank/unrank calls on one lookup payload's block values per depth
- the cli script's counting, capacity and cost calls in-process, each with a
  fresh CountCache where a cold process would start with an empty memo
- bare and import start-ups, and one pass of the cli script

Each call sits in a span named after its layer; metrics come from the spans.
"""

from __future__ import annotations

import sys
from statistics import median

from spans import Tracer
from workloads import (
    COST_PARAMS,
    CYCLES_LIST,
    LOOKUP_DEPTHS,
    LOOKUP_JOBS,
    RHO_GRID,
    SIMPLE_JOBS,
    Context,
    Pass,
    count_oracle,
)

LAYERS = ("cli", "bits", "sequence", "counting", "capacity", "codec", "cost")


def block_values(data: bytes, width: int) -> list[int]:
    """The payload cut into *width*-bit blocks, MSB first, last block zero-padded."""
    nbits = 8 * len(data)
    pad = -nbits % width
    value = int.from_bytes(data, "big") << pad
    blocks = (nbits + pad) // width
    mask = (1 << width) - 1
    return [(value >> (width * (blocks - 1 - i))) & mask for i in range(blocks)]


def run_suite(ctx: Context, tr: Tracer) -> tuple[dict[str, float], Pass]:
    """Run the suite once under *tr*; return its per-layer metrics and op tallies."""
    oc, scale = ctx.oc, ctx.scale
    ctx.warm_lookup()
    ctx.expected  # noqa: B018 - the cli pass compares against these
    tally = Pass()
    m: dict[str, float] = {}

    def tally_ops(p: Pass) -> None:
        tally.attempted += p.attempted
        tally.failed += p.failed

    def check(ok: bool, what: str) -> None:
        tally.attempted += 1
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)
            tally.failed += 1

    for r in range(scale.suite_rotations):
        tally_ops(ctx.roundtrip_pass(SIMPLE_JOBS, scale.simple_bytes, tr, f"simple/{r}"))
    for r in range(scale.suite_rotations):
        tally_ops(ctx.roundtrip_pass(LOOKUP_JOBS, scale.lookup_bytes, tr, f"lookup/{r}"))

    for depth in LOOKUP_DEPTHS:
        q, cycles, length = 4, 4 * depth, 2 * depth
        tr.op = f"counting/d{depth}"
        width = oc.subsequence_count(q, cycles, length).bit_length() - 1
        values = block_values(ctx.rng.randbytes(scale.lookup_bytes), width)
        with tr.span(f"counting.unrank.d{depth}") as s:
            oligos = [oc.subsequence_unrank(q, cycles, length, v) for v in values]
        m[f"counting.unrank_us.d{depth}"] = 1e6 * s.seconds / len(values)
        with tr.span(f"counting.rank.d{depth}") as s:
            ranks = [oc.subsequence_rank(q, cycles, o) for o in oligos]
        m[f"counting.rank_us.d{depth}"] = 1e6 * s.seconds / len(values)
        check(ranks == values, f"rank(unrank(v)) == v at depth {depth}")

    for label, point in zip(("q4", "q16"), scale.count_points):
        tr.op = f"counting/{label}"
        cache = oc.CountCache()
        with tr.span(f"counting.cold_count.{label}") as s:
            n = oc.subsequence_count(*point, cache)
        m[f"counting.cold_count_ms.{label}"] = 1e3 * s.seconds
        m[f"counting.memo_entries.{label}"] = len(cache)
        check(n == count_oracle(*point), f"subsequence_count{point} against the oracle")

    tr.op = "capacity"
    grid = [(q, rho) for q in scale.cap_qs for rho in RHO_GRID]
    with tr.span("capacity.cap_fixed_length") as s:
        caps = [oc.cap_fixed_length(q, rho) for q, rho in grid]
    m["capacity.cap_fixed_length_us"] = 1e6 * s.seconds / len(grid)
    check(caps == [row["cap"] for row in ctx.expected["sweep-cap"]], "cap-vs-rho grid")
    cache = oc.CountCache()
    with tr.span("capacity.empirical_cap") as s:
        rates = [oc.empirical_cap(q, c, rho, cache) for q in (2, 4) for rho in RHO_GRID for c in CYCLES_LIST]
    m["capacity.empirical_cap_ms"] = 1e3 * s.seconds
    check(rates == [row["empirical"] for row in ctx.expected["sweep-convergence"]], "empirical_cap grid")

    tr.op = "cost"
    params = oc.CostParams(*COST_PARAMS)
    for q in (4, scale.cost_max_q):
        with tr.span(f"cost.minimize_over_rho.q{q}") as s:
            rho, cost = oc.minimize_over_rho(params, q)
        m[f"cost.minimize_over_rho_ms.{'q4' if q == 4 else 'q64'}"] = 1e3 * s.seconds
        check(2.0 / (q + 1) <= rho <= oc.rho_star(q) and cost > 0.0, f"cost optimum at q={q}")

    starts: dict[str, list[float]] = {"pass": [], "import oligocycle.cli": []}
    for i in range(scale.startup_samples):
        for code, times in starts.items():
            tr.op = f"startup/{i}"
            with tr.span("cli.startup") as s:
                proc = ctx.run_python(["-c", code])
            check(proc is not None and proc.returncode == 0, f"python -c {code!r}")
            times.append(s.seconds)
    m["cli.startup_ms"] = 1e3 * median(starts["pass"])
    m["cli.import_ms"] = 1e3 * (median(starts["import oligocycle.cli"]) - median(starts["pass"]))
    cli = ctx.cli_pass(tr, "cli/0")
    tally_ops(cli)
    for cmd in ctx.script:
        m[f"cli.cmd.{cmd.name}_ms"] = 1e3 * cli.raw_parts.get(f"{cmd.name}/{cmd.kind}", 0.0)

    for what in ("from_bytes", "to_bytes"):
        m[f"bits.{what}_ms"] = 1e3 * median(tr.durations(f"bits.{what}", "simple/"))
    for what in ("to_json", "from_json"):
        per_rotation = [
            sum(tr.durations(f"codec.{what}", f"simple/{r}/")) for r in range(scale.suite_rotations)
        ]
        m[f"codec.{what}_ms"] = 1e3 * median(per_rotation)
    for job in SIMPLE_JOBS + LOOKUP_JOBS:
        for what in ("encode", "decode"):
            m[f"codec.{what}_ms.{job.label}"] = 1e3 * median(tr.durations(f"codec.{what}.{job.label}"))
        checked = sum(tr.durations(f"sequence.min_cycles_under.{job.label}"))
        m[f"sequence.min_cycles_under_us.{job.label}"] = 1e6 * checked / tr.counts[f"sequence.oligos.{job.label}"]
    for name in ("oligos", "program_cycles", "json_bytes"):
        m[f"codec.{name}"] = tr.counts.get(f"codec.{name}", 0)
    own = tr.self_seconds()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * own.get(layer, 0.0)
    return m, tally
