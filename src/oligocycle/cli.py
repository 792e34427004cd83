"""Command line interface emitting figure-ready CSV and JSON.

Exit codes: 0 on success, 2 for arguments outside an operation's domain
(an integer past float range included) or an unreadable file, 3 for corrupt
or inconsistent serialized data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .capacity import (
    _flexible_point, _trivial_edge, binary_entropy, cap_fixed_length, empirical_cap
)
from .errors import CorruptDataError, DomainError

# the comma-separated text of a q = 4 oligo as A/C/G/T letters
_DNA = str.maketrans("1234", "ACGT", ",")
# codec.SCHEMES, spelled out so that building the parser does not import
# the codec: only encode, decode and the rate-vs-rho sweep use it
_SCHEMES = ("balanced", "base", "lookup", "multisize", "window")
# Most rho values one sweep tabulates: a step far below the range's width
# would otherwise build rows until memory runs out.
_MAX_GRID_POINTS = 100_000


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_rows(columns: list[str], rows: list[tuple], fmt: str, path: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _write_text(path, "\n".join(lines) + "\n")
    else:
        _write_text(path, _json_rows([dict(zip(columns, row)) for row in rows]) + "\n")


def _json_rows(doc: list[dict]) -> str:
    """json.dumps(doc, indent=2) for a list of flat, non-empty objects.

    With an indent, json encodes in pure Python, one step per value, so the
    C encoder writes the rows with the inner indent spelled into its item
    separator, and only the row boundaries are respaced.  JSON strings
    escape newlines, so a newline followed by '{' only ever starts a row.
    """
    if not doc:
        return "[]"
    text = json.dumps(doc, separators=(",\n    ", ": "))
    return "[\n  {\n    " + text[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"


def _parse_int_list(text: str, label: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"{label} must be a comma-separated list of integers") from exc
    if not values:
        raise DomainError(f"{label} must not be empty")
    return values


def _rho_grid(start: float, stop: float, step: float) -> list[float]:
    if not (step > 0 and math.isfinite(step)):  # written so that NaN fails too
        raise DomainError("rho step must be positive and finite")
    if not 0.0 <= start <= stop <= 1.0:
        raise DomainError("rho range must satisfy 0 <= start <= stop <= 1")
    grid = []
    k = 0
    while True:
        rho = start + k * step
        if rho > stop + 1e-12:
            break
        if k == _MAX_GRID_POINTS:
            raise DomainError(f"rho grid must have at most {_MAX_GRID_POINTS} points")
        grid.append(min(rho, 1.0))
        k += 1
    return grid


def cmd_capacity(args: argparse.Namespace) -> int:
    if args.flexible:
        cap, peak = _flexible_point(args.q)  # one root solve gives both
        doc = {"q": args.q, "kind": "flexible", "cap": cap, "rho_peak": peak}
    else:
        doc = {
            "q": args.q,
            "kind": "fixed-length",
            "rho": args.rho,
            "cap": cap_fixed_length(args.q, args.rho),
        }
    print(json.dumps(doc))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from .counting import brute_force_count, subsequence_count

    if args.oracle:
        print(brute_force_count(args.q, args.cycles, args.length))
    else:
        print(subsequence_count(args.q, args.cycles, args.length))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .bits import bits_from_bytes
    from .codec import encode_payload
    from .sequence import _render_joined

    # checked before anything is written
    if args.dna and not args.oligos_out:
        raise DomainError("--dna renders the --oligos-out listing; give --oligos-out too")
    if args.dna and args.q != 4:
        raise DomainError("DNA letters are only defined for q = 4")
    with open(args.infile, "rb") as handle:
        payload = bits_from_bytes(handle.read())
    batch = encode_payload(
        args.scheme,
        payload,
        q=args.q,
        rho=args.rho,
        depth=args.depth,
        oligo_length=args.oligo_length,
        block_symbols=args.block_symbols,
    )
    _write_text(args.out, batch.to_json() + "\n")
    if args.oligos_out:
        listing = _render_joined(batch.oligos, "\n") + "\n" if batch.oligos else ""
        _write_text(args.oligos_out, listing.translate(_DNA) if args.dna else listing)
    summary = {
        "scheme": batch.scheme,
        "oligos": len(batch.oligos),
        "cycles": batch.spec.total_cycles,
        "payload_bits": batch.payload_bits,
    }
    print(json.dumps(summary))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from .bits import bytes_from_bits
    from .codec import EncodedBatch, decode_payload

    with open(args.infile, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDataError(f"batch is not UTF-8 text: {exc}") from exc
    batch = EncodedBatch.from_json(text)
    bits = decode_payload(batch)
    if len(bits) % 8:
        raise CorruptDataError("decoded payload is not byte aligned")
    data = bytes_from_bits(bits)
    with open(args.out, "wb") as handle:
        handle.write(data)
    print(json.dumps({"payload_bytes": len(data)}))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    qs = sorted(set(_parse_int_list(args.q_list, "--q-list")))
    grid = _rho_grid(args.rho_start, args.rho_stop, args.rho_step)
    curve = args.curve
    if curve == "cap-vs-rho":
        columns = ["q", "rho", "cap", "entropy"]
        rows = [
            (q, rho, cap_fixed_length(q, rho), binary_entropy(rho)) for q in qs for rho in grid
        ]
    elif curve == "rate-vs-rho":
        from .codec import rate_table

        columns = ["q", "rho", "scheme", "rate", "cap"]
        rows = [
            (q, row.rho, row.scheme, row.rate, row.cap) for q in qs for row in rate_table(q, grid)
        ]
    elif curve == "rho-star":
        from .cost import rho_star

        columns = ["q", "rho_lower", "rho_star"]
        rows = [(q, _trivial_edge(q), rho_star(q)) for q in qs]
    elif curve == "cost-vs-rho":
        from .cost import CostParams, cost_at_capacity

        params = CostParams(args.alpha, args.beta, args.bits, args.cycles)
        columns = ["q", "rho", "cost"]
        rows = [
            (q, rho, cost_at_capacity(params, q, rho))
            for q in qs
            for rho in grid
            if 0.0 < rho < 1.0
        ]
    elif curve == "empirical-convergence":
        cycles_list = sorted(set(_parse_int_list(args.cycles_list, "--cycles-list")))
        columns = ["q", "rho", "cycles", "empirical", "cap"]
        cap = functools.cache(cap_fixed_length)  # one root solve per (q, rho)
        rows = [
            (q, rho, c, empirical_cap(q, c, rho), cap(q, rho))
            for q in qs
            for rho in grid
            for c in cycles_list
        ]
    else:
        raise DomainError(f"unknown curve {curve!r}")
    _emit_rows(columns, rows, args.format, args.out)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    from .cost import CostParams, minimize_over_alphabet, minimize_over_rho, rho_star

    params = CostParams(args.alpha, args.beta, args.bits, args.cycles)
    if args.max_q is not None:
        q, rho, value = minimize_over_alphabet(params, args.max_q)
    else:
        q = args.q
        rho, value = minimize_over_rho(params, q)
    doc = {
        "q": q,
        "rho_opt": rho,
        "cost_opt": value,
        "rho_lower": _trivial_edge(q),
        "rho_star": rho_star(q),
    }
    print(json.dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oligocycle",
        description="Cycle-budget capacity, encoders, and cost curves for cyclic synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="closed-form capacity at one operating point")
    p.add_argument("--q", type=int, required=True, help="alphabet size")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, help="oligo length per cycle")
    group.add_argument("--flexible", action="store_true", help="no length constraint")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("count", help="exact count of synthesizable oligos")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="brute-force enumeration instead")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("encode", help="encode a file into an oligo batch")
    p.add_argument("--scheme", choices=_SCHEMES, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rho", type=float, help="target length ratio (lookup, multisize)")
    p.add_argument("--depth", type=int, help="window depth in revolutions (lookup)")
    p.add_argument("--oligo-length", type=int, help="symbols per oligo (multisize)")
    p.add_argument("--block-symbols", type=int, help="info symbols per oligo (base)")
    p.add_argument("--in", dest="infile", required=True, help="input file")
    p.add_argument("--out", required=True, help="batch JSON output path")
    p.add_argument("--oligos-out", help="also write one oligo per line")
    p.add_argument("--dna", action="store_true", help="write oligos as ACGT (q=4 only)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover a file from an oligo batch")
    p.add_argument("--in", dest="infile", required=True, help="batch JSON input path")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="tabulate a curve over q and rho")
    p.add_argument(
        "--curve",
        choices=["cap-vs-rho", "rate-vs-rho", "rho-star", "cost-vs-rho", "empirical-convergence"],
        required=True,
    )
    p.add_argument("--q-list", required=True, help="comma-separated alphabet sizes")
    p.add_argument("--rho-start", type=float, default=0.05)
    p.add_argument("--rho-stop", type=float, default=0.95)
    p.add_argument("--rho-step", type=float, default=0.05)
    p.add_argument("--cycles-list", default="25,50,100,200", help="empirical-convergence only")
    p.add_argument("--alpha", type=float, default=1.0, help="cost per cycle (cost-vs-rho)")
    p.add_argument("--beta", type=float, default=1.0, help="cost per base (cost-vs-rho)")
    p.add_argument("--bits", type=float, default=1e6, help="workload bits (cost-vs-rho)")
    p.add_argument("--cycles", type=int, default=200, help="cycles per run (cost-vs-rho)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="minimize synthesis cost over rho")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--bits", type=float, required=True)
    p.add_argument("--cycles", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int)
    group.add_argument("--max-q", type=int)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorruptDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
