"""Compare two checkouts, a parent commit and a change, on one workload.

    mkdir ../parent && git archive <parent> | tar -x -C ../parent
    python3 perfbench/compare.py --parent ../parent --change . --workload cli --pairs 10

Runs --pairs pairs of untraced runs, one seed per pair, alternating which
side runs first, each side with its own copy of perfbench/run.py (the two
must be identical). Prints, per end-to-end metric, each side's median and
quartiles, how many pairs the change won (ties count for neither), whether
that is a gain (at least nine tenths of the pairs won and the medians apart
by more than the parent's own quartile distance) and whether the change's
median is worse than the parent's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} failed {result['failed']} of {result['attempted']} ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run(checkout, args.workload, seed, spec["run_seconds"]))
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [r[name] for r in sides["parent"]]
        new = [r[name] for r in sides["change"]]
        q_old, q_new = quantiles(old, n=4), quantiles(new, n=4)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        gap = (median(new) - median(old)) * (1 if higher else -1)
        worse_share = -gap / median(old) if median(old) else 0.0
        print(json.dumps({
            "workload": args.workload, "metric": name, "unit": metric["unit"],
            "parent": {"median": median(old), "q1": q_old[0], "q3": q_old[2]},
            "change": {"median": median(new), "q1": q_new[0], "q3": q_new[2]},
            "change_wins": wins, "pairs": args.pairs,
            "gain": wins >= 0.9 * args.pairs and gap > q_old[2] - q_old[0],
            "regression": worse_share > metric["bound"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
