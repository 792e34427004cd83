"""Seeded benchmark of oligocycle: round trips in-process and the CLI cold.

    python3 perfbench/run.py --workload roundtrip-simple --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the checkout that holds this file and builds
nothing. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The line
before it records the machine and build. --smoke shrinks every input and
makes one pass, to show quickly that every metric is emitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import speed_scale
from spans import NullTracer, Tracer, write_trace
from suite import run_suite
from workloads import FULL, ROOT, SMOKE, SRC, WORKLOADS, Context, Pass, measure, median_parts, setup

STATE_DIR = ROOT / ".perfbench"  # scratch files and traces, inside the checkout


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument(
        "--setup-only", action="store_true", help="time one cold set-up, print it and exit"
    )
    return parser.parse_args(argv)


def child_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of the same workload in a fresh interpreter, in reference seconds."""
    scale = speed_scale()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"] * scale


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(passes: list[Pass], setup_s: list[float]) -> tuple[dict[str, float], int, int]:
    """Every timed region's median over the clean passes, summed into one pass."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    clean = [p for p in passes if not p.failed] or passes
    parts = median_parts(clean)

    def phase_s(phase: str) -> float:
        return sum(v for key, v in parts.items() if key.endswith("/" + phase))

    payload_mb = clean[0].payload_bytes / 1e6
    values = {
        "setup_s": median(setup_s),
        "encode_MBps": payload_mb / phase_s("encode") if phase_s("encode") else 0.0,
        "decode_MBps": payload_mb / phase_s("decode") if phase_s("decode") else 0.0,
        "pass_s": sum(parts.values()),
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_MB": peak_rss_mb(),
        "cycle_efficiency": float(
            sum(p.eff_weighted for p in clean) / max(sum(p.eff_bits for p in clean), 1)
        ),
    }
    return values, attempted, failed


def traced(ctx: Context, args: argparse.Namespace) -> tuple[dict[str, float], int, int]:
    """The layer suite, then the time left split between untraced and traced passes."""
    start = perf_counter()
    suite_tr = Tracer()
    values, tally = run_suite(ctx, suite_tr)
    half = (args.seconds - (perf_counter() - start)) / 2
    plain = measure(ctx, args.workload, NullTracer(), half, "plain")
    workload_tr = Tracer()
    spanned = measure(ctx, args.workload, workload_tr, half, "traced")
    base = sum(median_parts(plain).values())
    values["trace.overhead_pct"] = 100.0 * (sum(median_parts(spanned).values()) - base) / base
    values["trace.spans"] = len(workload_tr.spans) + len(suite_tr.spans)
    write_trace(
        STATE_DIR / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": workload_tr, "suite": suite_tr},
    )
    runs = plain + spanned + [tally]
    return values, sum(p.attempted for p in runs), sum(p.failed for p in runs)


def machine() -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "oligocycle").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "oligocycle" / "__init__.py").is_file():
        print(f"error: no oligocycle sources under {SRC}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else FULL
    if args.setup_only:
        t0 = perf_counter()
        setup(args.workload, args.seed, scale, None)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE_DIR))
    try:
        speed = speed_scale()
        t0 = perf_counter()
        ctx = setup(args.workload, args.seed, scale, workdir)
        setup_s = [(perf_counter() - t0) * speed]
        info: dict[str, object] = {"workload": args.workload, "seed": args.seed, "speed_scale": speed}
        if args.trace:
            values, attempted, failed = traced(ctx, args)
            entries = spec["per_layer"]
        else:
            setup_s += [child_setup_seconds(args) for _ in range(scale.setup_samples - 1)]
            passes = measure(ctx, args.workload, NullTracer(), args.seconds, "run")
            values, attempted, failed = end_to_end(passes, setup_s)
            entries = spec["end_to_end"]
            info["raw_pass_s"] = median(sum(p.raw_parts.values()) for p in passes)
            info["passes"] = len(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [e["name"] for e in entries]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    print(json.dumps({"machine": machine(), **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
