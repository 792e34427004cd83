"""Workload definitions: seeded inputs, set-up, one measured pass, checks.

Every workload is a closed loop with one caller. Payloads come from
``random.Random(seed).randbytes(n)``; the program sees only those bytes.
Correctness checks run outside the timed regions, and an op that raises or
fails a check counts as failed.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from statistics import median
from pathlib import Path
from time import perf_counter

from calibrate import START_S, speed_scale
from spans import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COMMAND_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Scale:
    """Input sizes of a run; the smoke scale keeps every metric but shrinks the work."""

    simple_bytes: int  # roundtrip-simple payload
    lookup_bytes: int  # roundtrip-lookup payload
    cli_bytes: int  # file encoded and decoded by the cli script
    warmup_ops: int  # lookup round trips per depth during set-up
    setup_samples: int  # cold set-ups timed per run: the run's own plus fresh processes
    count_points: tuple[tuple[int, int, int], ...]  # (q, cycles, length) for count-q4, count-q16
    cost_max_q: int
    cap_qs: tuple[int, ...]  # alphabets of the cap-vs-rho sweep
    suite_rotations: int  # round-trip rotations in the traced layer suite
    startup_samples: int  # bare and import start-ups timed in the traced layer suite
    max_passes: int | None  # stop after this many passes, whatever the time


FULL = Scale(
    simple_bytes=16384,
    lookup_bytes=4096,
    cli_bytes=8192,
    warmup_ops=3,
    setup_samples=5,
    count_points=((4, 600, 300), (16, 400, 200)),
    cost_max_q=64,
    cap_qs=tuple(range(2, 65)),
    suite_rotations=3,
    startup_samples=5,
    max_passes=None,
)
SMOKE = Scale(
    simple_bytes=64,
    lookup_bytes=16,
    cli_bytes=64,
    warmup_ops=1,
    setup_samples=2,
    count_points=((4, 24, 12), (16, 40, 20)),
    cost_max_q=8,
    cap_qs=tuple(range(2, 9)),
    suite_rotations=1,
    startup_samples=1,
    max_passes=1,
)

# the CLI's default sweep grid: --rho-start 0.05 --rho-stop 0.95 --rho-step 0.05
RHO_GRID = tuple(0.05 + k * 0.05 for k in range(19))
CYCLES_LIST = (25, 50, 100, 200)
COST_ARGS = ("--alpha", "1", "--beta", "0.01", "--bits", "1e6", "--cycles", "200")
# cost per cycle, per base, workload bits, cycles: the values COST_ARGS passes
COST_PARAMS = (1.0, 0.01, 1e6, 200)
# schemes whose rate is per strand: the program is shared by all oligos
PER_STRAND_SCHEMES = ("base", "lookup", "multisize")


@dataclass(frozen=True)
class Job:
    label: str
    scheme: str
    params: dict


SIMPLE_JOBS = (
    Job("base", "base", {"q": 4, "block_symbols": 32}),
    Job("multisize", "multisize", {"q": 5, "rho": 0.45, "oligo_length": 48}),
    Job("balanced", "balanced", {"q": 16}),
    Job("window", "window", {"q": 6}),
)
LOOKUP_DEPTHS = (2, 16, 64)
LOOKUP_JOBS = tuple(
    Job(f"lookup-d{d}", "lookup", {"q": 4, "rho": 0.5, "depth": d}) for d in LOOKUP_DEPTHS
)


@dataclass(frozen=True)
class Cmd:
    name: str
    args: tuple[str, ...]
    kind: str  # "value": stdout is JSON to compare; "encode" / "decode": check the file
    path: str = ""  # batch written by an encode, payload written by a decode


def cli_script(scale: Scale) -> tuple[Cmd, ...]:
    (q4, c4, l4), (q16, c16, l16) = scale.count_points
    caps = ",".join(map(str, scale.cap_qs))
    payload = ("--in", "payload.bin")
    return (
        Cmd("capacity", ("capacity", "--q", "4", "--rho", "0.5"), "value"),
        Cmd("count-q4", ("count", "--q", str(q4), "--cycles", str(c4), "--length", str(l4)), "value"),
        Cmd("count-q16", ("count", "--q", str(q16), "--cycles", str(c16), "--length", str(l16)), "value"),
        Cmd("cost", ("cost", *COST_ARGS, "--max-q", str(scale.cost_max_q)), "value"),
        Cmd(
            "sweep-convergence",
            ("sweep", "--curve", "empirical-convergence", "--q-list", "2,4", "--format", "json"),
            "value",
        ),
        Cmd("sweep-cap", ("sweep", "--curve", "cap-vs-rho", "--q-list", caps, "--format", "json"), "value"),
        Cmd(
            "encode-base",
            ("encode", "--scheme", "base", "--q", "4", "--block-symbols", "32", *payload, "--out", "base.json"),
            "encode",
            "base.json",
        ),
        Cmd("decode-base", ("decode", "--in", "base.json", "--out", "base.out"), "decode", "base.out"),
        Cmd(
            "encode-lookup",
            ("encode", "--scheme", "lookup", "--q", "4", "--rho", "0.5", "--depth", "16", *payload,
             "--out", "lookup.json"),
            "encode",
            "lookup.json",
        ),
        Cmd("decode-lookup", ("decode", "--in", "lookup.json", "--out", "lookup.out"), "decode", "lookup.out"),
    )


def count_oracle(q: int, cycles: int, length: int) -> int:
    """Oligos of *length* that embed in *cycles* cycles, by inclusion-exclusion.

    An oligo matches its greedy gap sequence in [1, q]^length one to one and
    embeds iff the gaps sum to at most *cycles*; counting bounded
    compositions gives sum_j (-1)^j C(length, j) C(cycles - j*q, length).
    """
    total = 0
    j = 0
    while j <= length and cycles - j * q >= length:
        total += (-1) ** j * comb(length, j) * comb(cycles - j * q, length)
        j += 1
    return total


def load_library():
    """Import the program from the checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oligocycle
    import oligocycle.bits

    if not Path(oligocycle.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"oligocycle was imported from {oligocycle.__file__}, not {SRC}")
    return oligocycle


@dataclass
class Pass:
    """Timed regions and op outcomes of one pass.

    Each timed region is keyed "<op>/<phase>", the phase being encode,
    decode or value; parts holds it in reference-speed seconds (see
    calibrate.py), raw_parts as measured.
    """

    parts: dict[str, float] = field(default_factory=dict)
    raw_parts: dict[str, float] = field(default_factory=dict)
    payload_bytes: int = 0  # bytes that went through the encode phases
    attempted: int = 0
    failed: int = 0
    # sum of payload_bits * cycle efficiency, exact so the mean repeats bit for bit
    eff_weighted: Fraction = Fraction(0)
    eff_bits: int = 0

    def add(self, key: str, raw: float, scale: float) -> None:
        self.raw_parts[key] = raw
        self.parts[key] = raw * scale


def median_parts(passes: list[Pass]) -> dict[str, float]:
    """Per timed region, its median over the passes that timed it."""
    keys = {key for p in passes for key in p.parts}
    return {key: median(p.parts[key] for p in passes if key in p.parts) for key in keys}


class Context:
    """Library handle, seeded input stream and expected outputs of one run."""

    def __init__(self, seed: int, scale: Scale, workdir: Path | None) -> None:
        self.oc = load_library()
        self.rng = random.Random(seed)
        self.scale = scale
        self.workdir = workdir
        self.script = cli_script(scale)
        self._expected: dict[str, object] | None = None
        self._lookup_warm = False

    # -- set-up ------------------------------------------------------------

    def warm_lookup(self) -> None:
        """Fill the shared count memo the way a library caller does: by use."""
        if self._lookup_warm:
            return
        oc = self.oc
        for job in LOOKUP_JOBS:
            for _ in range(self.scale.warmup_ops):
                data = self.rng.randbytes(self.scale.lookup_bytes)
                batch = oc.encode_payload(job.scheme, oc.bits.bits_from_bytes(data), **job.params)
                if oc.bits.bytes_from_bits(oc.decode_payload(batch)) != data:
                    raise RuntimeError(f"{job.label} warm-up round trip lost data")
        self._lookup_warm = True

    @property
    def expected(self) -> dict[str, object]:
        """Outputs the cli script's value commands must print, from in-process calls."""
        if self._expected is None:
            oc = self.oc
            exp: dict[str, object] = {
                "capacity": {
                    "q": 4, "kind": "fixed-length", "rho": 0.5, "cap": oc.cap_fixed_length(4, 0.5)
                },
            }
            for cmd, point in zip(("count-q4", "count-q16"), self.scale.count_points):
                exp[cmd] = count_oracle(*point)
            q = self.scale.cost_max_q
            best_q, rho, cost = oc.minimize_over_alphabet(oc.CostParams(*COST_PARAMS), q)
            exp["cost"] = {
                "q": best_q, "rho_opt": rho, "cost_opt": cost,
                "rho_lower": 2.0 / (q + 1), "rho_star": oc.rho_star(q),
            }
            exp["sweep-convergence"] = [
                {"q": q, "rho": rho, "cycles": c, "empirical": oc.empirical_cap(q, c, rho),
                 "cap": oc.cap_fixed_length(q, rho)}
                for q in (2, 4) for rho in RHO_GRID for c in CYCLES_LIST
            ]
            exp["sweep-cap"] = [
                {"q": q, "rho": rho, "cap": oc.cap_fixed_length(q, rho),
                 "entropy": oc.binary_entropy(rho)}
                for q in self.scale.cap_qs for rho in RHO_GRID
            ]
            self._expected = exp
        return self._expected

    # -- checks (never inside a timed region) -------------------------------

    def embeds(self, batch, tr, label: str) -> bool:
        """Every oligo fits the batch's own program: min_cycles_under <= total_cycles."""
        budget = batch.spec.total_cycles
        with tr.span(f"sequence.min_cycles_under.{label}"):
            used = [self.oc.min_cycles_under(batch.spec, o) for o in batch.oligos]
        tr.count(f"sequence.oligos.{label}", len(used))
        return all(u is not None and u <= budget for u in used)

    def efficiency(self, batch) -> float:
        """Bits per strand-cycle as a share of cap_fixed_length(q, rho)."""
        rate = batch.payload_bits / batch.spec.total_cycles
        if batch.scheme in PER_STRAND_SCHEMES:
            rate /= len(batch.oligos)
        return rate / self.oc.cap_fixed_length(batch.q, batch.rho)

    def run_python(self, args: list[str]) -> subprocess.CompletedProcess | None:
        """One cold interpreter on the checkout's src/; None when it times out."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            return subprocess.run(
                [sys.executable, *args], cwd=self.workdir, env=env, capture_output=True,
                timeout=COMMAND_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            return None

    def references(self) -> tuple[float, float]:
        """Scale factors from one bare interpreter start and the in-process reference."""
        t0 = perf_counter()
        proc = self.run_python(["-c", "pass"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError("a bare interpreter failed to start")
        return START_S / (perf_counter() - t0), speed_scale()

    # -- passes --------------------------------------------------------------

    def roundtrip_pass(self, jobs: tuple[Job, ...], nbytes: int, tr, tag: str) -> Pass:
        """One rotation: each job takes a fresh payload bytes -> JSON -> bytes."""
        oc = self.oc
        p = Pass()
        for job in jobs:
            data = self.rng.randbytes(nbytes)
            tr.op = f"{tag}/{job.label}"
            p.attempted += 1
            gc.collect()
            before = speed_scale()
            try:
                with tr.span("bench.op"):
                    t0 = perf_counter()
                    with tr.span("bits.from_bytes"):
                        bits = oc.bits.bits_from_bytes(data)
                    with tr.span(f"codec.encode.{job.label}"):
                        batch = oc.encode_payload(job.scheme, bits, **job.params)
                    with tr.span("codec.to_json"):
                        text = batch.to_json()
                    t1 = perf_counter()
                    with tr.span("codec.from_json"):
                        back = oc.EncodedBatch.from_json(text)
                    with tr.span(f"codec.decode.{job.label}"):
                        out_bits = oc.decode_payload(back)
                    with tr.span("bits.to_bytes"):
                        out = oc.bits.bytes_from_bits(out_bits)
                    t2 = perf_counter()
                    scale = (before + speed_scale()) / 2
                    ok = out == data and self.embeds(batch, tr, job.label)
            except Exception:  # a crash in the program is a failed op, not a dead run
                traceback.print_exc()
                p.failed += 1
                continue
            if not ok:
                print(f"check failed: {tag}/{job.label}", file=sys.stderr)
                p.failed += 1
                continue
            tr.count("codec.oligos", len(batch.oligos))
            tr.count("codec.program_cycles", batch.spec.total_cycles)
            tr.count("codec.json_bytes", len(text.encode()))
            p.add(f"{job.label}/encode", t1 - t0, scale)
            p.add(f"{job.label}/decode", t2 - t1, scale)
            p.payload_bytes += nbytes
            p.eff_weighted += batch.payload_bits * Fraction(self.efficiency(batch))
            p.eff_bits += batch.payload_bits
        return p

    def cli_pass(self, tr, tag: str) -> Pass:
        """One run of the cli script, each command a cold process, one at a time."""
        p = Pass()
        data = self.rng.randbytes(self.scale.cli_bytes)
        (self.workdir / "payload.bin").write_bytes(data)
        before = self.references()
        for cmd in self.script:
            tr.op = f"{tag}/{cmd.name}"
            p.attempted += 1
            t0 = perf_counter()
            with tr.span(f"cli.cmd.{cmd.name}"):
                proc = self.run_python(["-m", "oligocycle", *cmd.args])
            raw = perf_counter() - t0
            after = self.references()
            # a command is start-up plus in-process work: blend both references
            start = max(before[0], after[0])
            speed = (before[1] + after[1]) / 2
            scale = (start * speed) ** 0.5
            before = after
            try:
                ok = self._cli_ok(cmd, proc, data, p)
            except Exception:  # a malformed output is a failed op
                traceback.print_exc()
                ok = False
            if not ok:
                detail = "timeout" if proc is None else proc.stderr.decode(errors="replace")[-500:]
                print(f"check failed: {tag}/{cmd.name}: {detail}", file=sys.stderr)
                p.failed += 1
                continue
            p.add(f"{cmd.name}/{cmd.kind}", raw, scale)
            if cmd.kind == "encode":
                p.payload_bytes += len(data)
        return p

    def _cli_ok(self, cmd: Cmd, proc, data: bytes, p: Pass) -> bool:
        if proc is None or proc.returncode != 0:
            return False
        if cmd.kind == "value":
            return json.loads(proc.stdout) == self.expected[cmd.name]
        if cmd.kind == "decode":
            return (self.workdir / cmd.path).read_bytes() == data
        oc = self.oc
        batch = oc.EncodedBatch.from_json((self.workdir / cmd.path).read_text(encoding="utf-8"))
        summary = json.loads(proc.stdout)
        if summary["payload_bits"] != 8 * len(data) or batch.payload_bits != 8 * len(data):
            return False
        if not self.embeds(batch, NullTracer(), cmd.name):
            return False
        p.eff_weighted += batch.payload_bits * Fraction(self.efficiency(batch))
        p.eff_bits += batch.payload_bits
        return True

    def workload_pass(self, workload: str, tr, tag: str) -> Pass:
        if workload == "roundtrip-simple":
            return self.roundtrip_pass(SIMPLE_JOBS, self.scale.simple_bytes, tr, tag)
        if workload == "roundtrip-lookup":
            return self.roundtrip_pass(LOOKUP_JOBS, self.scale.lookup_bytes, tr, tag)
        return self.cli_pass(tr, tag)


WORKLOADS = ("roundtrip-simple", "roundtrip-lookup", "cli")


def setup(workload: str, seed: int, scale: Scale, workdir: Path | None) -> Context:
    """Everything a run does before it measures; a fresh process pays all of it."""
    ctx = Context(seed, scale, workdir)
    if workload == "roundtrip-lookup":
        ctx.warm_lookup()
    elif workload == "cli":
        ctx.expected  # noqa: B018 - computed here so the timed passes only compare
    return ctx


def measure(ctx: Context, workload: str, tr, seconds: float, tag: str) -> list[Pass]:
    """Run whole passes until the next one would end past *seconds*."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(ctx.workload_pass(workload, tr, f"{tag}/{len(passes)}"))
        last = perf_counter() - t0
        if ctx.scale.max_passes and len(passes) >= ctx.scale.max_passes:
            return passes
        if perf_counter() - start + last > seconds:
            return passes
