"""In-memory span and counter recorder for the traced benchmark run.

A span is one timed call into a layer of the program, made from the
benchmark's own code: its name starts with the layer ("codec.encode.base"
belongs to layer "codec"). Spans keep their parent and the op they belong
to, stay in memory while the run measures, and are written out once at exit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int | None, op: str | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; one instance per traced section."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, perf_counter(), parent, self.op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str, op_prefix: str = "") -> list[float]:
        """Durations in seconds of the spans called *name* within matching ops."""
        return [
            s.seconds for s in self.spans if s.name == name and (s.op or "").startswith(op_prefix)
        ]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, inner in zip(self.spans, covered):
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - inner
        return out

    def to_doc(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


class NullTracer:
    """Stand-in used with tracing off: spans and counts cost one call each."""

    op: str | None = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def write_trace(path: Path, sections: dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {name: tracer.to_doc() for name, tracer in sections.items()}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
