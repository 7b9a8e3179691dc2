"""In-memory span recorder used by the traced run.

The benchmark records spans around its own calls into each layer's
public functions; nothing inside ``src/`` is instrumented.  Spans are
kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: ``name`` is the layer metric prefix (``core.hnn``)."""

    name: str
    op: str
    start: float
    end: float = 0.0
    parent: int | None = None
    index: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``span()`` nests through a per-recorder stack.

    Only one thread records spans (the benchmark's main thread), so the
    stack needs no lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, op=op, start=time.perf_counter(), parent=parent,
                 index=len(self.spans))
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(s.index)
        self._stack.append(s.index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_time(self, s: Span) -> float:
        """Duration minus the part covered by direct children."""
        covered = sum(self.spans[c].duration for c in s.children)
        return max(0.0, s.duration - covered)

    def descendant_self_time(self, s: Span) -> float:
        """Σ self time of every span below ``s``: the time its layers took."""
        total = 0.0
        for c in s.children:
            child = self.spans[c]
            total += self.self_time(child) + self.descendant_self_time(child)
        return total

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + self.self_time(s)
        return out

    def write(self, path: str) -> None:
        doc = {
            "spans": [
                {"name": s.name, "op": s.op, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": self.self_time(s)}
                for s in self.spans
            ],
            "self_s_by_layer": self.self_by_layer(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
