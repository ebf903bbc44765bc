"""In-memory spans recorded around calls into the library's modules.

A span has a name, a start and an end on ``time.perf_counter``, the index
of the span that encloses it, and a trial id that every span of one trial
shares. Spans stay in memory until the run ends and ``write`` saves them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[tuple[int, str]] = []  # (index, trial) of open spans

    @contextmanager
    def span(self, name: str, trial: str | None = None):
        """Record one span; ``trial`` defaults to the enclosing span's."""
        parent, parent_trial = self._open[-1] if self._open else (None, "")
        if trial is None:
            trial = parent_trial
        index = len(self.spans)
        self.spans.append(None)  # filled in on exit, so parents precede children
        self._open.append((index, trial))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, trial)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        The benchmark runs one call at a time, so children never overlap and
        their durations add up.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s, own in zip(self.spans, self.self_times()):
                record = {
                    "name": s.name,
                    "trial": s.trial,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "self": own,
                }
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """Records nothing; used for the untraced runs."""

    def span(self, name: str, trial: str | None = None):
        return nullcontext()
