"""In-memory wall-clock spans around the benchmark's calls into the program.

A span records a name, its start and end on ``time.perf_counter``, the
index of its parent span and optional attributes.  Spans stay in memory
until :meth:`Spans.dump` writes them out at the end of a traced run; an
untraced run uses :data:`OFF`, whose ``span`` is a shared no-op context.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Spans:
    """A span recorder with a parent stack."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict for late additions."""
        index = len(self.records)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [r for r in self.records if r["name"] == name]

    def total_s(self, name: str, **match) -> float:
        """Summed duration of the spans called ``name`` whose attributes
        contain every ``match`` item."""
        return sum(
            r["end"] - r["start"] for r in self.named(name)
            if all(r["attrs"].get(k) == v for k, v in match.items())
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records, indent=0, default=str))


class _Off:
    """The untraced recorder: every span is the same no-op context."""

    _null = nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


OFF = _Off()
