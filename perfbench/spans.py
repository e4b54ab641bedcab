"""In-memory spans recorded by the benchmark around calls into each layer."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """Spans with a name, start, end, parent and job id, kept in memory.

    Times are ``perf_counter`` seconds relative to the recorder's creation.
    :meth:`write` dumps them once, when the run ends.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        record = {
            "id": len(self.records),
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._t0

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span with this name, in start order."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unit": "s", "spans": self.records}))
