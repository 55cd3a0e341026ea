"""Pluggable telemetry sinks: where typed records land.

Three implementations cover the repo's needs:

* :class:`NullSink` — drops everything; the default.  Selecting it keeps
  the telemetry layer effectively free (the recorder short-circuits
  before records are even constructed).
* :class:`MemorySink` — accumulates records in a list; what tests and
  in-process consumers (the bench harness) read back.
* :class:`JSONLSink` — appends one JSON object per record to a file, the
  machine-readable trace ``BENCH_*.json`` baselines and offline analysis
  parse via :func:`~repro.telemetry.records.read_jsonl`.

Sinks are thread-safe where it matters: the serving tier's flusher
emits from a background thread, so the two stateful sinks serialize
writes under a lock.
"""

from __future__ import annotations

import json
import threading
from typing import IO, List, Optional

from .records import Record

__all__ = ["Sink", "NullSink", "MemorySink", "JSONLSink"]


class Sink:
    """Interface: accept typed records, flush/close on demand."""

    def emit(self, record: Record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are an error (JSONL) or no-op."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(Sink):
    """Discards every record (the disabled-telemetry default)."""

    def emit(self, record: Record) -> None:  # pragma: no cover - never called
        pass


class MemorySink(Sink):
    """Accumulates records in memory for tests and in-process consumers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Record] = []

    def emit(self, record: Record) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> List[Record]:
        """Snapshot copy of everything emitted so far."""
        with self._lock:
            return list(self._records)

    def of_kind(self, kind: str) -> List[Record]:
        """Emitted records with the given ``kind`` tag, in order."""
        with self._lock:
            return [r for r in self._records if r.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


class JSONLSink(Sink):
    """Appends records to ``path`` as JSON Lines, one object per record."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def emit(self, record: Record) -> None:
        with self._lock:
            if self._file is None:
                raise ValueError(f"JSONL sink {self.path} is closed")
            json.dump(record.to_dict(), self._file, separators=(",", ":"))
            self._file.write("\n")

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
