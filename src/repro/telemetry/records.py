"""Typed telemetry records — the structured performance vocabulary.

Every measurement this repo produces flows through four record types,
mirroring how the paper's exhibits are built:

* :class:`RunManifest` — one per run: schema version, git SHA, platform
  fingerprint, seed, and the configuration snapshot that makes a
  measurement reproducible (Figures 2-14 are meaningless without the
  testbed description of §V).
* :class:`SpanEvent` — one timed region: a :class:`PhaseTimer` phase
  (``update_all_trainers.sampling``) with its wall-clock duration and
  the thread it ran on.
* :class:`CounterSample` — one accumulated count/quantity observation:
  ``env_step.worker_wait`` seconds, ``serve.shed`` drops, cache-model
  miss counts.
* :class:`SeriesPoint` — one (step, value) point of a named series:
  reward curves, steps/sec over time.

Records are frozen dataclasses with a stable ``kind`` tag; ``to_dict``
/ :func:`record_from_dict` round-trip them losslessly through JSON, and
:func:`read_jsonl` parses a sink file back into typed records.  The
on-disk schema is versioned (:data:`TELEMETRY_SCHEMA_VERSION`) so future
consumers can detect incompatible files instead of misparsing them.
"""

from __future__ import annotations

import dataclasses
import json
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "RunManifest",
    "SpanEvent",
    "CounterSample",
    "SeriesPoint",
    "Record",
    "record_from_dict",
    "read_jsonl",
    "git_sha",
    "platform_fingerprint",
]

#: Version of the on-disk record schema; bump on incompatible change.
TELEMETRY_SCHEMA_VERSION = 1


def git_sha(cwd: Optional[str] = None) -> str:
    """Current git commit SHA, or ``"unknown"`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def platform_fingerprint() -> Dict[str, str]:
    """Host description pinned into every manifest (paper §V testbed)."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "release": _platform.release(),
        "machine": _platform.machine(),
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header: who/where/how a measurement was taken."""

    kind = "manifest"

    git_sha: str
    platform: Dict[str, str]
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    created_unix: float = 0.0
    #: Config-field provenance from :func:`repro.configio.resolve_config`
    #: (field name → ``"cli" | "env:REPRO_X" | "file:<path>" | "default"``).
    #: Defaults empty so pre-provenance manifests round-trip unchanged.
    provenance: Dict[str, str] = field(default_factory=dict)
    schema_version: int = TELEMETRY_SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        seed: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        label: str = "",
        provenance: Optional[Mapping[str, str]] = None,
    ) -> "RunManifest":
        """Snapshot the current commit, host, and configuration.

        ``config`` accepts a plain mapping or a dataclass (``MARLConfig``
        serializes via ``dataclasses.asdict``); ``provenance`` is the
        resolved per-field source mapping.
        """
        if config is not None and dataclasses.is_dataclass(config):
            config = dataclasses.asdict(config)
        return cls(
            git_sha=git_sha(),
            platform=platform_fingerprint(),
            seed=seed,
            config=dict(config) if config is not None else {},
            label=label,
            created_unix=time.time(),
            provenance=dict(provenance) if provenance is not None else {},
        )

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class SpanEvent:
    """One timed region: dotted phase name, duration, start, thread."""

    kind = "span"

    name: str
    seconds: float
    start_unix: float = 0.0
    thread: str = "main"

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class CounterSample:
    """One observation of a named counter (count, seconds, bytes ...)."""

    kind = "counter"

    name: str
    value: float
    unit: str = ""
    at_unix: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class SeriesPoint:
    """One (step, value) point of a named longitudinal series."""

    kind = "series"

    series: str
    step: int
    value: float

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["kind"] = self.kind
        return d


Record = Union[RunManifest, SpanEvent, CounterSample, SeriesPoint]

_KINDS = {
    RunManifest.kind: RunManifest,
    SpanEvent.kind: SpanEvent,
    CounterSample.kind: CounterSample,
    SeriesPoint.kind: SeriesPoint,
}


def record_from_dict(data: Mapping[str, Any]) -> Record:
    """Inverse of ``to_dict``: rebuild the typed record from JSON data."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown telemetry record kind {kind!r}")
    # keys a later commit retired (an old manifest's ``backend``) are dropped
    known = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in known})


def read_jsonl(path: str) -> List[Record]:
    """Parse a JSONL sink file back into typed records.

    Raises ``ValueError`` on a record kind this schema version does not
    know, and on a manifest written by an incompatible future schema.
    """
    records: List[Record] = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from None
            record = record_from_dict(data)
            if (
                isinstance(record, RunManifest)
                and record.schema_version > TELEMETRY_SCHEMA_VERSION
            ):
                raise ValueError(
                    f"{path}:{line_no}: manifest schema v{record.schema_version} "
                    f"is newer than supported v{TELEMETRY_SCHEMA_VERSION}"
                )
            records.append(record)
    return records


def iter_jsonl(path: str) -> Iterator[Record]:
    """Streaming variant of :func:`read_jsonl`."""
    yield from read_jsonl(path)
