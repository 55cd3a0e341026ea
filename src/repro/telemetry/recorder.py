"""The telemetry recorder: one emission point for spans/counters/series.

A :class:`TelemetryRecorder` wraps a sink and exposes the four record
types as cheap methods.  The central design constraint is the disabled
path: training loops call :meth:`span` and :meth:`counter` on every
round, so when no sink is attached (or a :class:`NullSink` is) every
method returns after a single attribute check and :meth:`span` hands
back one shared reusable null context — no allocation, no record
construction, no clock read.  That is what lets instrumentation stay
permanently wired through the hot paths.

``NULL_RECORDER`` is the module-wide disabled instance components
default to; pass a real recorder (``TelemetryRecorder(JSONLSink(path))``)
to turn the stream on.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, Mapping, Optional

from .records import CounterSample, RunManifest, SeriesPoint, SpanEvent
from .sinks import MemorySink, JSONLSink, NullSink, Sink

__all__ = ["TelemetryRecorder", "NULL_RECORDER", "jsonl_recorder", "memory_recorder"]


class _NullContext:
    """Reusable, allocation-free context manager for disabled spans."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Times one region and emits a SpanEvent on exit."""

    __slots__ = ("_recorder", "_name", "_start_unix", "_start")

    def __init__(self, recorder: "TelemetryRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._start_unix = time.time()
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        self._recorder.emit(
            SpanEvent(
                name=self._name,
                seconds=elapsed,
                start_unix=self._start_unix,
                thread=threading.current_thread().name,
            )
        )
        return False


class TelemetryRecorder:
    """Emission facade over a sink; disabled unless given a real one.

    Parameters
    ----------
    sink:
        Destination for records.  ``None`` or a :class:`NullSink`
        disables the recorder entirely — ``enabled`` is False and every
        method short-circuits.
    """

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self.enabled: bool = not isinstance(self.sink, NullSink)
        #: Default config-field provenance stamped into manifests (set by
        #: callers that resolved their config through
        #: :func:`repro.configio.resolve_config`).
        self.provenance: dict = {}

    # -- raw emission --------------------------------------------------------

    def emit(self, record) -> None:
        if self.enabled:
            self.sink.emit(record)

    # -- record helpers ------------------------------------------------------

    def manifest(
        self,
        seed: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        label: str = "",
        provenance: Optional[Mapping[str, str]] = None,
    ) -> Optional[RunManifest]:
        """Capture and emit the run header; returns it (None if disabled).

        ``provenance`` defaults to the recorder's own :attr:`provenance`
        mapping, so CLI/API entry points can stamp the resolved config
        chain once and have every manifest carry it.
        """
        if not self.enabled:
            return None
        record = RunManifest.capture(
            seed=seed,
            config=config,
            label=label,
            provenance=provenance if provenance is not None else self.provenance,
        )
        self.sink.emit(record)
        return record

    def span(self, name: str):
        """Context manager timing ``name``; free when disabled."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name)

    def span_event(self, name: str, seconds: float, thread: str = "main") -> None:
        """Emit a span measured elsewhere (PhaseTimer adapter path)."""
        if self.enabled:
            self.sink.emit(
                SpanEvent(
                    name=name, seconds=seconds, start_unix=time.time(), thread=thread
                )
            )

    def counter(self, name: str, value: float, unit: str = "") -> None:
        if self.enabled:
            self.sink.emit(
                CounterSample(name=name, value=float(value), unit=unit, at_unix=time.time())
            )

    def series(self, series: str, step: int, value: float) -> None:
        if self.enabled:
            self.sink.emit(SeriesPoint(series=series, step=int(step), value=float(value)))

    def counters_from(self, totals: Mapping[str, float], unit: str = "s") -> None:
        """Emit one CounterSample per entry of a totals mapping."""
        if not self.enabled:
            return
        for name, value in totals.items():
            self.counter(name, value, unit=unit)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled recorder; components default to this.
NULL_RECORDER = TelemetryRecorder()


def jsonl_recorder(path: str) -> TelemetryRecorder:
    """Recorder streaming to a JSONL file at ``path``."""
    return TelemetryRecorder(JSONLSink(path))


def memory_recorder() -> TelemetryRecorder:
    """Recorder over a fresh :class:`MemorySink` (tests, harness)."""
    return TelemetryRecorder(MemorySink())
