"""Hierarchical phase timers for workload characterization.

The paper's characterization (Figures 2, 3, 6) splits end-to-end training
time into named phases and sub-phases.  :class:`PhaseTimer` accumulates
wall-clock time per dotted phase name (``update_all_trainers.sampling``),
supporting nesting via context managers and cheap enough to leave
enabled in production training loops.

The timer is **thread-safe**: each thread carries its own nesting stack
(so phases opened on the serving tier's flusher thread nest
independently of the caller's), and completed durations merge into the
shared totals under a lock, without cross-thread corruption of either
the stacks or the accumulators.

The timer doubles as the **span adapter** of the telemetry subsystem:
after :meth:`PhaseTimer.attach_telemetry`, every completed phase emits a
:class:`~repro.telemetry.records.SpanEvent` (dotted name, duration,
thread) and every externally measured duration fed through :meth:`add`
— ``env_step.worker_wait``, ``serve.shed`` — emits a
:class:`~repro.telemetry.records.CounterSample` into the attached
recorder.  With no recorder (or a disabled one) the adapter costs a
single attribute check per phase.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["PhaseTimer"]


class _SampleRing:
    """Fixed-capacity ring of recent durations (percentile window).

    Keeps the last ``capacity`` samples of a phase: recording is O(1)
    and memory is bounded no matter how many million requests a serving
    run times, at the cost of percentiles describing the trailing
    window rather than the whole run (document: the window is large
    enough that steady-state p50/p99 converge).
    """

    __slots__ = ("data", "idx", "full")

    def __init__(self, capacity: int) -> None:
        self.data: List[float] = [0.0] * capacity
        self.idx = 0
        self.full = False

    def record(self, value: float) -> None:
        data = self.data
        data[self.idx] = value
        self.idx += 1
        if self.idx == len(data):
            self.idx = 0
            self.full = True

    def values(self) -> List[float]:
        if self.full:
            return list(self.data)
        return self.data[: self.idx]

    def extend(self, values: List[float]) -> None:
        for v in values:
            self.record(v)


class PhaseTimer:
    """Accumulating wall-clock timer keyed by dotted phase names.

    ``sample_window`` bounds the per-phase duration reservoir backing
    :meth:`percentile` / :meth:`summary`: the most recent N durations
    per dotted key are retained (defaults to 4096 — at serving rates
    that is seconds of steady state, plenty for stable p50/p99).
    """

    #: retained duration samples per phase (see class docstring)
    DEFAULT_SAMPLE_WINDOW = 4096

    def __init__(self, sample_window: int = DEFAULT_SAMPLE_WINDOW) -> None:
        if sample_window <= 0:
            raise ValueError(f"sample_window must be positive, got {sample_window}")
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._samples: Dict[str, _SampleRing] = {}
        self._sample_window = sample_window
        # per-thread nesting stacks; totals/counts are shared and locked
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active = 0  # phases currently open across all threads
        self._telemetry = None  # Optional[TelemetryRecorder], span adapter

    def attach_telemetry(self, recorder) -> None:
        """Mirror completed phases/adds into a telemetry recorder.

        ``recorder`` is a :class:`~repro.telemetry.TelemetryRecorder`
        (or ``None`` to detach).  Disabled recorders are dropped here so
        the hot path pays exactly one ``is None`` check per phase.
        """
        if recorder is not None and not recorder.enabled:
            recorder = None
        self._telemetry = recorder

    def _stack(self) -> List[str]:
        """This thread's private nesting stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block under ``name``, nested inside any active phases.

        Nested phases produce dotted keys: entering ``sampling`` while
        ``update_all_trainers`` is active accumulates under
        ``update_all_trainers.sampling``.  Nesting is per-thread: a phase
        opened on a background thread starts its own root.
        """
        if not name or "." in name:
            raise ValueError(
                f"phase names must be non-empty and dot-free, got {name!r}"
            )
        stack = self._stack()
        full = ".".join([*stack, name])
        stack.append(name)
        with self._lock:
            self._active += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self._active -= 1
                self._totals[full] = self._totals.get(full, 0.0) + elapsed
                self._counts[full] = self._counts.get(full, 0) + 1
                self._record_sample(full, elapsed)
            if self._telemetry is not None:
                self._telemetry.span_event(
                    full, elapsed, thread=threading.current_thread().name
                )

    def _record_sample(self, name: str, value: float) -> None:
        """Retain one duration for percentiles; caller holds the lock."""
        ring = self._samples.get(name)
        if ring is None:
            ring = _SampleRing(self._sample_window)
            self._samples[name] = ring
        ring.record(value)

    # -- direct accumulation (for costs measured elsewhere) -----------------

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate an externally measured duration under ``name``.

        A ``count == 1`` add records one percentile sample; aggregate
        adds (``count > 1``, e.g. a merged total) only accumulate, so a
        fold-in cannot masquerade as a single giant duration.
        """
        if seconds < 0:
            raise ValueError(f"cannot add negative time: {seconds}")
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + count
            if count == 1:
                self._record_sample(name, seconds)
        if self._telemetry is not None:
            self._telemetry.counter(name, seconds, unit="s")

    def add_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Like :meth:`add`, but mirrors into telemetry as a *span*.

        For externally timed regions that are semantically spans (the
        serving tier measures ``serve.queue_wait`` per request and
        ``serve.batch_forward`` per flush with explicit clock reads to
        keep the flusher loop flat) rather than event counters.
        """
        if seconds < 0:
            raise ValueError(f"cannot add negative time: {seconds}")
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + count
            if count == 1:
                self._record_sample(name, seconds)
        if self._telemetry is not None:
            self._telemetry.span_event(
                name, seconds, thread=threading.current_thread().name
            )

    # -- queries ----------------------------------------------------------

    def total(self, name: str) -> float:
        """Accumulated seconds for a phase (0.0 if never entered)."""
        with self._lock:
            return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def mean(self, name: str) -> float:
        with self._lock:
            c = self._counts.get(name, 0)
            return self._totals.get(name, 0.0) / c if c else 0.0

    def phases(self) -> List[str]:
        """All recorded phase keys, sorted."""
        with self._lock:
            return sorted(self._totals)

    def children(self, parent: str) -> List[str]:
        """Direct sub-phases of ``parent``."""
        prefix = parent + "."
        out = []
        with self._lock:
            keys = list(self._totals)
        for key in keys:
            if key.startswith(prefix) and "." not in key[len(prefix):]:
                out.append(key)
        return sorted(out)

    def totals(self) -> Dict[str, float]:
        """Copy of all accumulated totals."""
        with self._lock:
            return dict(self._totals)

    def percentile(self, name: str, q: float) -> float:
        """The q-th percentile (0..100) of ``name``'s retained durations.

        Computed over the trailing sample window (see ``sample_window``);
        returns 0.0 for phases never recorded.  Linear interpolation
        between closest ranks, matching ``np.percentile``'s default.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            ring = self._samples.get(name)
            values = ring.values() if ring is not None else []
        if not values:
            return 0.0
        values.sort()
        if len(values) == 1:
            return values[0]
        rank = q / 100.0 * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def sample_count(self, name: str) -> int:
        """Durations currently retained for ``name`` (<= sample_window)."""
        with self._lock:
            ring = self._samples.get(name)
            return len(ring.values()) if ring is not None else 0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals plus distribution: total/count/mean/p50/p99.

        The percentiles come from the trailing sample window; totals and
        counts cover the whole run.  This is the one-call surface the
        serving report and the phase breakdowns print from.
        """
        with self._lock:
            keys = sorted(self._totals)
        out: Dict[str, Dict[str, float]] = {}
        for key in keys:
            out[key] = {
                "total": self.total(key),
                "count": float(self.count(key)),
                "mean": self.mean(key),
                "p50": self.percentile(key, 50.0),
                "p99": self.percentile(key, 99.0),
            }
        return out

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulations (and samples) into this one."""
        with other._lock:
            items = [
                (key, value, other._counts.get(key, 1))
                for key, value in other._totals.items()
            ]
            samples = {key: ring.values() for key, ring in other._samples.items()}
        with self._lock:
            for key, value, count in items:
                self._totals[key] = self._totals.get(key, 0.0) + value
                self._counts[key] = self._counts.get(key, 0) + count
            for key, values in samples.items():
                ring = self._samples.get(key)
                if ring is None:
                    ring = _SampleRing(self._sample_window)
                    self._samples[key] = ring
                ring.extend(values)
        if self._telemetry is not None:
            for key, value, _count in items:
                self._telemetry.counter(key, value, unit="s")

    def reset(self) -> None:
        with self._lock:
            if self._active:
                raise RuntimeError("cannot reset while phases are active")
            self._totals.clear()
            self._counts.clear()
            self._samples.clear()

    # -- rendering -----------------------------------------------------------

    def render_tree(self, total: Optional[float] = None) -> str:
        """Indented profile tree with per-phase seconds, %, and call counts.

        ``total`` sets the 100% reference (defaults to the sum of
        top-level phases).  Children are shown under their parents with
        an ``(unaccounted)`` line when a parent's own time exceeds its
        children's sum.
        """
        with self._lock:
            totals = dict(self._totals)
            counts = dict(self._counts)
        roots = sorted(k for k in totals if "." not in k)
        if not roots:
            return "(no phases recorded)"
        reference = total if total is not None else sum(totals[r] for r in roots)
        if reference <= 0:
            raise ValueError("reference total must be positive")
        lines: List[str] = []

        def children_of(parent: str) -> List[str]:
            prefix = parent + "."
            return sorted(
                k for k in totals
                if k.startswith(prefix) and "." not in k[len(prefix):]
            )

        def emit(key: str, depth: int) -> None:
            seconds = totals[key]
            name = key.rsplit(".", 1)[-1]
            lines.append(
                f"{'  ' * depth}{name:<24} {seconds * 1e3:10.2f}ms "
                f"{seconds / reference * 100:6.1f}%  x{counts.get(key, 0)}"
            )
            children = children_of(key)
            child_sum = sum(totals[c] for c in children)
            for child in children:
                emit(child, depth + 1)
            if children and seconds - child_sum > 1e-9:
                rest = seconds - child_sum
                lines.append(
                    f"{'  ' * (depth + 1)}{'(unaccounted)':<24} "
                    f"{rest * 1e3:10.2f}ms {rest / reference * 100:6.1f}%"
                )

        for root in roots:
            emit(root, 0)
        return "\n".join(lines)
