"""Layer trace taken from outside the program.

The benchmark wraps the public callables on the *live objects* (the
vector env, the agents, the trainer, its sampler and its replay) with
span recorders and then calls the program's real step driver; nothing
under ``src/`` knows it is being traced.  Spans stay in memory and are
reduced to the per-layer metrics when the pass ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = "training.window"

#: (span name, owners of the callable given (vec_env, trainer), attribute,
#: what to note from the call's result)
WRAPPED = (
    ("envs.step", lambda env, tr: [env], "step", None),
    ("algos.act", lambda env, tr: list(tr.agents), "act", None),
    ("buffers.ingest", lambda env, tr: [tr.replay], "ingest", float),  # rows written
    ("algos.update", lambda env, tr: [tr], "update", lambda losses: float(losses is not None)),
    ("core.samplers.sample", lambda env, tr: [tr.sampler], "sample", None),
    ("core.samplers.update_priorities", lambda env, tr: [tr.sampler], "update_priorities", None),
    ("buffers.gather", lambda env, tr: [tr.replay], "gather", None),
)

#: per-layer metric name -> (unit, better); the single declaration the
#: output, BENCHMARK.json and the README table are checked against
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "training.window_self_share": ("fraction", "lower"),
    "training.windows": ("count", "higher"),
    "envs.step_share": ("fraction", "lower"),
    "envs.step_ms_p50": ("ms", "lower"),
    "envs.step_ms_per_copy": ("ms", "lower"),
    "envs.step_calls": ("count", "lower"),
    "algos.act_share": ("fraction", "lower"),
    "algos.act_ms_p50": ("ms", "lower"),
    "algos.act_calls": ("count", "lower"),
    "algos.update_share": ("fraction", "lower"),
    "algos.update_self_share": ("fraction", "lower"),
    "algos.update_ms_p50": ("ms", "lower"),
    "algos.update_ms_p90": ("ms", "lower"),
    "algos.update_rounds": ("count", "higher"),
    "algos.update_target_q_share": ("fraction", "lower"),
    "algos.update_loss_share": ("fraction", "lower"),
    "core.samplers.sample_share": ("fraction", "lower"),
    "core.samplers.sample_self_share": ("fraction", "lower"),
    "core.samplers.sample_ms_p50": ("ms", "lower"),
    "core.samplers.sample_calls": ("count", "lower"),
    "core.samplers.update_priorities_share": ("fraction", "lower"),
    "core.samplers.update_priorities_ms_p50": ("ms", "lower"),
    "buffers.gather_share": ("fraction", "lower"),
    "buffers.gather_ms_p50": ("ms", "lower"),
    "buffers.gather_calls": ("count", "lower"),
    "buffers.ingest_share": ("fraction", "lower"),
    "buffers.ingest_ms_p50": ("ms", "lower"),
    "buffers.ingest_rows": ("count", "higher"),
    "buffers.prefill_rows_per_s": ("rows/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Span:
    """One timed call: name, start, end, the span that caused it, a note."""

    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, end: float, parent: int, note: float = 0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list plus the wrappers that feed it (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable[[Any], float]] = None):
        """``fn`` recorded as a ``name`` span on every call."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def install(self, vec_env, trainer) -> None:
        """Shadow every :data:`WRAPPED` attribute with its recording twin.

        An attribute that no longer exists is listed in ``missing`` (its
        layer metrics become ``None``); it never stops the run.
        """
        for name, owners_of, attr, note in WRAPPED:
            try:
                owners = owners_of(vec_env, trainer)
                fns = [getattr(owner, attr) for owner in owners]
            except (AttributeError, TypeError):
                self.missing.append(name)
                continue
            for owner, fn in zip(owners, fns):
                setattr(owner, attr, self.wrap(name, fn, note))
                self._installed.append((owner, attr))

    def uninstall(self) -> None:
        """Drop the instance attributes so the class methods show again."""
        for owner, attr in self._installed:
            delattr(owner, attr)
        self._installed.clear()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    spans: Sequence[Span],
    missing: Sequence[str],
    *,
    copies: int,
    timer_delta: Optional[Dict[str, float]],
    prefill_rows_per_s: float,
) -> Dict[str, Optional[float]]:
    """Reduce one pass's spans to the per-layer metrics.

    Shares are of the total ``training.window`` wall.  Metrics of a
    layer whose wrapped attribute was missing are ``None``.
    ``trace.overhead_ratio`` needs the untraced windows too and is
    filled in by the caller.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    wall = sum(spans[i].duration for i in by_name.get(ROOT, []))
    if wall <= 0.0:
        raise ValueError("no training.window span was recorded")

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, []))

    def ms(name: str, q: float = 0.5, only_noted: bool = False) -> Optional[float]:
        durations = [
            spans[i].duration * 1e3
            for i in by_name.get(name, [])
            if not only_noted or spans[i].note
        ]
        if not durations:
            return None
        return statistics.median(durations) if q == 0.5 else _percentile(durations, q)

    def calls(name: str) -> float:
        return float(len(by_name.get(name, [])))

    def noted(name: str) -> float:
        return float(sum(spans[i].note for i in by_name.get(name, [])))

    step_p50 = ms("envs.step")
    m: Dict[str, Optional[float]] = {
        "training.window_self_share": self_total(ROOT) / wall,
        "training.windows": calls(ROOT),
        "envs.step_share": total("envs.step") / wall,
        "envs.step_ms_p50": step_p50,
        "envs.step_ms_per_copy": None if step_p50 is None else step_p50 / copies,
        "envs.step_calls": calls("envs.step"),
        "algos.act_share": total("algos.act") / wall,
        "algos.act_ms_p50": ms("algos.act"),
        "algos.act_calls": calls("algos.act"),
        "algos.update_share": total("algos.update") / wall,
        "algos.update_self_share": self_total("algos.update") / wall,
        "algos.update_ms_p50": ms("algos.update", only_noted=True),
        "algos.update_ms_p90": ms("algos.update", 0.9, only_noted=True),
        "algos.update_rounds": noted("algos.update"),
        "core.samplers.sample_share": total("core.samplers.sample") / wall,
        "core.samplers.sample_self_share": self_total("core.samplers.sample") / wall,
        "core.samplers.sample_ms_p50": ms("core.samplers.sample"),
        "core.samplers.sample_calls": calls("core.samplers.sample"),
        "core.samplers.update_priorities_share": total("core.samplers.update_priorities") / wall,
        "core.samplers.update_priorities_ms_p50": ms("core.samplers.update_priorities"),
        "buffers.gather_share": total("buffers.gather") / wall,
        "buffers.gather_ms_p50": ms("buffers.gather"),
        "buffers.gather_calls": calls("buffers.gather"),
        "buffers.ingest_share": total("buffers.ingest") / wall,
        "buffers.ingest_ms_p50": ms("buffers.ingest"),
        "buffers.ingest_rows": noted("buffers.ingest"),
        "buffers.prefill_rows_per_s": prefill_rows_per_s,
        "trace.overhead_ratio": None,
    }
    for name in missing:
        for key in m:
            if key.startswith(name + "_"):
                m[key] = None
    # the program's own split of the round, as shares of the same wall
    for key, phase in (
        ("algos.update_target_q_share", "update_all_trainers.target_q"),
        ("algos.update_loss_share", "update_all_trainers.loss_update"),
    ):
        m[key] = None if timer_delta is None else timer_delta.get(phase, 0.0) / wall
    return m
