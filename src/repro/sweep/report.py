"""Longitudinal reporting: regression trajectories and sweep summaries.

Two render surfaces behind ``repro report``:

* :func:`render_history` — cross-commit *trajectories*.  Every
  performance PR checks in a ``BENCH_<suite>.json`` generation; pointed
  at a directory of them (or an explicit file list) this renders one
  sparkline row per ``bench.metric`` across generations, then gates the
  newest generation against the previous one.  The gate's policy is
  ``BENCHMARK.json``'s ``better`` / ``bound`` per end-to-end metric, the
  one place it is written (:func:`repro.bench.suite_gates`); a suite
  without gates renders ``n/a``, never ``pass`` — so a slow drift and a
  sharp cliff are both visible in one table.
* :func:`render_registry` — the state of one sweep: per-run status /
  attempts / headline metrics from a
  :class:`~repro.sweep.registry.RunRegistry` manifest.

Rendering is plain text (no terminal control codes) so output is
paste-able into CI logs and issue threads.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .registry import RunRegistry

__all__ = ["load_history", "render_history", "render_registry", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Unicode block sparkline; ``None`` entries render as gaps.

    A flat (or single-point) series renders at mid-height rather than
    the floor so "unchanged" does not read as "cratered".
    """
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return " " * len(values)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars: List[str] = []
    for v in values:
        if v is None or not math.isfinite(v):
            chars.append(" ")
        elif span == 0.0:
            chars.append(_BLOCKS[len(_BLOCKS) // 2])
        else:
            idx = int((v - lo) / span * (len(_BLOCKS) - 1))
            chars.append(_BLOCKS[idx])
    return "".join(chars)


def load_history(
    source: Union[str, Path, Sequence[Union[str, Path]]],
    suite: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Load bench-report generations, oldest first.

    ``source`` is a directory (every ``BENCH_*.json`` beneath it, one
    level deep) or an explicit sequence of report paths.  Ordering is by
    each report's ``created_unix`` stamp, falling back to file mtime for
    pre-stamp generations.  ``suite`` filters to one suite when a
    directory mixes several.
    """
    from ..bench import load_report

    if isinstance(source, (str, Path)):
        root = Path(source)
        if root.is_dir():
            paths = sorted(root.glob("**/BENCH_*.json"))
        else:
            paths = [root]
    else:
        paths = [Path(p) for p in source]
    generations: List[Tuple[float, Dict[str, object]]] = []
    for path in paths:
        report = load_report(path)
        if suite is not None and report.get("suite") != suite:
            continue
        stamp = report.get("created_unix")
        order = float(stamp) if stamp is not None else path.stat().st_mtime
        report["_path"] = str(path)
        generations.append((order, report))
    generations.sort(key=lambda pair: pair[0])
    return [report for _, report in generations]


def _metric_series(
    history: Sequence[Dict[str, object]],
) -> Dict[str, List[Optional[float]]]:
    """``"bench.metric"`` → one value per generation (None where absent)."""
    keys: List[str] = []
    seen = set()
    for report in history:
        for entry in report.get("results", []):
            for metric in entry.get("metrics", {}):
                key = f"{entry['bench']}.{metric}"
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    series: Dict[str, List[Optional[float]]] = {k: [] for k in keys}
    for report in history:
        by_bench = {e["bench"]: e for e in report.get("results", [])}
        for key in keys:
            bench, metric = key.rsplit(".", 1)
            entry = by_bench.get(bench)
            value = None
            if entry is not None and entry.get("ok", False):
                raw = entry.get("metrics", {}).get(metric)
                value = float(raw) if raw is not None else None
            series[key].append(value)
    return series


def _fmt(value: Optional[float]) -> str:
    if value is None or not math.isfinite(value):
        return "—"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def render_history(
    history: Sequence[Dict[str, object]],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Sparkline trajectory table + last-vs-previous gating verdict.

    ``metrics`` optionally restricts rows to ``bench.metric`` keys
    containing any of the given substrings.
    """
    if not history:
        return "no bench report generations found"
    suite = history[-1].get("suite", "?")
    shas = [str(r.get("git_sha", "?"))[:9] for r in history]
    lines = [
        f"suite: {suite}  generations: {len(history)}  "
        f"({shas[0]} → {shas[-1]})"
    ]
    series = _metric_series(history)
    if metrics:
        series = {
            k: v for k, v in series.items() if any(m in k for m in metrics)
        }
    if not series:
        lines.append("  (no metrics matched)")
        return "\n".join(lines)
    width = max(len(k) for k in series)
    header = (
        f"  {'bench.metric'.ljust(width)}  {'trend'.ljust(len(history))}"
        f"  {'first':>10}  {'last':>10}  {'Δ':>8}"
    )
    lines.append(header)
    for key, values in series.items():
        finite = [v for v in values if v is not None and math.isfinite(v)]
        first = finite[0] if finite else None
        last = finite[-1] if finite else None
        if first is not None and last is not None and first != 0:
            delta = f"{(last - first) / abs(first):+.1%}"
        elif first is not None and last is not None:
            delta = f"{last - first:+.3g}"
        else:
            delta = "—"
        lines.append(
            f"  {key.ljust(width)}  {sparkline(values)}"
            f"  {_fmt(first):>10}  {_fmt(last):>10}  {delta:>8}"
        )
    if len(history) < 2:
        lines.append("gate vs previous generation: n/a (single generation)")
        return "\n".join(lines)
    from ..bench import compare_reports, suite_gates

    gates = suite_gates(str(suite))
    if not gates:
        lines.append(f"gate vs previous generation: n/a (no gates for suite {suite})")
    else:
        violations = compare_reports(history[-1], history[-2], gates)
        if violations:
            lines.append("gate vs previous generation: FAIL")
            lines.extend(f"  - {v}" for v in violations)
        else:
            lines.append("gate vs previous generation: pass")
    return "\n".join(lines)


_HEADLINE_METRICS = ("mean_episode_reward", "steps_per_second", "env_steps")


def render_registry(registry: Union[RunRegistry, str, Path]) -> str:
    """Per-run summary table for one sweep registry."""
    if not isinstance(registry, RunRegistry):
        registry = RunRegistry.load(registry)
    records = registry.records
    if not records:
        return f"registry {registry.root}: empty"
    final = registry.final_status()
    counts: Dict[str, int] = {}
    for status in final.values():
        counts[status] = counts.get(status, 0) + 1
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    lines = [
        f"registry {registry.root}: {len(final)} runs "
        f"({summary}), {len(records)} attempts"
    ]
    # last attempt per run, manifest order
    last: Dict[str, object] = {}
    for record in records:
        last[record.run_id] = record
    width = max(len(r) for r in last)
    lines.append(
        f"  {'run'.ljust(width)}  {'status':<7}  {'att':>3}  {'secs':>8}  metrics"
    )
    for run_id, record in last.items():
        if record.status == "ok":
            shown = {
                k: record.metrics[k]
                for k in _HEADLINE_METRICS
                if k in record.metrics
            }
            detail = "  ".join(f"{k}={_fmt(v)}" for k, v in shown.items())
        else:
            detail = record.error.splitlines()[0][:60] if record.error else ""
        lines.append(
            f"  {run_id.ljust(width)}  {record.status:<7}  {record.attempt:>3}"
            f"  {record.seconds:>8.2f}  {detail}"
        )
    return "\n".join(lines)
