"""Bench report schema, the gate over it, and the exhibit runner.

One harness per question:

* *How fast is it?* — ``benchmarks/e2e`` (``run.py --bench-report``
  writes a ``BENCH_e2e.json`` generation in the schema below).
* *Does the paper's figure hold here?* — the pytest exhibits, one
  ``benchmarks/bench_*.py`` per table/figure; ``python -m repro bench``
  runs every one of them and writes ``BENCH_exhibit.json``.
* *Is it right?* — tier-1 (``pytest tests``), not this module.

What lives here is what those harnesses share: the schema-versioned
report (:func:`write_report` / :func:`load_report`), the
generation-vs-generation gate (:func:`compare_reports`, whose policy is
the caller's ``{metric: (direction, tolerance)}``; for the ``e2e`` suite
that is ``BENCHMARK.json``'s ``better`` / ``bound``, read by
:func:`suite_gates`), and the exhibit runner, whose list of exhibits is
the directory itself.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from .telemetry.records import TELEMETRY_SCHEMA_VERSION, git_sha, platform_fingerprint

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "EXHIBIT_BUDGET_SECONDS",
    "BenchResult",
    "exhibits",
    "run_exhibits",
    "write_report",
    "load_report",
    "suite_gates",
    "compare_reports",
]

BENCH_SCHEMA_VERSION = 1

#: Subprocess timeout of one exhibit file.
EXHIBIT_BUDGET_SECONDS = 600.0

_REPO_ROOT = Path(__file__).resolve().parents[2]
_BENCH_DIR = _REPO_ROOT / "benchmarks"


@dataclass
class BenchResult:
    """Measured outcome of one bench."""

    name: str
    seconds: float
    metrics: Dict[str, float]
    ok: bool = True
    error: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": self.name,
            "seconds": self.seconds,
            "ok": self.ok,
            "error": self.error,
            "metrics": dict(self.metrics),
        }


# ---------------------------------------------------------------------------
# exhibits: the directory is the list
# ---------------------------------------------------------------------------


def exhibits() -> List[Tuple[str, str, Path]]:
    """``(name, description, path)`` per ``benchmarks/bench_*.py`` on disk.

    The description is the first line of the file's docstring.
    """
    found = []
    for path in sorted(_BENCH_DIR.glob("bench_*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        found.append((path.stem[len("bench_"):], doc.partition("\n")[0], path))
    return found


def _run_exhibit(name: str, path: Path) -> BenchResult:
    """One pytest subprocess over one exhibit file."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(path), "-q", "-s", "--benchmark-quiet"],
            cwd=str(_REPO_ROOT), timeout=EXHIBIT_BUDGET_SECONDS,
            capture_output=True, text=True,
        )
        ok = proc.returncode == 0
        tail = (proc.stdout.strip() or proc.stderr.strip())[-500:]
        error = "" if ok else (tail or f"exit {proc.returncode}")
    except subprocess.TimeoutExpired:
        ok, error = False, f"timeout after {EXHIBIT_BUDGET_SECONDS:.0f}s"
    seconds = time.perf_counter() - start
    return BenchResult(
        name=name, seconds=seconds, ok=ok, error=error,
        metrics={"exit_ok": float(ok), "seconds": seconds},
    )


def run_exhibits(verbose: bool = True) -> List[BenchResult]:
    results = []
    for name, _description, path in exhibits():
        if verbose:
            print(f"[bench] {name} ...", flush=True)
        result = _run_exhibit(name, path)
        results.append(result)
        if verbose:
            status = "ok" if result.ok else f"FAIL ({result.error})"
            print(f"[bench]   {status} in {result.seconds:.2f}s", flush=True)
    return results


# ---------------------------------------------------------------------------
# reports + generation-vs-generation gating
# ---------------------------------------------------------------------------


def write_report(suite: str, results: List[BenchResult], path: Path) -> Dict[str, object]:
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "suite": suite,
        "git_sha": git_sha(),
        "platform": platform_fingerprint(),
        # generation ordering key for `repro report --history`
        "created_unix": time.time(),
        "results": [r.to_dict() for r in results],
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def load_report(path: Path) -> Dict[str, object]:
    report = json.loads(Path(path).read_text())
    version = report.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench report schema {version!r} != supported {BENCH_SCHEMA_VERSION}"
        )
    return report


def suite_gates(suite: str) -> Dict[str, Tuple[str, float]]:
    """The gate policy of a report suite; empty when the suite has none.

    Only ``e2e`` has one, and it is written in one place: the
    ``end_to_end`` list of the repo's ``BENCHMARK.json`` (``better`` is
    the direction, ``bound`` the tolerated relative regression).
    """
    declared = _REPO_ROOT / "BENCHMARK.json"
    if suite != "e2e" or not declared.is_file():
        return {}
    return {
        metric["name"]: (metric["better"], float(metric["bound"]))
        for metric in json.loads(declared.read_text())["end_to_end"]
    }


def _regressed(direction: str, tolerance: float, current: float, baseline: float) -> bool:
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be higher|lower, got {direction!r}")
    if direction == "higher":
        return current < baseline * (1.0 - tolerance)
    return current > baseline * (1.0 + tolerance)


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    gates: Mapping[str, Tuple[str, float]],
) -> List[str]:
    """Violations of ``gates`` against the baseline; empty list = pass.

    ``gates`` is ``{metric: (direction, tolerance)}``: which way is
    better (``higher`` / ``lower``) and the allowed relative regression
    (0.0 = exact); metrics it does not name never gate.  A bench present
    in the baseline but missing (or failed) in the current report is a
    violation too — a bench silently dropping out must not read as a
    pass.
    """
    violations: List[str] = []
    current_by_name = {r["bench"]: r for r in current.get("results", [])}
    for entry in baseline.get("results", []):
        name = entry["bench"]
        run = current_by_name.get(name)
        if run is None:
            violations.append(f"{name}: missing from current run")
            continue
        if not run.get("ok", False):
            violations.append(f"{name}: failed ({run.get('error', 'unknown error')})")
            continue
        for metric, (direction, tolerance) in gates.items():
            if metric not in entry["metrics"]:
                continue
            base_value = float(entry["metrics"][metric])
            if metric not in run["metrics"]:
                violations.append(f"{name}.{metric}: missing from current run")
                continue
            value = float(run["metrics"][metric])
            if _regressed(direction, tolerance, value, base_value):
                violations.append(
                    f"{name}.{metric}: {value:.4f} regressed vs baseline "
                    f"{base_value:.4f} ({direction} is better, "
                    f"tolerance {tolerance:.0%})"
                )
    return violations
