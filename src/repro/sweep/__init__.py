"""Fleet-scale sweep orchestration on the telemetry spine.

The paper's characterization becomes actionable when many
(scenario × algorithm × N × config) cells run as *one* experiment:

* :class:`SweepSpec` / :class:`RunSpec` — declarative grid/list
  expansion over workload and :class:`~repro.algos.config.MARLConfig`
  fields, with stable per-cell seed derivation and resource hints
  (``spec``);
* :class:`SweepRunner` — elastic bounded-process-pool execution with
  per-run timeouts, bounded retries, and partial-failure isolation
  (``runner``);
* :class:`RunRegistry` — one append-only registry directory collecting
  every run's spec, result, telemetry, and failure records behind a
  ``manifest.jsonl`` index that rebuilds losslessly from disk
  (``registry``);
* :mod:`~repro.sweep.report` — longitudinal perf trajectories rendered
  from accumulated ``BENCH_<suite>.json`` generations and sweep
  registries (sparkline tables, newest generation gated on
  ``BENCHMARK.json``'s bounds).

``repro sweep`` / ``repro report`` are the CLI frontends;
:func:`repro.api.sweep` / :func:`repro.api.report` the programmatic
ones.
"""

from .registry import RunRecord, RunRegistry
from .report import load_history, render_history, render_registry, sparkline
from .runner import ResourceHint, SweepOutcome, SweepRunner, plan_admission
from .spec import RunSpec, SweepSpec, derive_run_seed

__all__ = [
    "ResourceHint",
    "RunRecord",
    "RunRegistry",
    "RunSpec",
    "SweepOutcome",
    "SweepRunner",
    "SweepSpec",
    "derive_run_seed",
    "load_history",
    "plan_admission",
    "render_history",
    "render_registry",
    "sparkline",
]
