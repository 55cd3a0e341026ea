"""End-to-end training benchmark: ``python benchmarks/e2e/run.py``.

Runs the workloads of ``workloads.py`` through the program's own step
driver, each pass in a fresh subprocess (``worker.py``), prints every
metric by name with its unit, checks correctness and writes the result
JSON.  Two ways to call it:

* no ``--seconds``: every selected workload, ``--passes`` interleaved
  untraced passes of fixed work plus one traced pass; results go to
  ``benchmarks/e2e/out/``.
* ``--workload W --seed N --seconds S --trace 0|1``: one workload whose
  windows are timed for about ``S`` seconds; the last line of stdout is
  one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
  the end-to-end metrics (``--trace 0``) or the per-layer ones
  (``--trace 1``).

See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import spans as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: end-to-end metric name -> (unit, better)
E2E_METRICS = {
    "env_steps_per_s": ("steps/s", "higher"),
    "update_rounds_per_s": ("rounds/s", "higher"),
    "cpu_s_per_kstep": ("s/kstep", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: set-ups whose median is ``setup_s`` when a single pass is timed
SETUP_REPEATS = 3
#: ``check.phase_sum``: program's update total vs the outside span total
PHASE_SUM_TOLERANCE = 0.05
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` switch, one BLAS thread.

    The program reads ``REPRO_*`` from ``os.environ`` in several places,
    and unpinned OpenBLAS on shared cores measures the scheduler.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One ``worker.py`` process; its last stdout line is the result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode} for {spec}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pass_spec(w: wl.Workload, args, *, windows: Optional[int], trace: bool = False) -> Dict[str, Any]:
    return {
        "workload": w.name, "smoke": args.smoke, "seed": args.seed, "trace": trace,
        "windows": windows, "seconds": args.seconds if windows is None else None,
    }


def plan(cells: List[wl.Workload], args) -> List[Dict[str, Any]]:
    """Worker specs in run order.

    Passes are interleaved across workloads (A B C D A B C D ...) so a
    transient slow episode on a shared host lands on every workload's
    pooled windows, not on one workload's whole sample.
    """
    if args.seconds is None:
        specs = [
            pass_spec(w, args, windows=w.windows_per_pass)
            for _ in range(args.passes) for w in cells
        ]
        if args.trace:
            # the traced pass alternates untraced and traced windows
            specs += [pass_spec(w, args, windows=2 * w.windows_per_pass, trace=True) for w in cells]
        return specs
    (w,) = cells
    if args.trace:
        return [pass_spec(w, args, windows=None, trace=True)]
    setups = [pass_spec(w, args, windows=0) for _ in range(SETUP_REPEATS - 1)]
    return setups + [pass_spec(w, args, windows=None)]


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"count": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def summarize(w: wl.Workload, outputs: List[Dict[str, Any]], probe_ok: bool) -> Dict[str, Any]:
    """Reduce one workload's worker outputs to metrics, failures and checks."""
    plain = [o for o in outputs if not o["trace"]]
    traced = [o for o in outputs if o["trace"]]
    rounds_per_window = wl.expected_rounds(w, 1)

    # failures: measured against what the cadence says should have happened
    expected = missing = 0
    for o in outputs:
        n = o["planned_windows"] if o["planned_windows"] is not None else len(o["windows"])
        expected += n * (w.steps_per_window + rounds_per_window)
        got_steps = sum(r["steps"] for r in o["windows"])
        got_rounds = sum(r["rounds"] for r in o["windows"])
        missing += max(n * w.steps_per_window - got_steps, 0)
        missing += max(n * rounds_per_window - got_rounds, 0)
        missing += sum(r["error"] is not None for r in o["windows"])
        missing += not o["final"]["finite"]

    e2e: Dict[str, Optional[float]] = {}
    window_stats = None
    good = [r for o in plain for r in o["windows"] if r["error"] is None]
    if good:
        e2e = {
            "env_steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in good),
            "update_rounds_per_s": statistics.median(r["rounds"] / r["wall_s"] for r in good),
            "cpu_s_per_kstep": statistics.median(r["cpu_s"] / (r["steps"] / 1000.0) for r in good),
            "setup_s": statistics.median(o["setup_s"] for o in plain),
            "peak_rss_mb": max(o["peak_rss_mb"] for o in plain),
        }
        window_stats = _quartiles([r["steps"] / r["wall_s"] for r in good])

    layers: Optional[Dict[str, Optional[float]]] = None
    phase_sum_ok = True
    for o in traced:
        for name in o["missing"]:
            print(f"warning: {w.name}: {name} could not be wrapped; its layer metrics are null",
                  file=sys.stderr)
        layers = o["layers"]
        if layers is not None:
            # windows alternate untraced, traced: the ratio of each adjacent
            # pair cancels the host's slow drift
            clean = [r for r in o["windows"] if r["error"] is None]
            pairs = [
                (u["steps"] / u["wall_s"]) / (t["steps"] / t["wall_s"])
                for u, t in zip(clean, clean[1:]) if not u["traced"] and t["traced"]
            ]
            if pairs:
                layers["trace.overhead_ratio"] = statistics.median(pairs)
        ratio = o["phase_sum_ratio"]
        phase_sum_ok = ratio is not None and abs(ratio - 1.0) <= PHASE_SUM_TOLERANCE

    # same seed, same work => same parameters
    warm = {o["warm_digest"] for o in outputs}
    finals: Dict[Any, set] = {}
    for o in outputs:
        finals.setdefault(len(o["windows"]), set()).add(o["final"]["digest"])
    deterministic = len(warm) == 1 and all(len(d) == 1 for d in finals.values())

    checks = {
        "check.reference_match": int(probe_ok),
        "check.deterministic": int(deterministic),
        "check.finite": int(all(o["final"]["finite"] for o in outputs)),
    }
    if traced:
        checks["check.phase_sum"] = int(phase_sum_ok)
    last = outputs[-1]
    return {
        "workload": w.name,
        "why": w.why,
        "ok": all(checks.values()) and not missing,
        "end_to_end": e2e,
        "per_layer": layers,
        "failed_share": missing / expected if expected else 0.0,
        "attempted": expected,
        "failed": int(missing),
        "checks": checks,
        "check.param_l2": last["final"]["l2"],
        "param_digest": last["final"]["digest"],
        "windows": window_stats,
        "config_applied": last["config_applied"],
        "errors": [r["error"] for o in outputs for r in o["windows"] if r["error"]],
    }


def print_summary(s: Dict[str, Any]) -> None:
    print(f"\n== {s['workload']} ==")
    for name, (unit, _) in E2E_METRICS.items():
        if name in s["end_to_end"]:
            print(f"  {name:<42} {_fmt(s['end_to_end'][name]):>14} {unit}")
    print(f"  {'failed_share':<42} {_fmt(s['failed_share']):>14} fraction"
          f"  ({s['failed']} of {s['attempted']})")
    if s["windows"]:
        q = s["windows"]
        print(f"  windows: n={q['count']} steps/s min {q['min']:.2f} q1 {q['q1']:.2f} "
              f"median {q['median']:.2f} q3 {q['q3']:.2f} max {q['max']:.2f}")
    if s["per_layer"] is not None:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            print(f"  {name:<42} {_fmt(s['per_layer'][name]):>14} {unit}")
    for name, value in s["checks"].items():
        print(f"  {name:<42} {value:>14}")
    print(f"  {'check.param_l2':<42} {s['check.param_l2']:>14.6f}")
    for err in s["errors"]:
        print("  window raised:\n" + err, file=sys.stderr)


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.4f}"


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def bench_report(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The results in the ``repro.bench`` report schema (for ``repro report --history``)."""
    summaries = doc["workloads"]
    return {
        "schema_version": 1,
        "telemetry_schema_version": 1,
        "suite": "e2e",
        "git_sha": doc["git_sha"],
        "platform": {k: str(v) for k, v in doc["host"].items()},
        "created_unix": doc["created_unix"],
        "results": [
            {
                "bench": s["workload"],
                "ok": s["ok"],
                "error": "",
                "seconds": doc["wall_seconds"] / len(summaries),
                "metrics": dict(s["end_to_end"], failed_share=s["failed_share"]),
            }
            for s in summaries
        ],
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS),
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=3, help="untraced passes per workload")
    p.add_argument("--seconds", type=float, default=None,
                   help="time one workload's windows for about this long and print one result line")
    p.add_argument("--trace", type=int, choices=(0, 1), default=1,
                   help="add the traced pass (with --seconds: 0 = end-to-end metrics, 1 = per-layer metrics)")
    p.add_argument("--smoke", action="store_true", help="toy geometry; the whole run takes under 30 s")
    p.add_argument("--out", type=Path, default=None, help="result JSON (default: benchmarks/e2e/out/)")
    p.add_argument("--bench-report", action="store_true",
                   help="also write BENCH_e2e.json next to --out, in the repro.bench report schema")
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    if args.seconds is not None and (args.workload is None or len(args.workload) != 1):
        p.error("--seconds times exactly one --workload")
    return args


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the plan and return the full result document."""
    started = time.time()
    cells = [wl.WORKLOADS[n] for n in args.workload or wl.WORKLOADS]
    if args.smoke:
        cells = [wl.smoke(w) for w in cells]
    # one discarded import so the first pass's setup_s does not pay a cold page cache
    host = run_child({"host": True})
    outputs: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in cells}
    for spec in plan(cells, args):
        outputs[spec["workload"]].append(run_child(spec))
    probes = {
        key: run_child({"probe": key, "seed": args.seed})["match"]
        for key in dict.fromkeys(w.probe_key for w in cells)
    }
    summaries = [summarize(w, outputs[w.name], probes[w.probe_key]) for w in cells]
    return {
        "benchmark": "e2e",
        "smoke": args.smoke,
        "seed": args.seed,
        "git_sha": git_sha(),
        "host": host,
        "created_unix": started,
        "wall_seconds": time.time() - started,
        "workloads": summaries,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; the benchmark measures the program in src/",
              file=sys.stderr)
        return 2
    doc = run(args)
    for s in doc["workloads"]:
        print_summary(s)
    out = args.out or HERE / "out" / ("e2e_smoke.json" if args.smoke else "e2e.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}", file=sys.stderr)
    if args.bench_report:
        path = out.parent / "BENCH_e2e.json"
        path.write_text(json.dumps(bench_report(doc), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    ok = all(s["ok"] for s in doc["workloads"])
    if args.seconds is not None:
        (s,) = doc["workloads"]
        declared, values = (
            (tracing.LAYER_METRICS, s["per_layer"]) if args.trace else (E2E_METRICS, s["end_to_end"])
        )
        print(json.dumps({
            "correct": ok,
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in declared.items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
