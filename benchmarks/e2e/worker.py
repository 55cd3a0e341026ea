"""One benchmark pass in a fresh process: set up, warm up, time windows.

Run by ``run.py`` as ``python worker.py '<json spec>'`` with the
environment already scrubbed and the BLAS thread count pinned; prints
one JSON object on the last line of stdout.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before numpy/repro: setup_s counts the imports

import hashlib
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import spans as tracing
import workloads as wl


def parameters(trainer) -> List[np.ndarray]:
    """Every agent's actor and critic arrays, in a fixed order."""
    return [
        p.value
        for agent in trainer.agents
        for net in (agent.actor, agent.critic)
        for p in net.parameters()
    ]


def param_state(trainer) -> Dict[str, Any]:
    """Digest, L2 norm and finiteness of the learned parameters."""
    arrays = parameters(trainer)
    digest = hashlib.blake2b(digest_size=16)
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return {
        "digest": digest.hexdigest(),
        "l2": float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays))),
        "finite": bool(all(np.isfinite(a).all() for a in arrays)),
    }


def cpu_seconds() -> float:
    """Process CPU, user + system, of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _program_phases(trainer) -> Optional[Dict[str, float]]:
    """The program's own phase totals, or None if it no longer keeps them."""
    timer = getattr(trainer, "timer", None)
    return None if timer is None else timer.totals()


def run_windows(
    train_steps: Callable,
    vec_env,
    trainer,
    w: wl.Workload,
    *,
    windows: Optional[int],
    seconds: Optional[float],
    recorder: Optional[tracing.SpanRecorder] = None,
) -> List[Dict[str, Any]]:
    """Time consecutive ``train_steps`` windows of fixed work.

    Runs ``windows`` windows, or as many as start within ``seconds``
    (at least two).  With a ``recorder`` the odd windows run with the
    layer wrappers installed and the even ones without, so the traced
    and untraced rates that give ``trace.overhead_ratio`` come from the
    same process, interleaved.  A window that raises ends the pass.
    """
    records: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        index = len(records)
        if windows is not None:
            if index >= windows:
                break
        elif index >= 2 and time.perf_counter() - begin >= seconds:
            break
        traced = recorder is not None and index % 2 == 1
        steps0, rounds0 = trainer.total_env_steps, trainer.update_rounds
        error = None
        if traced:
            recorder.install(vec_env, trainer)
            phases0 = _program_phases(trainer)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with recorder.span(tracing.ROOT) if traced else nullcontext():
                train_steps(vec_env, trainer, w.sweeps_per_window)
        except Exception:  # the benchmark must report the failure, not die of it
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        phases = None
        if traced:
            recorder.uninstall()
            phases1 = _program_phases(trainer)
            if phases1 is not None:
                phases = {k: v - phases0.get(k, 0.0) for k, v in phases1.items()}
        records.append(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "steps": trainer.total_env_steps - steps0,
                "rounds": trainer.update_rounds - rounds0,
                "traced": traced,
                "phases": phases,  # the program's own PhaseTimer, this window
                "error": error,
            }
        )
        if error is not None:
            break
    return records


def run_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up a workload, warm it up and time its windows."""
    from repro.training.loop import train_steps

    w = wl.WORKLOADS[spec["workload"]]
    if spec["smoke"]:
        w = wl.smoke(w)
    seed = spec["seed"]
    config, applied = wl.production_config(w)
    vec_env, trainer = wl.build(w, config, seed)
    t = time.perf_counter()
    wl.prefill(trainer, w.prefill_rows, seed + 1)
    prefill_s = time.perf_counter() - t
    train_steps(vec_env, trainer, w.warmup_sweeps)  # untimed
    setup_s = time.perf_counter() - _PROCESS_START
    warm = param_state(trainer)

    recorder = tracing.SpanRecorder() if spec["trace"] else None
    records = run_windows(
        train_steps, vec_env, trainer, w,
        windows=spec["windows"], seconds=spec["seconds"], recorder=recorder,
    )
    out = {
        "workload": w.name,
        "trace": spec["trace"],
        "planned_windows": spec["windows"],  # None when the clock decided
        "config_applied": applied,
        "setup_s": setup_s,
        "prefill_rows_per_s": w.prefill_rows / prefill_s,
        "warm_digest": warm["digest"],
        "final": param_state(trainer),
        "windows": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
        "missing": [],
        "phase_sum_ratio": None,
    }
    traced = [r for r in records if r["traced"] and r["error"] is None]
    if traced:
        program: Optional[Dict[str, float]] = None
        if all(r["phases"] is not None for r in traced):
            program = {}
            for r in traced:
                for phase, s in r["phases"].items():
                    program[phase] = program.get(phase, 0.0) + s
        out["layers"] = tracing.layer_metrics(
            recorder.spans, recorder.missing, copies=wl.COPIES,
            timer_delta=program, prefill_rows_per_s=out["prefill_rows_per_s"],
        )
        out["missing"] = recorder.missing
        outside = sum(s.duration for s in recorder.spans if s.name == "algos.update")
        if program is not None and outside > 0.0:
            out["phase_sum_ratio"] = program.get("update_all_trainers", 0.0) / outside
    return out


def run_probe(algorithm: str, sampler: str, scenario: str, seed: int) -> Dict[str, Any]:
    """``check.reference_match``: production flags vs the paper-faithful oracle.

    A 100-sweep N=3, B=256, ``update_every=32`` run under the production
    flags must end with actor and critic parameters ``np.array_equal``
    to the same run under plain ``MARLConfig()`` at that geometry.
    """
    import dataclasses

    from repro.algos.config import MARLConfig
    from repro.training.loop import train_steps

    w = wl.Workload(
        name="probe", why="", algorithm=algorithm, scenario=scenario, agents=3,
        sampler=sampler, update_every=32, prefill_rows=0, warmup_sweeps=0,
        sweeps_per_window=100, windows_per_pass=1, batch_size=256,
    )
    oracle = dataclasses.replace(MARLConfig(), batch_size=256, update_every=32)
    ends = []
    for config in (wl.production_config(w)[0], oracle):
        vec_env, trainer = wl.build(w, config, seed)
        train_steps(vec_env, trainer, w.sweeps_per_window)
        ends.append((parameters(trainer), trainer.update_rounds))
    (fast, fast_rounds), (ref, ref_rounds) = ends
    match = (
        fast_rounds == ref_rounds > 0
        and len(fast) == len(ref)
        and all(np.array_equal(a, b) for a, b in zip(fast, ref))
    )
    return {"match": bool(match), "rounds": ref_rounds}


def host_fingerprint() -> Dict[str, Any]:
    """Platform, numpy and BLAS build; importing ``repro`` warms the page cache."""
    import platform

    import repro  # noqa: F401

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    if "host" in spec:
        result = host_fingerprint()
    elif "probe" in spec:
        result = run_probe(*spec["probe"], seed=spec["seed"])
    else:
        result = run_pass(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
