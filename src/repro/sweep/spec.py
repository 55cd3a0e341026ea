"""Declarative sweep specifications: one file, many runs.

A :class:`SweepSpec` names a *base* cell (workload + config fields
shared by every run), a *grid* (field → list of values, expanded as the
cartesian product in the order the fields are declared), and optional
explicit *cells* (list expansion: dicts merged over the base, appended
after the grid).  ``expand()`` turns the spec into concrete
:class:`RunSpec` objects — the unit the
:class:`~repro.sweep.runner.SweepRunner` executes and the
:class:`~repro.sweep.registry.RunRegistry` records.

Determinism contract
--------------------
* Expansion is a pure function of the spec: the same spec always
  expands to the same runs in the same order (grid fields iterate in
  declaration order, values in given order, row-major; repeats
  innermost).
* Per-run seeds derive from the *content* of a cell
  (:func:`derive_run_seed` hashes the canonical JSON of its overrides
  plus the repeat index with the sweep's base seed), not its position —
  adding or removing a cell never reshuffles any other run's seed.

Field vocabulary
----------------
Run-level fields: ``algorithm``, ``env`` (alias ``env_name``),
``agents`` (alias ``num_agents``), ``variant``, ``episodes``,
``steps``, ``copies``, ``seed``.  Everything else must be a
:class:`~repro.algos.config.MARLConfig` field; unknown names are
rejected at construction so a typo fails the whole sweep before any
run starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..algos.config import MARLConfig
from ..configio import coerce_field, config_field_names, load_spec_file

__all__ = ["RunSpec", "SweepSpec", "derive_run_seed", "RUN_FIELDS"]

#: Run-level (non-MARLConfig) fields a spec may set, with defaults.
RUN_FIELDS: Dict[str, Any] = {
    "algorithm": "maddpg",
    "env_name": "cooperative_navigation",
    "num_agents": 3,
    "variant": "baseline",
    "episodes": None,
    "steps": None,
    "copies": 4,
    "seed": 0,
}

#: Spec-file spellings accepted for run-level fields.
_RUN_ALIASES = {"env": "env_name", "agents": "num_agents"}

_CONFIG_FIELDS = frozenset(config_field_names())


def _canonical_field(name: str) -> str:
    """Map aliases onto canonical names; reject unknown fields."""
    name = _RUN_ALIASES.get(name, name)
    if name in RUN_FIELDS or name in _CONFIG_FIELDS:
        return name
    raise ValueError(
        f"unknown sweep field {name!r}: not a run-level field "
        f"({sorted(RUN_FIELDS)}) or a MARLConfig field"
    )


def derive_run_seed(base_seed: int, overrides: Mapping[str, Any], repeat: int) -> int:
    """Stable per-run seed from the *content* of a cell.

    Hashes the canonical JSON of the cell's overrides (sorted keys) and
    the repeat index together with the sweep's base seed, so a cell's
    seed is invariant to its position in the expansion and to unrelated
    cells being added or removed.
    """
    payload = json.dumps(
        {"base": base_seed, "cell": dict(sorted(overrides.items())), "repeat": repeat},
        sort_keys=True,
        default=str,
    )
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class RunSpec:
    """One concrete run of a sweep: a workload cell plus its config."""

    run_id: str
    algorithm: str = "maddpg"
    env_name: str = "cooperative_navigation"
    num_agents: int = 3
    variant: str = "baseline"
    seed: int = 0
    #: episode-mode length; ``None`` when ``steps`` selects pipeline mode
    episodes: Optional[int] = None
    #: pipeline-mode vector sweeps (takes precedence over ``episodes``)
    steps: Optional[int] = None
    copies: int = 4
    config: MARLConfig = field(default_factory=MARLConfig)
    #: field → value overrides this cell applied (registry/report label)
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: requested core budget (floor); the elastic scheduler may grant more
    cores: int = 1
    #: elastic ceiling (None = no expansion beyond ``cores``)
    max_cores: Optional[int] = None
    #: ``"rollout"`` runs absorb spare cores as extra env workers when
    #: the queue drains; ``"learner"`` runs keep their requested budget
    kind: str = "learner"

    def __post_init__(self) -> None:
        if self.episodes is None and self.steps is None:
            object.__setattr__(self, "episodes", 10)
        if self.episodes is not None and self.episodes <= 0:
            raise ValueError(f"episodes must be positive, got {self.episodes}")
        if self.steps is not None and self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.kind not in ("learner", "rollout"):
            raise ValueError(f"kind must be learner|rollout, got {self.kind!r}")

    @property
    def key(self) -> str:
        """Workload-cell identifier, e.g. ``maddpg/simple_spread/3/baseline``."""
        return f"{self.algorithm}/{self.env_name}/{self.num_agents}/{self.variant}"

    def with_cores(self, cores: int) -> "RunSpec":
        """Copy with the elastic scheduler's granted core budget."""
        return dataclasses.replace(self, cores=max(1, int(cores)))

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["config"] = dataclasses.asdict(self.config)
        d["overrides"] = dict(self.overrides)
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of ``to_dict``.  Config keys ``MARLConfig`` no longer
        has (a spec written by an earlier commit) are dropped with one
        warning, so old registries keep loading."""
        payload = dict(data)
        config = dict(payload.get("config", {}))
        retired = sorted(set(config) - set(config_field_names()))
        if retired:
            warnings.warn(
                f"run {payload.get('run_id')!r}: dropping retired config "
                f"field(s) {retired}; the run may not be re-runnable as recorded",
                RuntimeWarning,
                stacklevel=2,
            )
            for name in retired:
                del config[name]
        payload["config"] = MARLConfig(**config)
        payload["overrides"] = tuple(sorted(dict(payload.get("overrides", {})).items()))
        return cls(**payload)


def _split_fields(cell: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a merged cell dict into (run-level, config) field dicts."""
    run_kw: Dict[str, Any] = {}
    cfg_kw: Dict[str, Any] = {}
    for name, value in cell.items():
        canon = _canonical_field(name)
        if canon in RUN_FIELDS:
            run_kw[canon] = value
        else:
            cfg_kw[canon] = coerce_field(canon, value)
    return run_kw, cfg_kw


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment sweep."""

    name: str = "sweep"
    #: fields shared by every run (run-level and/or MARLConfig)
    base: Dict[str, Any] = field(default_factory=dict)
    #: field → list of values; cartesian product in declaration order
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    #: explicit cells appended after the grid (list expansion)
    cells: Tuple[Dict[str, Any], ...] = ()
    #: per-cell repeats; repeat r of a cell gets its own derived seed
    repeats: int = 1
    #: base seed folded into every derived per-run seed
    seed: int = 0
    #: per-run wall-clock budget (None = unbounded)
    timeout_s: Optional[float] = None
    #: attempts per run (1 = no retry)
    max_attempts: int = 1
    #: resource hint applied to every run (see runner.ResourceHint)
    cores: int = 1
    max_cores: Optional[int] = None
    kind: str = "learner"

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.kind not in ("learner", "rollout"):
            raise ValueError(f"kind must be learner|rollout, got {self.kind!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        for name in self.base:
            _canonical_field(name)
        for name, values in self.grid.items():
            _canonical_field(name)
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)
            ):
                raise ValueError(
                    f"grid field {name!r} must map to a list of values, "
                    f"got {type(values).__name__}"
                )
            if not values:
                raise ValueError(f"grid field {name!r} has no values")
        for cell in self.cells:
            for name in cell:
                _canonical_field(name)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build from a parsed spec mapping (the TOML/JSON file layout).

        Layout::

            name = "smoke"
            seed = 0
            repeats = 1
            timeout_s = 120.0
            max_attempts = 2
            [resources]
            cores = 1
            max_cores = 4
            kind = "learner"
            [base]
            episodes = 10
            batch_size = 64
            [grid]
            algorithm = ["maddpg", "matd3"]
            agents = [3, 6]
            [[cells]]
            env = "predator_prey"
        """
        payload = dict(data)
        resources = dict(payload.pop("resources", {}) or {})
        known = {
            "name", "base", "grid", "cells", "repeats", "seed",
            "timeout_s", "max_attempts",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown sweep spec key(s): {unknown}")
        cells = tuple(dict(c) for c in payload.pop("cells", ()) or ())
        return cls(
            name=str(payload.get("name", "sweep")),
            base=dict(payload.get("base", {}) or {}),
            grid=dict(payload.get("grid", {}) or {}),
            cells=cells,
            repeats=int(payload.get("repeats", 1)),
            seed=int(payload.get("seed", 0)),
            timeout_s=(
                float(payload["timeout_s"])
                if payload.get("timeout_s") is not None
                else None
            ),
            max_attempts=int(payload.get("max_attempts", 1)),
            cores=int(resources.get("cores", 1)),
            max_cores=(
                int(resources["max_cores"])
                if resources.get("max_cores") is not None
                else None
            ),
            kind=str(resources.get("kind", "learner")),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a TOML/JSON sweep spec file."""
        return cls.from_dict(load_spec_file(path))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "cells": [dict(c) for c in self.cells],
            "repeats": self.repeats,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
            "resources": {
                "cores": self.cores,
                "max_cores": self.max_cores,
                "kind": self.kind,
            },
        }

    # -- expansion -----------------------------------------------------------

    def _cell_overrides(self) -> List[Dict[str, Any]]:
        """Every cell's override dict: grid product, then explicit cells."""
        out: List[Dict[str, Any]] = []
        if self.grid:
            names = list(self.grid)
            combos: List[Dict[str, Any]] = [{}]
            for name in names:
                combos = [
                    {**combo, name: value}
                    for combo in combos
                    for value in self.grid[name]
                ]
            out.extend(combos)
        elif not self.cells:
            out.append({})
        out.extend(dict(cell) for cell in self.cells)
        return out

    def expand(self) -> List[RunSpec]:
        """Concrete runs: (grid ∪ cells) × repeats, deterministic order."""
        runs: List[RunSpec] = []
        for index, overrides in enumerate(self._cell_overrides()):
            merged = {**self.base, **overrides}
            run_kw, cfg_kw = _split_fields(merged)
            for repeat in range(self.repeats):
                canonical = {
                    _canonical_field(k): v for k, v in overrides.items()
                }
                run_seed = derive_run_seed(
                    int(run_kw.get("seed", self.seed)), canonical, repeat
                )
                label = "_".join(
                    f"{k}-{v}" for k, v in sorted(canonical.items())
                )
                run_id = f"{index:03d}" + (f"r{repeat}" if self.repeats > 1 else "")
                if label:
                    run_id += "_" + label.replace("/", "-")
                kw = {k: v for k, v in run_kw.items() if k != "seed"}
                runs.append(
                    RunSpec(
                        run_id=run_id,
                        seed=run_seed,
                        config=MARLConfig(**cfg_kw),
                        overrides=tuple(sorted(canonical.items())),
                        cores=self.cores,
                        max_cores=self.max_cores,
                        kind=self.kind,
                        **kw,
                    )
                )
        return runs
