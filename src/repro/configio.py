"""Unified configuration resolution: one documented precedence chain.

This module is the only place the program reads ``os.environ``.
:func:`resolve_config` applies one chain per field of
:class:`~repro.algos.config.MARLConfig`::

    CLI override  >  REPRO_<FIELD> env var  >  spec file  >  defaults

and returns a :class:`ResolvedConfig` carrying both the concrete
``MARLConfig`` and a ``provenance`` mapping (field name → source tag)
that the telemetry :class:`~repro.telemetry.records.RunManifest`
records, so every measurement names where each knob came from.
Everything below the edge (trainers, replay, env factory) takes plain
values from that config and never consults the environment.

Source tags are ``"cli"``, ``"env:REPRO_X"``, ``"file:<path>"``, and
``"default"``.  Every ``MARLConfig`` field is overridable from the
environment as ``REPRO_<FIELD_NAME_UPPERCASED>`` (``REPRO_STORAGE``,
``REPRO_ENV_WORKERS``, ``REPRO_REPLAY_SHARDS``, ...).

Spec files are TOML (stdlib ``tomllib``) or JSON, selected by
extension; the config table lives at the top level or under a
``[config]`` key, so one sweep spec file can embed its shared config.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .algos.config import MARLConfig

__all__ = [
    "ResolvedConfig",
    "resolve_config",
    "config_field_names",
    "env_var_for",
    "coerce_field",
    "load_spec_file",
    "PRECEDENCE",
]

#: The documented chain, strongest first.
PRECEDENCE = ("cli", "env", "file", "default")

_FIELDS: Tuple[dataclasses.Field, ...] = dataclasses.fields(MARLConfig)
_FIELD_BY_NAME: Dict[str, dataclasses.Field] = {f.name: f for f in _FIELDS}

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def config_field_names() -> Tuple[str, ...]:
    """Every resolvable ``MARLConfig`` field name, declaration order."""
    return tuple(f.name for f in _FIELDS)


def env_var_for(field_name: str) -> str:
    """The environment variable that overrides ``field_name``."""
    if field_name not in _FIELD_BY_NAME:
        raise ValueError(
            f"unknown MARLConfig field {field_name!r}; "
            f"expected one of {config_field_names()}"
        )
    return "REPRO_" + field_name.upper()


def _field_kind(field: dataclasses.Field) -> str:
    """Coercion category for a field, from its default's runtime type."""
    default = field.default
    if isinstance(default, bool):
        return "bool"
    if isinstance(default, int):
        return "int"
    if isinstance(default, float):
        return "float"
    if isinstance(default, tuple):
        return "int_tuple"
    if isinstance(default, str):
        return "str"
    # Optional fields defaulting to None: typed by annotation text.
    ann = str(field.type)
    if "int" in ann:
        return "optional_int"
    if "float" in ann:
        return "optional_float"
    return "optional_str"


def coerce_field(field_name: str, raw: Any) -> Any:
    """Coerce a string (env var / file) value to the field's type.

    Non-string values (already-typed JSON/TOML scalars, programmatic
    overrides) pass through with a light int/float normalization; bad
    strings raise ``ValueError`` naming the field.
    """
    field = _FIELD_BY_NAME.get(field_name)
    if field is None:
        raise ValueError(
            f"unknown MARLConfig field {field_name!r}; "
            f"expected one of {config_field_names()}"
        )
    kind = _field_kind(field)
    if raw is None:
        return None
    if not isinstance(raw, str):
        if kind in ("int", "optional_int") and not isinstance(raw, bool):
            return int(raw)
        if kind in ("float", "optional_float") and not isinstance(raw, bool):
            return float(raw)
        if kind == "int_tuple":
            return tuple(int(v) for v in raw)
        return raw
    text = raw.strip()
    try:
        if kind == "bool":
            lowered = text.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind in ("int", "optional_int"):
            return int(text)
        if kind in ("float", "optional_float"):
            return float(text)
        if kind == "int_tuple":
            parts = [p for p in text.replace(",", " ").split() if p]
            return tuple(int(p) for p in parts)
        return text
    except ValueError as exc:
        raise ValueError(
            f"cannot coerce {field_name}={text!r}: {exc}"
        ) from None


def load_spec_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a TOML/JSON spec file into a plain dict (by extension)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"spec file not found: {path}")
    if path.suffix.lower() == ".toml":
        import tomllib

        with open(path, "rb") as f:
            return tomllib.load(f)
    if path.suffix.lower() == ".json":
        return json.loads(path.read_text())
    raise ValueError(
        f"unsupported spec file extension {path.suffix!r} (want .toml or .json)"
    )


def _config_table(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """The config mapping inside a spec dict (top level or ``config`` key)."""
    if "config" in spec and isinstance(spec["config"], Mapping):
        return dict(spec["config"])
    # top-level spelling: keep only known config fields, reject typos of
    # near-miss keys below in resolve_config
    return {k: v for k, v in spec.items() if not isinstance(v, Mapping)}


@dataclass(frozen=True)
class ResolvedConfig:
    """A concrete config plus the source of every field's value."""

    config: MARLConfig
    #: field name → ``"cli" | "env:REPRO_X" | "file:<path>" | "default"``
    provenance: Dict[str, str]

    def from_source(self, source_prefix: str) -> Dict[str, Any]:
        """Fields whose provenance starts with ``source_prefix``."""
        return {
            name: getattr(self.config, name)
            for name, src in self.provenance.items()
            if src.startswith(source_prefix)
        }


def resolve_config(
    file: Optional[Union[str, Path, Mapping[str, Any]]] = None,
    cli_overrides: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, str]] = None,
    defaults: Optional[Mapping[str, Any]] = None,
) -> ResolvedConfig:
    """Resolve a :class:`MARLConfig` through the documented chain.

    Parameters
    ----------
    file:
        Path to a TOML/JSON spec file, or an already-parsed mapping.
        Config fields are read from the top level or a ``config`` table.
    cli_overrides:
        Field → value mapping from explicit command-line flags.  ``None``
        values mean "flag not given" and are skipped, so argparse
        defaults-of-None thread through directly.
    env:
        Environment mapping (defaults to ``os.environ``).  Field ``x``
        reads ``REPRO_X``; empty strings count as unset.
    defaults:
        Command-specific defaults applied *below* the chain but above
        ``MARLConfig``'s own dataclass defaults (e.g. ``repro train``
        defaults ``batch_size`` to 64, not the paper's 1024).  Recorded
        as ``"default"`` provenance either way.

    Returns the concrete config and per-field provenance; unknown field
    names anywhere in the chain raise ``ValueError``.
    """
    env_map: Mapping[str, str] = os.environ if env is None else env
    values: Dict[str, Any] = {}
    provenance: Dict[str, str] = {}
    known = set(config_field_names())

    # defaults (lowest)
    if defaults:
        unknown = sorted(set(defaults) - known)
        if unknown:
            raise ValueError(f"unknown config field(s) in defaults: {unknown}")
        for name, value in defaults.items():
            values[name] = coerce_field(name, value)
    for name in known:
        provenance[name] = "default"

    # spec file
    file_label = None
    if file is not None:
        if isinstance(file, Mapping):
            table = _config_table(file)
            file_label = "file:<dict>"
        else:
            table = _config_table(load_spec_file(file))
            file_label = f"file:{file}"
        unknown = sorted(set(table) - known)
        if unknown:
            raise ValueError(
                f"unknown config field(s) in spec file: {unknown}; "
                f"expected MARLConfig fields"
            )
        for name, value in table.items():
            values[name] = coerce_field(name, value)
            provenance[name] = file_label

    # environment
    for name in known:
        var = env_var_for(name)
        raw = env_map.get(var, "")
        if isinstance(raw, str):
            raw = raw.strip()
        if raw == "" or raw is None:
            continue
        values[name] = coerce_field(name, raw)
        provenance[name] = f"env:{var}"

    # CLI (strongest)
    if cli_overrides:
        unknown = sorted(set(cli_overrides) - known)
        if unknown:
            raise ValueError(f"unknown config field(s) in cli_overrides: {unknown}")
        for name, value in cli_overrides.items():
            if value is None:
                continue  # flag not given
            values[name] = coerce_field(name, value)
            provenance[name] = "cli"

    config = MARLConfig(**values)
    return ResolvedConfig(config=config, provenance=provenance)
