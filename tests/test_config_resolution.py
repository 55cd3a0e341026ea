"""Property tests for the unified config-resolution chain.

The contract under test: for every ``MARLConfig`` field, the resolved
value comes from the strongest source that supplied one (CLI >
``REPRO_<FIELD>`` env var > spec file > defaults), and the recorded
provenance tag names exactly that source.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.config import MARLConfig
from repro.configio import (
    PRECEDENCE,
    ResolvedConfig,
    coerce_field,
    config_field_names,
    env_var_for,
    load_spec_file,
    resolve_config,
)

# Two valid, distinct candidate values per field.  Chosen so ANY
# combination across fields satisfies MARLConfig's cross-field
# validation (e.g. every buffer_capacity >= every batch_size).
FIELD_VALUES = {
    "lr": (0.01, 0.02),
    "gamma": (0.95, 0.9),
    "tau": (0.01, 0.05),
    "batch_size": (32, 64),
    "buffer_capacity": (4096, 8192),
    "update_every": (25, 100),
    "max_episode_len": (25, 50),
    "hidden_units": ((32, 32), (64, 64)),
    "grad_clip": (0.5, 1.0),
    "gumbel_temperature": (1.0, 0.5),
    "policy_reg": (1e-3, 1e-4),
    "policy_delay": (2, 3),
    "target_noise": (0.2, 0.1),
    "target_noise_clip": (0.5, 0.3),
    "per_alpha": (0.6, 0.5),
    "per_beta0": (0.4, 0.5),
    "per_beta_steps": (100_000, 50_000),
    "min_buffer_fill": (64, 128),
    "fast_path": (True, False),
    "batched_update": (True, False),
    "env_workers": (0, 2),
    "storage": ("agent_major", "timestep_major"),
    "replay_shards": (1, 2),
    "learners": (1, 2),
    "param_staleness": (1, 4),
}


def to_env_string(value) -> str:
    """Spell a candidate value the way an environment variable would."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def test_every_field_has_candidates():
    assert set(FIELD_VALUES) == set(config_field_names())


# source per field: which layers supply a value (strongest source wins)
_SOURCES = st.sampled_from(["none", "default", "file", "env", "cli"])


@settings(max_examples=60, deadline=None)
@given(
    plan=st.fixed_dictionaries(
        {name: st.tuples(_SOURCES, st.integers(0, 1)) for name in FIELD_VALUES}
    )
)
def test_precedence_and_provenance(plan):
    """Each field resolves from its strongest supplying layer, and the
    provenance tag names that layer — for every field simultaneously."""
    defaults, file_table, env_map, cli = {}, {}, {}, {}
    for name, (source, pick) in plan.items():
        value = FIELD_VALUES[name][pick]
        other = FIELD_VALUES[name][1 - pick]
        if source == "default":
            defaults[name] = value
        elif source == "file":
            file_table[name] = value
            defaults[name] = other  # weaker layer must lose
        elif source == "env":
            env_map[env_var_for(name)] = to_env_string(value)
            file_table[name] = other
        elif source == "cli":
            cli[name] = value
            env_map[env_var_for(name)] = to_env_string(other)
    resolved = resolve_config(
        file={"config": file_table} if file_table else None,
        cli_overrides=cli,
        env=env_map,
        defaults=defaults,
    )
    assert isinstance(resolved, ResolvedConfig)
    for name, (source, pick) in plan.items():
        value = FIELD_VALUES[name][pick]
        got = getattr(resolved.config, name)
        tag = resolved.provenance[name]
        if source == "none":
            assert got == getattr(MARLConfig(), name)
            assert tag == "default"
        elif source == "default":
            assert got == value
            assert tag == "default"
        elif source == "file":
            assert got == value
            assert tag == "file:<dict>"
        elif source == "env":
            assert got == value
            assert tag == f"env:{env_var_for(name)}"
        else:
            assert got == value
            assert tag == "cli"


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELD_VALUES)),
    pick=st.integers(0, 1),
)
def test_env_string_round_trips_every_field(name, pick):
    value = FIELD_VALUES[name][pick]
    assert coerce_field(name, to_env_string(value)) == value


class TestLayerSemantics:
    def test_empty_env_string_is_unset(self):
        resolved = resolve_config(env={"REPRO_BATCH_SIZE": "  "})
        assert resolved.config.batch_size == MARLConfig().batch_size
        assert resolved.provenance["batch_size"] == "default"

    def test_none_cli_override_means_flag_not_given(self):
        resolved = resolve_config(
            cli_overrides={"batch_size": None},
            env={"REPRO_BATCH_SIZE": "32"},
        )
        assert resolved.config.batch_size == 32
        assert resolved.provenance["batch_size"] == "env:REPRO_BATCH_SIZE"

    def test_file_path_provenance_names_the_file(self, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text("[config]\nbatch_size = 48\nbuffer_capacity = 4096\n")
        resolved = resolve_config(file=spec, env={})
        assert resolved.config.batch_size == 48
        assert resolved.provenance["batch_size"] == f"file:{spec}"

    def test_json_spec_top_level_fields(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"batch_size": 32, "fast_path": True}))
        resolved = resolve_config(file=spec, env={})
        assert resolved.config.batch_size == 32
        assert resolved.config.fast_path is True

    def test_legacy_env_vars_are_the_same_rule(self):
        """REPRO_STORAGE / REPRO_ENV_WORKERS / REPRO_REPLAY_SHARDS are
        just env_var_for() of their fields."""
        assert env_var_for("storage") == "REPRO_STORAGE"
        assert env_var_for("env_workers") == "REPRO_ENV_WORKERS"
        assert env_var_for("replay_shards") == "REPRO_REPLAY_SHARDS"
        resolved = resolve_config(
            env={"REPRO_STORAGE": "timestep_major", "REPRO_REPLAY_SHARDS": "2"}
        )
        assert resolved.config.storage == "timestep_major"
        assert resolved.config.replay_shards == 2

    def test_retired_env_var_is_ignored_without_a_warning(self, recwarn):
        """A shell that still exports REPRO_BACKEND keeps working: the
        variable names no field, so nothing reads it."""
        resolved = resolve_config(env={"REPRO_BACKEND": "numba"})
        assert resolved.config == MARLConfig()
        assert set(resolved.provenance.values()) == {"default"}
        assert not recwarn.list

    def test_from_source_filters_by_prefix(self):
        resolved = resolve_config(
            cli_overrides={"batch_size": 32}, env={"REPRO_LEARNERS": "2"}
        )
        assert resolved.from_source("cli") == {"batch_size": 32}
        assert resolved.from_source("env:") == {"learners": 2}

    def test_precedence_constant_is_the_documented_chain(self):
        assert PRECEDENCE == ("cli", "env", "file", "default")


class TestRejection:
    def test_unknown_field_in_defaults(self):
        with pytest.raises(ValueError, match="defaults"):
            resolve_config(defaults={"batch_siz": 32}, env={})

    def test_unknown_field_in_cli(self):
        with pytest.raises(ValueError, match="cli_overrides"):
            resolve_config(cli_overrides={"nope": 1}, env={})

    def test_unknown_field_in_file(self):
        # a typo and a retired field (``backend``, PR 22) are the same error
        for table in ({"config": {"nope": 1}}, {"backend": "numba"}):
            with pytest.raises(
                ValueError, match=r"unknown config field\(s\) in spec file"
            ):
                resolve_config(file=table, env={})

    @pytest.mark.parametrize(
        "var, raw, match",
        [
            ("REPRO_BATCH_SIZE", "many", "batch_size"),
            ("REPRO_ENV_WORKERS", "bogus", "env_workers"),
            ("REPRO_REPLAY_SHARDS", "two", "replay_shards"),
            ("REPRO_REPLAY_SHARDS", "0", ">= 1"),
            ("REPRO_STORAGE", "column_major", "unknown storage engine"),
        ],
    )
    def test_bad_env_value(self, var, raw, match):
        with pytest.raises(ValueError, match=match):
            resolve_config(env={var: raw})

    def test_unknown_env_var_name(self):
        with pytest.raises(ValueError, match="unknown MARLConfig field"):
            env_var_for("not_a_field")

    def test_unsupported_spec_extension(self, tmp_path):
        bad = tmp_path / "spec.yaml"
        bad.write_text("a: 1\n")
        with pytest.raises(ValueError, match="extension"):
            load_spec_file(bad)

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec_file(tmp_path / "nope.toml")


class TestManifestProvenance:
    def test_manifest_records_provenance(self):
        from repro.telemetry import TelemetryRecorder
        from repro.telemetry.records import RunManifest
        from repro.telemetry.sinks import MemorySink

        resolved = resolve_config(cli_overrides={"batch_size": 32}, env={})
        sink = MemorySink()
        recorder = TelemetryRecorder(sink)
        recorder.provenance = resolved.provenance
        manifest = recorder.manifest(seed=0, config={"batch_size": 32})
        assert isinstance(manifest, RunManifest)
        assert manifest.provenance["batch_size"] == "cli"
        assert manifest.provenance["lr"] == "default"
        # and it round-trips through the record dict
        assert sink.records[0].to_dict()["provenance"]["batch_size"] == "cli"

    def test_provenance_defaults_empty(self):
        """Manifests built without provenance keep working (pre-PR records)."""
        from repro.telemetry.records import RunManifest

        manifest = RunManifest.capture(seed=1)
        assert manifest.provenance == {}
        assert manifest.to_dict()["provenance"] == {}
