"""Compute-backend selection, fallback, wiring, and training equivalence.

Covers the pluggable backend layer end to end: selection by
``MARLConfig.backend`` (the ``REPRO_BACKEND`` chain is
``test_config_resolution``'s), the warn-once numpy fallback when numba is missing, the
engine's topology gate (non-MLP3 networks fall back with a warning),
telemetry provenance (manifest + ``backend.selected`` counter), and the
headline contract: full training runs on the kernel path land within
``rtol=1e-10 / atol=1e-12`` of the numpy reference for MADDPG and
MATD3, with and without PER.

The kernel path here runs in python mode (the un-jitted kernel source)
so the contract is certified on machines without numba; the CI
``backend-numba`` job reruns this module with ``REPRO_BACKEND=numba``.
"""

from __future__ import annotations

import importlib.util
import warnings

import numpy as np
import pytest

import repro
from repro.algos import MARLConfig
from repro.algos.batched_update import BatchedUpdateEngine
from repro.algos.variants import build_trainer
from repro.nn import mlp
from repro.nn.backend import (
    BACKENDS,
    ComputeBackend,
    KERNEL_NAMES,
    KernelSet,
    get_backend,
    kernel_backend,
    numpy_backend,
    resolve_backend,
    reset_backend_warnings,
    warmup_kernels,
)
from repro.nn.stacked import mlp3_parameters
from repro.telemetry import memory_recorder
from repro.training import train

from tests.conftest import engine_config, fill_multi_agent_replay

NUMBA_MISSING = importlib.util.find_spec("numba") is None
TOL = dict(rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# resolution order
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_numpy(self):
        assert MARLConfig().backend == "numpy"
        assert get_backend().name == "numpy"
        assert get_backend().kernels is None

    def test_python_names_the_unjitted_kernel_set(self):
        backend = get_backend("python")
        assert backend.kernels is kernel_backend().kernels
        assert not backend.jitted

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            MARLConfig(backend="cuda")

    def test_instance_passes_through(self):
        backend = kernel_backend()
        assert get_backend(backend) is backend

    def test_numpy_backend_is_shared_and_kernel_free(self):
        assert numpy_backend() is numpy_backend()
        assert not numpy_backend().compiled
        describe = numpy_backend().describe()
        assert describe["name"] == "numpy"
        assert describe["compiled"] is False

    def test_backends_tuple(self):
        assert BACKENDS == ("numpy", "numba", "python")


class TestKernelSet:
    def test_python_mode_carries_every_kernel(self):
        backend = kernel_backend()
        assert backend.name == "python"
        assert backend.compiled and not backend.jitted
        for name in KERNEL_NAMES:
            assert callable(getattr(backend.kernels, name))

    def test_missing_kernel_rejected(self):
        with pytest.raises(ValueError, match="missing kernels"):
            KernelSet({"mlp3_infer": lambda: None})

    def test_warmup_runs_every_kernel(self):
        assert warmup_kernels(kernel_backend()) is True
        assert warmup_kernels("numpy") is False


# ---------------------------------------------------------------------------
# numba fallback (and the real thing, when installed)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not NUMBA_MISSING, reason="numba installed; fallback not taken")
class TestNumbaFallback:
    def test_falls_back_to_numpy_with_single_warning(self):
        reset_backend_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = get_backend("numba")
        assert backend.name == "numpy"
        assert backend.kernels is None
        assert backend.fallback_from == "numba"
        assert "numba" in backend.fallback_reason
        fallback = [w for w in caught if "falling back" in str(w.message)]
        assert len(fallback) == 1
        # warned once per process, not per request
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            get_backend("numba")
        assert not [w for w in again if "falling back" in str(w.message)]

    def test_describe_records_provenance(self):
        reset_backend_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            describe = get_backend("numba").describe()
        assert describe["fallback_from"] == "numba"
        assert describe["fallback_reason"]

    def test_trainer_still_runs_on_fallback(self):
        reset_backend_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trainer = build_trainer(
                "maddpg", "baseline", [6] * 3, [3] * 3,
                config=MARLConfig(
                    batch_size=16, buffer_capacity=128, update_every=8,
                    hidden_units=(16, 16), batched_update=True,
                    backend="numba",
                ),
                seed=0,
            )
        assert trainer.backend.name == "numpy"
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(0), 32)
        assert trainer.update(force=True)


@pytest.mark.skipif(NUMBA_MISSING, reason="numba not installed")
class TestNumbaPresent:
    def test_numba_backend_jits(self):
        backend = get_backend("numba")
        assert backend.name == "numba"
        assert backend.compiled and backend.jitted
        assert backend.version

    def test_warmup_compiles(self):
        assert warmup_kernels("numba") is True


# ---------------------------------------------------------------------------
# wiring: config, CLI, trainer, engine
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(
        batch_size=16, buffer_capacity=256, update_every=8,
        hidden_units=(16, 16), batched_update=True,
    )
    base.update(overrides)
    return engine_config(**base)


class TestWiring:
    def test_cli_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["train", "--backend", "numpy"])
        assert args.backend == "numpy"
        args = parser.parse_args(["profile", "--backend", "numba"])
        assert args.backend == "numba"
        assert parser.parse_args(["train"]).backend is None

    def test_trainer_resolves_config_backend(self):
        trainer = build_trainer(
            "maddpg", "baseline", [6] * 3, [3] * 3,
            config=_config(backend="numpy"), seed=0,
        )
        assert trainer.backend.name == "numpy"
        assert trainer._engine is not None and trainer._engine._k is None

    @pytest.mark.parametrize("algo", ["maddpg", "matd3"])
    def test_engine_dispatches_a_kernel_backend(self, algo):
        trainer = build_trainer(
            algo, "baseline", [6] * 3, [3] * 3, config=_config(backend="python"), seed=0
        )
        assert trainer.backend.name == "python"
        assert trainer._engine._k is trainer.backend.kernels

    def test_backend_inert_without_batched_update(self):
        trainer = build_trainer(
            "maddpg", "baseline", [6] * 3, [3] * 3,
            config=_config(batched_update=False, backend="python"), seed=0,
        )
        assert trainer._engine is None  # scalar loop: no kernel dispatch at all
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(0), 32)
        assert trainer.update(force=True)

    def test_non_mlp3_topology_warns_and_falls_back(self):
        # one hidden layer: [Linear, ReLU, Linear] does not match the
        # 3-Linear kernel specialization -> engine warns, runs numpy path
        trainer = build_trainer(
            "maddpg", "baseline", [6] * 3, [3] * 3,
            config=_config(hidden_units=(16,)), seed=0,
        )
        with pytest.warns(RuntimeWarning, match="do not match"):
            engine = BatchedUpdateEngine(trainer, backend=kernel_backend())
        assert engine._k is None
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(0), 32)
        trainer._engine = engine
        assert trainer.update(force=True)

    def test_mlp3_parameters_pattern_match(self):
        rng = np.random.default_rng(0)
        from repro.nn import stack_sequentials

        nets = stack_sequentials([mlp(6, 3, hidden=(16, 16), rng=rng) for _ in range(2)])
        params = mlp3_parameters(nets)
        assert params is not None and len(params) == 6
        shallow = stack_sequentials([mlp(6, 3, hidden=(16,), rng=rng) for _ in range(2)])
        assert mlp3_parameters(shallow) is None


# ---------------------------------------------------------------------------
# telemetry provenance
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_manifest_and_counter_carry_backend(self):
        env = repro.make_env("cooperative_navigation", num_agents=2, seed=0)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims,
            config=MARLConfig(batch_size=32, buffer_capacity=256, update_every=25),
            seed=0,
        )
        recorder = memory_recorder()
        train(env, trainer, episodes=1, telemetry=recorder)
        (manifest,) = recorder.sink.of_kind("manifest")
        assert manifest.backend["name"] == "numpy"
        assert manifest.backend["compiled"] is False
        selected = [
            c for c in recorder.sink.of_kind("counter")
            if c.name == "backend.selected"
        ]
        assert len(selected) == 1 and selected[0].unit == "numpy"

    def test_manifest_roundtrips_backend_field(self):
        from repro.telemetry.records import RunManifest, record_from_dict

        record = RunManifest.capture(backend=kernel_backend().describe())
        rebuilt = record_from_dict(record.to_dict())
        assert rebuilt.backend["name"] == "python"
        # pre-backend manifests (no field) still parse
        legacy = record.to_dict()
        del legacy["backend"]
        assert record_from_dict(legacy).backend == {}


# ---------------------------------------------------------------------------
# headline: full-training equivalence, kernel path vs numpy reference
# ---------------------------------------------------------------------------


def _train_synthetic(algo, backend, n, per, steps=120):
    config = MARLConfig(
        batch_size=32, buffer_capacity=2000, update_every=20,
        hidden_units=(16, 16), batched_update=True, backend=backend,
    )
    obs, act = [8] * n, [5] * n
    trainer = build_trainer(algo, "per" if per else "baseline", obs, act, config, seed=7)
    rng = np.random.default_rng(3)
    for _ in range(steps):
        trainer.experience(
            [rng.standard_normal(d) for d in obs],
            [rng.standard_normal(d) for d in act],
            [float(rng.standard_normal()) for _ in range(n)],
            [rng.standard_normal(d) for d in obs],
            [bool(rng.integers(0, 2)) for _ in range(n)],
        )
        if trainer.should_update():
            trainer.update()
    out = []
    for agent in trainer.agents:
        for net in (agent.actor, agent.critic, agent.target_actor, agent.target_critic):
            out.extend(p.value.copy() for p in net.parameters())
    return out


class TestTrainingEquivalence:
    @pytest.mark.parametrize("algo", ["maddpg", "matd3"])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("per", [False, True], ids=["uniform", "per"])
    def test_kernel_path_matches_numpy_reference(self, algo, n, per):
        reference = _train_synthetic(algo, "numpy", n, per)
        kernels = _train_synthetic(algo, "python", n, per)
        for ref, got in zip(reference, kernels):
            np.testing.assert_allclose(got, ref, **TOL)
