"""Versioned parameter store: publish/poll semantics and async broadcast.

Both store implementations share one protocol, so the semantics tests
parametrize over them; the fork test exercises the property the service
depends on — a child process's publish is visible to the parent through
the shared segment with no pickling.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import (
    ParameterStore,
    ParameterSubscriber,
    SharedParameterStore,
    agent_param_arrays,
)

SHAPES = [[(3, 2), (2,)], [(4,)]]


def make_small_trainer(seed: int):
    import repro
    from repro.algos.config import MARLConfig

    config = MARLConfig(hidden_units=(8, 8), storage="timestep_major")
    return repro.make_trainer(
        "maddpg", "baseline", [4, 3], [2, 2], config=config, seed=seed
    )


def fill(shapes, base):
    return [np.full(shape, base + k, dtype=np.float64) for k, shape in enumerate(shapes)]


@pytest.fixture(params=["threaded", "shared"])
def store(request):
    if request.param == "threaded":
        yield ParameterStore(SHAPES)
    else:
        shared = SharedParameterStore(SHAPES)
        yield shared
        shared.close()


class TestStoreProtocol:
    def test_versions_start_at_zero_and_poll_empty(self, store):
        assert store.versions() == [0, 0]
        version, data = store.poll(0, since=0)
        assert version == 0 and data is None

    def test_publish_bumps_version_and_poll_copies(self, store):
        assert store.publish(0, fill(SHAPES[0], 1.0)) == 1
        assert store.publish(0, fill(SHAPES[0], 2.0)) == 2
        assert store.versions() == [2, 0]

        version, data = store.poll(0, since=0)
        assert version == 2
        np.testing.assert_array_equal(data[0], np.full((3, 2), 2.0))
        np.testing.assert_array_equal(data[1], np.full((2,), 3.0))
        # the returned arrays are copies, not views into the store
        data[0][:] = 99.0
        _, again = store.poll(0, since=0)
        np.testing.assert_array_equal(again[0], np.full((3, 2), 2.0))

    def test_poll_since_current_returns_none(self, store):
        store.publish(1, fill(SHAPES[1], 5.0))
        version, data = store.poll(1, since=1)
        assert version == 1 and data is None
        version, data = store.poll(1, since=0)
        assert version == 1 and data is not None

    def test_shape_mismatch_rejected(self, store):
        with pytest.raises(ValueError, match="shape mismatch"):
            store.publish(0, fill(SHAPES[1], 1.0))


class TestSharedStoreForking:
    def test_child_publish_visible_to_parent(self):
        store = SharedParameterStore(SHAPES)
        try:

            def child(store):
                store.publish(1, fill(SHAPES[1], 7.0))

            proc = multiprocessing.get_context("fork").Process(
                target=child, args=(store,)
            )
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            version, data = store.poll(1, since=0)
            assert version == 1
            np.testing.assert_array_equal(data[0], np.full((4,), 7.0))
        finally:
            store.close()

    def test_close_idempotent(self):
        store = SharedParameterStore(SHAPES)
        name = store.name
        store.close()
        store.close()
        import os

        assert not os.path.exists(f"/dev/shm/{name}")

    def test_for_agents_matches_payload_shapes(self):
        trainer = make_small_trainer(seed=0)
        store = SharedParameterStore.for_agents(trainer.agents)
        try:
            for i, agent in enumerate(trainer.agents):
                payload = agent_param_arrays(agent)
                assert store.shapes(i) == [tuple(a.shape) for a in payload]
                store.publish(i, payload)
            assert store.versions() == [1, 1]
        finally:
            store.close()


class TestSubscriber:
    def test_applies_in_place_and_tracks_staleness(self):
        store = ParameterStore(SHAPES)
        targets = {0: fill(SHAPES[0], 0.0), 1: fill(SHAPES[1], 0.0)}
        sub = ParameterSubscriber(store, targets)

        assert sub.poll() == 0  # nothing published yet
        assert sub.staleness == [0]

        store.publish(0, fill(SHAPES[0], 3.0))
        store.publish(0, fill(SHAPES[0], 4.0))  # two versions behind
        store.publish(1, fill(SHAPES[1], 9.0))
        assert sub.poll() == 2
        # applied IN PLACE: the original target objects hold the new data
        np.testing.assert_array_equal(targets[0][0], np.full((3, 2), 4.0))
        np.testing.assert_array_equal(targets[1][0], np.full((4,), 9.0))
        assert sub.staleness[-1] == 2  # largest lag closed this poll
        assert sub.applied == {0: 2, 1: 1}

        assert sub.poll() == 0  # up to date: no copies
        assert sub.staleness[-1] == 0
        assert sub.polls == 3 and sub.refreshes == 2

    def test_target_shape_validated_against_store(self):
        store = ParameterStore(SHAPES)
        with pytest.raises(ValueError, match="partition 0"):
            ParameterSubscriber(store, {0: fill(SHAPES[1], 0.0)})

    def test_refresh_lands_inside_live_networks(self):
        """A poll rewires a trainer's actor without touching the objects."""
        source = make_small_trainer(seed=1)
        sink = make_small_trainer(seed=2)
        store = ParameterStore(
            [[tuple(a.shape) for a in agent_param_arrays(agent)]
             for agent in source.agents]
        )
        sub = ParameterSubscriber(
            store, {i: agent_param_arrays(a) for i, a in enumerate(sink.agents)}
        )
        for i, agent in enumerate(source.agents):
            store.publish(i, agent_param_arrays(agent))
        assert sub.poll() == 2
        for src_agent, dst_agent in zip(source.agents, sink.agents):
            for p, q in zip(src_agent.actor.parameters(), dst_agent.actor.parameters()):
                np.testing.assert_array_equal(p.value, q.value)


class TestConcurrentVersioning:
    """Properties the serving tier leans on: monotone versions, no tearing."""

    def test_concurrent_publishers_versions_monotone(self, store):
        publishers, rounds = 4, 25
        issued = [[] for _ in range(publishers)]

        def publish(slot):
            for r in range(rounds):
                issued[slot].append(store.publish(0, fill(SHAPES[0], float(r))))

        observed = []
        done = threading.Event()

        def watch():
            while not done.is_set():
                observed.append(store.version(0))
            observed.append(store.version(0))

        watcher = threading.Thread(target=watch)
        threads = [
            threading.Thread(target=publish, args=(slot,))
            for slot in range(publishers)
        ]
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        watcher.join()
        # every publish got a unique, gap-free version...
        all_issued = sorted(v for per in issued for v in per)
        assert all_issued == list(range(1, publishers * rounds + 1))
        # ...each publisher saw its own versions strictly increase...
        for per in issued:
            assert per == sorted(per)
        # ...and no reader ever saw the version go backwards
        assert observed == sorted(observed)
        assert observed[-1] == publishers * rounds

    def test_refresh_mid_publish_never_tears(self):
        """Publishes use version-derived fill values so tearing is visible:
        a torn copy would mix two bases inside one partition's arrays."""
        store = ParameterStore(SHAPES)
        targets = {0: fill(SHAPES[0], 0.0), 1: fill(SHAPES[1], 0.0)}
        sub = ParameterSubscriber(store, targets)
        stop = threading.Event()
        errors = []

        def publisher(partition):
            base = 0.0
            while not stop.is_set():
                base += 1.0
                store.publish(partition, fill(SHAPES[partition], base))

        threads = [
            threading.Thread(target=publisher, args=(p,)) for p in (0, 1)
        ]
        for t in threads:
            t.start()
        last_applied = dict(sub.applied)
        try:
            for _ in range(300):
                sub.refresh()
                for partition, arrays in targets.items():
                    base = arrays[0].flat[0]
                    for k, (arr, shape) in enumerate(
                        zip(arrays, SHAPES[partition])
                    ):
                        expected = np.full(shape, base + k)
                        if not np.array_equal(arr, expected):
                            errors.append(
                                f"partition {partition} torn: array {k} is "
                                f"{arr!r}, base {base}"
                            )
                    applied = sub.applied[partition]
                    if applied < last_applied[partition]:
                        errors.append(
                            f"partition {partition} applied version went "
                            f"backwards: {last_applied[partition]} -> {applied}"
                        )
                    last_applied[partition] = applied
                if errors:
                    break
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors[0]
        assert sub.refreshes > 0

    def test_refresh_settles_on_newest_after_storm(self):
        store = ParameterStore(SHAPES)
        targets = {0: fill(SHAPES[0], 0.0)}
        sub = ParameterSubscriber(store, targets)
        for base in (1.0, 2.0, 3.0):
            store.publish(0, fill(SHAPES[0], base))
        assert sub.refresh() >= 1
        assert sub.applied[0] == 3
        np.testing.assert_array_equal(targets[0][0], np.full((3, 2), 3.0))
        assert sub.refresh() == 0  # idempotent when quiet
        with pytest.raises(ValueError, match="max_retries"):
            sub.refresh(max_retries=0)


@settings(max_examples=30, deadline=None)
@given(
    publishes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.floats(min_value=-100.0, max_value=100.0,
                      allow_nan=False, allow_subnormal=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_publish_poll_roundtrip_property(publishes):
    """Any interleaving of publishes: versions count publishes per
    partition and poll always returns the latest payload, intact."""
    store = ParameterStore(SHAPES)
    latest = {}
    counts = {0: 0, 1: 0}
    for partition, base in publishes:
        version = store.publish(partition, fill(SHAPES[partition], base))
        counts[partition] += 1
        assert version == counts[partition]
        latest[partition] = base
    assert store.versions() == [counts[0], counts[1]]
    for partition, base in latest.items():
        version, data = store.poll(partition, since=0)
        assert version == counts[partition]
        for k, arr in enumerate(data):
            np.testing.assert_array_equal(
                arr, np.full(SHAPES[partition][k], base + k)
            )
