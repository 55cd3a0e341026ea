"""Replay dataset service process tests: push/pull protocol and lifecycle.

The content assertions here are the regression tests for the response-
slot routing bug this PR fixed during development: every row a pull
client receives must be a row that was actually pushed — for *every*
client, not just client 0 (``conns[0]`` in a shard server is the
producer, so client ``c`` talks on ``conns[c + 1]``).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.buffers.transition import JointSchema
from repro.replay import ReplayShardService

OBS_DIMS = [4, 3]
ACT_DIMS = [2, 2]
WIDTH = JointSchema.from_dims(OBS_DIMS, ACT_DIMS).width


def make_rows(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # unique first column so pulled rows can be traced back to pushes
    rows = rng.normal(size=(count, WIDTH)).astype(np.float64)
    rows[:, 0] = np.arange(count, dtype=np.float64)
    return rows


@pytest.fixture
def service():
    svc = ReplayShardService(
        OBS_DIMS,
        ACT_DIMS,
        capacity=256,
        num_shards=2,
        num_clients=2,
        max_push=32,
        max_batch=24,
        seed=0,
    )
    yield svc
    svc.close()


def assert_rows_were_pushed(pulled: np.ndarray, pushed: np.ndarray) -> None:
    """Every pulled row is byte-identical to some pushed row."""
    for row in pulled:
        matches = np.flatnonzero(pushed[:, 0] == row[0])
        assert matches.size == 1, "pulled a row that was never pushed"
        np.testing.assert_array_equal(row, pushed[matches[0]])


class TestPushPull:
    def test_push_acks_and_balances(self, service):
        rows = make_rows(20)
        assert service.push(rows) == 20
        assert len(service) == 20
        assert service.sizes() == [10, 10]  # round robin balances exactly

    def test_every_client_pulls_real_rows(self, service):
        rows = make_rows(40, seed=1)
        service.push(rows)
        for client_id in range(2):
            client = service.pull_client(client_id)
            client.refresh_sizes()
            assert client.total_size() == 40
            pulled = client.sample_rows(16)
            assert pulled.shape == (16, service.schema.width)
            assert_rows_were_pushed(pulled, rows)
            assert client.rows_pulled == 16 and client.requests == 1

    def test_clients_sample_concurrently_without_crosstalk(self, service):
        rows = make_rows(30, seed=2)
        service.push(rows)
        a = service.pull_client(0)
        b = service.pull_client(1)
        a.refresh_sizes()
        b.refresh_sizes()
        # interleave pulls: each client's response slot must stay private
        for _ in range(3):
            assert_rows_were_pushed(a.sample_rows(12), rows)
            assert_rows_were_pushed(b.sample_rows(12), rows)

    def test_chunked_push_beyond_max_push(self, service):
        rows = make_rows(100, seed=3)  # max_push=32 → 4 chunks
        assert service.push(rows) == 100
        assert len(service) == 100
        client = service.pull_client(0)
        client.refresh_sizes()
        assert_rows_were_pushed(client.sample_rows(24), rows)

    def test_sample_fields_split(self, service):
        service.push(make_rows(16, seed=4))
        client = service.pull_client(0)
        client.refresh_sizes()
        fields = client.sample_fields(8)
        assert len(fields) == 2  # per agent
        obs, act, rew, next_obs, done = fields[0]
        assert obs.shape == (8, 4) and act.shape == (8, 2)
        assert rew.shape == (8,) and done.shape == (8,)

    def test_batch_above_slot_rejected(self, service):
        service.push(make_rows(8))
        client = service.pull_client(0)
        client.refresh_sizes()
        with pytest.raises(ValueError, match="response slot"):
            client.sample_rows(25)  # max_batch=24

    def test_bad_row_width_rejected(self, service):
        with pytest.raises(ValueError, match="packed rows"):
            service.push(np.zeros((4, 7)))


class TestStats:
    def test_counters_reconcile(self, service):
        service.push(make_rows(26, seed=6))
        client = service.pull_client(1)
        client.refresh_sizes()
        client.sample_rows(20)
        stats = service.stats()
        assert [s["shard"] for s in stats] == [0, 1]
        assert sum(s["ingested"] for s in stats) == 26
        assert sum(s["sampled"] for s in stats) == 20
        assert all(s["requests"] > 0 for s in stats)
        assert all(s["queue_peak"] >= 1 for s in stats)


class TestLifecycle:
    def test_close_idempotent_and_unlinks(self):
        svc = ReplayShardService(
            OBS_DIMS, ACT_DIMS, capacity=64, num_shards=2, max_push=16, max_batch=16
        )
        name = svc.shm_name
        procs = list(svc._procs)
        svc.push(make_rows(8))
        svc.close()
        svc.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert all(not p.is_alive() for p in procs)

    def test_no_stray_segments_after_context_exit(self):
        before = set(glob.glob("/dev/shm/repro_svc_*"))
        with ReplayShardService(
            OBS_DIMS, ACT_DIMS, capacity=64, num_shards=2, max_push=16, max_batch=16
        ) as svc:
            svc.push(make_rows(8))
        assert set(glob.glob("/dev/shm/repro_svc_*")) <= before
