"""Tests for phase timers and paper-style breakdowns."""

import threading
import time

import pytest

from repro.profiling import (
    ACTION_SELECTION,
    ENV_STEP,
    PhaseTimer,
    SAMPLING,
    TARGET_Q,
    LOSS_UPDATE,
    UPDATE_ALL_TRAINERS,
    UPDATE_SUBPHASES,
    end_to_end_breakdown,
    qualified,
    update_breakdown,
)
from repro.profiling.phases import percentages


class TestPhaseTimer:
    def test_accumulates_time(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            time.sleep(0.01)
        assert timer.total("work") >= 0.01
        assert timer.count("work") == 1

    def test_repeat_phases_accumulate(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("w"):
                pass
        assert timer.count("w") == 3

    def test_nesting_produces_dotted_keys(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with timer.phase("inner"):
                pass
        assert "outer" in timer.phases()
        assert "outer.inner" in timer.phases()

    def test_children(self):
        timer = PhaseTimer()
        with timer.phase("u"):
            with timer.phase("a"):
                pass
            with timer.phase("b"):
                with timer.phase("deep"):
                    pass
        assert timer.children("u") == ["u.a", "u.b"]

    def test_nested_time_within_parent(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with timer.phase("inner"):
                time.sleep(0.005)
        assert timer.total("outer") >= timer.total("outer.inner")

    def test_exception_still_records(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("x"):
                raise RuntimeError("boom")
        assert timer.count("x") == 1

    def test_add_external_time(self):
        timer = PhaseTimer()
        timer.add("ext", 1.5, count=3)
        assert timer.total("ext") == 1.5
        assert timer.count("ext") == 3
        with pytest.raises(ValueError):
            timer.add("ext", -1.0)

    def test_mean(self):
        timer = PhaseTimer()
        timer.add("x", 2.0, count=4)
        assert timer.mean("x") == pytest.approx(0.5)
        assert timer.mean("missing") == 0.0

    def test_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.total("x") == 3.0
        assert a.total("y") == 3.0

    def test_invalid_phase_name(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("dotted.name"):
                pass
        with pytest.raises(ValueError):
            with timer.phase(""):
                pass

    def test_reset(self):
        timer = PhaseTimer()
        timer.add("x", 1.0)
        timer.reset()
        assert timer.phases() == []


class TestThreadSafety:
    """The serving tier shares one timer between its callers and the
    flusher thread; stacks are per-thread, totals merge under a lock."""

    def test_concurrent_phases_merge_into_shared_totals(self):
        timer = PhaseTimer()
        rounds, workers = 50, 4
        barrier = threading.Barrier(workers)

        def hammer(name):
            barrier.wait()
            for _ in range(rounds):
                with timer.phase(name):
                    pass
                timer.add("shared", 0.001)

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(workers):
            assert timer.count(f"t{i}") == rounds
        assert timer.count("shared") == workers * rounds
        assert timer.total("shared") == pytest.approx(workers * rounds * 0.001)

    def test_per_thread_nesting_stacks_are_independent(self):
        """A phase opened on a background thread starts its own root: it
        must NOT nest under whatever the main thread has open."""
        timer = PhaseTimer()
        started = threading.Event()
        release = threading.Event()

        def background():
            with timer.phase("serve"):
                with timer.phase("flush"):
                    started.set()
                    release.wait(timeout=5.0)

        worker = threading.Thread(target=background)
        with timer.phase("update_loop"):
            worker.start()
            assert started.wait(timeout=5.0)
            with timer.phase("sampling"):
                pass
            release.set()
            worker.join()
        keys = set(timer.phases())
        assert "update_loop.sampling" in keys
        assert "serve.flush" in keys
        # no cross-thread contamination of either stack
        assert "update_loop.serve" not in keys
        assert "serve.sampling" not in keys

    def test_reset_raises_while_phase_active_on_another_thread(self):
        timer = PhaseTimer()
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with timer.phase("held"):
                entered.set()
                release.wait(timeout=5.0)

        worker = threading.Thread(target=hold)
        worker.start()
        assert entered.wait(timeout=5.0)
        try:
            with pytest.raises(RuntimeError, match="active"):
                timer.reset()
        finally:
            release.set()
            worker.join()
        timer.reset()  # fine once the phase closed
        assert timer.phases() == []

    def test_merge_from_worker_timer(self):
        """A detached worker can accumulate into its own timer and fold
        the result back into the trainer's afterwards."""
        main, worker = PhaseTimer(), PhaseTimer()
        main.add("env_step", 1.0, count=2)

        def run():
            for _ in range(3):
                with worker.phase("env_step"):
                    pass

        t = threading.Thread(target=run)
        t.start()
        t.join()
        main.merge(worker)
        assert main.count("env_step") == 5
        assert main.total("env_step") >= 1.0


class TestPhaseNames:
    def test_qualified(self):
        assert qualified(SAMPLING) == "update_all_trainers.sampling"
        with pytest.raises(ValueError):
            qualified("bogus")

    def test_update_subphases_match_paper(self):
        assert UPDATE_SUBPHASES == ("sampling", "target_q", "loss_update")

    def test_percentages(self):
        out = percentages({"a": 3.0, "b": 1.0}, ["a", "b"])
        assert out["a"] == pytest.approx(75.0)
        with pytest.raises(ValueError):
            percentages({}, ["a"])


class TestBreakdowns:
    def make_timer(self):
        timer = PhaseTimer()
        timer.add(ACTION_SELECTION, 2.0)
        timer.add(UPDATE_ALL_TRAINERS, 6.0)
        timer.add(qualified(SAMPLING), 3.6)
        timer.add(qualified(TARGET_Q), 1.5)
        timer.add(qualified(LOSS_UPDATE), 0.9)
        return timer

    def test_end_to_end_breakdown(self):
        b = end_to_end_breakdown(self.make_timer(), total_seconds=10.0)
        assert b.action_selection_pct == pytest.approx(20.0)
        assert b.update_all_trainers_pct == pytest.approx(60.0)
        assert b.other_pct == pytest.approx(20.0)

    def test_update_breakdown_uses_subphase_shares(self):
        b = update_breakdown(self.make_timer())
        assert b.sampling_pct == pytest.approx(60.0)
        assert b.target_q_pct == pytest.approx(25.0)
        assert b.loss_pct == pytest.approx(15.0)
        assert b.update_seconds == pytest.approx(6.0)

    def test_update_total_falls_back_to_subphase_sum(self):
        timer = PhaseTimer()
        timer.add(qualified(SAMPLING), 2.0)
        timer.add(qualified(TARGET_Q), 1.0)
        timer.add(qualified(LOSS_UPDATE), 1.0)
        b = update_breakdown(timer)
        assert b.update_seconds == pytest.approx(4.0)

    def test_attribution_exceeding_total_raises(self):
        with pytest.raises(ValueError, match="exceeds total"):
            end_to_end_breakdown(self.make_timer(), total_seconds=5.0)

    def test_empty_update_raises(self):
        with pytest.raises(ValueError, match="no update"):
            update_breakdown(PhaseTimer())

    def test_render_strings(self):
        timer = self.make_timer()
        assert "%" in end_to_end_breakdown(timer, 10.0).render()
        assert "sampling" in update_breakdown(timer).render()

    def test_env_step_is_shown_as_a_part_of_other(self):
        timer = self.make_timer()
        assert "env step" not in end_to_end_breakdown(timer, 10.0).render()
        timer.add(ENV_STEP, 1.5)
        b = end_to_end_breakdown(timer, 10.0)
        assert b.env_step_pct == pytest.approx(15.0)
        assert b.other_pct == pytest.approx(20.0)  # the three bars are unchanged
        assert b.render().endswith("other 20.0% (env step 15.0%)")

    def test_as_dict_keys(self):
        d = end_to_end_breakdown(self.make_timer(), 10.0).as_dict()
        assert set(d) == {"total_seconds", ACTION_SELECTION, UPDATE_ALL_TRAINERS, "other"}


class TestPercentiles:
    def test_add_records_samples_for_percentiles(self):
        timer = PhaseTimer()
        for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
            timer.add("phase", ms / 1000.0)
        assert timer.sample_count("phase") == 10
        assert timer.percentile("phase", 0.0) == pytest.approx(0.001)
        assert timer.percentile("phase", 50.0) == pytest.approx(0.0055)
        assert timer.percentile("phase", 100.0) == pytest.approx(0.010)

    def test_percentile_matches_numpy_interpolation(self):
        import numpy as np

        rng = np.random.default_rng(7)
        values = rng.exponential(0.01, size=257)
        timer = PhaseTimer()
        for v in values:
            timer.add("phase", float(v))
        for q in (1.0, 50.0, 99.0):
            assert timer.percentile("phase", q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_phase_context_feeds_percentiles(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("outer"):
                with timer.phase("inner"):
                    pass
        assert timer.sample_count("outer") == 3
        assert timer.sample_count("outer.inner") == 3
        assert timer.percentile("outer", 99.0) >= timer.percentile("outer.inner", 50.0)

    def test_unrecorded_phase_and_bounds(self):
        timer = PhaseTimer()
        assert timer.percentile("ghost", 50.0) == 0.0
        assert timer.sample_count("ghost") == 0
        timer.add("one", 0.004)
        assert timer.percentile("one", 99.0) == pytest.approx(0.004)
        with pytest.raises(ValueError):
            timer.percentile("one", 101.0)
        with pytest.raises(ValueError):
            timer.percentile("one", -1.0)

    def test_aggregate_add_excluded_from_samples(self):
        timer = PhaseTimer()
        timer.add("phase", 0.002)
        timer.add("phase", 1.0, count=500)  # folded-in aggregate, not one span
        assert timer.count("phase") == 501
        assert timer.sample_count("phase") == 1
        assert timer.percentile("phase", 99.0) == pytest.approx(0.002)

    def test_sample_window_keeps_trailing(self):
        timer = PhaseTimer(sample_window=8)
        for i in range(100):
            timer.add("phase", i / 1000.0)
        assert timer.sample_count("phase") == 8
        assert timer.count("phase") == 100
        # only the trailing 8 (92ms..99ms) survive
        assert timer.percentile("phase", 0.0) == pytest.approx(0.092)
        assert timer.percentile("phase", 100.0) == pytest.approx(0.099)

    def test_add_span_records_like_add(self):
        timer = PhaseTimer()
        timer.add_span("serve.flush", 0.003)
        timer.add_span("serve.flush", 0.005)
        assert timer.total("serve.flush") == pytest.approx(0.008)
        assert timer.sample_count("serve.flush") == 2
        with pytest.raises(ValueError):
            timer.add_span("serve.flush", -0.001)

    def test_summary_shape(self):
        timer = PhaseTimer()
        timer.add("b", 0.002)
        timer.add("a", 0.001)
        timer.add("a", 0.003)
        summary = timer.summary()
        assert list(summary) == ["a", "b"]  # sorted
        assert set(summary["a"]) == {"total", "count", "mean", "p50", "p99"}
        assert summary["a"]["total"] == pytest.approx(0.004)
        assert summary["a"]["count"] == 2
        assert summary["a"]["mean"] == pytest.approx(0.002)
        assert summary["a"]["p50"] == pytest.approx(0.002)
        assert summary["a"]["p99"] >= summary["a"]["p50"]

    def test_merge_carries_samples(self):
        main, worker = PhaseTimer(), PhaseTimer()
        main.add("phase", 0.001)
        worker.add("phase", 0.009)
        main.merge(worker)
        assert main.sample_count("phase") == 2
        assert main.percentile("phase", 100.0) == pytest.approx(0.009)

    def test_reset_clears_samples(self):
        timer = PhaseTimer()
        timer.add("phase", 0.005)
        timer.reset()
        assert timer.sample_count("phase") == 0
        assert timer.percentile("phase", 50.0) == 0.0
