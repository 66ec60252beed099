"""Sampling-profiler tests: lifecycle, collapse format, filtering."""

import gc
import threading
import time
import weakref

import pytest

from repro.obs.profile import NULL_PROFILER, SamplingProfiler, _frame_stack


def _spin_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestFrameStack:
    def test_collapse_format_outer_to_inner(self):
        import sys

        def inner():
            return sys._getframe()

        def outer():
            return inner()

        stack = _frame_stack(outer(), depth_limit=64)
        parts = stack.split(";")
        # Leaf (innermost) is last; this module is the enclosing frames.
        assert parts[-1].endswith(":inner")
        assert parts[-2].endswith(":outer")
        assert all(":" in p for p in parts)

    def test_depth_limit_keeps_the_hot_leaf(self):
        import sys

        def recurse(n):
            if n == 0:
                return sys._getframe()
            return recurse(n - 1)

        stack = _frame_stack(recurse(30), depth_limit=5)
        parts = stack.split(";")
        assert len(parts) == 5
        # Truncated at the OUTER end: the leaf survives.
        assert parts[-1].endswith(":recurse")


class TestLifecycle:
    def test_start_stop_and_running(self):
        prof = SamplingProfiler(hz=200.0)
        assert not prof.running
        prof.start()
        try:
            assert prof.running
            prof.start()  # idempotent
            assert threading.active_count() >= 1
        finally:
            prof.stop()
        assert not prof.running
        prof.stop()  # idempotent

    def test_hz_zero_never_starts(self):
        prof = SamplingProfiler(hz=0)
        prof.start()
        assert not prof.running
        assert prof.snapshot()["samples"] == 0

    def test_negative_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-1)

    def test_counts_survive_stop_for_final_snapshot(self):
        prof = SamplingProfiler(hz=500.0, skip_idle=False)
        prof.start()
        assert _spin_until(lambda: prof.snapshot()["samples"] >= 3)
        prof.stop()
        snap = prof.snapshot()
        assert snap["samples"] >= 3
        assert snap["elapsed"] > 0.0

    def test_reset_clears_counts(self):
        prof = SamplingProfiler(hz=0)
        prof._stacks["a:b"] = 5
        prof._samples = 5
        prof.reset()
        assert prof.snapshot()["samples"] == 0
        assert prof.snapshot()["stacks"] == {}


class TestSampling:
    def test_busy_thread_shows_up_in_stacks(self):
        stop = threading.Event()

        def burn_cycles():
            while not stop.is_set():
                sum(i * i for i in range(200))

        worker = threading.Thread(target=burn_cycles, name="burner")
        worker.start()
        prof = SamplingProfiler(hz=500.0)
        prof.start()
        try:
            assert _spin_until(
                lambda: any("burn_cycles" in s
                            for s in prof.snapshot()["stacks"]))
        finally:
            prof.stop()
            stop.set()
            worker.join()
        collapsed = prof.collapsed()
        line = next(l for l in collapsed.splitlines() if "burn_cycles" in l)
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack

    def test_top_limits_stacks_hottest_first(self):
        prof = SamplingProfiler(hz=0)
        prof._stacks.update({"a:a": 5, "b:b": 9, "c:c": 1})
        prof._samples = 15
        snap = prof.snapshot(top=2)
        assert list(snap["stacks"]) == ["b:b", "a:a"]
        assert prof.collapsed(top=1) == "b:b 9"

    def test_idle_leaves_filtered_but_counted(self):
        prof = SamplingProfiler(hz=500.0, skip_idle=True)
        # This main thread will mostly sit in time.sleep — an idle leaf.
        prof.start()
        try:
            assert _spin_until(lambda: prof.snapshot()["samples"] >= 5)
        finally:
            prof.stop()
        snap = prof.snapshot()
        for stack in snap["stacks"]:
            assert stack.rsplit(";", 1)[-1] not in prof._IDLE_LEAVES
        # Raw sample count keeps the idle samples (overhead math stays
        # honest even when every stack is filtered).
        assert snap["samples"] >= 5

    def test_info_shape(self):
        prof = SamplingProfiler(hz=67.0)
        info = prof.info()
        assert info == {
            "enabled": True, "running": False, "hz": 67.0,
            "samples": 0, "distinct_stacks": 0,
        }

    def test_snapshot_msgpack_safe(self):
        from repro.rpc import pack, unpack

        prof = SamplingProfiler(hz=0)
        prof._stacks["mod:fn;mod:leaf"] = 3
        prof._samples = 3
        assert unpack(pack(prof.snapshot())) == prof.snapshot()


class TestFrameReferences:
    def test_sampling_does_not_keep_a_sampled_threads_locals_alive(self):
        """With the cyclic GC off, a sampled local dies with its frame."""

        class Payload:
            pass

        ref = []
        sampled, release, returned, finish = (threading.Event() for _ in range(4))

        def hold():
            payload = Payload()
            ref.append(weakref.ref(payload))
            sampled.set()
            release.wait(5.0)

        def worker():
            hold()
            returned.set()
            finish.wait(5.0)  # the thread lives on; only hold's frame is gone

        prof = SamplingProfiler(hz=0)
        gc.collect()
        gc.disable()
        try:
            thread = threading.Thread(target=worker)
            thread.start()
            assert sampled.wait(5.0)
            prof._sample()
            release.set()
            assert returned.wait(5.0)
            assert ref[0]() is None
        finally:
            release.set()
            finish.set()
            gc.enable()
        thread.join(5.0)
        assert prof.snapshot()["samples"] == 1


class TestNullProfiler:
    def test_inert_surface(self):
        assert not NULL_PROFILER
        NULL_PROFILER.start()
        NULL_PROFILER.stop()
        assert NULL_PROFILER.snapshot(top=5)["enabled"] is False
        assert NULL_PROFILER.collapsed(top=5) == ""
        assert NULL_PROFILER.info() == {"enabled": False}
        assert NULL_PROFILER.running is False
