"""Sampling profiler: continuous, whole-process, flamegraph-ready.

Deterministic tracing answers "what did this request do"; only a
*sampling* profiler answers "where does this process spend its time",
including the GIL-bound hot loops, codec inner loops, and lock waits no
request-scoped span covers.  :class:`SamplingProfiler` runs a daemon
thread that wakes at a configurable Hz, grabs ``sys._current_frames()``
(one C-level dict fetch — no per-frame tracing hooks, unlike
``sys.settrace``), walks each thread's stack, and accumulates counts per
*collapsed stack*: the ``pkg.mod:func;pkg.mod:func`` semicolon format
every flamegraph renderer (Brendan Gregg's ``flamegraph.pl``, speedscope,
``inferno``) consumes directly.

At the default 67 Hz each sample costs a handful of microseconds, so the
profiler stays on in production under the same <5% overhead gate as the
flight recorder (``benchmarks/test_ext_obs_overhead.py``).  The server
exposes the aggregate through a ``profile`` RPC endpoint; ``repro prof
<addr>`` pulls it live and writes a ``.collapsed`` file.
"""

from __future__ import annotations

import sys
import threading
import time

__all__ = ["SamplingProfiler", "NullProfiler", "NULL_PROFILER"]


class NullProfiler:
    """Inert stand-in so callers can start/stop/snapshot unconditionally."""

    enabled = False
    running = False

    def __bool__(self) -> bool:
        return False

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def snapshot(self, top: int | None = None) -> dict:
        return {"enabled": False, "samples": 0, "stacks": {}}

    def collapsed(self, top: int | None = None) -> str:
        return ""

    def info(self) -> dict:
        return {"enabled": False}


NULL_PROFILER = NullProfiler()


def _frame_stack(frame, depth_limit: int) -> str:
    """Collapse one frame chain into ``outer;...;inner`` notation."""
    parts: list[str] = []
    while frame is not None and len(parts) < depth_limit:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Background statistical profiler over ``sys._current_frames()``.

    Parameters
    ----------
    hz:
        Samples per second.  67 (a prime-ish non-divisor of common timer
        periods) avoids resonating with periodic work; 0 disables.
    depth_limit:
        Max frames kept per stack — deep recursions are truncated at the
        *inner* end so the hot leaf is always retained.
    skip_idle:
        Drop stacks whose leaf is a known idle wait (selector poll,
        queue get, lock acquire in the profiler itself), keeping the
        flamegraph about work, not waiting.  The raw sample count still
        includes them so overhead math stays honest.
    clock:
        Injectable monotonic clock (tests use a fake for ``info()``
        timing; the sampling cadence itself always uses real sleeps).
    """

    enabled = True

    _IDLE_LEAVES = frozenset({
        "selectors:select",
        "threading:wait",
        "threading:_wait_for_tstate_lock",
        "queue:get",
        "socket:accept",
        "time:sleep",
    })

    def __init__(self, hz: float = 67.0, depth_limit: int = 64,
                 skip_idle: bool = True, clock=time.monotonic):
        if hz < 0:
            raise ValueError(f"hz must be >= 0, got {hz}")
        self.hz = float(hz)
        self.depth_limit = int(depth_limit)
        self.skip_idle = bool(skip_idle)
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._samples = 0
        self._idle_samples = 0
        self._started_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __bool__(self) -> bool:
        return True

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the sampler thread (idempotent; no-op at hz=0)."""
        if self.hz == 0 or self.running:
            return
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 1.0) -> None:
        """Stop sampling; retained counts survive for a final snapshot."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop.wait(interval):
            self._sample(me)

    # -- sampling ----------------------------------------------------------
    def _sample(self, skip_ident: int | None = None) -> None:
        frames = sys._current_frames()
        collapsed: list[str] = []
        idle = 0
        frame = None
        try:
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                stack = _frame_stack(frame, self.depth_limit)
                if not stack:
                    continue
                if self.skip_idle and stack.rsplit(";", 1)[-1] in self._IDLE_LEAVES:
                    idle += 1
                    continue
                collapsed.append(stack)
        finally:
            # ``frames`` holds this very frame, whose locals hold ``frames``:
            # a reference cycle that would keep every sampled frame, and so
            # every local of every sampled thread, alive until the cyclic
            # GC next runs.
            del frames, frame
        with self._lock:
            self._samples += 1
            self._idle_samples += idle
            for stack in collapsed:
                self._stacks[stack] = self._stacks.get(stack, 0) + 1

    # -- reading -----------------------------------------------------------
    def snapshot(self, top: int | None = None) -> dict:
        """Aggregate stack counts (msgpack-safe), hottest first."""
        with self._lock:
            samples = self._samples
            idle = self._idle_samples
            items = sorted(
                self._stacks.items(), key=lambda kv: kv[1], reverse=True
            )
        if top is not None:
            items = items[:top]
        elapsed = (
            self._clock() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "enabled": True,
            "hz": self.hz,
            "samples": samples,
            "idle_samples": idle,
            "elapsed": elapsed,
            "stacks": dict(items),
        }

    def collapsed(self, top: int | None = None) -> str:
        """Flamegraph-collapsed text: one ``stack count`` line per stack."""
        snap = self.snapshot(top=top)
        return "\n".join(
            f"{stack} {count}" for stack, count in snap["stacks"].items()
        )

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            self._idle_samples = 0
        self._started_at = self._clock()

    def info(self) -> dict:
        """Summary for ``health``/``stats`` collectors (no stacks)."""
        with self._lock:
            samples = self._samples
            distinct = len(self._stacks)
        return {
            "enabled": True,
            "running": self.running,
            "hz": self.hz,
            "samples": samples,
            "distinct_stacks": distinct,
        }
