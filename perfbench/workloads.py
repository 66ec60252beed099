"""The three workloads: ``movie``, ``load`` and ``serve``.

Each takes the workload seed and the run length, sets the program up
(timed), measures, checks every output, and returns a :class:`Outcome`.
With ``trace`` the same run also records spans and replays the server's
layers for the per-layer ledger (see :mod:`ledger`).
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from harness import (
    References,
    Server,
    dataset_seed,
    make_dataset,
    median,
    memcpy_mb_s,
    peak_rss_mb,
    polydata_digest,
    quantile,
    run_setups,
    warmup_contour,
)
from ledger import Ledger, cache_metrics, replay_server

HERE = Path(__file__).resolve().parent
GOLDEN_FRAMES = HERE / "golden_frames.json"


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)   # correctness failures
    metrics: dict = field(default_factory=dict)      # end-to-end values
    layers: dict = field(default_factory=dict)       # per-layer values
    ledger: Ledger | None = None

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(what)
        else:
            self.mismatches[-1] = f"... and more ({what})"


def contour_defaults() -> dict:
    """``ndp_contour``'s own defaults, so every request is what a user sends."""
    from repro.core.ndp_client import ndp_contour

    params = inspect.signature(ndp_contour).parameters
    return {k: params[k].default for k in ("mode", "encoding", "wire_codec")}


def flip_byte(raw: bytes) -> bytes:
    """One flipped bit in the middle of a reply frame (the corruption probe)."""
    out = bytearray(raw)
    out[len(out) // 2] ^= 0x01
    return bytes(out)


class Tap:
    """Client transport wrapper: counts replies and their bytes.

    ``corrupt_at=n`` flips one byte of the n-th reply, which is how the
    smoke test proves a corrupted reply fails the run.
    """

    def __init__(self, inner, corrupt_at: int = 0):
        self.inner = inner
        self.corrupt_at = corrupt_at
        self.replies = 0
        self.reply_bytes = 0
        self.last = None          # future of the latest ``submit``

    def _seen(self, raw: bytes) -> bytes:
        self.replies += 1
        self.reply_bytes += len(raw)
        return flip_byte(raw) if self.replies == self.corrupt_at else raw

    def request(self, payload: bytes) -> bytes:
        return self._seen(self.inner.request(payload))

    def submit(self, payload: bytes):
        """Pipelined send (mux transports); the future is kept in ``last``."""
        self.last = self.inner.submit(payload)
        return self.last

    def close(self) -> None:
        self.inner.close()


def _finish_server(out: Outcome, server: Server, before: dict) -> dict:
    """Read stats and peak RSS, then stop the server and check its drain."""
    after = server.stats()
    out.metrics["server_rss_mb"] = server.peak_rss_mb()
    if not server.stop():
        out.mismatch("server did not drain cleanly on SIGTERM")
    return cache_metrics(before, after)


def _end_to_end(out: Outcome, setup_s: list, ops_per_s: float, lat: list,
                tail_s: float, client_rss_mb: float) -> None:
    out.metrics.update({
        "setup_s": median(setup_s),
        "ops_per_s": ops_per_s,
        "p50_ms": 1e3 * quantile(lat, 0.5),
        "tail_ms": 1e3 * tail_s,
        "client_rss_mb": client_rss_mb,
    })


# ---------------------------------------------------------------------------
# load: sequential cold ndp_contour, stored codec x timestep x value
# ---------------------------------------------------------------------------

LOAD_CODECS = ("raw", "gzip", "lz4")
LOAD_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
LOAD_ARRAY = "v02"
LOAD_FLAGS = ["--cache-bytes", "0", "--selection-cache", "0"]


def load_plan(seed: int, steps) -> list:
    """135 loads in five rounds; each round covers every timestep once.

    Every timestep gets each value in exactly one round, and each
    (timestep, value) is loaded under all three stored codecs back to
    back, so any prefix of whole rounds has the same codec and timestep
    mix whatever the seed.
    """
    rng = np.random.default_rng(seed)
    values = {s: rng.permutation(len(LOAD_VALUES)) for s in steps}
    plan = []
    for r in range(len(LOAD_VALUES)):
        for s in rng.permutation(steps):
            value = LOAD_VALUES[values[int(s)][r]]
            plan.extend((codec, int(s), value) for codec in LOAD_CODECS)
    return plan


def run_load(seed: int, seconds: float, trace: bool, workdir: Path,
             corrupt_at: int = 0) -> Outcome:
    from repro.core.encoding import decode_selection
    from repro.core.ndp_client import ndp_contour
    from repro.core.postfilter import postfilter_contour
    from repro.errors import ReproError
    from repro.io import write_vgf
    from repro.rpc import RPCClient
    from repro.rpc.transport import TCPTransport

    out = Outcome()
    dataset = make_dataset(dataset_seed(seed))
    steps = list(dataset.timesteps)
    grids = {s: dataset.generate_arrays(s, [LOAD_ARRAY]) for s in steps}
    refs = References(grids)
    plan = load_plan(seed, steps)
    for _codec, s, value in plan:
        refs.digest(s, LOAD_ARRAY, value)

    def populate(store) -> None:
        for s, grid in grids.items():
            for codec in LOAD_CODECS:
                store.put(f"{codec}/ts{s:05d}.vgf",
                          write_vgf(grid, codec=codec, meta={"timestep": s}))
        store.put("warmup.vgf", write_vgf(grids[steps[0]], codec="lz4"))

    store, server, setup_s = run_setups(
        workdir, populate, LOAD_FLAGS, warmup_contour("warmup.vgf", LOAD_ARRAY))
    before = server.stats()
    tap = Tap(TCPTransport(server.host, server.port, timeout=120.0), corrupt_at)
    client = RPCClient(tap)
    defaults = contour_defaults()
    ledger = Ledger() if trace else None
    spans = ledger.spans if trace else None
    lat = []
    busy = 0.0
    round_len = len(plan) // len(LOAD_VALUES)
    for i, (codec, s, value) in enumerate(itertools.cycle(plan)):
        if busy >= seconds and i % round_len == 0:
            break                          # measure whole rounds only
        key = f"{codec}/ts{s:05d}.vgf"
        out.attempted += 1
        replies0, bytes0 = tap.replies, tap.reply_bytes
        t0 = time.perf_counter()
        try:
            if trace:
                # The calls ndp_contour makes (no ROI), each in its span.
                with spans.span("op", rid=i):
                    with spans.span("rpc.call", rid=i, key=key) as call:
                        encoded = client.call(
                            "prefilter_contour", key, LOAD_ARRAY, [value],
                            defaults["mode"], defaults["encoding"],
                            defaults["wire_codec"])
                    with spans.span("core.encoding.decode", rid=i):
                        sel = decode_selection(encoded)
                    with spans.span("core.postfilter", rid=i):
                        pd = postfilter_contour(sel, [value])
            else:
                pd, _stats = ndp_contour(client, key, LOAD_ARRAY, [value])
        except ReproError as exc:
            busy += time.perf_counter() - t0
            out.failed += 1
            out.mismatch(f"{key} {value}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        busy += dt
        lat.append(dt)
        if tap.replies - replies0 != 1:
            out.mismatch(f"{key} {value}: reply failed verification and was re-read")
        if polydata_digest(pd) != refs.digest(s, LOAD_ARRAY, value):
            out.mismatch(f"{key} {value}: geometry differs from baseline contour_grid")
        if trace:
            ledger.frame_bytes += tap.reply_bytes - bytes0
            ledger.postfilter_triangles += pd.triangles().shape[0]
            # Replayed between loads, outside their timing, so the replay
            # runs on the same (drifting) host speed as the load it explains.
            ledger.replayed(call, replay_server(
                store.fs, key, LOAD_ARRAY, [value], fused=True, **defaults))
    client_rss = peak_rss_mb()        # before any post-processing
    client.close()
    caches = _finish_server(out, server, before)
    _end_to_end(out, setup_s, len(lat) / busy, lat, quantile(lat, 0.90), client_rss)
    if trace:
        out.layers = ledger.metrics(
            n_ops=len(lat), op_seconds=lat, window_s=busy,
            memcpy=memcpy_mb_s(grids[steps[0]].point_data.get(LOAD_ARRAY).values.nbytes),
            put_seconds=store.put_seconds,
            extra={**caches, "rpc.gen_late_ms": None, "rpc.errors": float(out.failed),
                   "rpc.sheds": 0.0, "fail_frac": out.failed / out.attempted})
        out.ledger = ledger
    return out


# ---------------------------------------------------------------------------
# movie: NDPPrefetcher sweep + Scene.render, the asteroid_movie example
# ---------------------------------------------------------------------------

MOVIE_ARRAYS = ("v02", "v03")
MOVIE_VALUE = 0.1
MOVIE_SIZE = (640, 480)
MOVIE_COPIES = 4          # sweeps available per run; each visits fresh keys
WATER = (0.25, 0.8, 0.85)
ROCK = (0.95, 0.85, 0.2)


def movie_frame(water, asteroid, camera=None):
    """Compose and render one frame as ``examples/asteroid_movie.py`` does.

    Returns ``(image, camera, triangles)``; the camera is fitted to the
    first frame and then reused, so the view stays fixed.
    """
    from repro.render import Camera, Scene

    scene = Scene()
    scene.add_mesh(water, color=WATER)
    if asteroid.num_points:
        scene.add_mesh(asteroid, color=ROCK)
    if camera is None:
        camera = Camera.fit_bounds(scene.bounds())
    tris = water.triangles().shape[0] + asteroid.triangles().shape[0]
    return scene.render(*MOVIE_SIZE, camera=camera), camera, tris


def frame_digest(image) -> str:
    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()


def golden_frames(asteroid_seed: int) -> list | None:
    table = json.loads(GOLDEN_FRAMES.read_text())
    return table["frames"].get(str(asteroid_seed))


class _TracedCalls:
    """RPC client stand-in whose every call runs in an ``rpc.call`` span."""

    def __init__(self, client, spans):
        self._client = client
        self._spans = spans
        self.calls = []

    def call(self, method, *params):
        with self._spans.span("rpc.call", rid=f"{params[0]}:{params[1]}",
                              key=params[0], array=params[1]) as row:
            result = self._client.call(method, *params)
        self.calls.append(row)
        return result


def _traced_prefetcher(spans):
    from repro.core.encoding import decode_selection
    from repro.core.postfilter import postfilter_contour
    from repro.core.prefetch import NDPPrefetcher

    class TracedPrefetcher(NDPPrefetcher):
        """The prefetcher with its client-side decode and post-filter spanned."""

        def _finish(self, req, encoded):
            with spans.span("core.encoding.decode"):
                sel = decode_selection(encoded)
            with spans.span("core.postfilter"):
                return postfilter_contour(sel, req["values"])

    return TracedPrefetcher


def run_movie(seed: int, seconds: float, trace: bool, workdir: Path,
              corrupt_at: int = 0, max_frames: int = 0) -> Outcome:
    from repro.core.prefetch import NDPPrefetcher
    from repro.errors import ReproError
    from repro.io import write_vgf
    from repro.rpc import RPCClient
    from repro.rpc.transport import TCPTransport

    out = Outcome()
    asteroid_seed = dataset_seed(seed)
    golden = golden_frames(asteroid_seed)
    if golden is None:
        out.mismatch(f"no recorded frame digests for dataset seed {asteroid_seed}")
    dataset = make_dataset(asteroid_seed)
    steps = list(dataset.timesteps)[:max_frames or None]
    grids = {s: dataset.generate_arrays(s, list(MOVIE_ARRAYS)) for s in steps}
    refs = References(grids)
    for s in steps:
        for a in MOVIE_ARRAYS:
            refs.digest(s, a, MOVIE_VALUE)

    def populate(store) -> None:
        for s, grid in grids.items():
            blob = write_vgf(grid, codec="lz4", meta={"timestep": s})
            for c in range(MOVIE_COPIES):
                store.put(f"c{c}/ts{s:05d}.vgf", blob)
            if s == steps[0]:
                store.put("warmup.vgf", blob)

    store, server, setup_s = run_setups(
        workdir, populate, [], warmup_contour("warmup.vgf", MOVIE_ARRAYS[0]))
    before = server.stats()
    tap = Tap(TCPTransport(server.host, server.port, timeout=120.0), corrupt_at)
    client = RPCClient(tap)
    ledger = Ledger() if trace else None
    spans = ledger.spans if trace else None
    traced_calls = _TracedCalls(client, spans) if trace else None
    prefetcher_cls = _traced_prefetcher(spans) if trace else NDPPrefetcher
    camera = None
    lat = []
    steady = []       # frame times after each sweep's first (pipeline fill)
    busy = 0.0
    t_window = time.perf_counter()
    for c in range(MOVIE_COPIES):
        # Whole sweeps only, and none that would end past ``seconds`` if
        # it took as long as the sweeps before it did on average.
        if c and busy * (c + 1) / c > seconds:
            break
        requests = [{"key": f"c{c}/ts{s:05d}.vgf", "kind": "contour", "array": a,
                     "values": [MOVIE_VALUE]} for s in steps for a in MOVIE_ARRAYS]
        with prefetcher_cls(traced_calls or client, requests) as prefetcher:
            frames = iter(prefetcher)
            for f, s in enumerate(steps):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    if trace:
                        with spans.span("op", rid=f"c{c}/{s}"):
                            with spans.span("core.prefetch.wait"):
                                _, water, _ = next(frames)
                                _, asteroid, _ = next(frames)
                            with spans.span("render"):
                                image, camera, tris = movie_frame(water, asteroid, camera)
                    else:
                        _, water, _ = next(frames)
                        _, asteroid, _ = next(frames)
                        image, camera, tris = movie_frame(water, asteroid, camera)
                except ReproError as exc:
                    busy += time.perf_counter() - t0
                    out.failed += 1
                    out.mismatch(f"sweep {c} frame {f}: {type(exc).__name__}: {exc}")
                    break
                dt = time.perf_counter() - t0
                busy += dt
                lat.append(dt)
                if f:
                    steady.append(dt)
                for name, pd in zip(MOVIE_ARRAYS, (water, asteroid)):
                    if polydata_digest(pd) != refs.digest(s, name, MOVIE_VALUE):
                        out.mismatch(f"sweep {c} ts{s} {name}: geometry differs "
                                     f"from baseline contour_grid")
                if golden is not None and frame_digest(image) != golden[f]:
                    out.mismatch(f"sweep {c} frame {f}: image differs from the "
                                 f"recorded digest")
                if trace:
                    ledger.postfilter_triangles += tris
                    ledger.render_triangles += tris
    window_s = time.perf_counter() - t_window
    client_rss = peak_rss_mb()        # before any post-processing
    if tap.replies != 2 * out.attempted:
        out.mismatch(f"{tap.replies} replies for {2 * out.attempted} requests")
    client.close()
    caches = _finish_server(out, server, before)
    if not steady:
        return out
    # The first frame of a sweep also waits for the prefetch pipeline to
    # fill: it counts in ops_per_s, not in the frame-time statistics.  A
    # sweep's p90 would be its one slowest frame, whose time moves with
    # the host's speed during those seconds; the tail is the mean of the
    # slower half of the frames instead.
    slow_half = sorted(steady)[len(steady) // 2:]
    _end_to_end(out, setup_s, len(lat) / busy, steady,
                sum(slow_half) / len(slow_half), client_rss)
    if trace:
        ledger.frame_bytes = tap.reply_bytes
        memo = {}
        for call in traced_calls.calls:
            k = (call["key"].split("/")[1], call["array"])
            if k not in memo:
                memo[k] = replay_server(
                    store.fs, call["key"], call["array"], [MOVIE_VALUE],
                    fused=False, **contour_defaults())
            ledger.replayed(call, memo[k])
        out.layers = ledger.metrics(
            n_ops=len(lat), op_seconds=lat, window_s=window_s,
            memcpy=memcpy_mb_s(grids[steps[0]].point_data.get("v02").values.nbytes),
            put_seconds=store.put_seconds,
            extra={**caches, "rpc.gen_late_ms": None, "rpc.errors": float(out.failed),
                   "rpc.sheds": 0.0, "fail_frac": out.failed / out.attempted})
        out.ledger = ledger
    return out


# ---------------------------------------------------------------------------
# serve: open-loop Zipf reads + re-puts on one default server, then saturation
# ---------------------------------------------------------------------------

SERVE_ARRAYS = ("v02", "v03")
SERVE_VALUES = (0.1, 0.5)
SERVE_ROI = (0.25, 0.75, 0.25, 0.75, 0.0, 0.6)
SERVE_CODEC = "gzip"       # keeps misses cheap; stored LZ4 is load's and movie's
SERVE_RATE = 80.0          # offered arrivals per second, open-loop phase
SERVE_PUT_EVERY = 80       # every 80th arrival is a byte-identical re-put
SERVE_PUT_STEPS = 3        # re-puts cycle over this many oldest timesteps
SERVE_OPEN_SHARE = 0.55    # of the run; the rest is the saturation phase
SERVE_WINDOW = 8           # requests in flight when saturating
SERVE_ZIPF = 1.0           # skew of timestep and of variant popularity
SERVE_DECK = 1000          # reads per shuffled deck (see ServePlan)


def _reply_body(raw: bytes) -> bytes:
    """A response frame minus its msgid: ``[1, msgid, error, result]``."""
    return raw[3 + {0xCC: 1, 0xCD: 2, 0xCE: 4, 0xCF: 8}.get(raw[2], 0):]


class ServePlan:
    """The seeded schedule: which read or re-put each arrival is.

    Popularity is part of the workload, not of the seed: the newest
    timestep is the hottest (Zipf over timesteps, newest first), and
    within a timestep the (array, value, ROI-or-none) variants follow a
    second Zipf law in a fixed order.  Re-puts take every
    ``SERVE_PUT_EVERY``-th arrival and cycle through the oldest
    ``SERVE_PUT_STEPS`` timesteps (a writer re-publishing the start of the
    run), so every seed invalidates the same data and misses are several
    percent of reads, each cheap enough that the tail is set by many
    misses rather than by one long stall.  Reads are dealt from decks of
    ``SERVE_DECK`` holding each request as often as its probability says,
    shuffled by the seed, so every stretch of traffic has the Zipf mix
    itself and not a noisy sample of it.  The seed draws the arrival
    times and the order of each deck.
    """

    def __init__(self, seed: int, steps):
        from repro.grid.bounds import Bounds

        self.rng = np.random.default_rng(seed)
        self.steps = sorted(steps, reverse=True)          # hottest first
        roi = Bounds(*SERVE_ROI)
        variants = [(a, v, r) for r in (None, roi) for v in SERVE_VALUES
                    for a in SERVE_ARRAYS]
        self.keys = [(s, a, v, r) for s in self.steps for a, v, r in variants]
        p_step = _zipf(len(self.steps))
        p_variant = _zipf(len(variants))
        self.p = np.outer(p_step, p_variant).ravel()
        self.put_steps = self.steps[::-1][:SERVE_PUT_STEPS]
        # Largest-remainder rounding of SERVE_DECK * p into whole counts.
        exact = SERVE_DECK * self.p
        counts = np.floor(exact).astype(int)
        short = SERVE_DECK - counts.sum()
        counts[np.argsort(counts - exact)[:short]] += 1
        self._deck_counts = counts
        self._deck: list = []
        self._n = 0

    def next_op(self) -> tuple:
        """``("put", step)`` or ``("read", key index)``."""
        self._n += 1
        if self._n % SERVE_PUT_EVERY == 0:
            k = self._n // SERVE_PUT_EVERY - 1
            return ("put", self.put_steps[k % len(self.put_steps)])
        if not self._deck:
            self._deck = list(self.rng.permutation(
                np.repeat(np.arange(len(self.keys)), self._deck_counts)))
        return ("read", int(self._deck.pop()))

    def gap(self) -> float:
        return float(self.rng.exponential(1.0 / SERVE_RATE))


def _zipf(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** SERVE_ZIPF
    return w / w.sum()


class _Reads:
    """Completion bookkeeping for pipelined reads; runs on reader threads.

    Each reply is reduced to a digest of its frame (msgid excluded).  A
    digest not yet verified for that request keeps its raw frame so it can
    be decoded and checked once, after the timing.
    """

    def __init__(self, verified: dict, corrupt_at: int = 0, window=None):
        self.verified = verified           # key index -> set of good digests
        self.corrupt_at = corrupt_at
        self.window = window               # semaphore of the closed loop
        self.cv = threading.Condition()
        self.done = {}                     # rid -> (time, digest or None)
        self.stash = {}                    # (key index, digest) -> raw frame
        self.frame_bytes = 0

    def on_done(self, rid: int, kidx: int, closed: bool, fut) -> None:
        t = time.perf_counter()
        digest = raw = None
        if fut.exception() is None:        # else: transport failure/timeout
            raw = fut.result()
            with self.cv:
                nth = len(self.done) + 1
            if nth == self.corrupt_at:
                raw = flip_byte(raw)
            digest = hashlib.blake2b(_reply_body(raw), digest_size=16).digest()
        with self.cv:
            if raw is not None:
                self.frame_bytes += len(raw)
                if digest not in self.verified.get(kidx, ()):
                    self.stash.setdefault((kidx, digest), raw)
            self.done[rid] = (t, digest)
            self.cv.notify_all()
        if closed:
            self.window.release()

    def wait_all(self, n: int, timeout: float) -> None:
        with self.cv:
            self.cv.wait_for(lambda: len(self.done) >= n, timeout=timeout)


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path,
              corrupt_at: int = 0) -> Outcome:
    from repro.core.encoding import decode_selection
    from repro.core.postfilter import postfilter_contour
    from repro.errors import ReproError
    from repro.io import write_vgf
    from repro.rpc import RPCClient
    from repro.rpc.msgpack import unpack
    from repro.rpc.mux import MuxTransport

    out = Outcome()
    dataset = make_dataset(dataset_seed(seed))
    steps = list(dataset.timesteps)
    grids = {s: dataset.generate_arrays(s, list(SERVE_ARRAYS)) for s in steps}
    refs = References(grids)
    plan = ServePlan(seed, steps)
    blobs = {}

    def populate(store) -> None:
        for s, grid in grids.items():
            blobs[s] = write_vgf(grid, codec=SERVE_CODEC, meta={"timestep": s})
            store.put(f"ts{s:05d}.vgf", blobs[s])
        store.put("warmup.vgf", blobs[steps[0]])

    store, server, setup_s = run_setups(
        workdir, populate, [], warmup_contour("warmup.vgf", SERVE_ARRAYS[0]))
    defaults = contour_defaults()
    tap = Tap(MuxTransport(server.host, server.port, timeout=120.0))
    client = RPCClient(tap)

    def send(reads: _Reads, rid: int, kidx: int, closed: bool = False) -> None:
        s, a, v, roi = plan.keys[kidx]
        extra = (list(roi.as_tuple()),) if roi is not None else ()
        client.call_async(
            "prefilter_contour", f"ts{s:05d}.vgf", a, [v], defaults["mode"],
            defaults["encoding"], defaults["wire_codec"], *extra)
        tap.last.add_done_callback(partial(reads.on_done, rid, kidx, closed))

    def check(reads: _Reads) -> dict:
        """Decode and check each distinct reply once: digest -> verdict."""
        verdicts = {}
        for (kidx, digest), raw in reads.stash.items():
            s, a, v, roi = plan.keys[kidx]
            what = f"ts{s} {a} {v} roi={roi is not None}"
            try:
                msg = unpack(raw)
                if msg[2] is not None:
                    verdicts[digest] = ("shed" if str(msg[2]).startswith(
                        "ServerOverloadedError") else "error")
                    continue
                pd = postfilter_contour(decode_selection(msg[3]), [v], roi=roi)
            except ReproError as exc:
                out.mismatch(f"{what}: {type(exc).__name__}: {exc}")
                verdicts[digest] = "bad"
                continue
            if polydata_digest(pd) == refs.digest(s, a, v, roi):
                reads.verified.setdefault(kidx, set()).add(digest)
                verdicts[digest] = "ok"
            else:
                out.mismatch(f"{what}: geometry differs from baseline contour_grid")
                verdicts[digest] = "bad"
        reads.stash.clear()
        return verdicts

    # Prime: every distinct read once, so the run starts from warm caches.
    # The references are computed while the server works; each reply is
    # decoded and checked here, outside any timing.
    verified: dict = {}
    prime = _Reads(verified)
    for kidx in range(len(plan.keys)):
        send(prime, kidx, kidx)
    for s, a, v, roi in plan.keys:
        refs.digest(s, a, v, roi)
    prime.wait_all(len(plan.keys), timeout=120.0)
    check(prime)
    before = server.stats()

    # Measure: open loop on the seeded schedule, then a closed loop that
    # keeps SERVE_WINDOW reads in flight, same mix.
    window = threading.Semaphore(SERVE_WINDOW)
    reads = _Reads(verified, corrupt_at, window)
    sent = []                    # (rid, key index, due, sent, closed)
    events = []                  # ("read", rid) / ("put", step) in issue order
    put_seconds = []

    def put(step: int) -> None:
        t0 = time.perf_counter()
        store.put(f"ts{step:05d}.vgf", blobs[step])
        put_seconds.append(time.perf_counter() - t0)
        events.append(("put", step))

    t_start = time.perf_counter()
    open_end = t_start + SERVE_OPEN_SHARE * seconds
    end = t_start + seconds
    due = t_start + plan.gap()
    while due < open_end:
        op, arg = plan.next_op()
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if op == "put":
            put(arg)
        else:
            rid = len(sent)
            sent.append((rid, arg, due, time.perf_counter(), False))
            events.append(("read", rid))
            send(reads, rid, arg)
        due += plan.gap()
    sat_start = time.perf_counter()
    while time.perf_counter() < end:
        op, arg = plan.next_op()
        if op == "put":
            put(arg)
            continue
        if not window.acquire(timeout=max(0.0, end - time.perf_counter())):
            break
        rid = len(sent)
        now = time.perf_counter()
        sent.append((rid, arg, now, now, True))
        events.append(("read", rid))
        send(reads, rid, arg, closed=True)
    reads.wait_all(len(sent), timeout=60.0)
    window_s = time.perf_counter() - t_start
    client_rss = peak_rss_mb()        # before the replies are decoded
    client.close()
    verdicts = check(reads)

    lat_open, late, good = [], [], set()
    # Saturation reads done per bin of about one second.
    sat_bins = [0] * max(1, int(end - sat_start))
    bin_s = (end - sat_start) / len(sat_bins)
    errors = sheds = 0
    for rid, kidx, t_due, t_sent, closed in sent:
        out.attempted += 1
        t_done, digest = reads.done.get(rid, (None, None))
        verdict = ("ok" if digest in verified.get(kidx, ())
                   else verdicts.get(digest, "lost"))
        if verdict != "ok":
            out.failed += 1                # timed out, shed, error or bad
            errors += verdict == "error"
            sheds += verdict == "shed"
            continue
        good.add(rid)
        if not closed:
            lat_open.append(t_done - t_due)
            late.append(t_sent - t_due)
        elif t_done < end:
            sat_bins[min(int((t_done - sat_start) / bin_s), len(sat_bins) - 1)] += 1
    caches = _finish_server(out, server, before)
    if not lat_open:
        return out
    # Throughput is the median bin's: the host's speed drifts within a
    # run, and the median keeps a slow second from moving it.
    _end_to_end(out, setup_s, median(sat_bins) / bin_s, lat_open,
                quantile(lat_open, 0.99), client_rss)
    if trace:
        ledger = _serve_ledger(plan, sent, events, reads, good, store, defaults)
        out.layers = ledger.metrics(
            n_ops=len(good),
            op_seconds=[reads.done[r][0] - sent[r][2] for r in sorted(good)],
            window_s=window_s,
            memcpy=memcpy_mb_s(grids[steps[0]].point_data.get("v02").values.nbytes),
            put_seconds=put_seconds,
            extra={**caches, "rpc.gen_late_ms": 1e3 * quantile(late, 0.99),
                   "rpc.errors": float(errors), "rpc.sheds": float(sheds),
                   "fail_frac": out.failed / out.attempted})
        out.ledger = ledger
    return out


def _serve_ledger(plan, sent, events, reads, good, store, defaults) -> Ledger:
    """Spans for the serve run, rebuilt from its timestamps, plus replays.

    Walking reads and re-puts in issue order tells which reads the server
    computed: a read misses the reply cache when its request was not read
    since its timestep was last re-put (priming read every request once),
    and misses the decoded-array cache when no read of that (timestep,
    array) was.  Only those misses are replayed.
    """
    ledger = Ledger()
    spans = ledger.spans
    version = {s: 0 for s in plan.steps}
    seen_reply = {(k, 0) for k in range(len(plan.keys))}
    seen_array = {(s, a, 0) for s, a, _v, _r in plan.keys}
    memo = {}
    for kind, arg in events:
        if kind == "put":
            version[arg] += 1
            continue
        rid = arg
        _, kidx, t_due, t_sent, _closed = sent[rid]
        s, a, v, roi = plan.keys[kidx]
        reply_key, array_key = (kidx, version[s]), (s, a, version[s])
        miss = reply_key not in seen_reply
        cached = array_key in seen_array
        seen_reply.add(reply_key)
        seen_array.add(array_key)
        if rid not in good:
            continue
        t_done = reads.done[rid][0]
        op = spans.add("op", t_due, t_done, rid=rid, key=f"ts{s:05d}/{a}/{v}"
                       + ("/roi" if roi is not None else ""), miss=miss)
        call = spans.add("rpc.call", t_sent, t_done, parent=op["id"], rid=rid)
        if miss:
            if (kidx, cached) not in memo:
                memo[kidx, cached] = replay_server(
                    store.fs, f"ts{s:05d}.vgf", a, [v], roi=roi, fused=False,
                    array_cached=cached, **defaults)
            ledger.replayed(call, memo[kidx, cached])
    ledger.frame_bytes = reads.frame_bytes
    return ledger
