"""Shared machinery for the perfbench workloads.

Everything here drives the program from outside: it writes a
directory-backed object store, starts ``python -m repro serve`` as a
subprocess, talks to it over TCP, and reads its peak memory from
``/proc``.  Nothing is patched into the program.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: stores, server logs, span logs.
OUT = ROOT / ".perfbench"

DIM = 64            # grid points per axis of the asteroid dataset
BUCKET = "sim"
SETUP_ROUNDS = 3    # set-ups per run; setup_s is their median
#: Asteroid seeds the workloads draw from (``seed`` picks one).  Their
#: contours agree within 5% in triangles at every timestep (the other seeds
#: in 0..7 have up to 17% fewer in the late timesteps), so a run's seed
#: changes the geometry but not the amount of work it measures.
DATASETS = (2, 3, 5, 7)


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of a non-empty list.

    A Beta-weighted average of all order statistics rather than one or two
    of them: on the few, unevenly spread samples a movie sweep yields (or
    the codec clusters of a load sweep) it does not jump when one sample
    crosses another, and on large samples it equals the sample quantile.
    """
    from scipy.stats.mstats import hdquantiles

    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(np.asarray(values, dtype=np.float64), prob=[q])[0])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def polydata_digest(pd) -> str:
    """SHA-256 over every byte of a PolyData: points, cells, point data."""
    h = hashlib.sha256()
    h.update(repr(pd.points.shape).encode())
    h.update(pd.points.tobytes())
    for cells in (pd.verts, pd.lines, pd.polys):
        h.update(cells.offsets.tobytes())
        h.update(cells.connectivity.tobytes())
    for arr in pd.point_data:
        h.update(arr.name.encode())
        h.update(np.ascontiguousarray(arr.values).tobytes())
    return h.hexdigest()


def dataset_seed(seed: int) -> int:
    """The asteroid seed a workload seed runs on."""
    return DATASETS[seed % len(DATASETS)]


def make_dataset(asteroid_seed: int):
    from repro.datasets import AsteroidImpactDataset, AsteroidParams

    return AsteroidImpactDataset(
        AsteroidParams(dims=(DIM, DIM, DIM), seed=asteroid_seed))


class References:
    """Baseline full-read ``contour_grid`` digests, computed once per input."""

    def __init__(self, grids: dict):
        self._grids = grids          # timestep -> UniformGrid
        self._digests: dict = {}

    def digest(self, step: int, array: str, value: float, roi=None) -> str:
        from repro.filters.contour import contour_grid

        key = (step, array, value, None if roi is None else roi.as_tuple())
        if key not in self._digests:
            pd = contour_grid(self._grids[step], array, [value], roi=roi)
            self._digests[key] = polydata_digest(pd)
        return self._digests[key]


class Store:
    """The directory-backed object store the server mounts."""

    def __init__(self, root: Path):
        from repro.storage import DirectoryBackend, ObjectStore, S3FileSystem

        self.root = root
        self.store = ObjectStore(DirectoryBackend(str(root)))
        self.store.create_bucket(BUCKET)
        self.fs = S3FileSystem(self.store, BUCKET)
        #: wall seconds of every ``put_object`` call made through :meth:`put`
        self.put_seconds: list[float] = []

    def put(self, key: str, blob: bytes) -> None:
        t0 = time.perf_counter()
        self.store.put_object(BUCKET, key, blob)
        self.put_seconds.append(time.perf_counter() - t0)


class ServerError(RuntimeError):
    pass


class Server:
    """One ``python -m repro serve`` subprocess over a store directory."""

    _BANNER = re.compile(r"NDP server on ([0-9.]+):(\d+)")
    #: servers started and not yet reaped (see :func:`kill_servers`)
    live: set = set()

    def __init__(self, store_root: Path, flags: list[str], log: Path):
        self.flags = list(flags)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store_root),
             "--bucket", BUCKET, *self.flags],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, text=True, env=env, cwd=str(ROOT),
        )
        Server.live.add(self)
        banner = self.proc.stdout.readline()
        match = self._BANNER.search(banner)
        if match is None:
            self.kill()
            raise ServerError(f"no serve banner (got {banner!r}); see {log}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.clean: bool | None = None

    def client(self, timeout: float = 60.0):
        from repro.rpc import RPCClient

        return RPCClient.connect_tcp(self.host, self.port, timeout=timeout)

    def wait_healthy(self, timeout: float = 30.0) -> None:
        from repro.errors import RPCError

        deadline = time.monotonic() + timeout
        while True:
            try:
                with self.client(timeout=5.0) as c:
                    if c.call("health")["status"] == "ok":
                        return
            except (OSError, RPCError):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ServerError("server never answered health")
            time.sleep(0.02)

    def stats(self) -> dict:
        with self.client() as c:
            return c.call("stats")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, wait for the drain, and report whether it was clean."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            out = ""
        self._log.close()
        Server.live.discard(self)
        self.clean = self.proc.returncode == 0 and "stopped (clean;" in (out or "")
        return self.clean

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self._log.closed:
            self._log.close()
        Server.live.discard(self)


def kill_servers() -> None:
    """Kill and reap every server still running (a run that raised)."""
    for server in list(Server.live):
        server.kill()


def run_setups(workdir: Path, populate, flags: list[str], warmup):
    """Set the program up ``SETUP_ROUNDS`` times; keep the last server.

    One set-up writes a fresh store (``populate(store)``: ``write_vgf`` +
    ``put_object``), starts the server, waits for ``health`` and runs
    ``warmup(server)``.  Earlier rounds are torn down (and must drain
    cleanly).  Returns ``(store, server, seconds_per_round)``.
    """
    seconds = []
    for i in range(SETUP_ROUNDS):
        root = workdir / f"store{i}"
        t0 = time.perf_counter()
        store = Store(root)
        populate(store)
        server = Server(root, flags, workdir / f"server{i}.log")
        try:
            server.wait_healthy()
            warmup(server)
        except BaseException:
            server.kill()
            raise
        seconds.append(time.perf_counter() - t0)
        if i < SETUP_ROUNDS - 1:
            if not server.stop():
                raise ServerError(f"set-up round {i}: server drain was not clean")
            shutil.rmtree(root)
    return store, server, seconds


def warmup_contour(key: str, array: str):
    """A warm-up of one contour request on an object no workload measures."""
    def warm(server: Server) -> None:
        from repro.core.ndp_client import ndp_contour

        with server.client() as c:
            ndp_contour(c, key, array, [0.1])
    return warm


def memcpy_mb_s(nbytes: int, repeats: int = 15) -> float:
    """Copy bandwidth on ``nbytes`` buffers: the same-size bound for rates."""
    src = np.frombuffer(os.urandom(nbytes), dtype=np.uint8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return nbytes / median(times) / 1e6
