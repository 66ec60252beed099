"""The traced run's per-layer ledger.

Client-side spans wrap the program's public calls (``RPCClient.call``,
``decode_selection``, ``postfilter_contour``, ``Scene.render``) in the
benchmark's own code.  The server runs in another process and carries no
spans of its own, so its layers are measured by replaying the same
request in this process against the same store (:func:`replay_server`)
and grafting the replayed timings under the request's ``rpc.call`` span;
what is left of the call is the wire.  Spans are kept in memory and
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from harness import quantile

#: span name -> the layer (module) it is charged to
LAYER_OF = {
    "storage.read": "storage",
    "compression.decode": "compression",
    "core.prefilter.scan": "core.prefilter",
    "core.encoding.encode": "core.encoding",
    "core.encoding.decode": "core.encoding",
    "rpc.call": "rpc",
    "core.postfilter": "core.postfilter",
    "core.prefetch.wait": "core.prefetch",
    "render": "render",
    "op": "unattributed",
}
SHARE_LAYERS = (
    "storage", "compression", "core.prefilter", "core.encoding", "rpc",
    "core.postfilter", "core.prefetch", "render", "unattributed",
)

#: Every per-layer metric a traced run emits, with its unit.  A ``None``
#: value means n/a (the layer does no such work in the workload); the
#: result line carries it as 0 and the printed table as "n/a".
PER_LAYER = [
    ("storage.read_ms", "ms"),
    ("storage.read_bytes", "bytes"),
    ("storage.put_ms", "ms"),
    ("compression.decode_ms", "ms"),
    ("compression.decode_mb_s", "MB/s"),
    ("memcpy_mb_s", "MB/s"),
    ("core.prefilter.scan_ms", "ms"),
    ("core.prefilter.scan_mb_s", "MB/s"),
    ("core.prefilter.selected_permille", "permille"),
    ("core.encoding.encode_ms", "ms"),
    ("core.encoding.reply_bytes", "bytes"),
    ("core.encoding.decode_ms", "ms"),
    ("rpc.call_ms", "ms"),
    ("rpc.wire_ms", "ms"),
    ("rpc.frame_bytes", "bytes"),
    ("rpc.gen_late_ms", "ms"),
    ("rpc.errors", "count"),
    ("rpc.sheds", "count"),
    ("storage.cache.selection_hit_ratio", "ratio"),
    ("storage.cache.array_hit_ratio", "ratio"),
    ("storage.cache.coalesced", "count"),
    ("storage.cache.evictions", "count"),
    ("core.postfilter.ms", "ms"),
    ("core.postfilter.triangles", "count"),
    ("core.prefetch.wait_ms", "ms"),
    ("core.prefetch.wait_net_ms", "ms"),
    ("render.ms", "ms"),
    ("render.triangles", "count"),
    ("render.tris_per_s", "1/s"),
    *[(f"{layer}.share_pct", "%") for layer in SHARE_LAYERS],
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.p50_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("fail_frac", "ratio"),
]


class Spans:
    """In-memory span log: name, start, end, parent, request id.

    Each thread keeps its own parent stack, so a prefetch worker's
    ``rpc.call`` spans are roots of their own.  The time spent in the
    bookkeeping itself is recorded per span (``bk``) so the trace can
    report its own overhead.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        b0 = time.perf_counter()
        stack = self._stack()
        row = {"id": next(self._ids), "name": name,
               "parent": stack[-1] if stack else None, "rid": rid, **attrs}
        stack.append(row["id"])
        t0 = time.perf_counter()
        try:
            yield row
        finally:
            t1 = time.perf_counter()
            stack.pop()
            row["start"], row["end"] = t0, t1
            row["bk"] = (t0 - b0) + (time.perf_counter() - t1)
            self.rows.append(row)

    def add(self, name: str, start: float, end: float, parent=None, rid=None,
            **attrs) -> dict:
        """Record a span measured elsewhere (a replayed server layer)."""
        row = {"id": next(self._ids), "name": name, "parent": parent,
               "rid": rid, "start": start, "end": end, "bk": 0.0, **attrs}
        self.rows.append(row)
        return row

    def graft_replay(self, call: dict, replay: dict) -> None:
        """Nest replayed server-layer timings under one ``rpc.call`` span."""
        t = call["start"]
        for name in ("storage.read", "compression.decode",
                     "core.prefilter.scan", "core.encoding.encode"):
            dt = replay[name]
            self.add(name, t, t + dt, parent=call["id"], rid=call["rid"],
                     replayed=True)
            t += dt

    def self_seconds(self) -> dict:
        """Per span id: duration minus the time its children cover."""
        child = defaultdict(float)
        for r in self.rows:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        return {r["id"]: (r["end"] - r["start"]) - child[r["id"]] for r in self.rows}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for r in sorted(self.rows, key=lambda r: r["start"]):
                fh.write(json.dumps(r, default=str) + "\n")


def replay_server(fs, key: str, array: str, values, *, roi=None,
                  mode: str, encoding: str, wire_codec: str, fused: bool,
                  array_cached: bool = False) -> dict:
    """Time the server's layers for one request, in this process.

    ``fused`` mirrors the server's streaming path (caches off, no ROI):
    ``S3FileSystem.open`` + ``read_vgf_block``, then the codec's
    ``iter_decompress`` exhausted into chunks, then
    ``prefilter_contour_stream`` over those chunks — so the scan's time
    excludes decode.  Otherwise the materializing path: the same read,
    ``decompress`` into the grid, then ``prefilter_contour``.  With
    ``array_cached`` (a decoded-array cache hit on the server) read and
    decode cost nothing and only the scan and encode are charged.  Both
    end in ``encode_selection`` + ``attach_checksum``.
    """
    from repro.compression import get_codec
    from repro.core.encoding import attach_checksum, encode_selection, wire_size
    from repro.core.prefilter import prefilter_contour, prefilter_contour_stream
    from repro.grid.array import DataArray
    from repro.io.vgf import read_vgf_block, read_vgf_info

    t0 = time.perf_counter()
    with fs.open(key) as fh:
        info = read_vgf_info(fh)
        stored, entry = read_vgf_block(fh, array, info)
    t1 = time.perf_counter()
    codec = get_codec(entry.codec)
    dtype = np.dtype(entry.dtype)
    if fused:
        chunks = list(codec.iter_decompress(stored))
        t2 = time.perf_counter()
        sel = prefilter_contour_stream(
            chunks, info.dims, dtype, array, values, mode=mode,
            origin=info.origin, spacing=info.spacing, axes=info.axes,
        )
    else:
        payload = codec.decompress(stored)
        t2 = time.perf_counter()
        grid = info.make_grid()
        grid.point_data.add(DataArray(entry.name, np.frombuffer(payload, dtype=dtype),
                                      components=entry.components))
        sel = prefilter_contour(grid, array, values, mode=mode, roi=roi)
    t3 = time.perf_counter()
    encoded = attach_checksum(encode_selection(sel, method=encoding,
                                               payload_codec=wire_codec))
    t4 = time.perf_counter()
    cached = array_cached and not fused
    return {
        "storage.read": 0.0 if cached else t1 - t0,
        "compression.decode": 0.0 if cached else t2 - t1,
        "core.prefilter.scan": t3 - t2,
        "core.encoding.encode": t4 - t3,
        "read_bytes": 0 if cached else entry.stored_bytes,
        "raw_bytes": entry.raw_bytes,
        "codec": entry.codec,
        "decoded": not cached,
        "selected": int(sel.count),
        "total": int(sel.total_points),
        "reply_bytes": wire_size(encoded),
    }


class Ledger:
    """Spans plus the per-layer counts a traced run accumulates."""

    def __init__(self):
        self.spans = Spans()
        self.replays: list[dict] = []
        self.frame_bytes = 0
        self.postfilter_triangles = 0
        self.render_triangles = 0

    def replayed(self, call: dict, replay: dict) -> None:
        self.spans.graft_replay(call, replay)
        self.replays.append(replay)

    def metrics(self, *, n_ops: int, op_seconds: list, window_s: float,
                memcpy: float, put_seconds: list, extra: dict) -> dict:
        """The per-layer metric values (``None`` = n/a) for this run."""
        rows = self.spans.rows
        self_s = self.spans.self_seconds()
        by_name = defaultdict(list)
        layer_self = defaultdict(float)
        for r in rows:
            by_name[r["name"]].append(r)
            layer_self[LAYER_OF[r["name"]]] += self_s[r["id"]]
        wall = sum(op_seconds)

        def total(name, own=False):
            spans = by_name.get(name, [])
            if not spans:
                return None
            if own:
                return sum(self_s[r["id"]] for r in spans)
            return sum(r["end"] - r["start"] for r in spans)

        def per_op_ms(seconds):
            return None if seconds is None else 1e3 * seconds / n_ops

        rep = self.replays
        coded = [r for r in rep if r["decoded"] and r["codec"] != "raw"]
        decode_s = sum(r["compression.decode"] for r in coded)
        scan_s = sum(r["core.prefilter.scan"] for r in rep)
        m = {
            "storage.read_ms": per_op_ms(total("storage.read")),
            "storage.read_bytes": (sum(r["read_bytes"] for r in rep) / n_ops
                                   if rep else None),
            "storage.put_ms": 1e3 * float(np.mean(put_seconds)) if put_seconds else None,
            "compression.decode_ms": per_op_ms(total("compression.decode")),
            # A raw "decode" is a no-op: it has no throughput to report.
            "compression.decode_mb_s": (sum(r["raw_bytes"] for r in coded) / decode_s / 1e6
                                        if coded and decode_s > 0 else None),
            "memcpy_mb_s": memcpy,
            "core.prefilter.scan_ms": per_op_ms(total("core.prefilter.scan")),
            "core.prefilter.scan_mb_s": (sum(r["raw_bytes"] for r in rep) / scan_s / 1e6
                                         if rep and scan_s > 0 else None),
            "core.prefilter.selected_permille": (
                1e3 * sum(r["selected"] for r in rep) / sum(r["total"] for r in rep)
                if rep else None),
            "core.encoding.encode_ms": per_op_ms(total("core.encoding.encode")),
            "core.encoding.reply_bytes": (float(np.mean([r["reply_bytes"] for r in rep]))
                                          if rep else None),
            "core.encoding.decode_ms": per_op_ms(total("core.encoding.decode")),
            "rpc.call_ms": per_op_ms(total("rpc.call")),
            "rpc.wire_ms": per_op_ms(total("rpc.call", own=True)),
            "rpc.frame_bytes": self.frame_bytes / n_ops,
            "core.postfilter.ms": per_op_ms(total("core.postfilter")),
            "core.postfilter.triangles": (self.postfilter_triangles / n_ops
                                          if "core.postfilter" in by_name else None),
            "core.prefetch.wait_ms": per_op_ms(total("core.prefetch.wait")),
            "core.prefetch.wait_net_ms": per_op_ms(total("core.prefetch.wait", own=True)),
            "render.ms": per_op_ms(total("render")),
            "render.triangles": (self.render_triangles / n_ops
                                 if "render" in by_name else None),
            "render.tris_per_s": (self.render_triangles / total("render")
                                  if "render" in by_name else None),
            "trace.spans": float(len(rows)),
            "trace.overhead_pct": 100.0 * sum(r["bk"] for r in rows) / window_s,
            "trace.p50_ms": 1e3 * quantile(op_seconds, 0.5),
            "trace.ops_per_s": n_ops / window_s,
        }
        for layer in SHARE_LAYERS:
            m[f"{layer}.share_pct"] = (100.0 * layer_self[layer] / wall
                                       if layer in layer_self else None)
        for name in ("rpc.gen_late_ms", "rpc.errors", "rpc.sheds",
                     "storage.cache.selection_hit_ratio",
                     "storage.cache.array_hit_ratio", "storage.cache.coalesced",
                     "storage.cache.evictions", "fail_frac"):
            m[name] = extra.get(name)
        return m


def cache_metrics(before: dict, after: dict) -> dict:
    """Cache counters over the measured window, from two ``stats`` snapshots.

    A disabled cache (absent from the snapshot) reports n/a.
    """
    out = {}
    coalesced = evictions = None
    for cache, metric in (("selection_cache", "storage.cache.selection_hit_ratio"),
                          ("array_cache", "storage.cache.array_hit_ratio")):
        b, a = _cache_info(before, cache), _cache_info(after, cache)
        if a is None:
            out[metric] = None
            continue
        d = {k: a.get(k, 0) - (b or {}).get(k, 0)
             for k in ("hits", "misses", "coalesced", "evictions")}
        lookups = d["hits"] + d["misses"] + d["coalesced"]
        out[metric] = d["hits"] / lookups if lookups else None
        coalesced = (coalesced or 0) + d["coalesced"]
        evictions = (evictions or 0) + d["evictions"]
    out["storage.cache.coalesced"] = coalesced
    out["storage.cache.evictions"] = evictions
    return out


def _cache_info(snapshot: dict, cache: str) -> dict | None:
    """One cache's counters out of a ``stats`` registry snapshot (or None)."""
    return snapshot.get("collected", {}).get(cache)
