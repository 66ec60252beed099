"""perfbench: the repository's end-to-end and per-layer benchmark.

Drives the real program from outside: a ``python -m repro serve``
subprocess over a directory-backed store, with this process as the
client (one connection, plus the prefetch worker or the connection's
reader thread: at most two threads).  Run from the repository root::

    python3 perfbench/run.py --workload load --seed 1 --seconds 25 --trace 0

Workloads (all on the seeded 64^3 asteroid dataset, 9 timesteps; the
seed picks one of four asteroid seeds of equal contour work, see
``harness.DATASETS``):

* ``movie`` -- ``NDPPrefetcher`` sweeps every timestep for v02 and v03 at
  0.1 (LZ4-stored) and each frame is rendered at 640x480; default server.
  A run plays whole sweeps, at least one, each over fresh keys, and
  starts no sweep that would end past ``--seconds``.
* ``load`` -- sequential cold ``ndp_contour`` over stored codec
  {raw, gzip, lz4} x 9 timesteps x 5 values on v02; server started with
  ``--cache-bytes 0 --selection-cache 0`` (the fused streaming path).
* ``serve`` -- open-loop Poisson arrivals, Zipf-skewed reads plus
  byte-identical re-puts (gzip-stored), on a default server over one
  pipelined ``MuxTransport`` connection; then a closed-loop saturation
  phase with the same mix.  Not listed in ``BENCHMARK.json``: its
  millisecond timings move by more than any usable bound from run to run
  on a shared two-CPU host, so it is run by hand for the cache and rpc
  layers' ledger.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median of three
set-ups (store written with ``write_vgf``/``put_object``, server started
until ``health`` answers, one warm-up request); ``ops_per_s`` counts
frames, loads, or saturation-phase reads; ``p50_ms`` is the median
latency (for ``serve`` from each read's scheduled send time; for
``movie`` over the frames after each sweep's first, which also fills the
prefetch pipeline); ``tail_ms`` is p90 for ``load``, p99 of the
open-loop phase for ``serve``, and for ``movie`` (whose sweep has too
few frames for a p90 beyond its one slowest frame) the mean time of the
slower half of those frames.  Quantiles are Harrell-Davis estimates.
``server_rss_mb``/``client_rss_mb`` are peak RSS.  ``serve``'s
``ops_per_s`` is the median one-second count of its saturation phase.
Failures are counted in ``failed``; any wrong output fails the run.

``--trace 1`` prints the per-layer ledger instead (and writes the span log
under ``.perfbench/``); the table it prints spells out n/a where the JSON
line carries 0.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit status is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import OUT, SRC, kill_servers, program_available  # noqa: E402

#: Every end-to-end metric a ``--trace 0`` run emits, with its unit.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("server_rss_mb", "MB"),
    ("client_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["movie", "load", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--frames", type=int, default=0, metavar="N",
                   help="movie only: cap each sweep at its first N frames "
                        "(short smoke profiles)")
    p.add_argument("--corrupt-reply", type=int, default=0, metavar="N",
                   help="flip one byte of the N-th reply (proves the checks "
                        "fail the run)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_available():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = {"movie": workloads.run_movie, "load": workloads.run_load,
           "serve": workloads.run_serve}[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    extra = {"max_frames": args.frames} if args.workload == "movie" else {}
    t0 = time.perf_counter()
    try:
        out = run(args.seed, args.seconds, bool(args.trace), workdir,
                  corrupt_at=args.corrupt_reply, **extra)
    finally:
        kill_servers()
        shutil.rmtree(workdir, ignore_errors=True)
    if out.ledger is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out.ledger.spans.write(spans)
        print(f"span log: {spans}")
    for what in out.mismatches:
        print(f"MISMATCH: {what}")
    if args.trace:
        from ledger import PER_LAYER

        names, values = PER_LAYER, out.layers
        for name, unit in names:
            value = values.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:36s} {shown:>14s} {unit}")
    else:
        names, values = END_TO_END, out.metrics
    correct = not out.mismatches and out.attempted > 0 and all(
        n in values for n, _ in names)
    # n/a (a layer that does no such work here) is 0 in the JSON line;
    # the table above spells it out.
    metrics = {n: {"value": 0.0 if values.get(n) is None else float(values[n]),
                   "unit": u} for n, u in names}
    print(f"{args.workload}: {out.attempted} attempted, {out.failed} failed, "
          f"{time.perf_counter() - t0:.1f}s wall")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
