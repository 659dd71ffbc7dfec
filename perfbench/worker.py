"""One benchmark process: set up, replay a workload through glrkit.cli.main,
and write what happened to a JSON file for the parent to verify.

Run by ``run.py`` in a fresh interpreter whose environment pins BLAS to one
thread and leaves ``GLRKIT_CONFIG`` unset::

    python3 worker.py --workload NAME --seed N --seconds S --work-dir DIR \
        --spawned-at UNIX_TIME [--trace] [--setup-only]

``--spawned-at`` is the wall-clock time at which the parent started this
process, so the recorded set-up time covers interpreter start, ``import
glrkit`` and building the seeded inputs; the reference computation of
``speed`` then runs for a moment to tell how fast the machine ran.
Everything after set-up runs in this one thread; requests go out one at a
time, each after the previous one returned (a closed loop with a single
client), after one untimed warm-up block.  Each request's record is appended
to ``records.jsonl`` as soon as it returns, so the worker's memory does not
grow with the number of requests it completes.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import speed
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_request(cli, request, attempt, out_dir):
    argv = list(request["argv"])
    out_path = None
    if request.get("out_flag"):
        out_path = str(out_dir / f"{attempt}.csv")
        argv += [request["out_flag"], out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising request is a failed request
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
    return {
        "attempt": attempt,
        "latency_s": latency,
        "rc": rc,
        "error": error,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
        "out_path": out_path,
    }


def _save(sink, rec, block, index):
    rec["block"], rec["index"] = block, index
    sink.write(json.dumps(rec) + "\n")


def _closed_loop(cli, pool, seconds, out_dir, sink):
    """Replay whole blocks until at least ``seconds`` have passed; return the
    elapsed time and the reference timings taken meanwhile.

    The first block runs once untimed and unrecorded beforehand, so lazy
    imports and first-call set-up inside glrkit are not charged to the loop;
    the same requests run again, timed and checked, as the loop's first
    block.  Between requests the reference computation of ``speed`` runs
    whenever ``speed.EVERY_S`` have passed since it last ran, and once after
    the loop; its time is left out of the elapsed time, and each record
    holds the index of the last reference timing taken before it."""
    for index, request in enumerate(pool[0]):
        _run_request(cli, request, f"warmup{index}", out_dir)
    reference_s = []
    last_sample = -math.inf
    paused = 0.0
    attempts = 0
    started = time.perf_counter()
    block = 0
    while True:
        for index, request in enumerate(pool[block % len(pool)]):
            now = time.perf_counter()
            if now - last_sample >= speed.EVERY_S:
                reference_s.append(speed.sample())
                last_sample = time.perf_counter()
                paused += last_sample - now
            rec = _run_request(cli, request, attempts, out_dir)
            rec["speed_index"] = len(reference_s) - 1
            _save(sink, rec, block % len(pool), index)
            attempts += 1
        block += 1
        elapsed = time.perf_counter() - started - paused
        if elapsed >= seconds:
            reference_s.append(speed.sample())
            return elapsed, reference_s


def _fixed_pass(cli, requests, out_dir, first_attempt, sink, tracer=None):
    started = time.perf_counter()
    for j, (block, index, request) in enumerate(requests):
        attempt = first_attempt + j
        if tracer is not None:
            tracer.request = attempt
        _save(sink, _run_request(cli, request, attempt, out_dir), block, index)
    return time.perf_counter() - started


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import glrkit
    from glrkit import cli

    if SRC not in Path(glrkit.__file__).resolve().parents:
        sys.exit(f"glrkit was imported from {glrkit.__file__}, not from {SRC}")

    work = Path(args.work_dir)
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = workloads.build_pool(args.workload, args.seed, in_dir)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s,
              "setup_reference_s": speed.sample_for(speed.SETUP_SAMPLE_S)}
    if args.setup_only:
        print(json.dumps(result))
        return

    with open(work / "records.jsonl", "w", encoding="utf-8") as sink:
        if args.trace:
            import tracing

            flat = [(b, i, r) for b, block in enumerate(pool) for i, r in enumerate(block)]
            count = workloads.TRACE_REQUESTS[args.workload]
            prefix = [flat[j % len(flat)] for j in range(count)]
            plain_wall = _fixed_pass(cli, prefix, out_dir, 0, sink)
            tracer = tracing.Tracer()
            tracer.install()
            traced_wall = _fixed_pass(cli, prefix, out_dir, count, sink, tracer)
            tracer.uninstall()
            tracer.dump(work / "spans.jsonl")
            layers = tracer.metrics()
            layers["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
            result.update(layers=layers, untraced_wall_s=plain_wall,
                          traced_wall_s=traced_wall)
        else:
            wall, reference_s = _closed_loop(cli, pool, args.seconds, out_dir, sink)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(wall_s=wall, peak_rss_mb=peak_rss_mb, reference_s=reference_s)

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "glrkit": glrkit.__version__,
    }
    result["pool"] = pool
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
